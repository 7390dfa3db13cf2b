"""Buffered training steps: bit-identity with the allocating formulas,
grouped rough-network rows against the per-row formulas, no state carried
between epochs or trainings, model files that store the layer blocks, and
a bounded allocation peak."""

import tracemalloc

import numpy as np
import pytest

from dgareduce import bpnn, pipeline, rnn
from dgareduce.bpnn import MlpConfig
from dgareduce.dataset import Discretizer, Table, standardize, synth_generate, write_model
from dgareduce.rnn import IntervalTable, RnnModel


# -- reference: the allocating formulas the buffered steps must reproduce ----
# Every array is feature-major, one unit per row and one data row per column;
# a layer is one (out, in + 1) block [W | b] against its input with a last
# row of ones.


def _ref_logsig(n):
    e = np.exp(-np.abs(n))
    return np.where(n >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _with_ones(a):
    """`a` with a last row of ones, C-ordered like the buffers: a gemm's
    rounding depends on whether an operand is transposed."""
    out = np.ones((a.shape[0] + 1, a.shape[1]))
    out[:-1] = a
    return out


def _ref_forward(layers, x):
    acts = [x]
    for i, layer in enumerate(layers):
        z = layer @ _with_ones(acts[-1])
        acts.append(_ref_logsig(z) if i == len(layers) - 1 else np.tanh(z))
    return acts


def _ref_batch_gradients(layers, x, targets):
    acts = _ref_forward(layers, x)
    out = acts[-1][0]
    err = float(np.mean((out - targets) ** 2))
    n = x.shape[1]
    delta = (2.0 / n) * (out - targets)[None, :] * (acts[-1] * (1.0 - acts[-1]))
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = delta @ _with_ones(acts[i]).T
        if i > 0:
            delta = (layers[i][:, :-1].T @ delta) * (1.0 - acts[i] ** 2)
    return err, grads


def _ref_rough_inputs(connection, xl, xu):
    """Each channel's rough-layer input: its own bound, the other one
    negated, or both, then a row of ones."""
    same, other = (xl.T, xu.T), (xu.T, xl.T)
    if connection == "excitatory":
        return [_with_ones(s) for s in same]
    if connection == "inhibitory":
        return [_with_ones(-o) for o in other]
    return [_with_ones(np.vstack((s, o))) for s, o in zip(same, other)]


def _ref_rnn_forward(model, xl, xu):
    inputs = _ref_rough_inputs(model.connection, xl, xu)
    gl, gu = (np.tanh(model.rough[c] @ inputs[c]) for c in (0, 1))
    a_low = [np.minimum(gl, gu)]
    a_up = [np.maximum(gl, gu)]
    last = len(model.shared) - 1
    for i, layer in enumerate(model.shared):
        if i == last:
            z_low_out = layer @ _with_ones(a_low[-1])
            z_up_out = layer @ _with_ones(a_up[-1])
        else:
            a_low.append(np.tanh(layer @ _with_ones(a_low[-1])))
            a_up.append(np.tanh(layer @ _with_ones(a_up[-1])))
    out = _ref_logsig(0.5 * (z_low_out + z_up_out))[0]
    return out, gl, gu, a_low, a_up


def _ref_rnn_gradients(model, xl, xu, targets):
    """The error and each block's packed gradient: the rough block's, then
    the shared stack's."""
    out, gl, gu, a_low, a_up = _ref_rnn_forward(model, xl, xu)
    err = float(np.mean((out - targets) ** 2))
    n = xl.shape[0]
    out2 = out[None, :]
    delta_out = (2.0 / n) * (out - targets)[None, :] * (out2 * (1.0 - out2))
    d_low = 0.5 * delta_out
    d_up = 0.5 * delta_out
    grads = [None] * (len(model.shared) + 1)
    for i in range(len(model.shared) - 1, -1, -1):
        layer = model.shared[i]
        if i < len(model.shared) - 1:
            d_low = d_low * (1.0 - a_low[i + 1] ** 2)
            d_up = d_up * (1.0 - a_up[i + 1] ** 2)
        grads[i + 1] = d_low @ _with_ones(a_low[i]).T + d_up @ _with_ones(a_up[i]).T
        d_low = layer[:, :-1].T @ d_low
        d_up = layer[:, :-1].T @ d_up
    up_gt = gu > gl
    lo_gt = gl > gu
    tie = ~(up_gt | lo_gt)
    d_gu = d_up * (up_gt | tie) + d_low * (lo_gt | tie)
    d_gl = d_up * (lo_gt | tie) + d_low * (up_gt | tie)
    d_zu = d_gu * (1.0 - gu**2)
    d_zl = d_gl * (1.0 - gl**2)
    inputs = _ref_rough_inputs(model.connection, xl, xu)
    grads[0] = np.stack((d_zl @ inputs[0].T, d_zu @ inputs[1].T))
    return err, grads


# -- fixtures ----------------------------------------------------------------


def _rnn_model(rng, width, hidden, connection):
    """Equal channel weights, so degenerate rows tie exactly in the rough layer."""
    first, *shared = bpnn.init_layers(width, hidden, rng)
    if connection == "full":  # [W | C | b]
        cross = rng.normal(scale=0.3, size=(hidden[0], width))
        first = np.concatenate((first[:, :-1], cross, first[:, -1:]), axis=1)
    return RnnModel(
        rough=np.stack((first, first)),
        shared=shared,
        input_width=width,
        hidden=hidden,
        connection=connection,
        trace=bpnn.TrainingTrace(stop_reason="t"),
    )


def _intervals_with_ties(rng, n, width):
    """Interval rows whose first third is exactly degenerate (xl == xu), so
    the rough layer's channels tie there."""
    mid = rng.normal(size=(n, width))
    spread = np.abs(rng.normal(scale=0.3, size=(n, width)))
    spread[: n // 3] = 0.0
    return mid - spread, mid + spread


def _net_data(n=160, width=10, seed=7):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, width))
    decisions = (values[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
    names = tuple(f"g{i}" for i in range(width))
    return Table(values, decisions, names)


def _interval_data(n=160, width=10, seed=7):
    table = _net_data(n, width, seed)
    lower, upper = _intervals_with_ties(np.random.default_rng(seed + 1), n, width)
    return IntervalTable(lower, upper, table.decisions, table.attributes)


def _blocks(model):
    """Every layer block of a bpnn or rnn model, the rough block first."""
    return model.layers if isinstance(model, bpnn.MlpModel) else [model.rough, *model.shared]


# -- bit identity ------------------------------------------------------------


class TestBitIdentity:
    def test_bpnn_step_matches_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 10)).T
        d = rng.integers(0, 2, 120).astype(float)
        layers = bpnn.init_layers(10, (20, 30), rng)
        rows = bpnn.LayerBuffers(x, layers, backward=True)
        for _ in range(3):  # a reused buffer gives the same answer again
            err, grads = bpnn.batch_gradients(layers, rows, d)
            ref_err, ref_grads = _ref_batch_gradients(layers, x, d)
            assert err == ref_err
            for got, want in zip(grads, ref_grads, strict=True):
                assert np.array_equal(got, want)
        val = bpnn.LayerBuffers(x[:, :40], layers)
        assert bpnn._mse(layers, val, d[:40]) == _ref_batch_gradients(
            layers, x[:, :40], d[:40]
        )[0]

    def test_two_equal_channels_match_one_channel(self):
        """Each channel takes half the output delta and the gradients add the
        two halves back, both exactly, so two channels that both hold `x`
        give the one-channel error and gradients bit for bit."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 10)).T
        d = rng.integers(0, 2, 120).astype(float)
        layers = bpnn.init_layers(10, (20, 30), rng)
        one = bpnn.LayerBuffers(x, layers, backward=True)
        two = bpnn.LayerBuffers(np.stack([x, x]), layers, backward=True)
        err, grads = bpnn.batch_gradients(layers, one, d)
        err2, grads2 = bpnn.batch_gradients(layers, two, d)
        assert err2 == err
        for got, want in zip(grads2, grads, strict=True):
            assert np.array_equal(got, want)
        val = bpnn.LayerBuffers(np.stack([x[:, :40], x[:, :40]]), layers)
        assert bpnn._mse(layers, val, d[:40]) == bpnn._mse(
            layers, bpnn.LayerBuffers(x[:, :40], layers), d[:40]
        )

    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_rnn_step_matches_reference_with_ties(self, connection):
        rng = np.random.default_rng(11)
        xl, xu = _intervals_with_ties(rng, 120, 10)
        d = rng.integers(0, 2, 120).astype(float)
        model = _rnn_model(rng, 10, (20, 30), connection)
        ref_out, ref_gl, ref_gu, _, _ = _ref_rnn_forward(model, xl, xu)
        assert np.any(ref_gl == ref_gu) and np.any(ref_gl != ref_gu)
        rows = rnn.RoughBuffers(model, xl, xu, d, backward=True)
        for _ in range(3):
            err, grads = rnn._gradients(model, rows)
            ref_err, ref_grads = _ref_rnn_gradients(model, xl, xu, d)
            assert err == ref_err
            for got, want in zip(grads, ref_grads, strict=True):
                assert np.array_equal(got, want)
        val = rnn.RoughBuffers(model, xl[:40], xu[:40], d[:40])
        want = float(np.mean((ref_out[:40] - d[:40]) ** 2))
        assert rnn._error(model, val) == want


class TestGroupedRows:
    """Rows with bitwise-equal (lower, upper) inputs share one buffer row,
    weighted by their count; the result matches the per-row formulas."""

    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_duplicate_rows_match_reference(self, connection):
        rng = np.random.default_rng(23)
        patterns = 7
        lower, upper = _intervals_with_ties(rng, patterns, 10)
        picks = rng.permutation(np.r_[np.arange(patterns), rng.integers(0, patterns, 113)])
        xl, xu = lower[picks], upper[picks]
        d = rng.integers(0, 2, picks.shape[0]).astype(float)
        model = _rnn_model(rng, 10, (20, 30), connection)
        ref_out, ref_gl, ref_gu, _, _ = _ref_rnn_forward(model, xl, xu)
        assert np.any(ref_gl == ref_gu) and np.any(ref_gl != ref_gu)
        rows = rnn.RoughBuffers(model, xl, xu, d, backward=True)
        assert rows.n == 120 and rows.x.shape[2] == rows.nets.shape[2] == patterns
        for _ in range(2):
            err, grads = rnn._gradients(model, rows)
            ref_err, ref_grads = _ref_rnn_gradients(model, xl, xu, d)
            assert err == pytest.approx(ref_err, rel=1e-12, abs=0)
            assert len(grads) == len(ref_grads)
            # relative to each array's largest entry: an entry that sums rows
            # of both signs can be far smaller than its rounding in either order
            for block, (got, want) in enumerate(zip(grads, ref_grads)):
                scale = 1e-12 * np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=scale, err_msg=str(block))
        val = rnn.RoughBuffers(model, xl[:40], xu[:40], d[:40])
        want = float(np.mean((ref_out[:40] - d[:40]) ** 2))
        assert rnn._error(model, val) == pytest.approx(want, rel=1e-12, abs=0)

    def test_one_gas_fold_holds_at_most_four_rows(self):
        gas = synth_generate(1600, 0.5, 0.25, seed=0)
        reducer = pipeline.fit_reducer(gas, "rs", pipeline.ExperimentConfig(), seed=0)
        one_gas = reducer.transform(gas)
        assert one_gas.n_attributes == 1
        std, _ = standardize(one_gas)
        cats = Discretizer.fit(one_gas).apply(one_gas)
        iv = rnn.Intervalizer.fit(cats, std).apply(cats, std)
        model = _rnn_model(np.random.default_rng(0), 1, (20, 30), "full")
        rows = rnn.RoughBuffers(model, iv.lower, iv.upper, backward=True)
        assert rows.n == 1600 and rows.counts.sum() == 1600
        assert rows.x.shape[2] == rows.nets.shape[2] == rows.stack.input_delta.shape[2] <= 4


class TestRepeatTraining:
    """Two back-to-back trainings of one config end equal: buffer reuse
    carries no state between epochs or between trainings."""

    @staticmethod
    def _assert_same(first, second):
        assert first.trace.train_errors == second.trace.train_errors
        assert first.trace.val_errors == second.trace.val_errors
        assert first.trace.best_epoch == second.trace.best_epoch
        assert first.trace.stop_reason == second.trace.stop_reason
        for i, (p, q) in enumerate(zip(_blocks(first), _blocks(second), strict=True)):
            assert np.array_equal(p, q), i

    EARLY_STOP = MlpConfig(
        epochs=400, learning_rate=0.9, hidden=(20, 30), goal=1e-12,
        ratios=(0.5, 0.5), max_fail=3,
    )
    NO_VALIDATION = MlpConfig(
        epochs=30, hidden=(20, 30), ratios=(1.0, 0.0),
    )
    RUNS = [(EARLY_STOP, 2), (NO_VALIDATION, 4)]

    @pytest.mark.parametrize("cfg, seed", RUNS, ids=["early-stop", "no-val"])
    def test_bpnn(self, cfg, seed):
        table = _net_data()
        first, second = bpnn.train(table, cfg, seed), bpnn.train(table, cfg, seed)
        self._assert_same(first, second)
        expected = "early-stop" if cfg is self.EARLY_STOP else "epochs"
        assert first.trace.stop_reason == expected

    @pytest.mark.parametrize("cfg, seed", RUNS, ids=["early-stop", "no-val"])
    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_rnn(self, cfg, seed, connection):
        table = _interval_data()
        first = rnn.train(table, cfg, seed, connection)
        second = rnn.train(table, cfg, seed, connection)
        self._assert_same(first, second)
        expected = "early-stop" if cfg is self.EARLY_STOP else "epochs"
        assert first.trace.stop_reason == expected


# -- model files -------------------------------------------------------------


class TestModelFileFormat:
    """Model files keep each layer block whole: `layer<i>` (out, in + 1)
    for the stack, and for rnn `rough` (2, h1, width + 1), or
    (2, h1, 2 * width + 1) with the full connection.  A file written from
    such arrays, drawn here on their own, loads to the scores of the
    reference forward pass."""

    STACK = {"layer1": (30, 21), "layer2": (1, 31)}

    def test_bpnn_file(self, tmp_path):
        rng = np.random.default_rng(31)
        layers = {"layer0": rng.normal(scale=0.3, size=(20, 11))}
        layers.update((key, rng.normal(scale=0.3, size=shape)) for key, shape in self.STACK.items())
        path = tmp_path / "bpnn.txt"
        write_model(path, "bpnn", {"input_width": 10, "hidden": (20, 30), **layers})
        assert "layer0.shape = 20,11" in path.read_text().splitlines()
        x = rng.normal(size=(50, 10))
        want = _ref_forward(list(layers.values()), x.T)[-1][0]
        assert np.array_equal(bpnn.scores(bpnn.load_model(path), x), want)

    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_rnn_file(self, tmp_path, connection):
        rng = np.random.default_rng(37)
        columns = 21 if connection == "full" else 11
        rough = rng.normal(scale=0.3, size=(2, 20, columns))
        shared = {key: rng.normal(scale=0.3, size=shape) for key, shape in self.STACK.items()}
        fields = {"input_width": 10, "hidden": (20, 30), "connection": connection, "rough": rough}
        path = tmp_path / "rnn.txt"
        write_model(path, "rnn", {**fields, **shared})
        assert f"rough.shape = 2,20,{columns}" in path.read_text().splitlines()
        lower, upper = _intervals_with_ties(rng, 50, 10)
        reference = RnnModel(
            rough=rough,
            shared=list(shared.values()),
            input_width=10,
            hidden=(20, 30),
            connection=connection,
            trace=bpnn.TrainingTrace(stop_reason="t"),
        )
        want = _ref_rnn_forward(reference, lower, upper)[0]
        table = IntervalTable(lower, upper, np.zeros(50, dtype=int), tuple(f"g{i}" for i in range(10)))
        assert np.array_equal(rnn.scores(rnn.load_model(path), table), want)


# -- allocation --------------------------------------------------------------

ALLOCATION_LIMIT = 256 * 1024
CAST_LIMIT = 16 * 1024
README_CFG = MlpConfig(epochs=1, hidden=(20, 30), ratios=(0.7, 0.15))


def _descent_closures(module, monkeypatch, *args):
    """The `gradients` / `val_error` closures that `train` hands to `descend`."""
    captured = {}

    def capture(params, gradients, val_error, cfg, trace):
        captured.update(gradients=gradients, val_error=val_error)

    monkeypatch.setattr(module, "descend", capture)
    module.train(*args)
    return captured["gradients"], captured["val_error"]


def _step_peak(gradients, val_error) -> int:
    gradients()
    val_error()
    tracemalloc.start()
    try:
        gradients()
        val_error()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocation:
    """At 1,600 rows (1,318 train, 282 validation), width 10 and hidden
    (20, 30), one warmed-up gradient step plus one validation error peaks
    below 256 KB of fresh memory: less than one 1,318 x 30 float64
    activation (316 KB), so no row-sized array is allocated per epoch."""

    def test_bpnn_step_peak(self, monkeypatch):
        table = _net_data(n=1600)
        closures = _descent_closures(bpnn, monkeypatch, table, README_CFG, 0)
        assert _step_peak(*closures) < ALLOCATION_LIMIT

    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_rnn_step_peak(self, monkeypatch, connection):
        table = _interval_data(n=1600)
        closures = _descent_closures(rnn, monkeypatch, table, README_CFG, 0, connection)
        assert _step_peak(*closures) < ALLOCATION_LIMIT

    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_rnn_step_casts_no_tie_mask(self, monkeypatch, connection):
        """The tie masks multiply the deltas as float64, so no product casts
        bool to float64 through a 64 KB buffer (the casting step peaked at
        67 KB, the float64 masks at under 2 KB)."""
        table = _interval_data(n=1600)
        closures = _descent_closures(rnn, monkeypatch, table, README_CFG, 0, connection)
        assert _step_peak(*closures) < CAST_LIMIT
