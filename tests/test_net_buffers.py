"""Buffered training steps: bit-identity with the allocating formulas,
grouped rough-network rows against the per-row formulas, no state carried
between epochs or trainings, and a bounded allocation peak."""

import tracemalloc

import numpy as np
import pytest

from dgareduce import bpnn, pipeline, rnn
from dgareduce.bpnn import MlpConfig
from dgareduce.dataset import Discretizer, Table, standardize, synth_generate
from dgareduce.rnn import IntervalTable, RnnModel


# -- reference: the allocating formulas the buffered steps must reproduce ----


def _ref_logsig(n):
    e = np.exp(-np.abs(n))
    return np.where(n >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _ref_forward(weights, biases, x):
    acts = [x]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        acts.append(_ref_logsig(z) if layer == len(weights) - 1 else np.tanh(z))
    return acts


def _ref_batch_gradients(weights, biases, x, targets):
    acts = _ref_forward(weights, biases, x)
    out = acts[-1][:, 0]
    err = float(np.mean((out - targets) ** 2))
    n = x.shape[0]
    delta = (2.0 / n) * (out - targets)[:, None] * (acts[-1] * (1.0 - acts[-1]))
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ acts[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer]) * (1.0 - acts[layer] ** 2)
    return err, grads_w, grads_b


def _ref_rough_nets(model, xl, xu):
    (lower_w, upper_w), (lower_b, upper_b) = model.rough_w, model.rough_b
    if model.connection == "excitatory":
        zl = xl @ lower_w.T + lower_b
        zu = xu @ upper_w.T + upper_b
    elif model.connection == "inhibitory":
        zl = -(xu @ lower_w.T) + lower_b
        zu = -(xl @ upper_w.T) + upper_b
    else:
        lower_cross, upper_cross = model.rough_cross
        zl = xl @ lower_w.T + xu @ lower_cross.T + lower_b
        zu = xu @ upper_w.T + xl @ upper_cross.T + upper_b
    return zl, zu


def _ref_rnn_forward(model, xl, xu):
    zl, zu = _ref_rough_nets(model, xl, xu)
    gl, gu = np.tanh(zl), np.tanh(zu)
    a_low = [np.minimum(gl, gu)]
    a_up = [np.maximum(gl, gu)]
    last = len(model.shared_weights) - 1
    for layer, (w, b) in enumerate(zip(model.shared_weights, model.shared_biases)):
        if layer == last:
            z_low_out = a_low[-1] @ w.T + b
            z_up_out = a_up[-1] @ w.T + b
        else:
            a_low.append(np.tanh(a_low[-1] @ w.T + b))
            a_up.append(np.tanh(a_up[-1] @ w.T + b))
    out = _ref_logsig(0.5 * (z_low_out + z_up_out))[:, 0]
    return out, gl, gu, a_low, a_up


def _ref_rnn_gradients(model, xl, xu, targets):
    out, gl, gu, a_low, a_up = _ref_rnn_forward(model, xl, xu)
    err = float(np.mean((out - targets) ** 2))
    n = xl.shape[0]
    out2 = out[:, None]
    delta_out = (2.0 / n) * (out - targets)[:, None] * (out2 * (1.0 - out2))
    d_low = 0.5 * delta_out
    d_up = 0.5 * delta_out
    grads = {}
    for layer in range(len(model.shared_weights) - 1, -1, -1):
        w = model.shared_weights[layer]
        if layer < len(model.shared_weights) - 1:
            d_low = d_low * (1.0 - a_low[layer + 1] ** 2)
            d_up = d_up * (1.0 - a_up[layer + 1] ** 2)
        grads[f"w{layer + 1}"] = d_low.T @ a_low[layer] + d_up.T @ a_up[layer]
        grads[f"b{layer + 1}"] = (d_low + d_up).sum(axis=0)
        d_low = d_low @ w
        d_up = d_up @ w
    up_gt = gu > gl
    lo_gt = gl > gu
    tie = ~(up_gt | lo_gt)
    d_gu = d_up * (up_gt | tie) + d_low * (lo_gt | tie)
    d_gl = d_up * (lo_gt | tie) + d_low * (up_gt | tie)
    d_zu = d_gu * (1.0 - gu**2)
    d_zl = d_gl * (1.0 - gl**2)
    if model.connection == "inhibitory":
        grads["rough_w"] = np.stack((-(d_zl.T @ xu), -(d_zu.T @ xl)))
    else:
        grads["rough_w"] = np.stack((d_zl.T @ xl, d_zu.T @ xu))
    grads["rough_b"] = np.stack((d_zl.sum(axis=0), d_zu.sum(axis=0)))
    if model.connection == "full":
        grads["rough_cross"] = np.stack((d_zl.T @ xu, d_zu.T @ xl))
    return err, grads


# -- fixtures ----------------------------------------------------------------


def _rnn_model(rng, width, hidden, connection):
    """Equal channel weights, so degenerate rows tie exactly in the rough layer."""
    sizes = (width,) + hidden + (1,)
    weights, biases = bpnn.init_layers(sizes, rng)
    cross = rng.normal(scale=0.3, size=weights[0].shape) if connection == "full" else None
    return RnnModel(
        rough_w=np.stack((weights[0], weights[0])),
        rough_b=np.stack((biases[0], biases[0])),
        rough_cross=None if cross is None else np.stack((cross, cross)),
        shared_weights=weights[1:],
        shared_biases=biases[1:],
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


# -- bit identity ------------------------------------------------------------


class TestBitIdentity:
    def test_bpnn_step_matches_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 10))
        d = rng.integers(0, 2, 120).astype(float)
        weights, biases = bpnn.init_layers((10, 20, 30, 1), rng)
        rows = bpnn.LayerBuffers(x, weights, backward=True)
        for _ in range(3):  # a reused buffer gives the same answer again
            err, grads_w, grads_b = bpnn.batch_gradients(weights, biases, rows, d)
            ref_err, ref_w, ref_b = _ref_batch_gradients(weights, biases, x, d)
            assert err == ref_err
            for got, want in zip(grads_w + grads_b, ref_w + ref_b):
                assert np.array_equal(got, want)
        val = bpnn.LayerBuffers(x[:40], weights)
        assert bpnn._mse(weights, biases, val, d[:40]) == _ref_batch_gradients(
            weights, biases, x[:40], d[:40]
        )[0]

    def test_two_equal_channels_match_one_channel(self):
        """Each channel takes half the output delta and the gradients add the
        two halves back, both exactly, so two channels that both hold `x`
        give the one-channel error and gradients bit for bit."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 10))
        d = rng.integers(0, 2, 120).astype(float)
        weights, biases = bpnn.init_layers((10, 20, 30, 1), rng)
        one = bpnn.LayerBuffers(x, weights, backward=True)
        two = bpnn.LayerBuffers(np.stack([x, x]), weights, backward=True)
        err, grads_w, grads_b = bpnn.batch_gradients(weights, biases, one, d)
        err2, grads_w2, grads_b2 = bpnn.batch_gradients(weights, biases, two, d)
        assert err2 == err
        for got, want in zip(grads_w2 + grads_b2, grads_w + grads_b, strict=True):
            assert np.array_equal(got, want)
        val = bpnn.LayerBuffers(np.stack([x[:40], x[:40]]), weights)
        assert bpnn._mse(weights, biases, val, d[:40]) == bpnn._mse(
            weights, biases, bpnn.LayerBuffers(x[:40], weights), d[:40]
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
            assert grads.keys() == ref_grads.keys() == model.params.keys()
            for name, want in ref_grads.items():
                assert np.array_equal(grads[name], want), name
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
        assert rows.n == 120 and rows.x.shape[1] == rows.nets.shape[1] == patterns
        for _ in range(2):
            err, grads = rnn._gradients(model, rows)
            ref_err, ref_grads = _ref_rnn_gradients(model, xl, xu, d)
            assert err == pytest.approx(ref_err, rel=1e-12, abs=0)
            assert grads.keys() == ref_grads.keys()
            # relative to each array's largest entry: an entry that sums rows
            # of both signs can be far smaller than its rounding in either order
            for name, want in ref_grads.items():
                scale = 1e-12 * np.abs(want).max()
                np.testing.assert_allclose(grads[name], want, rtol=1e-12, atol=scale, err_msg=name)
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
        assert rows.x.shape[1] == rows.nets.shape[1] == rows.stack.input_delta.shape[1] <= 4


class TestRepeatTraining:
    """Two back-to-back trainings of one config end equal: buffer reuse
    carries no state between epochs or between trainings."""

    @staticmethod
    def _assert_same(first, second):
        assert first.trace.train_errors == second.trace.train_errors
        assert first.trace.val_errors == second.trace.val_errors
        assert first.trace.best_epoch == second.trace.best_epoch
        assert first.trace.stop_reason == second.trace.stop_reason
        for name, p in first.params.items():
            assert np.array_equal(p, second.params[name]), name

    EARLY_STOP = MlpConfig(
        epochs=400, learning_rate=0.9, hidden=(20, 30), goal=1e-12,
        ratios=(0.5, 0.5, 0.0), max_fail=3, seed=2,
    )
    NO_VALIDATION = MlpConfig(
        epochs=30, hidden=(20, 30), ratios=(1.0, 0.0, 0.0), seed=4,
    )

    @pytest.mark.parametrize("cfg", [EARLY_STOP, NO_VALIDATION], ids=["early-stop", "no-val"])
    def test_bpnn(self, cfg):
        table = _net_data()
        first, second = bpnn.train(table, cfg), bpnn.train(table, cfg)
        self._assert_same(first, second)
        expected = "early-stop" if cfg is self.EARLY_STOP else "epochs"
        assert first.trace.stop_reason == expected

    @pytest.mark.parametrize("cfg", [EARLY_STOP, NO_VALIDATION], ids=["early-stop", "no-val"])
    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_rnn(self, cfg, connection):
        table = _interval_data()
        first = rnn.train(table, cfg, connection)
        second = rnn.train(table, cfg, connection)
        self._assert_same(first, second)
        expected = "early-stop" if cfg is self.EARLY_STOP else "epochs"
        assert first.trace.stop_reason == expected


# -- allocation --------------------------------------------------------------

ALLOCATION_LIMIT = 256 * 1024
README_CFG = MlpConfig(epochs=1, hidden=(20, 30), ratios=(0.7, 0.15, 0.15), seed=0)


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
    """At 1,600 rows (1,120 train, 240 validation), width 10 and hidden
    (20, 30), one warmed-up gradient step plus one validation error peaks
    below 256 KB of fresh memory: less than one 1,120 x 30 float64
    activation (269 KB), so no row-sized array is allocated per epoch."""

    def test_bpnn_step_peak(self, monkeypatch):
        table = _net_data(n=1600)
        closures = _descent_closures(bpnn, monkeypatch, table, README_CFG)
        assert _step_peak(*closures) < ALLOCATION_LIMIT

    @pytest.mark.parametrize("connection", rnn.CONNECTIONS)
    def test_rnn_step_peak(self, monkeypatch, connection):
        table = _interval_data(n=1600)
        closures = _descent_closures(rnn, monkeypatch, table, README_CFG, connection)
        assert _step_peak(*closures) < ALLOCATION_LIMIT
