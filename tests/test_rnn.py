"""Interval construction, rough neuron ordering, channel forward/backward,
training equivalences and the no-uncertainty path."""

import numpy as np
import pytest

from dgareduce import bpnn, rnn
from dgareduce.bpnn import MlpConfig
from dgareduce.dataset import CategoricalTable, Table, discretize, standardize
from dgareduce.errors import (
    NoUncertaintyWarning,
    ParameterError,
    ShapeError,
    ValidationError,
)
from dgareduce.rnn import IntervalTable, Intervalizer, RnnModel

from conftest import make_categorical, make_table


def _aligned_pair(rng, n=20, m=3):
    values = rng.normal(size=(n, m))
    decisions = rng.integers(0, 2, n)
    names = tuple(f"a{i + 1}" for i in range(m))
    std = Table(values, decisions, names)
    cats = CategoricalTable(rng.integers(1, 4, size=(n, m)), decisions, names)
    return cats, std


def _one_row(lower, upper) -> IntervalTable:
    names = tuple(f"a{i + 1}" for i in range(len(lower)))
    return IntervalTable([lower], [upper], [0], names)


def _degenerate(table: Table) -> IntervalTable:
    return IntervalTable(table.values, table.values, table.decisions, table.attributes)


def _model_from_mlp(mlp: bpnn.MlpModel, connection="excitatory") -> RnnModel:
    return RnnModel(
        rough=rnn.pack_rough(
            np.stack((mlp.weights[0], mlp.weights[0])), np.stack((mlp.biases[0], mlp.biases[0]))
        ),
        shared=[layer.copy() for layer in mlp.layers[1:]],
        input_width=mlp.input_width,
        hidden=mlp.hidden,
        connection=connection,
        trace=bpnn.TrainingTrace(stop_reason="test"),
    )


def _random_mlp(rng, width=3, hidden=(4, 3)):
    sizes = (width,) + hidden + (1,)
    weights, biases = bpnn.init_layers(sizes, rng)
    return bpnn.MlpModel(
        bpnn.pack(weights, biases), width, hidden, bpnn.TrainingTrace(stop_reason="t")
    )


def _channel_outputs(model: RnnModel, xl, xu):
    """The rough first layer's tanh outputs (gl, gu) of a forward pass."""
    rows = rnn.RoughBuffers(model, xl, xu)
    rnn._forward(model, rows)
    return rows.nets


class TestIntervalize:
    def test_constant_cell_degenerate(self):
        cats = make_categorical([[1, 1, 2]], [0, 1, 0])
        std = make_table([[0.5], [0.5], [2.0]], [0, 1, 0])
        table = Intervalizer.fit(cats, std).apply(cats, std)
        assert table.lower[0, 0] == table.upper[0, 0] == 0.5

    def test_cell_extrema_shared_by_members(self):
        cats = make_categorical([[1, 1, 1]], [0, 1, 0])
        std = make_table([[-1.0], [0.0], [2.0]], [0, 1, 0])
        table = Intervalizer.fit(cats, std).apply(cats, std)
        for i in range(3):
            assert (table.lower[i, 0], table.upper[i, 0]) == (-1.0, 2.0)

    def test_refining_cells_never_widens(self, rng):
        for _ in range(10):
            n = 30
            values = rng.normal(size=(n, 1))
            decisions = rng.integers(0, 2, n)
            std = Table(values, decisions, ("a1",))
            coarse_cats = CategoricalTable(
                1 + (values > 0).astype(int), decisions, ("a1",)
            )
            # every fine cell nests inside one coarse cell (both cut at 0)
            fine_cats = CategoricalTable(
                1 + (values > -1).astype(int) + (values > 0).astype(int) + (values > 1).astype(int),
                decisions,
                ("a1",),
            )
            coarse = Intervalizer.fit(coarse_cats, std).apply(coarse_cats, std)
            fine = Intervalizer.fit(fine_cats, std).apply(fine_cats, std)
            assert np.all(fine.lower >= coarse.lower - 1e-12)
            assert np.all(fine.upper <= coarse.upper + 1e-12)

    def test_misaligned_rejected(self, rng):
        cats, std = _aligned_pair(rng)
        with pytest.raises(ShapeError):
            Intervalizer.fit(cats, std.take(np.arange(5)))

    def test_unseen_category_degenerates(self, rng):
        cats, std = _aligned_pair(rng)
        fitted = Intervalizer.fit(cats, std)
        probe_cats = CategoricalTable(
            np.full((2, cats.n_attributes), 4), [0, 1], cats.attributes
        )
        probe_std = Table(np.full((2, cats.n_attributes), 9.9), [0, 1], cats.attributes)
        unseen = np.isnan(fitted.lower[:, 4])
        out = fitted.apply(probe_cats, probe_std)
        assert np.all(out.lower[:, unseen] == out.upper[:, unseen])

    def test_lookup_matches_loop_reference(self, rng):
        """The (width, 5) span lookup selects exactly what a per-(attribute,
        category) mask loop selects, unseen categories included."""

        def loop_apply(fit_cats, fit_std, cats, std):
            lower, upper = std.values.copy(), std.values.copy()
            for j in range(std.n_attributes):
                for value in np.unique(cats.values[:, j]):
                    cell = fit_std.values[fit_cats.values[:, j] == value, j]
                    if cell.size:
                        mask = cats.values[:, j] == value
                        lower[mask, j], upper[mask, j] = cell.min(), cell.max()
            return lower, upper

        for _ in range(20):
            cats, std = _aligned_pair(rng, n=int(rng.integers(1, 60)), m=int(rng.integers(1, 6)))
            probe_cats, probe_std = _aligned_pair(rng, n=30, m=cats.n_attributes)
            probe_cats = CategoricalTable(
                rng.integers(1, 5, size=probe_cats.values.shape), probe_cats.decisions, cats.attributes
            )
            fitted = Intervalizer.fit(cats, std)
            for c, s in ((cats, std), (probe_cats, probe_std)):
                out = fitted.apply(c, s)
                lower, upper = loop_apply(cats, std, c, s)
                assert np.array_equal(out.lower, lower) and np.array_equal(out.upper, upper)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValidationError):
            IntervalTable([[1.0]], [[0.0]], [1], ("a1",))


class TestRoughNeuronOutput:
    """The (lower, upper) outputs of the rough first layer, the two channels
    of the stack input a forward pass writes, on a one-unit layer whose nets
    are the inputs times `weight`."""

    @staticmethod
    def _first_layer(net_lower, net_upper, weight=1.0):
        mlp = bpnn.MlpModel(
            bpnn.pack([np.array([[weight]]), np.array([[1.0]])], [np.zeros(1), np.zeros(1)]),
            1,
            (1,),
            bpnn.TrainingTrace(stop_reason="t"),
        )
        xl = np.asarray(net_lower, dtype=float).reshape(-1, 1)
        xu = np.asarray(net_upper, dtype=float).reshape(-1, 1)
        model = _model_from_mlp(mlp)
        rows = rnn.RoughBuffers(model, xl, xu)
        rnn._forward(model, rows)
        low, up = rows.stack.acts[0][:, :-1]
        return low[0], up[0]

    def test_degenerate_zero(self):
        lo, hi = self._first_layer([0.0], [0.0])
        assert (lo[0], hi[0]) == (0.0, 0.0)

    def test_hand_pair(self):
        lo, hi = self._first_layer([-1.0], [1.0])
        assert lo[0] == pytest.approx(-0.761594, abs=1e-6)
        assert hi[0] == pytest.approx(0.761594, abs=1e-6)

    def test_swap_invariant(self, rng):
        a, b = rng.normal(size=(2, 20))
        np.testing.assert_array_equal(self._first_layer(a, b), self._first_layer(b, a))

    def test_ordering_always(self, rng):
        a, b = rng.normal(scale=3, size=(2, 200))
        for weight in (1.0, -1.3):  # a negative weight inverts the input order
            lo, hi = self._first_layer(a, b, weight)
            assert (hi >= lo).all()


class TestForward:
    def test_degenerate_equals_point_network(self, rng):
        mlp = _random_mlp(rng)
        model = _model_from_mlp(mlp)
        x = rng.normal(size=3)
        rough = rnn.scores(model, _one_row(x, x.copy()))
        assert np.array_equal(rough, bpnn.scores(mlp, x[None, :]))

    def test_channel_outputs_ordered_per_unit(self, rng):
        mlp = _random_mlp(rng, width=4, hidden=(6,))
        model = _model_from_mlp(mlp)
        for _ in range(100):
            mid = rng.normal(size=4)
            spread = np.abs(rng.normal(size=4))
            xl, xu = (mid - spread)[None, :], (mid + spread)[None, :]
            gl, gu = _channel_outputs(model, xl, xu)
            assert np.all(np.maximum(gl, gu) >= np.minimum(gl, gu))

    def test_widening_grows_spread_on_1_1_1(self):
        for w in (0.8, -1.3):
            mlp = bpnn.MlpModel(
                bpnn.pack([np.array([[w]]), np.array([[1.0]])], [np.zeros(1), np.zeros(1)]),
                1,
                (1,),
                bpnn.TrainingTrace(stop_reason="t"),
            )
            model = _model_from_mlp(mlp)
            last = -1.0
            for width in (0.0, 0.5, 1.0, 2.0):
                xl = np.array([[-width]])
                xu = np.array([[width]])
                gl, gu = _channel_outputs(model, xl, xu)
                spread = (np.maximum(gl, gu) - np.minimum(gl, gu)).item()
                assert spread > last
                last = spread

    def test_duplicate_rows_identical(self, rng):
        mlp = _random_mlp(rng)
        model = _model_from_mlp(mlp)
        lo, hi = rng.normal(size=3), rng.normal(size=3)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        a = rnn.scores(model, _one_row(lo, hi))
        b = rnn.scores(model, _one_row(lo.copy(), hi.copy()))
        assert np.array_equal(a, b)

    def test_repeated_shuffled_rows_score_as_their_distinct_rows(self, rng):
        model = _model_from_mlp(_random_mlp(rng))
        mid = rng.normal(size=(5, 3))
        spread = np.abs(rng.normal(size=(5, 3)))
        spread[0] = 0.0
        lower, upper = mid - spread, mid + spread
        picks = rng.permutation(np.r_[np.arange(5), rng.integers(0, 5, 35)])
        names = ("a1", "a2", "a3")
        got = rnn.scores(model, IntervalTable(lower[picks], upper[picks], picks % 2, names))
        # the distinct rows in order of first occurrence
        distinct = picks[np.sort(np.unique(picks, return_index=True)[1])]
        want = rnn.scores(model, IntervalTable(lower[distinct], upper[distinct], [0] * 5, names))
        position = np.argsort(distinct)
        assert np.array_equal(got, want[position[picks]])

    def test_width_mismatch(self, rng):
        model = _model_from_mlp(_random_mlp(rng))
        with pytest.raises(ShapeError):
            rnn.scores(model, _one_row(np.zeros(5), np.zeros(5)))


class TestGradients:
    def test_matches_central_differences_away_from_ties(self, rng):
        for _ in range(10):
            mlp = _random_mlp(rng, width=2, hidden=(3,))
            model = _model_from_mlp(mlp)
            mid = rng.normal(size=(4, 2))
            spread = 0.5 + np.abs(rng.normal(size=(4, 2)))  # wide: keeps channels apart
            xl, xu = mid - spread, mid + spread
            gl, gu = _channel_outputs(model, xl, xu)
            if np.abs(gu - gl).min() <= 1e-6:
                continue
            targets = rng.integers(0, 2, 4).astype(float)
            _, grads = rnn._gradients(model, rnn.RoughBuffers(model, xl, xu, targets, backward=True))
            h = 1e-5
            w = model.rough_w  # both channels, lower first; a view of the rough block
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + h
                e_plus = rnn._error(model, rnn.RoughBuffers(model, xl, xu, targets))
                w[idx] = orig - h
                e_minus = rnn._error(model, rnn.RoughBuffers(model, xl, xu, targets))
                w[idx] = orig
                numeric = (e_plus - e_minus) / (2 * h)
                analytic = grads[0][idx]  # the rough block's gradient, W first
                scale = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / scale <= 1e-4


class TestTrain:
    def _separable_intervals(self, n=60, width=0.2, seed=0):
        local = np.random.default_rng(seed)
        centers = np.where(local.integers(0, 2, n)[:, None] == 1, 1.0, -1.0)
        centers = np.repeat(centers, 2, axis=1)[:, :2]
        decisions = (centers[:, 0] > 0).astype(int)
        jitter = local.normal(scale=0.1, size=(n, 2))
        mid = centers + jitter
        return IntervalTable(mid - width, mid + width, decisions, ("a1", "a2"))

    def test_degenerate_matches_point_network_run(self, rng):
        table = make_table(rng.normal(size=(40, 3)), rng.integers(0, 2, 40))
        cfg = MlpConfig(epochs=60, hidden=(5,))
        with pytest.warns(NoUncertaintyWarning):
            rough = rnn.train(_degenerate(table), cfg, 3)
        point = bpnn.train(table, cfg, 3)
        s_r = rnn.scores(rough, _degenerate(table))
        assert np.array_equal(s_r, bpnn.scores(point, table.values))
        for side in (0, 1):
            assert np.array_equal(rough.rough_w[side], point.weights[0])
            assert np.array_equal(rough.rough_b[side], point.biases[0])
        shared = rough.shared_weights + rough.shared_biases
        for got, want in zip(shared, point.weights[1:] + point.biases[1:], strict=True):
            assert np.array_equal(got, want)
        assert rough.trace.train_errors == point.trace.train_errors
        acc_r = rnn.evaluate(rough, _degenerate(table))
        assert acc_r == bpnn.evaluate(point, table)

    def test_separable_interval_seed_sweep(self):
        table = self._separable_intervals()
        wins = 0
        for seed in range(10):
            cfg = MlpConfig(
                epochs=1000, learning_rate=0.5, hidden=(4,), goal=1e-9,
                ratios=(1.0, 0.0),
            )
            model = rnn.train(table, cfg, seed)
            pred = (rnn.scores(model, table) >= 0.5).astype(int)
            wins += int(np.array_equal(pred, table.decisions))
        assert wins >= 8

    def test_early_stop_inherited(self, rng):
        values = rng.normal(size=(40, 3))
        table = make_table(values, rng.integers(0, 2, 40))
        iv = IntervalTable(
            values - 0.1, values + 0.1, table.decisions, table.attributes
        )
        cfg = MlpConfig(
            epochs=3000, learning_rate=0.9, hidden=(12,), goal=1e-12,
            ratios=(0.5, 0.5), max_fail=6,
        )
        model = rnn.train(iv, cfg, 0)
        trace = model.trace
        if trace.stop_reason == "early-stop":
            diffs = np.diff(trace.val_errors[-7:])
            assert (diffs > 0).all()
        assert trace.best_epoch == int(np.argmin(trace.val_errors)) + 1

    def test_deterministic_per_seed(self):
        table = self._separable_intervals(n=30)
        cfg = MlpConfig(epochs=30, hidden=(3,))
        a = rnn.train(table, cfg, 11)
        b = rnn.train(table, cfg, 11)
        assert np.array_equal(a.rough_w, b.rough_w)
        assert a.trace.train_errors == b.trace.train_errors

    def test_connection_modes_run(self):
        table = self._separable_intervals(n=24)
        for mode in ("excitatory", "inhibitory", "full"):
            cfg = MlpConfig(epochs=10, hidden=(3,))
            model = rnn.train(table, cfg, 1, connection=mode)
            assert model.connection == mode
            out = rnn.scores(model, table)
            assert np.all((out > 0) & (out < 1))
        with pytest.raises(ParameterError):
            rnn.train(table, MlpConfig(epochs=5, hidden=(2,)), 1, connection="sideways")

    def test_full_pipeline_on_discretized_gas_data(self):
        from dgareduce.dataset import synth_generate

        gas = synth_generate(80, 0.5, 0.25, seed=6)
        std, _ = standardize(gas)
        cats = discretize(gas)
        iv = Intervalizer.fit(cats, std).apply(cats, std)
        cfg = MlpConfig(epochs=150, hidden=(6,))
        model = rnn.train(iv, cfg, 0)
        assert rnn.evaluate(model, iv) >= 90.0


class TestSaveLoad:
    def test_round_trip_scores(self, tmp_path):
        table = TestTrain()._separable_intervals(n=30)
        model = rnn.train(table, MlpConfig(epochs=20, hidden=(4, 3)), 5)
        path = tmp_path / "rnn.txt"
        rnn.save_model(model, path)
        loaded = rnn.load_model(path)
        np.testing.assert_array_equal(rnn.scores(model, table), rnn.scores(loaded, table))
        assert loaded.connection == "excitatory"
