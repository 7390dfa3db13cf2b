"""Activations, scores, gradients, training loop exits, evaluation."""

import math

import numpy as np
import pytest

from dgareduce import bpnn
from dgareduce.bpnn import MlpConfig, MlpModel, TrainingTrace
from dgareduce.dataset import Table, split_indices
from dgareduce.errors import ParameterError, ShapeError, TrainingDivergedError

from conftest import blocks, make_table


def xor_table(replicas=25):
    base = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    dec = np.array([0, 1, 1, 0])
    return Table(np.tile(base, (replicas, 1)), np.tile(dec, replicas), ("x1", "x2"))


def logsig(n):
    """`bpnn._logsig_inplace`, the logsig that training and scoring run, on a
    copy of `n`."""
    z = np.array(n, dtype=float)
    bpnn._logsig_inplace(z, np.empty_like(z), np.empty(z.shape, dtype=bool))
    return z


class TestActivations:
    def test_logsig_midpoint(self):
        assert logsig(0.0) == pytest.approx(0.5)

    def test_logsig_ln3(self):
        assert logsig(math.log(3)) == pytest.approx(0.75)

    def test_logsig_saturation(self):
        assert 0.0 < logsig(-50.0) < 1e-20
        assert 1.0 - logsig(50.0) < 1e-20

    def test_logsig_symmetry(self, rng):
        for n in rng.normal(scale=3, size=20):
            assert logsig(-n) == pytest.approx(1.0 - logsig(n), abs=1e-12)

    def test_logsig_increasing(self, rng):
        xs = np.sort(rng.normal(scale=5, size=50))
        ys = logsig(xs)
        assert np.all(np.diff(ys) > 0)



def _tiny_model(weights, biases):
    return MlpModel(
        blocks(
            [np.asarray(w, dtype=float) for w in weights],
            [np.asarray(b, dtype=float) for b in biases],
        ),
        input_width=weights[0].shape[1] if hasattr(weights[0], "shape") else len(weights[0][0]),
        hidden=tuple(len(b) for b in biases[:-1]),
        trace=TrainingTrace(stop_reason="test"),
    )


class TestForward:
    """One-row inputs through `scores`, the batch path evaluation uses."""

    def test_zero_weights_give_half(self):
        model = _tiny_model(
            [np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3), np.zeros(1)]
        )
        assert bpnn.scores(model, [[0.7, -0.2]])[0] == pytest.approx(0.5)

    def test_hand_composed_1_1_1(self):
        model = _tiny_model([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
        expected = logsig(math.tanh(1.0))
        assert bpnn.scores(model, [[1.0]])[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6817, abs=5e-4)

    def test_duplicate_rows_identical(self, rng):
        model = _tiny_model(
            [rng.normal(size=(4, 3)), rng.normal(size=(1, 4))],
            [rng.normal(size=4), rng.normal(size=1)],
        )
        x = rng.normal(size=(1, 3))
        assert np.array_equal(bpnn.scores(model, x), bpnn.scores(model, x.copy()))

    def test_width_mismatch(self):
        model = _tiny_model([np.zeros((2, 3)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])
        with pytest.raises(ShapeError):
            bpnn.scores(model, [[1.0, 2.0]])


def _mse(weights, biases, x, d):
    layers = blocks(weights, biases)
    return bpnn._mse(layers, bpnn.LayerBuffers(x.T, layers), d)


def _gradients(weights, biases, x, d):
    """The error and the weight and bias gradients, taken apart from each
    layer's packed [W | b] gradient."""
    layers = blocks(weights, biases)
    err, grads = bpnn.batch_gradients(layers, bpnn.LayerBuffers(x.T, layers, backward=True), d)
    return err, [g[:, :-1] for g in grads], [g[:, -1] for g in grads]


class TestGradients:
    def test_matches_central_differences(self, rng):
        for _ in range(20):
            weights = [rng.normal(size=(2, 3)), rng.normal(size=(1, 2))]
            biases = [rng.normal(size=2), rng.normal(size=1)]
            x = rng.normal(size=(5, 3))
            d = rng.integers(0, 2, 5).astype(float)
            _, grads_w, grads_b = _gradients(weights, biases, x, d)
            h = 1e-5
            for layer in range(2):
                for idx in np.ndindex(weights[layer].shape):
                    w_plus = [w.copy() for w in weights]
                    w_minus = [w.copy() for w in weights]
                    w_plus[layer][idx] += h
                    w_minus[layer][idx] -= h
                    e_plus = _mse(w_plus, biases, x, d)
                    e_minus = _mse(w_minus, biases, x, d)
                    numeric = (e_plus - e_minus) / (2 * h)
                    analytic = grads_w[layer][idx]
                    scale = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / scale <= 1e-4

    def test_descent_direction(self, rng):
        weights = [rng.normal(size=(3, 4)), rng.normal(size=(1, 3))]
        biases = [rng.normal(size=3), rng.normal(size=1)]
        x = rng.normal(size=(12, 4))
        d = rng.integers(0, 2, 12).astype(float)
        err0, grads_w, grads_b = _gradients(weights, biases, x, d)
        eta = 1e-6
        stepped_w = [w - eta * g for w, g in zip(weights, grads_w)]
        stepped_b = [b - eta * g for b, g in zip(biases, grads_b)]
        err1 = _mse(stepped_w, stepped_b, x, d)
        assert err1 - err0 <= 1e-12


class TestTrain:
    def test_goal_stop_at_first_epoch(self, rng):
        table = make_table(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        cfg = MlpConfig(epochs=50, hidden=(4,), goal=10.0, ratios=(0.8, 0.2))
        model = bpnn.train(table, cfg, 1)
        assert model.trace.stop_reason == "goal"
        assert model.trace.epochs_run == 1

    def test_early_stop_restores_min_validation(self, rng):
        table = make_table(rng.normal(size=(40, 4)), rng.integers(0, 2, 40))
        cfg = MlpConfig(
            epochs=3000, learning_rate=0.9, hidden=(12,), goal=1e-12,
            ratios=(0.5, 0.5), max_fail=6,
        )
        model = bpnn.train(table, cfg, 0)
        trace = model.trace
        assert trace.stop_reason == "early-stop"
        diffs = np.diff(trace.val_errors[-(cfg.max_fail + 1):])
        assert (diffs > 0).all()
        assert trace.best_epoch == int(np.argmin(trace.val_errors)) + 1
        # the restored weights reproduce the minimum validation error
        val_idx = split_indices(40, cfg.shares, 0)[1]
        out = bpnn.scores(model, table.values[val_idx])
        err = float(np.mean((out - table.decisions[val_idx]) ** 2))
        assert err == pytest.approx(min(trace.val_errors), abs=1e-15)

    def test_xor_seed_sweep(self):
        table = xor_table()
        failing = []
        for seed in range(10):
            cfg = MlpConfig(
                epochs=5000, learning_rate=0.5, hidden=(2,), goal=1e-9,
                ratios=(1.0, 0.0),
            )
            model = bpnn.train(table, cfg, seed)
            pred = (bpnn.scores(model, table.values) >= 0.5).astype(int)
            if not np.array_equal(pred, table.decisions):
                failing.append(seed)
        assert len(failing) <= 2, f"failing seeds: {failing}"

    def test_deterministic_per_seed(self, rng):
        table = make_table(rng.normal(size=(30, 3)), rng.integers(0, 2, 30))
        cfg = MlpConfig(epochs=40, hidden=(5,))
        a = bpnn.train(table, cfg, 7)
        b = bpnn.train(table, cfg, 7)
        for la, lb in zip(a.layers, b.layers, strict=True):
            assert np.array_equal(la, lb)
        assert a.trace.train_errors == b.trace.train_errors

    def test_divergence_raises_with_epoch(self):
        table = Table(np.array([[np.nan], [np.nan], [np.nan]]), [0, 1, 0], ("x",))
        cfg = MlpConfig(epochs=10, hidden=(2,), ratios=(1.0, 0.0))
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            bpnn.train(table, cfg, 0)

    def test_split_sizes_validated(self, rng):
        table = make_table(rng.normal(size=(3, 2)), [0, 1, 0])
        cfg = MlpConfig(epochs=5, hidden=(2,), ratios=(0.9, 0.05))
        with pytest.raises(ParameterError):
            bpnn.train(table, cfg, 0)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            MlpConfig(ratios=(0.5, 0.4, 0.2))
        with pytest.raises(ParameterError):
            MlpConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            MlpConfig(hidden=())

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"learning_rate": math.nan}, "learning rate must be positive"),
            ({"learning_rate": math.inf}, "learning rate must be positive"),
            ({"goal": math.nan}, "goal must be non-negative"),
            ({"goal": math.inf}, "goal must be non-negative"),
            ({"ratios": (math.nan, 0.15)}, "ratios must be two non-negative numbers"),
            ({"ratios": (0.7, math.inf)}, "ratios must be two non-negative numbers"),
        ],
        ids=["lr-nan", "lr-inf", "goal-nan", "goal-inf", "ratio-nan", "ratio-inf"],
    )
    def test_non_finite_or_negative_seed_rejected(self, setting, message):
        with pytest.raises(ParameterError, match=f"^{message}"):
            MlpConfig(**setting)

    def test_shares_scale_the_two_ratios_to_one(self):
        assert MlpConfig().shares == (0.7 / 0.85, 0.15 / 0.85)
        assert MlpConfig(ratios=(2, 0)).shares == (1.0, 0.0)


class TestEvaluate:
    def _constant_one_model(self):
        # zero weights give score 0.5, which classifies as 1
        return _tiny_model([np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])

    def test_all_healthy_hundred(self, rng):
        model = self._constant_one_model()
        test = make_table(rng.normal(size=(10, 2)), np.ones(10, dtype=int))
        assert bpnn.evaluate(model, test) == 100.0

    def test_all_faulty_zero(self, rng):
        model = self._constant_one_model()
        test = make_table(rng.normal(size=(10, 2)), np.zeros(10, dtype=int))
        assert bpnn.evaluate(model, test) == 0.0

    def test_label_flip_complements_accuracy(self, rng):
        model = _tiny_model(
            [rng.normal(size=(3, 2)), rng.normal(size=(1, 3))],
            [rng.normal(size=3), rng.normal(size=1)],
        )
        values = rng.normal(size=(20, 2))
        d = rng.integers(0, 2, 20)
        a = bpnn.evaluate(model, make_table(values, d))
        b = bpnn.evaluate(model, make_table(values, 1 - d))
        assert a + b == pytest.approx(100.0)

    def test_empty_test_rejected(self):
        model = self._constant_one_model()
        with pytest.raises(ParameterError):
            bpnn.evaluate(model, make_table(np.zeros((0, 2)), []))

    def test_percent_correct_of_no_rows_rejected(self):
        with pytest.raises(ParameterError, match="empty test set"):
            bpnn.percent_correct(np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64))


class TestSaveLoad:
    def test_round_trip_predictions(self, tmp_path, rng):
        table = make_table(rng.normal(size=(25, 3)), rng.integers(0, 2, 25))
        model = bpnn.train(table, MlpConfig(epochs=20, hidden=(4, 3)), 2)
        path = tmp_path / "model.txt"
        bpnn.save_model(model, path)
        loaded = bpnn.load_model(path)
        probe = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(
            bpnn.scores(model, probe), bpnn.scores(loaded, probe)
        )
