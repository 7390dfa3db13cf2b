"""Kernels, SMO training, KKT conditions, prediction, persistence."""

import numpy as np
import pytest

from dgareduce import pipeline, svm
from dgareduce.dataset import kfold, standardize
from dgareduce.errors import ParameterError, ShapeError
from dgareduce.svm import Kernel, check_kkt, kernel_matrix, predict, train_smo

from conftest import make_table


def brute_margin_2d(values, labels, angles=3600):
    """Grid-search oracle: best separating margin over unit directions."""
    best = 0.0
    for theta in np.linspace(0, np.pi, angles, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = values @ w
        for sign in (1.0, -1.0):
            lo = proj[labels * sign > 0].min()
            hi = proj[labels * sign < 0].max()
            gap = lo - hi
            best = max(best, gap)
    return best


def pair(kernel, x, y):
    """Kernel value of one pair of rows, as a 1 x 1 kernel matrix."""
    out = kernel_matrix(kernel, [x], [y])
    assert out.shape == (1, 1)
    return out[0, 0]


class TestKernels:
    def test_rbf_self_is_one(self, rng):
        x = rng.normal(size=4)
        assert pair(Kernel.rbf(0.7), x, x) == pytest.approx(1.0)

    def test_linear_orthogonal(self):
        assert pair(Kernel.linear(), [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_polynomial_hand_value(self):
        # (x.y + 1)^2 with x.y = 2
        assert pair(Kernel.polynomial(2, 1.0), [2.0, 0.0], [1.0, 5.0]) == pytest.approx(9.0)

    def test_sigmoid_form(self):
        x, y = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        k = Kernel.sigmoid(0.3, 0.1)
        assert pair(k, x, y) == pytest.approx(np.tanh(0.3 * (x @ y) + 0.1))

    def test_symmetry(self, rng):
        for kernel in (Kernel.linear(), Kernel.polynomial(3), Kernel.rbf(0.4), Kernel.sigmoid(0.2)):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert pair(kernel, x, y) == pytest.approx(pair(kernel, y, x))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            pair(Kernel.linear(), [1.0], [1.0, 2.0])

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Kernel.rbf(0.0)
        with pytest.raises(ParameterError):
            Kernel.polynomial(0)
        with pytest.raises(ParameterError):
            Kernel("cosine")


class TestAnalyticTwoPoint:
    def _model(self):
        table = make_table([[-1.0], [1.0]], [0, 1])
        return train_smo(table, Kernel.linear(), c=1e6)

    def test_weight_bias_margin(self):
        model = self._model()
        w = float(np.sum(model.support_alphas * model.support_labels * model.support_vectors[:, 0]))
        assert w == pytest.approx(1.0, abs=1e-3)
        assert model.bias == pytest.approx(0.0, abs=1e-3)
        assert 2.0 / abs(w) == pytest.approx(2.0, abs=1e-3)

    def test_both_points_support_vectors(self):
        model = self._model()
        assert len(model.support_alphas) == 2
        np.testing.assert_allclose(model.support_alphas, [0.5, 0.5], atol=1e-3)

    def test_midpoint_ties_to_healthy(self):
        model = self._model()
        cls, score = predict(model, [0.0])
        assert abs(score) <= 1e-6
        assert cls == 1


class TestTrainSmo:
    def test_duplicated_dataset_same_decision_function(self, rng):
        # equivalence needs interior multipliers, so keep the classes separable
        pos = rng.normal(loc=(1.5, 1.5), scale=0.35, size=(15, 2))
        neg = rng.normal(loc=(-1.5, -1.5), scale=0.35, size=(15, 2))
        values = np.vstack([pos, neg])
        d = np.array([1] * 15 + [0] * 15)
        table = make_table(values, d)
        doubled = make_table(np.vstack([values, values]), np.concatenate([d, d]))
        a = train_smo(table, Kernel.rbf(0.5), c=100.0)
        b = train_smo(doubled, Kernel.rbf(0.5), c=100.0)
        probe = rng.normal(size=(40, 2)) * 2
        sa = svm.decision_scores(a, probe)
        sb = svm.decision_scores(b, probe)
        assert np.array_equal(np.sign(sa), np.sign(sb))
        assert np.abs(sa - sb).max() <= 5e-3

    def test_xor_rbf_separates(self):
        table = make_table(
            [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [0, 1, 1, 0]
        )
        model = train_smo(table, Kernel.rbf(1.0), c=10.0)
        assert svm.evaluate(model, table).accuracy == 100.0

    def test_kkt_on_converged_runs(self, rng):
        for trial in range(6):
            n = 40
            values = rng.normal(size=(n, 3))
            d = (values @ np.array([1.0, -0.5, 0.2]) > 0).astype(int)
            if trial % 2:  # non-separable variant
                flips = rng.choice(n, size=4, replace=False)
                d[flips] = 1 - d[flips]
            table = make_table(values, d)
            model = train_smo(table, Kernel.rbf(0.5), c=5.0)
            if model.converged:
                assert model.training_kkt_rate == 1.0
                assert check_kkt(model, table, tol=1e-3) == 1.0

    def test_dual_feasibility(self, rng):
        values = rng.normal(size=(50, 2))
        d = (values[:, 0] > 0.2).astype(int)
        table = make_table(values, d)
        model = train_smo(table, Kernel.rbf(0.8), c=3.0)
        assert np.all(model.support_alphas >= 0)
        assert np.all(model.support_alphas <= 3.0 + 1e-12)
        assert abs(np.sum(model.support_alphas * model.support_labels)) <= 1e-8

    def test_margin_matches_brute_force(self, rng):
        for trial in range(3):
            local = np.random.default_rng(100 + trial)
            pos = local.normal(loc=(2.0, 2.0), scale=0.4, size=(8, 2))
            neg = local.normal(loc=(-2.0, -2.0), scale=0.4, size=(8, 2))
            values = np.vstack([pos, neg])
            d = np.array([1] * 8 + [0] * 8)
            table = make_table(values, d)
            model = train_smo(table, Kernel.linear(), c=1e5, tol=1e-4)
            assert svm.evaluate(model, table).accuracy == 100.0
            w = (model.support_alphas * model.support_labels) @ model.support_vectors
            margin = 2.0 / np.linalg.norm(w)
            oracle = brute_margin_2d(values, d * 2.0 - 1.0)
            assert margin == pytest.approx(oracle, rel=0.02)

    def test_single_class_rejected(self, rng):
        table = make_table(rng.normal(size=(10, 2)), np.ones(10, dtype=int))
        with pytest.raises(ParameterError):
            train_smo(table, Kernel.linear())

    def test_non_convergence_flagged(self):
        table = make_table(
            [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [0, 1, 1, 0]
        )
        model = train_smo(table, Kernel.rbf(1.0), c=10.0, max_passes=1)
        assert not model.converged

    def test_parameter_validation(self, rng):
        table = make_table(rng.normal(size=(6, 2)), [0, 1, 0, 1, 0, 1])
        with pytest.raises(ParameterError):
            train_smo(table, Kernel.linear(), c=0.0)
        with pytest.raises(ParameterError):
            train_smo(table, Kernel.linear(), tol=0.0)


class TestSolver:
    def _noisy(self, n, seed=5):
        local = np.random.default_rng(seed)
        values = local.normal(size=(n, 3))
        d = (values[:, 0] + 0.8 * local.normal(size=n) > 0).astype(int)
        return make_table(values, d)

    def test_pca_fold_of_criterion9_table_converges(self):
        # the first-violator solver stopped at max_passes on this fold with
        # KKT at 95.6 %
        cfg = pipeline.ExperimentConfig(
            synth=pipeline.SynthSpec(n=600, informative=("hydrogen", "methane", "ethylene")),
            seed=0,
        )
        table = pipeline.resolve_data(cfg)
        reduced = pipeline.fit_reducer(table, "pca", cfg, 0).transform(table)
        train, _ = standardize(reduced.take(kfold(reduced, 5, 0).train_indices(0)))
        model = train_smo(train, Kernel.rbf(0.5), c=10.0, tol=1e-3, max_passes=50)
        assert model.converged
        assert model.sweeps <= 50
        assert model.training_kkt_rate == 1.0
        assert check_kkt(model, train, tol=1e-3) == 1.0

    @pytest.mark.parametrize("n", [41, 60])
    def test_budget_bounds_passes_and_updates(self, n, monkeypatch):
        updates = []
        real_step = svm._pair_step

        def counted(*args):
            updates.append(1)
            return real_step(*args)

        monkeypatch.setattr(svm, "_pair_step", counted)
        table = self._noisy(n)
        per_pass = -(-n // 2)
        for max_passes in (1, 2, 3, 5, 100):
            updates.clear()
            model = train_smo(table, Kernel.rbf(0.5), c=10.0, max_passes=max_passes)
            assert model.sweeps <= max_passes
            assert len(updates) <= max_passes * per_pass
            assert model.sweeps == -(-len(updates) // per_pass)
        assert model.converged  # the 100-pass budget is enough here

    def test_reruns_identical(self):
        table = self._noisy(80)
        a = train_smo(table, Kernel.rbf(0.5), c=10.0)
        b = train_smo(table, Kernel.rbf(0.5), c=10.0)
        assert np.array_equal(a.support_alphas, b.support_alphas)
        assert np.array_equal(a.support_indices, b.support_indices)
        assert a.bias == b.bias
        assert a.sweeps == b.sweeps


class TestPredict:
    def _trained(self, rng):
        values = rng.normal(size=(30, 2))
        d = (values[:, 0] > 0).astype(int)
        return train_smo(make_table(values, d), Kernel.rbf(0.6)), values, d

    def test_unbound_sv_margin_one(self, rng):
        model, values, d = self._trained(rng)
        free = (model.support_alphas > 1e-6) & (model.support_alphas < model.c - 1e-6)
        assert free.any()
        idx = int(np.flatnonzero(free)[0])
        _, score = predict(model, model.support_vectors[idx])
        assert model.support_labels[idx] * score == pytest.approx(1.0, abs=2e-3)

    def test_repeat_prediction_identical(self, rng):
        model, values, _ = self._trained(rng)
        assert predict(model, values[0]) == predict(model, values[0])

    def test_support_vector_permutation_invariant(self, rng):
        model, values, _ = self._trained(rng)
        order = rng.permutation(len(model.support_alphas))
        shuffled = svm.SvmModel(
            kernel=model.kernel,
            c=model.c,
            bias=model.bias,
            support_vectors=model.support_vectors[order],
            support_labels=model.support_labels[order],
            support_alphas=model.support_alphas[order],
            support_indices=model.support_indices[order],
            converged=model.converged,
            sweeps=model.sweeps,
            train_time=model.train_time,
            training_kkt_rate=model.training_kkt_rate,
        )
        probe = values[:5]
        np.testing.assert_allclose(
            svm.decision_scores(model, probe), svm.decision_scores(shuffled, probe), atol=1e-12
        )

    def test_width_mismatch(self, rng):
        model, _, _ = self._trained(rng)
        with pytest.raises(ShapeError):
            predict(model, [1.0, 2.0, 3.0])


class TestSaveLoad:
    def test_round_trip_scores(self, tmp_path, rng):
        values = rng.normal(size=(25, 3))
        d = (values[:, 1] > 0).astype(int)
        model = train_smo(make_table(values, d), Kernel.polynomial(2, 0.5))
        path = tmp_path / "svm.txt"
        svm.save_model(model, path)
        loaded = svm.load_model(path)
        probe = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(
            svm.decision_scores(model, probe), svm.decision_scores(loaded, probe)
        )
