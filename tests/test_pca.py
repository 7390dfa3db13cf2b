"""Covariance, eigenpairs, component selection, projection."""

import numpy as np
import pytest

from dgareduce import pca
from dgareduce.dataset import Scaler, standardize, synth_generate
from dgareduce.errors import ParameterError, ShapeError, ValidationError

from conftest import make_table


def _identity_scaler(m):
    return Scaler(np.zeros(m), np.ones(m), np.zeros(m, dtype=bool))


class TestCovariance:
    def test_identical_columns(self):
        col = np.array([1.0, -1.0, 1.0, -1.0])
        table = make_table(np.column_stack([col, col]), [0, 1, 0, 1])
        c = pca.covariance(table)
        assert c[0, 1] == pytest.approx(1.0)

    def test_negated_column(self):
        col = np.array([1.0, -1.0, 1.0, -1.0])
        table = make_table(np.column_stack([col, -col]), [0, 1, 0, 1])
        assert pca.covariance(table)[0, 1] == pytest.approx(-1.0)

    def test_independent_design(self):
        # hand sum: (1*1 + 1*-1 + -1*1 + -1*-1) / 4 = 0
        values = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        table = make_table(values, [0, 1, 0, 1])
        assert pca.covariance(table)[0, 1] == pytest.approx(0.0)

    def test_standardized_input_gives_correlation(self, rng):
        table = make_table(rng.uniform(0, 50, size=(40, 5)), rng.integers(0, 2, 40))
        std, _ = standardize(table)
        c = pca.covariance(std)
        assert np.abs(c - c.T).max() <= 1e-12
        np.testing.assert_allclose(np.diag(c), 1.0, atol=1e-9)
        assert np.all(np.diag(c) >= 0)

    def test_needs_two_rows(self):
        with pytest.raises(ParameterError):
            pca.covariance(make_table([[0.0, 0.0]], [0]))

    def test_rejects_uncentered(self):
        table = make_table([[5.0, 1.0], [6.0, 2.0]], [0, 1])
        with pytest.raises(ValidationError):
            pca.covariance(table)


class TestEigendecompose:
    def test_diagonal(self):
        e = pca.eigendecompose(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(e.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(e.eigenvectors), np.eye(2), atol=1e-12)

    def test_hand_solved_rank_one(self):
        # det(lI - A) = l(l - 2) for A = [[1,1],[1,1]]
        e = pca.eigendecompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(e.eigenvalues, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            e.eigenvectors[:, 0], [1 / np.sqrt(2)] * 2, atol=1e-12
        )

    def test_null_direction_is_exactly_zero(self):
        # synthetic tcg is the sum of the six combustibles: the covariance is
        # singular, and its tenth eigenvalue would read as rounding noise
        std, _ = standardize(synth_generate(600, 0.5, 0.25, seed=3))
        e = pca.eigendecompose(pca.covariance(std))
        assert e.eigenvalues[9] == 0.0 and e.proportions[9] == 0.0
        assert (e.eigenvalues[:9] > 0.01).all()

    def test_correlation_trace(self, rng):
        table = make_table(rng.normal(size=(60, 7)), rng.integers(0, 2, 60))
        std, _ = standardize(table)
        e = pca.eigendecompose(pca.covariance(std))
        assert e.eigenvalues.sum() == pytest.approx(7.0, abs=1e-8)
        assert e.proportions.sum() == pytest.approx(100.0, abs=1e-6)

    def test_residual_orthonormality_sign(self, rng):
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(6, 6))
            a = (a + a.T) / 2
            e = pca.eigendecompose(a)
            v, lam = e.eigenvectors, e.eigenvalues
            assert np.abs(a @ v - v * lam).max() <= 1e-8
            np.testing.assert_allclose(v.T @ v, np.eye(6), atol=1e-8)
            assert np.all(np.diff(lam) <= 1e-12)
            for j in range(6):
                col = v[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValidationError):
            pca.eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            pca.eigendecompose(np.zeros((2, 3)))


class TestSelectComponents:
    def _eigen(self, values):
        values = np.asarray(values, dtype=float)
        m = len(values)
        return pca.EigenSystem(values, np.eye(m), 100.0 * values / values.sum())

    def test_fixed_count_proportion(self):
        e = self._eigen([2.0, 1.0, 1.0])
        proj = pca.select_components(
            e, _identity_scaler(3), ("a", "b", "c"), fixed_count=1
        )
        assert proj.p == 1
        assert proj.proportions[0] == pytest.approx(50.0)

    def test_threshold_single_component(self):
        e = self._eigen([4.0, 0.0, 0.0, 0.0])
        proj = pca.select_components(
            e, _identity_scaler(4), ("a", "b", "c", "d"), threshold=90.0
        )
        assert proj.p == 1

    def test_full_basis_reconstruction(self, rng):
        table = make_table(rng.normal(size=(40, 5)), rng.integers(0, 2, 40))
        std, scaler = standardize(table)
        eigen = pca.eigendecompose(pca.covariance(std))
        proj = pca.select_components(eigen, scaler, table.attributes, fixed_count=5)
        z = std.values
        back = (z @ proj.basis) @ proj.basis.T
        assert np.abs(back - z).max() <= 1e-8

    def test_policy_errors(self):
        e = self._eigen([1.0, 1.0])
        s = _identity_scaler(2)
        with pytest.raises(ParameterError):
            pca.select_components(e, s, ("a", "b"), fixed_count=3)
        with pytest.raises(ParameterError):
            pca.select_components(e, s, ("a", "b"), threshold=0.0)
        with pytest.raises(ParameterError):
            pca.select_components(e, s, ("a", "b"))
        with pytest.raises(ParameterError):
            pca.select_components(e, s, ("a", "b"), fixed_count=1, threshold=50.0)


class TestProject:
    def test_full_basis_preserves_norms(self, rng):
        table = make_table(rng.normal(size=(30, 4)), rng.integers(0, 2, 30))
        proj = pca.fit_projection(table, fixed_count=4)
        out = pca.project(table, proj)
        z = proj.scaler.transform(table.values)
        np.testing.assert_allclose(
            np.linalg.norm(out.values, axis=1), np.linalg.norm(z, axis=1), atol=1e-9
        )

    def test_single_axis_basis(self, rng):
        table = make_table(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        std, scaler = standardize(table)
        basis = np.zeros((3, 1))
        basis[0, 0] = 1.0
        proj = pca.PcaProjection(
            basis, scaler, table.attributes, np.ones(3), np.full(3, 100 / 3)
        )
        out = pca.project(table, proj)
        np.testing.assert_allclose(out.values[:, 0], std.values[:, 0], atol=1e-12)

    def test_component_variance_matches_eigenvalue(self, rng):
        base = rng.normal(size=(500, 3))
        mixed = base @ rng.uniform(-1, 1, size=(3, 6))
        mixed += 0.01 * rng.normal(size=mixed.shape)
        table = make_table(mixed, rng.integers(0, 2, 500))
        proj = pca.fit_projection(table, fixed_count=6)
        out = pca.project(table, proj)
        variances = np.mean(out.values**2, axis=0) - np.mean(out.values, axis=0) ** 2
        np.testing.assert_allclose(variances, proj.eigenvalues, atol=1e-6)

    def test_decision_carried_and_shape_checked(self, rng):
        table = make_table(rng.normal(size=(15, 4)), rng.integers(0, 2, 15))
        proj = pca.fit_projection(table, fixed_count=2)
        out = pca.project(table, proj)
        assert np.array_equal(out.decisions, table.decisions)
        other = make_table(rng.normal(size=(15, 3)), rng.integers(0, 2, 15))
        with pytest.raises(ShapeError):
            pca.project(other, proj)

    def test_new_rows_use_training_parameters(self, rng):
        train = make_table(rng.uniform(0, 10, size=(50, 3)), rng.integers(0, 2, 50))
        proj = pca.fit_projection(train, fixed_count=3)
        probe_values = rng.uniform(100, 200, size=(5, 3))
        probe = make_table(probe_values, rng.integers(0, 2, 5))
        out = pca.project(probe, proj)
        expected = proj.scaler.transform(probe_values) @ proj.basis
        np.testing.assert_allclose(out.values, expected, atol=1e-12)
