"""Principal component analysis over standardized gas tables.

Covariance uses the population (n) divisor, so on standardized input it
coincides with the correlation matrix.  Eigenpairs come from
`np.linalg.eigh`; components are selected either by fixed count or by
cumulative variance-proportion threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Scaler, Table, standardize
from .errors import ParameterError, ShapeError, ValidationError

_SYMMETRY_TOL = 1e-9


def covariance(table: Table) -> np.ndarray:
    """Covariance matrix of an already standardized table, entry (i,j) = sum(x_i x_j)/n."""
    if table.n_rows < 2:
        raise ParameterError("covariance needs at least 2 rows")
    values = table.values
    if np.abs(values.mean(axis=0)).max() > 1e-6:
        raise ValidationError("covariance expects standardized (zero-mean) input")
    c = values.T @ values / table.n_rows
    return (c + c.T) / 2.0


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted descending, unit eigenvectors as aligned columns,
    and per-component variance proportions in percent."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    proportions: np.ndarray


def eigendecompose(c: np.ndarray) -> EigenSystem:
    """Eigen decomposition of a symmetric matrix via `np.linalg.eigh`.

    Sign convention: the largest-magnitude entry of each eigenvector is made
    positive (first such entry on ties) so results are deterministic.  An
    eigenvalue within m * eps * max|eigenvalue| of 0 is reported as exactly 0.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {c.shape}")
    if np.abs(c - c.T).max() > _SYMMETRY_TOL:
        raise ValidationError("matrix is not symmetric")
    eigenvalues, vectors = np.linalg.eigh(c)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    # a null direction comes out as rounding noise of either sign; report it as 0
    noise = c.shape[0] * np.finfo(float).eps * np.abs(eigenvalues).max(initial=0.0)
    eigenvalues[np.abs(eigenvalues) <= noise] = 0.0
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            vectors[:, j] = -col
    total = eigenvalues.sum()
    proportions = 100.0 * eigenvalues / total if total != 0 else np.zeros_like(eigenvalues)
    return EigenSystem(eigenvalues, vectors, proportions)


@dataclass(frozen=True)
class PcaProjection:
    """Kept eigenvector basis plus the standardization fitted on the source table."""

    basis: np.ndarray  # m x p, orthonormal columns
    scaler: Scaler
    attributes: tuple[str, ...]
    eigenvalues: np.ndarray  # all m, descending
    proportions: np.ndarray  # all m, percent

    @property
    def p(self) -> int:
        return self.basis.shape[1]

    @property
    def component_names(self) -> tuple[str, ...]:
        return tuple(f"pc{i + 1}" for i in range(self.p))


def select_components(
    eigen: EigenSystem,
    scaler: Scaler,
    attributes,
    *,
    fixed_count: int | None = None,
    threshold: float | None = None,
) -> PcaProjection:
    """Keep the top `fixed_count` components, or the minimal prefix whose
    cumulative variance proportion reaches `threshold` percent."""
    m = eigen.eigenvalues.shape[0]
    if (fixed_count is None) == (threshold is None):
        raise ParameterError("give exactly one of fixed_count or threshold")
    if fixed_count is not None:
        if not 1 <= fixed_count <= m:
            raise ParameterError(f"fixed_count must be in [1, {m}], got {fixed_count}")
        p = fixed_count
    else:
        if not 0.0 < threshold <= 100.0:
            raise ParameterError(f"threshold must be in (0, 100], got {threshold}")
        cumulative = np.cumsum(eigen.proportions)
        reached = np.flatnonzero(cumulative >= threshold - 1e-12)
        p = int(reached[0]) + 1 if reached.size else m
    return PcaProjection(
        basis=eigen.eigenvectors[:, :p].copy(),
        scaler=scaler,
        attributes=tuple(attributes),
        eigenvalues=eigen.eigenvalues.copy(),
        proportions=eigen.proportions.copy(),
    )


def project(table: Table, proj: PcaProjection) -> Table:
    """Standardize with the projection's stored parameters, then rotate onto
    the kept basis.  The decision column is carried through unchanged."""
    if table.attributes != proj.attributes:
        raise ShapeError(
            f"table attributes {table.attributes} do not match projection {proj.attributes}"
        )
    z = proj.scaler.transform(table.values)
    return Table(z @ proj.basis, table.decisions, proj.component_names)


def fit_projection(
    table: Table, *, fixed_count: int | None = None, threshold: float | None = None
) -> PcaProjection:
    """Standardize, build the covariance, decompose, select: the whole fit."""
    std, scaler = standardize(table)
    eigen = eigendecompose(covariance(std))
    return select_components(
        eigen, scaler, table.attributes, fixed_count=fixed_count, threshold=threshold
    )
