"""Rough-set operators over categorical decision tables.

The positive-region degree of dependency, and a greedy backward-elimination
reduct search that keeps removing superfluous attributes while the positive
region is preserved exactly (integer cardinalities, no tolerance).

Every partition is built from pattern codes: a row's values over a column
subset read as one mixed-radix int64 number (`pattern_codes`), so blocks are
the distinct codes and their ascending order is the lexicographic order of
the value tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalTable
from .errors import DependencyDegenerateError, ParameterError
from .reduction import ReductionResult


@dataclass(frozen=True)
class InformationSystem:
    """Universe of row indices, condition attributes, and the decision column."""

    values: np.ndarray
    decisions: np.ndarray
    attributes: tuple[str, ...]

    def __post_init__(self):
        # pattern codes need cells in {1..4}; the table type enforces that
        table = CategoricalTable(self.values, self.decisions, self.attributes)
        object.__setattr__(self, "values", table.values)
        object.__setattr__(self, "decisions", table.decisions)
        object.__setattr__(self, "attributes", table.attributes)

    @classmethod
    def from_table(cls, table: CategoricalTable) -> "InformationSystem":
        return cls(table.values, table.decisions, table.attributes)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def _column_indices(self, names) -> list[int]:
        if not names:
            raise ParameterError("attribute subset must be non-empty")
        idx = []
        for name in names:
            if name not in self.attributes:
                raise ParameterError(f"unknown attribute {name!r}")
            idx.append(self.attributes.index(name))
        return idx


_CODE_LIMIT = 1 << 62


def pattern_codes(values: np.ndarray, cols) -> np.ndarray:
    """One int64 code per row for its values over the given columns.

    Cells lie in {1..4}, so each column is one base-4 digit and the first
    column is the most significant: ascending codes order the rows like their
    value tuples.  Before the radix would pass 2**62 the running code is
    replaced by its dense rank, which keeps that order, so any number of
    columns codes exactly.
    """
    code = np.zeros(values.shape[0], dtype=np.int64)
    span = 1
    for c in cols:
        if span > _CODE_LIMIT // 4:
            _, code = np.unique(code, return_inverse=True)
            span = int(code.max()) + 1 if code.size else 1
        code = code * 4 + (values[:, c] - 1)
        span *= 4
    return code


def _block_inverse(values: np.ndarray, cols) -> tuple[np.ndarray, int]:
    """Block id per row for the partition induced by the given columns;
    blocks are numbered in the lexicographic order of their value tuples."""
    _, inverse = np.unique(pattern_codes(values, cols), return_inverse=True)
    return inverse, int(inverse.max()) + 1 if inverse.size else 0


def _positive_region_size(values, decisions, cols) -> int:
    """Rows in decision-pure blocks of the partition by the given columns.

    The empty column set induces the single-block partition of the universe.
    """
    if not cols:
        return len(decisions) if np.all(decisions == decisions[0]) else 0
    inverse, n_blocks = _block_inverse(values, cols)
    sizes = np.bincount(inverse, minlength=n_blocks)
    ones = np.bincount(inverse, weights=decisions, minlength=n_blocks)
    pure = (ones == 0) | (ones == sizes)
    return int(sizes[pure].sum())


def degree_of_dependency(system: InformationSystem, subset) -> float:
    """|positive region of the decision partition| / |universe|."""
    cols = system._column_indices(tuple(subset))
    return _positive_region_size(system.values, system.decisions, cols) / system.n_rows


def reduct_search(system: InformationSystem) -> ReductionResult:
    """Greedy backward elimination preserving the full-set degree of dependency.

    At each step every single-attribute removal is evaluated; among removals
    that keep the positive region intact, the highest-indexed attribute is
    dropped (so low-indexed attributes survive ties).  The loop stops when no
    removal preserves dependency, which also certifies superset-minimality.
    """
    if len(system.attributes) < 2:
        raise ParameterError("reduct search needs at least 2 attributes")
    values, decisions = system.values, system.decisions
    n = system.n_rows
    all_cols = list(range(len(system.attributes)))
    full = _positive_region_size(values, decisions, all_cols)
    if full == 0:
        raise DependencyDegenerateError(
            "degree of dependency of the full attribute set is 0; reduct undefined"
        )
    kept = list(all_cols)
    trace: list[tuple[str, float]] = []
    while len(kept) > 1:
        removable = None
        for j in kept:
            others = [c for c in kept if c != j]
            if _positive_region_size(values, decisions, others) == full:
                removable = j  # ascending scan: ends at the highest preserving index
        if removable is None:
            break
        kept.remove(removable)
        trace.append((system.attributes[removable], full / n))
    gamma_without = {}
    for j in kept:
        others = [c for c in kept if c != j]
        gamma_without[system.attributes[j]] = (
            _positive_region_size(values, decisions, others) / n
        )
    return ReductionResult(
        method="rs",
        kept=tuple(system.attributes[j] for j in kept),
        diagnostics={
            "gamma_full": full / n,
            "gamma_reduct": full / n,
            "eliminated": tuple(name for name, _ in trace),
            "gamma_without_kept": gamma_without,
        },
    )
