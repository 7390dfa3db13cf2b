"""Rough-set operators over categorical decision tables.

The positive-region degree of dependency, and a greedy backward-elimination
reduct search that keeps removing superfluous attributes while the positive
region is preserved exactly (integer cardinalities, no tolerance).

Every partition is built from pattern codes: a row's values over a column
subset read as one mixed-radix int64 number (`pattern_codes`), so blocks are
the distinct codes and their ascending order is the lexicographic order of
the value tuples.  `_group` sums decision counts per distinct code; it is the
package's one grouping routine, shared with the granular layer.  The reduct
search groups the rows into full-pattern granules once, then partitions those
granules by each column subset and reads purity off the summed counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Granules(NamedTuple):
    """Granules as parallel arrays; `codes` are the `pattern_codes` of `patterns`."""

    codes: np.ndarray
    patterns: np.ndarray
    count_t: np.ndarray
    count_f: np.ndarray

    @property
    def rows(self) -> int:
        return int(self.count_t.sum() + self.count_f.sum())


def _group(codes, patterns, count_t, count_f) -> _Granules:
    """Sum the counts of entries sharing a code: one granule per distinct
    code, in ascending code order."""
    unique, first, inverse = np.unique(codes, return_index=True, return_inverse=True)

    def total(counts):
        return np.bincount(inverse, weights=counts, minlength=len(unique)).astype(np.int64)

    return _Granules(unique, patterns[first], total(count_t), total(count_f))


def _row_granules(values: np.ndarray, decisions: np.ndarray) -> _Granules:
    """One granule per distinct row of the table, over all its columns."""
    codes = pattern_codes(values, range(values.shape[1]))
    return _group(codes, values, decisions, 1 - decisions)


def _positive_region_size(granules: _Granules, cols) -> int:
    """Rows in decision-pure blocks of the partition by the given columns.

    The blocks group the full-pattern granules by their values over `cols`;
    the empty column set codes every granule 0, one block for the universe.
    """
    codes = pattern_codes(granules.patterns, cols)
    blocks = _group(codes, granules.patterns, granules.count_t, granules.count_f)
    pure = (blocks.count_t == 0) | (blocks.count_f == 0)
    return int((blocks.count_t + blocks.count_f)[pure].sum())


def degree_of_dependency(system: InformationSystem, subset) -> float:
    """|positive region of the decision partition| / |universe|."""
    cols = system._column_indices(tuple(subset))
    granules = _row_granules(system.values, system.decisions)
    return _positive_region_size(granules, cols) / system.n_rows


def reduct_search(system: InformationSystem) -> ReductionResult:
    """Greedy backward elimination preserving the full-set degree of dependency.

    At each step every single-attribute removal is evaluated; among removals
    that keep the positive region intact, the highest-indexed attribute is
    dropped (so low-indexed attributes survive ties).  The loop stops when no
    removal preserves dependency, which also certifies superset-minimality.
    """
    if len(system.attributes) < 2:
        raise ParameterError("reduct search needs at least 2 attributes")
    granules = _row_granules(system.values, system.decisions)
    n = system.n_rows
    all_cols = list(range(len(system.attributes)))
    full = _positive_region_size(granules, all_cols)
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
            if _positive_region_size(granules, others) == full:
                removable = j  # ascending scan: ends at the highest preserving index
        if removable is None:
            break
        kept.remove(removable)
        trace.append((system.attributes[removable], full / n))
    gamma_without = {}
    for j in kept:
        others = [c for c in kept if c != j]
        gamma_without[system.attributes[j]] = (
            _positive_region_size(granules, others) / n
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
