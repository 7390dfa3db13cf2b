"""Rough-set operators over categorical decision tables.

The positive-region degree of dependency, and a greedy backward-elimination
reduct search that keeps removing superfluous attributes while the positive
region is preserved exactly (integer cardinalities, no tolerance).  Both take
a `CategoricalTable` and refuse any other table type with `ValidationError`,
so only cells in {1..4} reach the pattern codes.  `InformationSystem` is the
same table under its rough-set name.

Every partition is built from pattern codes: a row's values over a column
subset read as one mixed-radix int64 number (`pattern_codes`), so blocks are
the distinct codes and their ascending order is the lexicographic order of
the value tuples.  `_group` sums decision counts per distinct code; it is the
package's one grouping routine, shared with the granular layer.  The reduct
search groups the rows into full-pattern granules once, then partitions those
granules by each column subset and reads purity off the summed counts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import CategoricalTable
from .errors import DependencyDegenerateError, ParameterError, ValidationError
from .reduction import ReductionResult


class InformationSystem(CategoricalTable):
    """A `CategoricalTable` under its rough-set name; the operators below
    take any `CategoricalTable`."""

    @classmethod
    def from_table(cls, table: CategoricalTable) -> "InformationSystem":
        return cls(table.values, table.decisions, table.attributes)


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


def _require_categorical(table) -> None:
    # pattern codes need cells in {1..4}, which only the categorical table enforces
    if not isinstance(table, CategoricalTable):
        raise ValidationError(
            f"rough-set operators need a CategoricalTable, got {type(table).__name__}"
        )


def degree_of_dependency(table: CategoricalTable, subset) -> float:
    """|positive region of the decision partition| / |universe|."""
    _require_categorical(table)
    subset = tuple(subset)
    if not subset:
        raise ParameterError("attribute subset must be non-empty")
    for name in subset:
        if name not in table.attributes:
            raise ParameterError(f"unknown attribute {name!r}")
    cols = [table.attributes.index(name) for name in subset]
    granules = _row_granules(table.values, table.decisions)
    return _positive_region_size(granules, cols) / table.n_rows


def reduct_search(table: CategoricalTable) -> ReductionResult:
    """Greedy backward elimination preserving the full-set degree of dependency.

    Each step scans every single-attribute removal once; among removals that
    keep the positive region intact, the highest-indexed attribute is dropped
    (so low-indexed attributes survive ties).  The search stops when no
    removal preserves dependency, which also certifies superset-minimality,
    or when one attribute is left; the scan that stops it gives
    `gamma_without_kept`.
    """
    _require_categorical(table)
    names = table.attributes
    if len(names) < 2:
        raise ParameterError("reduct search needs at least 2 attributes")
    granules = _row_granules(table.values, table.decisions)
    n = table.n_rows
    kept = list(range(len(names)))
    full = _positive_region_size(granules, kept)
    if full == 0:
        raise DependencyDegenerateError(
            "degree of dependency of the full attribute set is 0; reduct undefined"
        )
    eliminated = []
    while True:
        without = {
            j: _positive_region_size(granules, [c for c in kept if c != j]) for j in kept
        }
        preserving = [j for j in kept if without[j] == full]
        if len(kept) == 1 or not preserving:
            break
        dropped = preserving[-1]  # kept ascends: the highest preserving index
        kept.remove(dropped)
        eliminated.append(names[dropped])
    return ReductionResult(
        method="rs",
        kept=tuple(names[j] for j in kept),
        diagnostics={
            "gamma_full": full / n,
            "gamma_reduct": full / n,
            "eliminated": tuple(eliminated),
            "gamma_without_kept": {names[j]: without[j] / n for j in kept},
        },
    )
