"""Rough-set operators over categorical decision tables.

The positive-region degree of dependency, and a greedy backward-elimination
reduct search that keeps removing superfluous attributes while the positive
region is preserved exactly (integer cardinalities, no tolerance).  Both take
a `CategoricalTable`, and the search also its `Partition`; any other table
type is refused with `ValidationError`, so only cells in {1..4} reach the
pattern codes.
`InformationSystem` is the same table under its rough-set name.

Every partition is built from pattern codes: a row's values over a subset of
at most 31 columns read as one base-4 int64 number (`pattern_codes`), so
blocks are the distinct codes and their ascending order is the lexicographic
order of the value tuples.  `_group` sums decision counts per distinct code;
it is the package's one grouping routine, shared with the granular layer.

`partition` groups a table's rows into full-pattern granules once and keeps
each row's granule; the reduct search, the granular ranking and the decision
tree all read a table through that `Partition`, and a row subset's granule
counts are one bincount over its rows' granule indices.  The reduct search
partitions the granules by each column subset and reads purity off the
summed counts.
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


def pattern_codes(values: np.ndarray, cols) -> np.ndarray:
    """One int64 code per row for its values over the given columns.

    Cells lie in {1..4}, so each column is one base-4 digit and the first
    column is the most significant: ascending codes order the rows like their
    value tuples.  The code is one product of the rows with a weight per
    column (4**digit, 0 for a column not in `cols`), which reads no column
    copy.  At most 31 columns code, as 4**31 - 1 is the largest code an int64
    holds; a wider subset raises `ParameterError`.
    """
    cols = list(cols)
    if len(cols) > 31:
        raise ParameterError(f"pattern codes cover at most 31 columns, got {len(cols)}")
    weights = np.zeros(values.shape[1], dtype=np.int64)
    for digit, c in enumerate(cols):
        weights[c] += 4 ** (len(cols) - 1 - digit)
    return values @ weights - weights.sum()


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


def _counts(index, decisions, size) -> tuple[np.ndarray, np.ndarray]:
    """(count_t, count_f) of `size` granules, row i lying in granule index[i]."""
    count_t = np.bincount(index, weights=decisions, minlength=size).astype(np.int64)
    return count_t, np.bincount(index, minlength=size) - count_t


class Partition(NamedTuple):
    """A categorical table's rows grouped into full-pattern granules: the
    `granules`, each row's granule `index` into them, and the rows'
    `decisions` and the table's `attributes`, so no reducer needs the cells."""

    granules: _Granules
    index: np.ndarray
    decisions: np.ndarray
    attributes: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return len(self.index)

    def take(self, rows) -> "Partition":
        """The partition of a row subset over the same granules, counted by
        one bincount; a granule that none of `rows` lies in counts 0 rows."""
        index, decisions = self.index[rows], self.decisions[rows]
        g = self.granules
        granules = _Granules(g.codes, g.patterns, *_counts(index, decisions, len(g.codes)))
        return Partition(granules, index, decisions, self.attributes)


def partition(table: CategoricalTable) -> Partition:
    """One granule per distinct row of the table, over all its columns, in
    ascending code order, and each row's granule."""
    _require_categorical(table)
    codes = pattern_codes(table.values, range(table.n_attributes))
    unique, index = np.unique(codes, return_inverse=True)
    patterns = np.empty((len(unique), table.n_attributes), dtype=table.values.dtype)
    patterns[index] = table.values  # the rows of one granule are equal: any one writes it
    counts = _counts(index, table.decisions, len(unique))
    return Partition(
        _Granules(unique, patterns, *counts), index, table.decisions, table.attributes
    )


def _partitioned(table: CategoricalTable | Partition) -> Partition:
    return table if isinstance(table, Partition) else partition(table)


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
    cols = [table.column_index(name) for name in subset]
    if table.n_rows == 0:
        raise DependencyDegenerateError("degree of dependency of a table with no rows is undefined")
    return _positive_region_size(partition(table).granules, cols) / table.n_rows


def reduct_search(table: CategoricalTable | Partition) -> ReductionResult:
    """Greedy backward elimination preserving the full-set degree of dependency.

    Each step scans every single-attribute removal once; among removals that
    keep the positive region intact, the highest-indexed attribute is dropped
    (so low-indexed attributes survive ties).  The search stops when no
    removal preserves dependency, which also certifies superset-minimality,
    or when one attribute is left; the scan that stops it gives
    `gamma_without_kept`.
    """
    part = _partitioned(table)
    names, granules, n = part.attributes, part.granules, part.n_rows
    if len(names) < 2:
        raise ParameterError("reduct search needs at least 2 attributes")
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
