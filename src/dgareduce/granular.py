"""Granular layer: pattern granules with positive/negative counts, rough
membership, the ranking function count_t * proportion, and the incremental
chunked ranking whose accumulated granule set feeds the rough-set reduct
search.

Rank ranges per region follow the membership definition: a granule with
proportion 1 is positive (1 <= rank <= count_t), proportion 0 is negative
(rank = 0), anything between is boundary (0 < rank < count_t).

Granules are counted, merged and ranked as arrays grouped by
`roughset._group`, the grouping routine the reduct search uses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalTable
from .errors import ParameterError, SchemaError, ValidationError
from .reduction import ReductionResult
from .roughset import (
    InformationSystem,
    _group,
    _Granules,
    _row_granules,
    pattern_codes,
    reduct_search,
)


@dataclass(frozen=True)
class Granule:
    """All rows sharing one condition-value pattern, with decision counts."""

    pattern: tuple[int, ...]
    count_t: int  # rows with decision 1
    count_f: int  # rows with decision 0

    def __post_init__(self):
        if self.count_t < 0 or self.count_f < 0 or self.count_t + self.count_f == 0:
            raise ParameterError("granule counts must be non-negative and not both zero")

    @property
    def proportion(self) -> float:
        return self.count_t / (self.count_t + self.count_f)

    @property
    def rank(self) -> float:
        return self.count_t * self.proportion

    @property
    def region(self) -> str:
        if self.count_f == 0:
            return "positive"
        if self.count_t == 0:
            return "negative"
        return "boundary"


@dataclass(frozen=True)
class GranuleSet:
    """Granules keyed by pattern over a fixed attribute list."""

    granules: tuple[Granule, ...]
    attributes: tuple[str, ...]
    rows: int  # total row mass absorbed

    @classmethod
    def from_granules(cls, granules, attributes) -> "GranuleSet":
        granules = tuple(sorted(granules, key=lambda g: g.pattern))
        patterns = [g.pattern for g in granules]
        if len(set(patterns)) != len(patterns):
            raise ParameterError("duplicate granule patterns")
        rows = sum(g.count_t + g.count_f for g in granules)
        return cls(granules, tuple(attributes), rows)

    def by_pattern(self) -> dict[tuple[int, ...], Granule]:
        return {g.pattern: g for g in self.granules}

    def __len__(self) -> int:
        return len(self.granules)


def _rank_order(granules: _Granules) -> np.ndarray:
    """Indices of the highest-ranked granules first; rank ties order by
    count_t descending, remaining ties by pattern."""
    t = granules.count_t
    rank = t * (t / (t + granules.count_f))  # Granule.rank, element-wise
    return np.lexsort((granules.codes, -t, -rank))


def _granule_arrays(granules, width: int) -> _Granules:
    """Granule objects as arrays, in their given order."""
    patterns = np.array([g.pattern for g in granules], dtype=np.int64).reshape(-1, width)
    if patterns.size and (patterns.min() < 1 or patterns.max() > 4):
        raise ValidationError("granule patterns must hold categories in {1, 2, 3, 4}")
    return _Granules(
        pattern_codes(patterns, range(width)),
        patterns,
        np.array([g.count_t for g in granules], dtype=np.int64),
        np.array([g.count_f for g in granules], dtype=np.int64),
    )


def _granule_set(granules: _Granules, attributes) -> GranuleSet:
    """A GranuleSet of grouped arrays, which are already in pattern order."""
    objects = tuple(
        Granule(tuple(p), t, f)
        for p, t, f in zip(
            granules.patterns.tolist(), granules.count_t.tolist(), granules.count_f.tolist()
        )
    )
    return GranuleSet(objects, tuple(attributes), granules.rows)


def _expand(granules: _Granules, attributes) -> CategoricalTable:
    """One majority-decision row per granule; a count tie gives a 1-row then
    a 0-row so the contradiction survives."""
    t, f = granules.count_t, granules.count_f
    repeats = np.where(t == f, 2, 1)
    decisions = np.repeat((t > f).astype(np.int64), repeats)
    decisions[(np.cumsum(repeats) - repeats)[t == f]] = 1
    return CategoricalTable(np.repeat(granules.patterns, repeats, axis=0), decisions, attributes)


def granulate(chunk: CategoricalTable) -> GranuleSet:
    """One granule per distinct condition tuple in the chunk."""
    if chunk.n_rows == 0:
        raise ParameterError("cannot granulate an empty chunk")
    return _granule_set(_row_granules(chunk.values, chunk.decisions), chunk.attributes)


def combine(base: GranuleSet, new: GranuleSet) -> GranuleSet:
    """Merge matching patterns by adding counts; insert unmatched granules."""
    if base.attributes != new.attributes:
        raise SchemaError(
            f"attribute lists differ: {base.attributes} vs {new.attributes}"
        )
    both = _granule_arrays(base.granules + new.granules, len(base.attributes))
    return _granule_set(_group(*both), base.attributes)


def top_ranked(granules: GranuleSet, n: int) -> list[Granule]:
    """Highest-ranked granules first; rank ties order by count_t descending,
    remaining ties by pattern."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    order = _rank_order(_granule_arrays(granules.granules, len(granules.attributes)))
    return [granules.granules[i] for i in order[:n].tolist()]


def to_decision_table(granules: GranuleSet) -> CategoricalTable:
    """Expand a granule set back into a decision table for reduct search.

    Each granule contributes one row carrying its majority decision; an exact
    count tie contributes one row per class so the contradiction survives.
    """
    if len(granules) == 0:
        raise ParameterError("cannot expand an empty granule set")
    arrays = _granule_arrays(granules.granules, len(granules.attributes))
    return _expand(arrays, granules.attributes)


def incremental_rank_reduce(
    table: CategoricalTable,
    chunk_size: int,
    carry: int,
) -> ReductionResult:
    """Chunked granular ranking feeding the degree-of-dependency reduct search.

    The first chunk is granulated whole; each later chunk contributes only its
    `carry` top-ranked granules to the accumulated set.  The accumulated set
    expands to a decision table whose attributes are then reduced.  A chunk
    size of at least the row count degenerates to a single-chunk run.
    """
    if chunk_size < 1:
        raise ParameterError("chunk_size must be at least 1")
    if carry < 1:
        raise ParameterError("carry must be at least 1")
    values, decisions = table.values, table.decisions
    codes = pattern_codes(values, range(table.n_attributes))

    def chunk(start):
        rows = slice(start, start + chunk_size)
        return _group(codes[rows], values[rows], decisions[rows], 1 - decisions[rows])

    starts = range(0, table.n_rows, chunk_size)
    accumulated = chunk(0)
    for start in starts[1:]:
        ranked = chunk(start)
        carried = _rank_order(ranked)[:carry]
        accumulated = _group(
            *(np.concatenate((a, r[carried])) for a, r in zip(accumulated, ranked))
        )
    expanded = _expand(accumulated, table.attributes)
    reduct = reduct_search(InformationSystem.from_table(expanded))
    diagnostics = {
        "chunks": len(starts),
        "chunk_size": chunk_size,
        "carry": carry,
        "granules": len(accumulated.codes),
        "rows_absorbed": accumulated.rows,
        "expanded_rows": expanded.n_rows,
    }
    diagnostics.update(reduct.diagnostics)
    return ReductionResult(method="gr", kept=reduct.kept, diagnostics=diagnostics)
