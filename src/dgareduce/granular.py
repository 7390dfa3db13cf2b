"""Granular layer: the incremental chunked ranking whose accumulated granule
set feeds the rough-set reduct search.

A granule is one condition-value pattern with its decision counts count_t
(rows with decision 1) and count_f (rows with decision 0); its rank is
count_t * proportion, with proportion count_t / (count_t + count_f).
Granules are counted, merged and ranked as arrays grouped by
`roughset._group`, the grouping routine the reduct search uses too.
"""

from __future__ import annotations

import numpy as np

from .dataset import CategoricalTable
from .errors import ParameterError
from .reduction import ReductionResult
from .roughset import _group, _Granules, pattern_codes, reduct_search


def _rank_order(granules: _Granules) -> np.ndarray:
    """Indices of the highest-ranked granules first; rank ties order by
    count_t descending, remaining ties by pattern."""
    t = granules.count_t
    # count_t * proportion as one division, so equal ranks compare equal
    rank = t * t / (t + granules.count_f)
    return np.lexsort((granules.codes, -t, -rank))


def _expand(granules: _Granules, attributes) -> CategoricalTable:
    """One majority-decision row per granule; a count tie gives a 1-row then
    a 0-row so the contradiction survives."""
    t, f = granules.count_t, granules.count_f
    repeats = np.where(t == f, 2, 1)
    decisions = np.repeat((t > f).astype(np.int64), repeats)
    decisions[(np.cumsum(repeats) - repeats)[t == f]] = 1
    return CategoricalTable(np.repeat(granules.patterns, repeats, axis=0), decisions, attributes)


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
    reduct = reduct_search(expanded)
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
