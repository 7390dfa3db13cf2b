"""Granular layer: the incremental chunked ranking whose accumulated granule
set feeds the rough-set reduct search.

A granule is one condition-value pattern with its decision counts count_t
(rows with decision 1) and count_f (rows with decision 0); its rank is
count_t * proportion, with proportion count_t / (count_t + count_f).
Granules are counted, merged and ranked as arrays grouped by
`roughset._group`, the grouping routine the reduct search uses too.  The
table arrives as its `roughset.Partition`, whose row granule index orders
rows like their pattern codes.  One grouping keyed on chunk x granules +
index granulates every chunk, one lexsort ranks them chunk by chunk, and one
more grouping merges the kept granules: that equals merging chunk by chunk,
as a chunk's carry depends on it alone.
"""

from __future__ import annotations

import numpy as np

from .dataset import CategoricalTable
from .errors import ParameterError
from .reduction import ReductionResult
from .roughset import Partition, _group, _Granules, _partitioned, reduct_search


def _rank_order(granules: _Granules, *outer) -> np.ndarray:
    """Indices of the highest-ranked granules first; rank ties order by
    count_t descending, remaining ties by pattern.  `outer` keys (each
    granule's chunk, say) sort before the rank, the last most significant."""
    t = granules.count_t
    # count_t * proportion as one division, so equal ranks compare equal
    rank = t * t / (t + granules.count_f)
    return np.lexsort((granules.codes, -t, -rank, *outer))


def _expand(granules: _Granules, attributes) -> CategoricalTable:
    """One majority-decision row per granule; a count tie gives a 1-row then
    a 0-row so the contradiction survives."""
    t, f = granules.count_t, granules.count_f
    repeats = np.where(t == f, 2, 1)
    decisions = np.repeat((t > f).astype(np.int64), repeats)
    decisions[(np.cumsum(repeats) - repeats)[t == f]] = 1
    return CategoricalTable(np.repeat(granules.patterns, repeats, axis=0), decisions, attributes)


def incremental_rank_reduce(
    table: CategoricalTable | Partition,
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
    part = _partitioned(table)
    n, decisions, whole = part.n_rows, part.decisions, part.granules
    n_chunks = -(-n // chunk_size)
    chunk = np.arange(n) // chunk_size
    # one granule per (chunk, pattern) in chunk-major order, patterns = first rows
    granules = _group(chunk * len(whole.codes) + part.index, np.arange(n), decisions, 1 - decisions)
    in_chunk = chunk[granules.patterns]  # ascending, as in the rank order below
    place = np.arange(len(in_chunk)) - np.searchsorted(in_chunk, in_chunk)  # rank in chunk
    carried = _rank_order(granules, in_chunk)[(in_chunk == 0) | (place < carry)]
    t, f = granules.count_t[carried], granules.count_f[carried]
    kept = part.index[granules.patterns[carried]]
    accumulated = _group(whole.codes[kept], whole.patterns[kept], t, f)
    expanded = _expand(accumulated, part.attributes)
    reduct = reduct_search(expanded)
    diagnostics = {
        "chunks": n_chunks,
        "chunk_size": chunk_size,
        "carry": carry,
        "granules": len(accumulated.codes),
        "rows_absorbed": accumulated.rows,
        "expanded_rows": expanded.n_rows,
    }
    diagnostics.update(reduct.diagnostics)
    return ReductionResult(method="gr", kept=reduct.kept, diagnostics=diagnostics)
