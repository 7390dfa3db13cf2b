"""Granule counting, merging, ranking, expansion and incremental reduction,
on the arrays the GR++ reducer runs: `roughset.partition` counts a
table's granules, `roughset._group` merges granule sets, `granular._rank_order`
ranks them and `granular._expand` turns them back into a decision table.

A granule's rank is count_t * proportion = count_t**2 / (count_t + count_f);
rank ties order by count_t descending, remaining ties by pattern.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgareduce.errors import DependencyDegenerateError, ParameterError
from dgareduce.granular import _expand, _rank_order, incremental_rank_reduce
from dgareduce.reduction import ReductionResult
from dgareduce.roughset import (
    InformationSystem,
    _group,
    _Granules,
    partition,
    pattern_codes,
    reduct_search,
)

from conftest import make_categorical


def _random_table(rng, n=20, m=3):
    return make_categorical(
        rng.integers(1, 4, size=(m, n)).tolist(), rng.integers(0, 2, n)
    )


def _granules(patterns, count_t, count_f, width=1):
    """Hand-written granules, one pattern tuple per granule."""
    patterns = np.array(patterns, dtype=np.int64).reshape(len(count_t), width)
    return _Granules(
        pattern_codes(patterns, range(width)),
        patterns,
        np.array(count_t, dtype=np.int64),
        np.array(count_f, dtype=np.int64),
    )


def _of(table):
    return partition(table).granules


def _merge(*parts):
    """Group the concatenation of granule sets, as the chunk loop does."""
    return _group(*(np.concatenate(arrays) for arrays in zip(*parts)))


def _assert_same(a, b):
    for name, x, y in zip(_Granules._fields, a, b):
        np.testing.assert_array_equal(x, y, err_msg=name)


def _by_pattern(granules):
    return {
        tuple(p): (t, f)
        for p, t, f in zip(
            granules.patterns.tolist(), granules.count_t.tolist(), granules.count_f.tolist()
        )
    }


def _ranked(granules):
    """Patterns in `_rank_order`."""
    return [tuple(p) for p in granules.patterns[_rank_order(granules)].tolist()]


def _ranks(granules):
    t, f = granules.count_t, granules.count_f
    return t * t / (t + f)


def _oracle_order(granules):
    t, rank = granules.count_t.tolist(), _ranks(granules).tolist()
    patterns = [tuple(p) for p in granules.patterns.tolist()]
    return sorted(range(len(t)), key=lambda i: (-rank[i], -t[i], patterns[i]))


class TestGranule:
    def test_hand_counts(self):
        table = make_categorical([[2, 2, 2, 2], [3, 3, 3, 3]], [1, 1, 1, 0])
        granules = _of(table)
        assert _by_pattern(granules) == {(2, 3): (3, 1)}
        assert granules.rows == 4
        # rank 9/4 lies between 2 (count 2, 0) and 5/2 (count 5, 5)
        around = _merge(granules, _granules([(1, 1), (4, 4)], [2, 5], [0, 5], width=2))
        assert _ranked(around) == [(4, 4), (2, 3), (1, 1)]

    def test_all_negative_rank_zero(self):
        granules = _of(make_categorical([[1, 1, 2, 2]], [0, 0, 0, 0]))
        assert _by_pattern(granules) == {(1,): (0, 2), (2,): (0, 2)}
        # rank-0 granules tie and keep pattern order; any positive mass ranks above
        mixed = _merge(granules, _granules([(3,)], [1], [3]))
        assert _ranked(mixed) == [(3,), (1,), (2,)]

    def test_distinct_positive_rank_one(self):
        table = make_categorical([[1, 2, 3, 4], [1, 1, 1, 1]], [1, 1, 1, 1])
        granules = _of(table)
        assert _ranked(granules) == [(1, 1), (2, 1), (3, 1), (4, 1)]
        # 2*2/4 ties at rank 1 and leads on count_t; 1*1/2 ranks below
        mixed = _merge(granules, _granules([(1, 2), (2, 2)], [1, 2], [1, 2], width=2))
        assert _ranked(mixed) == [(2, 2), (1, 1), (2, 1), (3, 1), (4, 1), (1, 2)]

    def test_rank_formula_exact(self, rng):
        for _ in range(30):
            granules = _of(_random_table(rng))
            assert _rank_order(granules).tolist() == _oracle_order(granules)

    def test_rank_monotonicity(self):
        # more positive mass at equal negative mass ranks higher: 9/4 > 4/3
        assert _ranked(_granules([(1,), (2,)], [2, 3], [1, 1])) == [(2,), (1,)]
        # more negative mass at equal positive mass ranks lower: 4/4 < 4/3
        assert _ranked(_granules([(1,), (2,)], [2, 2], [2, 1])) == [(2,), (1,)]

    def test_region_rank_bounds(self, rng):
        # negative granules (rank 0) rank below every granule with positive
        # mass; a positive granule (rank count_t) ranks above every boundary
        # granule (rank below count_t) of no more positive mass
        for _ in range(30):
            granules = _of(_random_table(rng))
            place = np.argsort(_rank_order(granules))
            t, f = granules.count_t, granules.count_f
            assert place[t == 0].min(initial=len(t)) > place[t > 0].max(initial=-1)
            for i in np.flatnonzero((f == 0) & (t > 0)):
                boundary = (t > 0) & (f > 0) & (t <= t[i])
                assert (place[boundary] > place[i]).all()


class TestCombine:
    def test_hand_merge(self):
        merged = _merge(
            _granules([(1, 2)], [2], [1], width=2), _granules([(1, 2)], [1], [0], width=2)
        )
        assert _by_pattern(merged) == {(1, 2): (3, 1)}
        assert merged.rows == 4

    def test_identity_element(self, rng):
        granules = _of(_random_table(rng))
        empty = _granules(np.zeros((0, 3)), [], [], width=3)
        merged = _merge(granules, empty)
        _assert_same(merged, granules)
        assert merged.rows == granules.rows

    def test_matches_granulating_the_union(self, rng):
        for _ in range(20):
            table = _random_table(rng, n=24)
            cut = int(rng.integers(4, 20))
            left = _of(table.take(np.arange(cut)))
            right = _of(table.take(np.arange(cut, 24)))
            for merged in (_merge(left, right), _merge(right, left)):
                _assert_same(merged, _of(table))
                assert merged.rows == 24

    def test_commutative_and_mass_conserving(self, rng):
        table = _random_table(rng, n=30)
        left = _of(table.take(np.arange(15)))
        right = _of(table.take(np.arange(15, 30)))
        ab = _merge(left, right)
        _assert_same(ab, _merge(right, left))
        assert ab.rows == 30

    def test_associative_over_disjoint_sources(self, rng):
        table = _random_table(rng, n=30)
        parts = [_of(table.take(np.arange(s, s + 10))) for s in (0, 10, 20)]
        left_first = _merge(_merge(parts[0], parts[1]), parts[2])
        right_first = _merge(parts[0], _merge(parts[1], parts[2]))
        _assert_same(left_first, right_first)
        assert left_first.rows == right_first.rows == 30


class TestTopRanked:
    def test_unique_max(self):
        granules = _granules([(1,), (2,), (3,)], [3, 1, 0], [1, 0, 1])
        assert _ranked(granules)[0] == (1,)

    def test_count_t_breaks_rank_ties(self):
        # ranks equal 1.0 with different positive mass: 1/(1+0) vs 2*2/(2+2)
        granules = _granules([(1,), (2,)], [1, 2], [0, 2])
        assert _ranked(granules) == [(2,), (1,)]

    def test_equal_ranks_compare_equal(self):
        # 14*14/24 and 21*21/54 are both 49/6, so count_t 21 goes first
        granules = _granules([(1,), (2,)], [14, 21], [10, 33])
        assert _ranks(granules)[0] == _ranks(granules)[1]
        assert _ranked(granules) == [(2,), (1,)]

    def test_saturation(self, rng):
        granules = _of(_random_table(rng))
        order = _rank_order(granules)
        assert sorted(order.tolist()) == list(range(len(granules.codes)))
        ranks = _ranks(granules)[order].tolist()
        assert ranks == sorted(ranks, reverse=True)


class TestDecisionTableExpansion:
    def test_majority_rows(self):
        table = _expand(_granules([(1,), (2,)], [3, 0], [1, 2]), ("a1",))
        assert table.n_rows == 2
        assert list(table.decisions) == [1, 0]

    def test_tie_preserves_contradiction(self):
        table = _expand(_granules([(1,)], [2], [2]), ("a1",))
        assert table.values.tolist() == [[1], [1]]
        assert list(table.decisions) == [1, 0]


class TestIncrementalRankReduce:
    def test_single_chunk_equals_direct_run(self, rng):
        table = _random_table(rng, n=30, m=4)
        try:
            incremental = incremental_rank_reduce(table, chunk_size=100, carry=1)
        except DependencyDegenerateError:
            pytest.skip("degenerate draw")
        direct = reduct_search(
            InformationSystem.from_table(_expand(_of(table), table.attributes))
        )
        assert incremental.kept == direct.kept

    def test_decision_equals_first_attribute(self, rng):
        a1 = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
        junk = [rng.integers(1, 3, 6).tolist() * 2 for _ in range(3)]
        table = make_categorical([a1] + junk, np.array(a1) - 1)
        result = incremental_rank_reduce(table, chunk_size=4, carry=1)
        assert result.kept == ("a1",)

    def test_full_carry_equals_single_chunk(self, rng):
        table = _random_table(rng, n=24, m=3)
        try:
            whole = incremental_rank_reduce(table, chunk_size=100, carry=1)
        except DependencyDegenerateError:
            pytest.skip("degenerate draw")
        chunked = incremental_rank_reduce(table, chunk_size=6, carry=10**6)
        assert chunked.kept == whole.kept

    def test_parameter_errors(self, rng):
        table = _random_table(rng)
        with pytest.raises(ParameterError):
            incremental_rank_reduce(table, chunk_size=0, carry=1)
        with pytest.raises(ParameterError):
            incremental_rank_reduce(table, chunk_size=5, carry=0)

    def test_carry_starves_samples(self):
        # small carry keeps almost nothing from later chunks
        rng = np.random.default_rng(5)
        table = make_categorical(
            rng.integers(1, 4, size=(3, 60)).tolist(), rng.integers(0, 2, 60)
        )
        result = incremental_rank_reduce(table, chunk_size=10, carry=1)
        # at most the first chunk's granules plus one per later chunk survive
        assert result.diagnostics["granules"] <= 10 + 5
        assert result.diagnostics["rows_absorbed"] < 60


# The chunk-by-chunk loop that the single chunk-major grouping replaces, kept
# here as the oracle: granulate a chunk, rank it, carry its top granules into
# the accumulated set, regroup, and go on to the next chunk.
def oracle_rank_reduce(table, chunk_size, carry):
    values, decisions = table.values, table.decisions
    codes = pattern_codes(values, range(table.n_attributes))

    def chunk(start):
        rows = slice(start, start + chunk_size)
        return _group(codes[rows], values[rows], decisions[rows], 1 - decisions[rows])

    starts = range(0, table.n_rows, chunk_size)
    accumulated = chunk(0)
    for start in starts[1:]:
        ranked = chunk(start)
        carried = np.array(_oracle_order(ranked)[:carry], dtype=np.int64)
        accumulated = _merge(accumulated, _Granules(*(a[carried] for a in ranked)))
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


def _outcome(reduce, table, chunk_size, carry):
    try:
        return reduce(table, chunk_size, carry)
    except (DependencyDegenerateError, ParameterError) as exc:
        return type(exc).__name__


@st.composite
def chunked_tables(draw):
    """A table, a chunk size of 1, below, at or above its row count (so the
    last chunk may be partial), and a carry from 1 past a chunk's granules."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(2, 4))
    high = draw(st.integers(1, 4))  # few values repeat patterns inside a chunk
    values = draw(st.lists(st.integers(1, high), min_size=n * m, max_size=n * m))
    decisions = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = make_categorical(np.reshape(values, (m, n)).tolist(), decisions)
    chunk_size = draw(st.one_of(st.just(1), st.integers(1, n), st.just(n), st.integers(n + 1, 60)))
    return table, chunk_size, draw(st.integers(1, chunk_size + 2))


class TestChunkMajorGroupingMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(chunked_tables())
    def test_kept_and_diagnostics(self, case):
        table, chunk_size, carry = case
        got = _outcome(incremental_rank_reduce, table, chunk_size, carry)
        assert got == _outcome(oracle_rank_reduce, table, chunk_size, carry)

    @pytest.mark.parametrize("chunk_size", [1, 5, 7])
    def test_codes_past_the_key_range_rank_densely(self, rng, chunk_size):
        # 30 columns code up to 4**30 - 1 = 2**60 - 1, so several chunks times
        # that radix passes 2**62 and a chunk-major key would wrap around int64
        columns = rng.integers(1, 5, size=(30, 40))
        columns[0, :20] = 4
        table = make_categorical(columns.tolist(), rng.integers(0, 2, 40))
        codes = pattern_codes(table.values, range(30))
        assert -(-40 // chunk_size) * (int(codes.max()) + 1) > 2**62
        got = _outcome(incremental_rank_reduce, table, chunk_size, 2)
        assert got == _outcome(oracle_rank_reduce, table, chunk_size, 2)
