"""Granules, rough membership, ranking, combination, incremental reduction."""

import numpy as np
import pytest

from dgareduce.errors import DependencyDegenerateError, ParameterError, SchemaError
from dgareduce.granular import (
    Granule,
    GranuleSet,
    combine,
    granulate,
    incremental_rank_reduce,
    to_decision_table,
    top_ranked,
)
from dgareduce.roughset import InformationSystem, reduct_search

from conftest import make_categorical


def _random_table(rng, n=20, m=3):
    return make_categorical(
        rng.integers(1, 4, size=(m, n)).tolist(), rng.integers(0, 2, n)
    )


class TestGranule:
    def test_hand_counts(self):
        table = make_categorical([[2, 2, 2, 2], [3, 3, 3, 3]], [1, 1, 1, 0])
        gset = granulate(table)
        assert len(gset) == 1
        g = gset.granules[0]
        assert (g.count_t, g.count_f) == (3, 1)
        assert g.proportion == pytest.approx(0.75)
        assert g.rank == pytest.approx(2.25)
        assert g.region == "boundary"

    def test_all_negative_rank_zero(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 0, 0])
        for g in granulate(table).granules:
            assert g.rank == 0.0
            assert g.region == "negative"

    def test_distinct_positive_rank_one(self):
        table = make_categorical([[1, 2, 3, 4]], [1, 1, 1, 1])
        for g in granulate(table).granules:
            assert g.rank == 1.0
            assert g.region == "positive"

    def test_rank_formula_exact(self, rng):
        for _ in range(30):
            gset = granulate(_random_table(rng))
            for g in gset.granules:
                expected = g.count_t**2 / (g.count_t + g.count_f)
                assert abs(g.rank - expected) <= 1e-12

    def test_rank_monotonicity(self):
        assert Granule((1,), 3, 1).rank > Granule((1,), 2, 1).rank
        assert Granule((1,), 2, 2).rank < Granule((1,), 2, 1).rank

    def test_region_rank_bounds(self, rng):
        for _ in range(30):
            for g in granulate(_random_table(rng)).granules:
                if g.region == "positive":
                    assert 1 <= g.rank <= g.count_t
                elif g.region == "negative":
                    assert g.rank == 0.0
                else:
                    assert 0.0 < g.rank < g.count_t

    def test_empty_counts_rejected(self):
        with pytest.raises(ParameterError):
            Granule((1, 2), 0, 0)

    def test_empty_chunk_rejected(self):
        table = make_categorical([[1, 2]], [0, 1])
        with pytest.raises(ParameterError):
            granulate(table.take([]))


class TestCombine:
    def test_hand_merge(self):
        a = GranuleSet.from_granules([Granule((1, 2), 2, 1)], ("a1", "a2"))
        b = GranuleSet.from_granules([Granule((1, 2), 1, 0)], ("a1", "a2"))
        merged = combine(a, b)
        g = merged.granules[0]
        assert (g.count_t, g.count_f) == (3, 1)
        assert g.proportion == pytest.approx(0.75)
        assert g.rank == pytest.approx(2.25)

    def test_identity_element(self, rng):
        gset = granulate(_random_table(rng))
        empty = GranuleSet.from_granules([], gset.attributes)
        merged = combine(gset, empty)
        assert merged.by_pattern() == gset.by_pattern()
        assert merged.rows == gset.rows

    def test_matches_granulating_the_union(self, rng):
        for _ in range(20):
            table = _random_table(rng, n=24)
            cut = int(rng.integers(4, 20))
            left = table.take(np.arange(cut))
            right = table.take(np.arange(cut, 24))
            merged = combine(granulate(left), granulate(right))
            direct = granulate(table)
            assert merged.by_pattern() == direct.by_pattern()

    def test_commutative_and_mass_conserving(self, rng):
        table = _random_table(rng, n=30)
        left = table.take(np.arange(15))
        right = table.take(np.arange(15, 30))
        ab = combine(granulate(left), granulate(right))
        ba = combine(granulate(right), granulate(left))
        assert ab.by_pattern() == ba.by_pattern()
        assert ab.rows == 30

    def test_associative_over_disjoint_sources(self, rng):
        table = _random_table(rng, n=30)
        parts = [granulate(table.take(np.arange(s, s + 10))) for s in (0, 10, 20)]
        left_first = combine(combine(parts[0], parts[1]), parts[2])
        right_first = combine(parts[0], combine(parts[1], parts[2]))
        assert left_first.by_pattern() == right_first.by_pattern()
        assert left_first.rows == right_first.rows == 30

    def test_schema_mismatch(self):
        a = GranuleSet.from_granules([Granule((1,), 1, 0)], ("a1",))
        b = GranuleSet.from_granules([Granule((1,), 1, 0)], ("zz",))
        with pytest.raises(SchemaError):
            combine(a, b)


class TestTopRanked:
    def test_unique_max(self):
        gset = GranuleSet.from_granules(
            [Granule((1,), 3, 1), Granule((2,), 1, 0), Granule((3,), 0, 1)], ("a1",)
        )
        best = top_ranked(gset, 1)
        assert best[0].pattern == (1,)

    def test_count_t_breaks_rank_ties(self):
        # ranks equal 1.0 with different positive mass: 2/(2+2) vs 1/(1+0)
        a = Granule((1,), 2, 2)
        b = Granule((2,), 1, 0)
        gset = GranuleSet.from_granules([a, b], ("a1",))
        best = top_ranked(gset, 2)
        assert best[0].pattern == (1,)
        assert best[0].count_t == 2

    def test_saturation(self, rng):
        gset = granulate(_random_table(rng))
        ranked = top_ranked(gset, len(gset) + 10)
        assert len(ranked) == len(gset)
        ranks = [g.rank for g in ranked]
        assert ranks == sorted(ranks, reverse=True)

    def test_n_validation(self, rng):
        with pytest.raises(ParameterError):
            top_ranked(granulate(_random_table(rng)), 0)


class TestDecisionTableExpansion:
    def test_majority_rows(self):
        gset = GranuleSet.from_granules(
            [Granule((1,), 3, 1), Granule((2,), 0, 2)], ("a1",)
        )
        table = to_decision_table(gset)
        assert table.n_rows == 2
        assert list(table.decisions) == [1, 0]

    def test_tie_preserves_contradiction(self):
        gset = GranuleSet.from_granules([Granule((1,), 2, 2)], ("a1",))
        table = to_decision_table(gset)
        assert table.n_rows == 2
        assert sorted(table.decisions) == [0, 1]


class TestIncrementalRankReduce:
    def test_single_chunk_equals_direct_run(self, rng):
        table = _random_table(rng, n=30, m=4)
        try:
            incremental = incremental_rank_reduce(table, chunk_size=100, carry=1)
        except DependencyDegenerateError:
            pytest.skip("degenerate draw")
        direct = reduct_search(
            InformationSystem.from_table(to_decision_table(granulate(table)))
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
