"""Pattern-code partitions against the row-tuple partition they replace.

The oracle is `np.unique(values[:, cols], axis=0)`: blocks numbered in the
lexicographic order of their value tuples.  The pattern-code partition must
give the same block ids; `roughset.partition` the same granule counts;
`granular._rank_order` the same ranking as sorting by rank count_t**2 /
(count_t + count_f), then count_t, then pattern; and the rough-set and
granular reducers built on them the same kept sets and diagnostics as when
every partition, granule count and granule ranking goes through the oracle
instead.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgareduce import granular, roughset
from dgareduce.dataset import CategoricalTable
from dgareduce.errors import DgaError, ValidationError
from dgareduce.granular import incremental_rank_reduce
from dgareduce.roughset import InformationSystem, partition, pattern_codes, reduct_search

PROPERTY = settings(max_examples=80, deadline=None)


def oracle_codes(values, cols):
    """Dense rank of each row's value tuple over `cols`; no columns rank
    every row 0, one block for the universe."""
    cols = list(cols)
    if not cols:
        return np.zeros(len(values), dtype=np.int64)
    _, inverse = np.unique(values[:, cols], axis=0, return_inverse=True)
    return inverse.ravel()


def block_inverse(values, cols):
    """Block id per row from the pattern codes, numbered in code order."""
    _, inverse = np.unique(pattern_codes(values, cols), return_inverse=True)
    return inverse


def oracle_granules(values, decisions) -> dict:
    """pattern -> (count_t, count_f) over the given rows."""
    patterns, inverse = np.unique(values, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    sizes = np.bincount(inverse, minlength=len(patterns))
    ones = np.bincount(inverse, weights=decisions, minlength=len(patterns))
    return {
        tuple(int(v) for v in patterns[b]): (int(ones[b]), int(sizes[b] - ones[b]))
        for b in range(len(patterns))
    }


def oracle_ranked(granules: dict) -> list:
    def key(item):
        pattern, (t, f) = item
        return (-(t * t / (t + f)), -t, pattern)

    return sorted(granules.items(), key=key)


def oracle_reduct(table: CategoricalTable):
    with mock.patch.object(roughset, "pattern_codes", oracle_codes):
        return reduct_search(InformationSystem.from_table(table))


def oracle_incremental(table: CategoricalTable, chunk_size: int, carry: int):
    """The chunk loop on dicts: count, rank, merge by pattern."""
    values, decisions = table.values, table.decisions
    starts = range(0, table.n_rows, chunk_size)
    accumulated = oracle_granules(values[:chunk_size], decisions[:chunk_size])
    for s in starts[1:]:
        rows = slice(s, s + chunk_size)
        ranked = oracle_ranked(oracle_granules(values[rows], decisions[rows]))
        for pattern, (t, f) in ranked[:carry]:
            old_t, old_f = accumulated.get(pattern, (0, 0))
            accumulated[pattern] = (old_t + t, old_f + f)
    rows, expanded_decisions = [], []
    for pattern in sorted(accumulated):
        t, f = accumulated[pattern]
        if t == f:
            rows += [pattern, pattern]
            expanded_decisions += [1, 0]
        else:
            rows.append(pattern)
            expanded_decisions.append(1 if t > f else 0)
    expanded = CategoricalTable(np.array(rows), np.array(expanded_decisions), table.attributes)
    reduct = oracle_reduct(expanded)
    diagnostics = {
        "chunks": len(starts),
        "chunk_size": chunk_size,
        "carry": carry,
        "granules": len(accumulated),
        "rows_absorbed": sum(t + f for t, f in accumulated.values()),
        "expanded_rows": expanded.n_rows,
    }
    diagnostics.update(reduct.diagnostics)
    return reduct.kept, diagnostics


def outcome(fn, *args):
    """A reducer's kept set and diagnostics, or the typed error it raised."""
    try:
        result = fn(*args)
    except DgaError as exc:
        return type(exc).__name__, str(exc)
    return result if isinstance(result, tuple) else (result.kept, result.diagnostics)


@st.composite
def tables(draw, max_cols=6, max_rows=40):
    """Categorical tables, including one-attribute tables, constant columns,
    all-identical rows and a minority class of at most two rows."""
    m = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(1, 4), min_size=m, max_size=m)
    values = np.array(draw(st.lists(row, min_size=1, max_size=max_rows)), dtype=np.int64)
    n = len(values)
    shape = draw(st.sampled_from(["free", "constant-columns", "identical-rows"]))
    if shape == "constant-columns":
        constant = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        values[:, constant] = values[0, constant]
    elif shape == "identical-rows":
        values[:] = values[0]
    if draw(st.booleans()):
        decisions = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        majority = draw(st.integers(0, 1))
        minority_rows = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
        decisions = np.full(n, majority)
        decisions[minority_rows] = 1 - majority
    return CategoricalTable(values, decisions, tuple(f"a{i + 1}" for i in range(m)))


class TestBlockInverse:
    @PROPERTY
    @given(tables(), st.data())
    def test_matches_row_tuple_partition(self, table, data):
        m = table.n_attributes
        cols = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        expected = oracle_codes(table.values, cols)
        assert np.array_equal(block_inverse(table.values, cols), expected)

    @PROPERTY
    @given(tables(max_cols=70, max_rows=25))
    def test_wide_tables_code_exactly(self, table):
        # more than 31 base-4 digits: the running code is re-densified
        cols = list(range(table.n_attributes))[::-1]
        expected = oracle_codes(table.values, cols)
        assert np.array_equal(block_inverse(table.values, cols), expected)

    def test_codes_are_base_4_digits(self):
        values = np.array([[1, 1], [4, 2], [2, 4]])
        assert pattern_codes(values, [0, 1]).tolist() == [0, 13, 7]
        assert pattern_codes(values, [1, 0]).tolist() == [0, 7, 13]
        # no columns: one block, the whole universe
        assert pattern_codes(values, []).tolist() == [0, 0, 0]

    def test_identical_rows_form_one_block(self):
        values = np.full((64, 40), 3)
        assert not block_inverse(values, range(40)).any()


class TestReducersMatchOracle:
    @PROPERTY
    @given(tables())
    def test_reduct_search(self, table):
        system = InformationSystem.from_table(table)
        assert outcome(reduct_search, system) == outcome(oracle_reduct, table)

    @PROPERTY
    @given(tables(), st.integers(1, 12), st.integers(1, 4))
    def test_incremental_rank_reduce(self, table, chunk_size, carry):
        assert outcome(incremental_rank_reduce, table, chunk_size, carry) == outcome(
            oracle_incremental, table, chunk_size, carry
        )

    @PROPERTY
    @given(tables())
    # rank 1.0 twice: pattern (1,) has count_t 1, pattern (2,) count_t 2 and goes first
    @example(CategoricalTable([[1], [2], [2], [2], [2]], [1, 1, 1, 0, 0], ("a1",)))
    def test_granulate_and_top_ranked(self, table):
        granules = partition(table).granules
        counted = [
            (tuple(p), (t, f))
            for p, t, f in zip(
                granules.patterns.tolist(), granules.count_t.tolist(), granules.count_f.tolist()
            )
        ]
        expected = oracle_granules(table.values, table.decisions)
        assert counted == sorted(expected.items())
        assert granules.rows == table.n_rows
        ranked = [counted[i] for i in granular._rank_order(granules).tolist()]
        assert ranked == oracle_ranked(expected)


class TestCategoryGuard:
    @pytest.mark.parametrize("cell", [0, 5, 1.5, -1])
    def test_information_system_rejects_non_category_cells(self, cell):
        values = np.array([[1, 2], [3, cell]])
        with pytest.raises(ValidationError):
            InformationSystem(values, np.array([0, 1]), ("a1", "a2"))

    def test_information_system_stores_int64(self):
        system = InformationSystem(np.array([[1.0, 4.0]]), np.array([1]), ("a1", "a2"))
        assert system.values.dtype == np.int64
