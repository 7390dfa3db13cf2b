"""Indiscernibility partitions, dependency, and the reduct search, checked
against brute-force oracles on small tables."""

from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dgareduce import roughset
from dgareduce.dataset import CategoricalTable
from dgareduce.errors import DependencyDegenerateError, ParameterError, ValidationError
from dgareduce.roughset import (
    InformationSystem,
    degree_of_dependency,
    pattern_codes,
    reduct_search,
)

from conftest import make_categorical, make_gas_table


def brute_dependency(system: InformationSystem, names) -> float:
    """Pairwise row-comparison oracle for the degree of dependency."""
    cols = [system.attributes.index(n) for n in names]
    n = system.n_rows
    positive = 0
    for x in range(n):
        consistent = True
        for y in range(n):
            if all(system.values[x, c] == system.values[y, c] for c in cols):
                if system.decisions[x] != system.decisions[y]:
                    consistent = False
                    break
        positive += consistent
    return positive / n


def brute_reduct_check(system: InformationSystem, kept) -> bool:
    """Exhaustive check: kept preserves full dependency and is superset-minimal."""
    full = brute_dependency(system, system.attributes)
    if brute_dependency(system, kept) != full:
        return False
    if len(kept) > 1:
        for name in kept:
            rest = tuple(a for a in kept if a != name)
            if brute_dependency(system, rest) == full:
                return False
    return True


def row_count_dependency(values, decisions, cols) -> float:
    """Row-by-row count: a row is positive when every row sharing its values
    over `cols` shares its decision; no columns make one block of all rows."""
    keys = [tuple(row) for row in values[:, cols].tolist()]
    seen: dict[tuple, set] = {}
    for key, decision in zip(keys, decisions.tolist()):
        seen.setdefault(key, set()).add(decision)
    return sum(len(seen[key]) == 1 for key in keys) / len(keys)


@st.composite
def repetitive_tables(draw):
    """Up to 300 rows over 2..5 columns of cells in 1..2, so rows repeat
    heavily; decisions are free, copy the first column or are constant."""
    n, m = draw(st.integers(1, 300)), draw(st.integers(2, 5))
    values = draw(arrays(np.int64, (n, m), elements=st.integers(1, 2)))
    kind = draw(st.sampled_from(["free", "first-column", "constant"]))
    if kind == "free":
        decisions = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    elif kind == "first-column":
        decisions = values[:, 0] - 1
    else:
        decisions = np.full(n, draw(st.integers(0, 1)))
    return CategoricalTable(values, decisions, tuple(f"a{i + 1}" for i in range(m)))


def equivalence_classes(table, names=("a1",)) -> list[tuple[int, ...]]:
    """The blocks of equal pattern codes over the named columns, as sorted row tuples."""
    codes = pattern_codes(table.values, [table.attributes.index(n) for n in names])
    blocks, inverse = np.unique(codes, return_inverse=True)
    return sorted(tuple(np.flatnonzero(inverse == b).tolist()) for b in range(len(blocks)))


class TestEquivalenceClasses:
    def test_single_block(self):
        table = make_categorical([[1, 1, 1, 1]], [0, 0, 1, 1])
        assert equivalence_classes(table) == [(0, 1, 2, 3)]

    def test_singletons(self):
        table = make_categorical([[1, 2, 3, 4]], [0, 0, 1, 1])
        assert equivalence_classes(table) == [(0,), (1,), (2,), (3,)]

    def test_hand_grouping(self):
        table = make_categorical([[1, 1, 2, 2, 2]], [0, 0, 1, 1, 1])
        assert equivalence_classes(table) == [(0, 1), (2, 3, 4)]

    def test_blocks_partition_universe(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(3, 15)), int(rng.integers(1, 4))
            table = make_categorical(
                rng.integers(1, 4, size=(m, n)).tolist(), rng.integers(0, 2, n)
            )
            blocks = equivalence_classes(table, table.attributes)
            seen = sorted(r for block in blocks for r in block)
            assert seen == list(range(n))
            for block in blocks:
                assert (table.values[list(block)] == table.values[block[0]]).all()

    def test_errors(self):
        table = make_categorical([[1, 2]], [0, 1])
        system = InformationSystem.from_table(table)
        with pytest.raises(ParameterError):
            degree_of_dependency(system, ("nope",))
        with pytest.raises(ParameterError):
            degree_of_dependency(system, ())


class TestDegreeOfDependency:
    def test_fully_determined(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        assert degree_of_dependency(InformationSystem.from_table(table), ("a1",)) == 1.0

    def test_fully_contradictory(self):
        table = make_categorical([[1, 1]], [0, 1])
        assert degree_of_dependency(InformationSystem.from_table(table), ("a1",)) == 0.0

    def test_hand_third(self):
        table = make_categorical([[1, 1, 2]], [0, 1, 1])
        system = InformationSystem.from_table(table)
        assert degree_of_dependency(system, ("a1",)) == pytest.approx(1 / 3)

    def test_no_rows_is_degenerate(self):
        # |universe| is 0: the ratio is undefined, not a ZeroDivisionError
        table = make_categorical(np.empty((2, 0), dtype=np.int64), [])
        with pytest.raises(DependencyDegenerateError, match="no rows"):
            degree_of_dependency(table, ("a1",))

    def test_matches_brute_oracle(self, rng):
        for _ in range(40):
            n, m = int(rng.integers(3, 12)), int(rng.integers(1, 5))
            table = make_categorical(
                rng.integers(1, 4, size=(m, n)).tolist(), rng.integers(0, 2, n)
            )
            system = InformationSystem.from_table(table)
            size = int(rng.integers(1, m + 1))
            names = tuple(system.attributes[:size])
            assert degree_of_dependency(system, names) == brute_dependency(system, names)

    def test_monotone_in_attributes(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 12))
            table = make_categorical(
                rng.integers(1, 3, size=(4, n)).tolist(), rng.integers(0, 2, n)
            )
            system = InformationSystem.from_table(table)
            values = [
                degree_of_dependency(system, system.attributes[: k + 1]) for k in range(4)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestRepeatedRows:
    @settings(max_examples=60, deadline=None)
    @given(repetitive_tables())
    # one attribute kept, its removal leaving the contradictory universe
    @example(make_categorical([[1, 2, 1, 2], [1, 1, 1, 1]], [0, 1, 0, 1]))
    # one attribute kept, its removal leaving a pure universe
    @example(make_categorical([[1, 2, 1, 2], [2, 1, 1, 2]], [1, 1, 1, 1]))
    def test_dependency_and_gamma_without_kept_match_row_count(self, table):
        system = InformationSystem.from_table(table)
        values, decisions, names = table.values, table.decisions, table.attributes
        for size in range(1, len(names) + 1):
            for cols in combinations(range(len(names)), size):
                subset = tuple(names[c] for c in cols)
                expected = row_count_dependency(values, decisions, list(cols))
                assert degree_of_dependency(system, subset) == expected
        try:
            result = reduct_search(system)
        except DependencyDegenerateError:
            assert row_count_dependency(values, decisions, list(range(len(names)))) == 0.0
            return
        for name, gamma in result.diagnostics["gamma_without_kept"].items():
            others = [names.index(a) for a in result.kept if a != name]
            assert gamma == row_count_dependency(values, decisions, others)


class TestReductSearch:
    def test_decision_copies_first_attribute(self, rng):
        # junk columns built with repeated patterns so they cannot separate
        # the contradictions a1 resolves
        a1 = [1, 2] * 6
        junk = [rng.integers(1, 3, 6).tolist() * 2 for _ in range(4)]
        decisions = np.array(a1) - 1
        table = make_categorical([a1] + junk, decisions)
        result = reduct_search(InformationSystem.from_table(table))
        assert result.kept == ("a1",)
        assert brute_reduct_check(InformationSystem.from_table(table), result.kept)

    def test_duplicated_informative_pair_keeps_first(self):
        a1 = [1, 1, 2, 2, 1, 2]
        table = make_categorical([a1, a1, [1, 1, 1, 2, 2, 2]], [0, 0, 1, 1, 0, 1])
        result = reduct_search(InformationSystem.from_table(table))
        assert result.kept == ("a1",)

    def test_degenerate_dependency(self):
        table = make_categorical([[1, 1], [2, 2]], [0, 1])
        with pytest.raises(DependencyDegenerateError):
            reduct_search(InformationSystem.from_table(table))

    def test_needs_two_attributes(self):
        table = make_categorical([[1, 2]], [0, 1])
        with pytest.raises(ParameterError):
            reduct_search(InformationSystem.from_table(table))

    def test_gamma_preserved_exactly(self, rng):
        for _ in range(25):
            n, m = int(rng.integers(4, 12)), int(rng.integers(2, 6))
            table = make_categorical(
                rng.integers(1, 4, size=(m, n)).tolist(), rng.integers(0, 2, n)
            )
            system = InformationSystem.from_table(table)
            try:
                result = reduct_search(system)
            except DependencyDegenerateError:
                assert brute_dependency(system, system.attributes) == 0.0
                continue
            assert brute_reduct_check(system, result.kept)
            assert result.diagnostics["gamma_reduct"] == result.diagnostics["gamma_full"]

    def test_agrees_with_exhaustive_enumeration(self, rng):
        for _ in range(15):
            n, m = int(rng.integers(4, 10)), int(rng.integers(2, 5))
            table = make_categorical(
                rng.integers(1, 3, size=(m, n)).tolist(), rng.integers(0, 2, n)
            )
            system = InformationSystem.from_table(table)
            full = brute_dependency(system, system.attributes)
            if full == 0.0:
                continue
            result = reduct_search(system)
            # enumerate all superset-minimal gamma-preserving subsets
            minimal = []
            for size in range(1, m + 1):
                for combo in combinations(system.attributes, size):
                    if brute_dependency(system, combo) == full and brute_reduct_check(
                        system, combo
                    ):
                        minimal.append(tuple(combo))
            assert tuple(result.kept) in minimal

    def test_serialization_text(self):
        table = make_categorical([[1, 1, 2, 2], [1, 2, 1, 2]], [0, 0, 1, 1])
        result = reduct_search(InformationSystem.from_table(table))
        text = result.to_text()
        assert "kept = a1" in text
        assert "gamma_full = 1" in text


class TestCategoricalTableInput:
    """The operators take any `CategoricalTable`; `InformationSystem` is the
    same table, and every other table type is refused."""

    def test_plain_table_matches_information_system(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(4, 12)), int(rng.integers(2, 5))
            table = make_categorical(
                rng.integers(1, 4, size=(m, n)).tolist(), rng.integers(0, 2, n)
            )
            system = InformationSystem.from_table(table)
            assert isinstance(system, CategoricalTable)
            names = table.attributes[: int(rng.integers(1, m + 1))]
            assert degree_of_dependency(table, names) == degree_of_dependency(system, names)
            try:
                result = reduct_search(table)
            except DependencyDegenerateError:
                with pytest.raises(DependencyDegenerateError):
                    reduct_search(system)
                continue
            assert result.to_text() == reduct_search(system).to_text()

    def test_gas_table_is_refused(self):
        gas = make_gas_table(n_rows=4)
        with pytest.raises(ValidationError):
            reduct_search(gas)
        with pytest.raises(ValidationError):
            degree_of_dependency(gas, gas.attributes[:1])

    def test_all_kept_costs_one_scan(self):
        # decision = parity of a1 + a2 + a3: every removal loses the whole
        # positive region, so the full set plus one scan of m removals is all
        rows = np.array(list(product((1, 2), repeat=3)))
        table = CategoricalTable(rows, rows.sum(axis=1) % 2, ("a1", "a2", "a3"))
        with mock.patch.object(
            roughset, "_positive_region_size", wraps=roughset._positive_region_size
        ) as counted:
            result = reduct_search(table)
        assert result.kept == ("a1", "a2", "a3")
        assert result.diagnostics["gamma_without_kept"] == {"a1": 0.0, "a2": 0.0, "a3": 0.0}
        assert counted.call_count == 3 + 1
