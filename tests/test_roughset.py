"""Indiscernibility partitions, dependency, and the reduct search, checked
against brute-force oracles on small tables."""

from itertools import combinations

import numpy as np
import pytest

from dgareduce.errors import DependencyDegenerateError, ParameterError
from dgareduce.roughset import (
    InformationSystem,
    _block_inverse,
    degree_of_dependency,
    reduct_search,
)

from conftest import make_categorical


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


def equivalence_classes(table, names=("a1",)) -> list[tuple[int, ...]]:
    """The blocks of `_block_inverse` over the named columns, as sorted row tuples."""
    system = InformationSystem.from_table(table)
    inverse, n_blocks = _block_inverse(system.values, system._column_indices(names))
    return sorted(tuple(np.flatnonzero(inverse == b).tolist()) for b in range(n_blocks))


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
