"""Entropy, information gain, tree induction, pruning, attribute selection."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgareduce import dtree
from dgareduce.dataset import discretize, split_indices, synth_generate
from dgareduce.dtree import (
    Internal,
    Leaf,
    accuracy,
    build_tree,
    prune,
    select_attributes,
)
from dgareduce.errors import (
    DegenerateSelectionWarning,
    ParameterError,
    PruneError,
    PruneSkippedWarning,
)
from dgareduce.roughset import partition

from conftest import make_categorical


def _xor_table():
    # 8 rows, d = 1 iff a1 != a2; per-attribute gain at the root is 0
    a1 = [1, 1, 2, 2] * 2
    a2 = [1, 2, 1, 2] * 2
    d = [0, 1, 1, 0] * 2
    return make_categorical([a1, a2], d)


def entropy(class_counts) -> float:
    """Shannon entropy in bits of counts with a positive sum, through `_bits`."""
    counts = [int(c) for c in class_counts]
    return dtree._bits(counts, sum(counts))


class TestEntropy:
    """`dtree._bits`, the entropy every split score is read from."""

    def test_pure(self):
        assert dtree._bits([5, 0], 5) == 0.0

    def test_balanced(self):
        assert dtree._bits([4, 4], 8) == 1.0

    def test_hand_value(self):
        assert dtree._bits([3, 1], 4) == pytest.approx(0.811278, abs=1e-6)

    def test_bounds(self, rng):
        for _ in range(50):
            counts = rng.integers(0, 20, size=2).tolist()
            if sum(counts) == 0:
                continue
            h = dtree._bits(counts, sum(counts))
            assert 0.0 <= h <= 1.0


def _gain(table, attribute):
    """H(decision), H(attribute) and the information gain of `attribute`."""
    return dtree._gain(table.column(attribute), table.decisions, 1 - table.decisions)


class TestInformationGain:
    def test_determining_attribute(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        class_entropy, _, gain = _gain(table, "a1")
        assert gain == pytest.approx(class_entropy)

    def test_constant_attribute(self):
        table = make_categorical([[1, 1, 1, 1]], [0, 1, 0, 1])
        _, attribute_entropy, gain = _gain(table, "a1")
        assert gain == pytest.approx(0.0)
        assert attribute_entropy == 0.0  # gain ratio undefined: no split on it

    def test_hand_worked_example(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 1, 1, 1])
        class_entropy, attribute_entropy, gain = _gain(table, "a1")
        assert class_entropy == pytest.approx(0.811278, abs=1e-6)
        assert gain == pytest.approx(0.311278, abs=1e-6)
        assert gain / attribute_entropy == pytest.approx(0.311278, abs=1e-6)

    def test_gain_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 20))
            table = make_categorical(
                rng.integers(1, 4, size=(2, n)).tolist(), rng.integers(0, 2, n)
            )
            class_entropy, _, gain = _gain(table, "a1")
            assert -1e-12 <= gain <= class_entropy + 1e-12

    def test_granule_counts_match_entropy_formula(self, rng):
        # on the rows its granule counts stand for, the row-based reference
        # gives the same bits
        for _ in range(300):
            g = int(rng.integers(1, 12))
            column = rng.integers(0, 5, g)
            count_t = rng.integers(0, 40, g) * rng.integers(0, 2, g)  # many zeros
            count_f = rng.integers(0, 40, g) * rng.integers(0, 2, g)
            if count_t.sum() + count_f.sum() == 0:
                continue
            rows = np.concatenate((np.repeat(column, count_t), np.repeat(column, count_f)))
            decisions = np.repeat([1, 0], (count_t.sum(), count_f.sum()))
            assert dtree._gain(column, count_t, count_f) == reference_gain(rows, decisions)


class TestBuildTree:
    def test_pure_table_single_leaf(self):
        table = make_categorical([[1, 2, 3]], [1, 1, 1])
        tree = build_tree(table)
        assert isinstance(tree, Leaf)
        assert tree.decision == 1

    def test_decision_equals_attribute(self):
        table = make_categorical([[1, 1, 2, 2], [1, 2, 1, 2]], [0, 0, 1, 1])
        tree = build_tree(table)
        assert isinstance(tree, Internal)
        assert tree.attribute == "a1"
        assert all(isinstance(c, Leaf) for _, c in tree.children)

    def test_xor_depth_two_pure_leaves(self):
        tree = build_tree(_xor_table())
        assert isinstance(tree, Internal)
        assert tree.attribute == "a1"  # zero-gain tie broken by lowest index
        for _, child in tree.children:
            assert isinstance(child, Internal)
            assert child.attribute == "a2"
            for _, leaf in child.children:
                assert isinstance(leaf, Leaf)
                assert leaf.count_t == 0 or leaf.count_f == 0
        assert accuracy(tree, _xor_table()) == 1.0

    def test_min_rows_stops_splitting(self):
        table = make_categorical([[1, 1, 2, 2], [1, 2, 1, 2]], [0, 1, 1, 0])
        tree = build_tree(table, min_rows=100)
        assert isinstance(tree, Leaf)

    def test_training_accuracy_at_least_majority(self, rng):
        for _ in range(15):
            n = int(rng.integers(6, 30))
            table = make_categorical(
                rng.integers(1, 4, size=(3, n)).tolist(), rng.integers(0, 2, n)
            )
            tree = build_tree(table)
            majority = max(
                np.mean(table.decisions == 1), np.mean(table.decisions == 0)
            )
            assert accuracy(tree, table) >= majority - 1e-12

    def test_selection_invariant_under_row_permutation(self, rng):
        table = make_categorical(
            rng.integers(1, 4, size=(4, 20)).tolist(), rng.integers(0, 2, 20)
        )
        shuffled = table.take(rng.permutation(20))
        kept_a = select_attributes(build_tree(table)).kept
        kept_b = select_attributes(build_tree(shuffled)).kept
        assert kept_a == kept_b

    @pytest.mark.parametrize("criterion", dtree.CRITERIA)
    def test_column_with_one_value_in_a_node_is_skipped(self, criterion):
        # a1 splits the root; under a1 = 1, a2 takes the value 1 only (H = 0,
        # so its gain ratio is 0 / 0) and a3 decides the rows
        a1 = [1, 1, 1, 1, 2, 2, 2, 2]
        a2 = [1, 1, 1, 1, 2, 3, 2, 3]
        a3 = [1, 2, 1, 2, 1, 1, 1, 1]
        table = make_categorical([a1, a2, a3], [0, 1, 0, 1, 1, 1, 1, 1])
        tree = build_tree(table, criterion=criterion)
        assert tree == oracle_grow(
            table.values, table.decisions, table.attributes, criterion, 2,
            np.arange(8), (0, 1, 2),
        )
        assert tree.attribute == "a1"
        (_, left), _ = tree.children
        assert left.attribute == "a3"
        assert dtree._gain(np.array(a2[:4]), table.decisions[:4], 1 - table.decisions[:4])[1] == 0.0

    def test_criterion_validation(self):
        with pytest.raises(ParameterError):
            build_tree(_xor_table(), criterion="gini")

    def test_unseen_value_routes_to_majority(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        tree = build_tree(table)
        assert accuracy(tree, make_categorical([[3]], [tree.decision])) == 1.0
        assert accuracy(tree, make_categorical([[3]], [1 - tree.decision])) == 0.0


class TestPrune:
    def test_perfect_tree_unchanged(self):
        table = make_categorical([[1, 1, 2, 2], [1, 2, 1, 2]], [0, 0, 1, 1])
        tree = build_tree(table)
        pruned = prune(tree, table)
        assert pruned == tree

    def test_same_class_children_collapse(self):
        # a2 splits rows whose classes agree; validation accuracy is unchanged
        table = make_categorical([[1, 1, 2, 2], [1, 2, 1, 2]], [1, 1, 0, 0])
        noisy = Internal(
            "a2",
            (
                (1, Leaf(1, 1, 0)),
                (2, Leaf(1, 1, 0)),
            ),
            1,
            2,
            0,
        )
        tree = Internal("a1", ((1, noisy), (2, Leaf(0, 0, 2))), 1, 2, 2)
        pruned = prune(tree, table)
        assert isinstance(pruned, Internal)
        assert all(isinstance(c, Leaf) for _, c in pruned.children)

    def test_noise_split_pruned_on_holdout(self, rng):
        # one informative attribute, one pure-noise attribute, 40 rows
        n = 40
        a1 = rng.integers(1, 3, n)
        noise = rng.integers(1, 5, n)
        d = (a1 == 2).astype(int)
        flip = rng.choice(n, size=6, replace=False)
        d[flip] = 1 - d[flip]
        table = make_categorical([a1.tolist(), noise.tolist()], d)
        grow_rows = np.arange(0, 28)
        val_rows = np.arange(28, 40)
        tree = build_tree(table.take(grow_rows))
        val = table.take(val_rows)
        pruned = prune(tree, val)
        assert accuracy(pruned, val) >= accuracy(tree, val)

        def uses(node, name):
            if isinstance(node, Leaf):
                return False
            return node.attribute == name or any(
                uses(c, name) for _, c in node.children
            )

        assert uses(tree, "a2")  # the unpruned tree overfits the noise column
        assert not uses(pruned, "a2")

    def test_prune_never_lowers_validation_accuracy(self, rng):
        for _ in range(15):
            n = int(rng.integers(10, 40))
            table = make_categorical(
                rng.integers(1, 4, size=(3, n)).tolist(), rng.integers(0, 2, n)
            )
            cut = n * 3 // 4
            tree = build_tree(table.take(np.arange(cut)))
            val = table.take(np.arange(cut, n))
            if val.n_rows == 0:
                continue
            pruned = prune(tree, val)
            assert accuracy(pruned, val) >= accuracy(tree, val) - 1e-12

    def test_accuracy_loss_raises_typed_error(self, monkeypatch):
        # the guard must hold under python -O too, so it is an exception, not an assert
        table = make_categorical([[1, 1, 2, 2], [1, 2, 1, 2]], [0, 0, 1, 1])
        tree = build_tree(table)
        monkeypatch.setattr(dtree, "accuracy", lambda node, _: 1.0 if node is tree else 0.5)
        with pytest.raises(PruneError, match="from 1.0000 to 0.5000"):
            prune(tree, table)

    def test_empty_validation_skips_with_warning(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        tree = build_tree(table)
        with pytest.warns(PruneSkippedWarning):
            pruned = prune(tree, table.take([]))
        assert pruned == tree
        with pytest.warns(PruneSkippedWarning):
            assert prune(tree, partition(table.take([]))) is tree


class TestSelectAttributes:
    def test_depth_one(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        result = select_attributes(build_tree(table))
        assert result.kept == ("a1",)

    def test_xor_selects_both(self):
        result = select_attributes(build_tree(_xor_table()))
        assert set(result.kept) == {"a1", "a2"}

    def test_single_leaf_warns_empty(self):
        with pytest.warns(DegenerateSelectionWarning):
            result = select_attributes(Leaf(1, 3, 0))
        assert result.kept == ()


class TestMemory:
    def test_fit_leaves_no_reference_cycles(self, rng):
        # garbage in a cycle waits for the cycle collector, and here it would
        # hold copies of the table's arrays
        columns = rng.integers(1, 5, size=(4, 200)).tolist()
        table = make_categorical(columns, rng.integers(0, 2, 200))
        grow, val = table.take(np.arange(150)), table.take(np.arange(150, 200))
        select_attributes(prune(build_tree(grow), val))  # first calls may cache
        gc.collect()
        gc.disable()
        try:
            select_attributes(prune(build_tree(grow), val))
            assert gc.collect() == 0
        finally:
            gc.enable()


# The row-at-a-time tree code that the column-array router and the bottom-up
# hit counts replace, kept here as the oracle.
def _class_counts(decisions) -> tuple[int, int]:
    ones = int(np.sum(decisions))
    return ones, len(decisions) - ones


def oracle_gain(column, decisions):
    h_y = entropy(_class_counts(decisions))
    conditional = 0.0
    value_counts = []
    for v in np.unique(column):
        mask = column == v
        n_v = int(mask.sum())
        value_counts.append(n_v)
        conditional += (n_v / len(column)) * entropy(_class_counts(decisions[mask]))
    return h_y, entropy(value_counts), h_y - conditional


def oracle_grow(values, decisions, attributes, criterion, min_rows, rows, available):
    dec = decisions[rows]
    count_t, count_f = _class_counts(dec)
    majority = dtree._majority(count_t, count_f)
    if count_t == 0 or count_f == 0 or not available or len(rows) < min_rows:
        return Leaf(majority, count_t, count_f)
    best_j, best_score = None, -1.0
    for j in available:
        col = values[rows, j]
        if len(np.unique(col)) < 2:
            continue
        _, h_x, gain = oracle_gain(col, dec)
        score = gain if criterion == "gain" else gain / h_x
        if score > best_score + 1e-12:
            best_j, best_score = j, score
    if best_j is None:
        return Leaf(majority, count_t, count_f)
    remaining = tuple(j for j in available if j != best_j)
    col = values[rows, best_j]
    children = tuple(
        (
            int(v),
            oracle_grow(
                values, decisions, attributes, criterion, min_rows, rows[col == v], remaining
            ),
        )
        for v in np.unique(col)
    )
    return Internal(attributes[best_j], children, majority, count_t, count_f)


def oracle_predict(node, row, attributes):
    while isinstance(node, Internal):
        value = int(row[attributes.index(node.attribute)])
        child = next((c for v, c in node.children if v == value), None)
        if child is None:
            return node.decision
        node = child
    return node.decision


def oracle_accuracy(node, table):
    hits = sum(
        oracle_predict(node, table.values[i], table.attributes) == int(table.decisions[i])
        for i in range(table.n_rows)
    )
    return hits / table.n_rows


def oracle_prune(node, rows, values, decisions, attributes):
    if isinstance(node, Leaf):
        return node
    col = values[rows, attributes.index(node.attribute)]
    children = tuple(
        (v, oracle_prune(child, rows[col == v], values, decisions, attributes))
        for v, child in node.children
    )
    candidate = Internal(node.attribute, children, node.decision, node.count_t, node.count_f)
    subtree_hits = sum(
        oracle_predict(candidate, values[i], attributes) == int(decisions[i]) for i in rows
    )
    leaf_hits = int(np.sum(decisions[rows] == node.decision))
    if leaf_hits >= subtree_hits:
        return Leaf(node.decision, node.count_t, node.count_f)
    return candidate


@st.composite
def grow_and_validation(draw):
    """A grow table and a validation table over the same attributes.  Grow
    values of column j lie in 1..seen[j], so validation rows (1..4) can carry
    values no node has a child for; seen[j] = 1 makes column j constant."""
    m = draw(st.integers(1, 4))
    seen = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    identical = draw(st.booleans())

    def table(high, max_rows):
        row = st.tuples(*(st.integers(1, h) for h in high))
        values = np.array(draw(st.lists(row, min_size=1, max_size=max_rows)), dtype=np.int64)
        if identical:
            values[:] = values[0]
        n = len(values)
        decisions = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        return make_categorical(values.T.tolist(), decisions)

    return table(seen, 40), table([4] * m, 30)


# min_rows 5 and 100 stop nodes that hold several granules
MIN_ROWS = (1, 2, 3, 4, 5, 100)


def assert_matches_oracle(grow, val, criterion, min_rows):
    """`build_tree`, `prune` and `accuracy` agree with the oracle on the
    tables, and give the same trees on the tables' partitions."""
    tree = build_tree(grow, criterion=criterion, min_rows=min_rows)
    assert tree == oracle_grow(
        grow.values, grow.decisions, grow.attributes, criterion, min_rows,
        np.arange(grow.n_rows), tuple(range(grow.n_attributes)),
    )
    assert build_tree(partition(grow), criterion=criterion, min_rows=min_rows) == tree
    pruned = prune(tree, val)
    rows = np.arange(val.n_rows)
    assert pruned == oracle_prune(tree, rows, val.values, val.decisions, val.attributes)
    assert prune(tree, partition(val)) == pruned
    for node in (tree, pruned):
        for table in (grow, val):
            assert accuracy(node, table) == oracle_accuracy(node, table)


class TestRouterMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(grow_and_validation(), st.sampled_from(dtree.CRITERIA), st.sampled_from(MIN_ROWS))
    def test_grow_prune_and_accuracy(self, tables, criterion, min_rows):
        grow, val = tables
        assert_matches_oracle(grow, val, criterion, min_rows)
        for name in grow.attributes:
            assert _gain(grow, name) == oracle_gain(grow.column(name), grow.decisions)

    @pytest.mark.parametrize("criterion", dtree.CRITERIA)
    @pytest.mark.parametrize("min_rows", MIN_ROWS)
    def test_repeated_and_contradictory_rows(self, rng, criterion, min_rows):
        # 300 rows over at most 27 patterns: every pattern repeats, and most
        # carry both decisions; validation values 4 have no child anywhere
        grow = make_categorical(rng.integers(1, 4, size=(3, 300)).tolist(), rng.integers(0, 2, 300))
        val = make_categorical(rng.integers(1, 5, size=(3, 120)).tolist(), rng.integers(0, 2, 120))
        assert_matches_oracle(grow, val, criterion, min_rows)


# The row-based grow and prune that growing and pruning on granule counts
# replaced, kept verbatim as the reference for a table too large for the
# oracle: a node holds row indices, and its joint count is one bincount
# over its rows.
def reference_gain(column, decisions) -> tuple[float, float, float]:
    joint = np.bincount(column * 2 + decisions, minlength=10)
    pairs = joint.reshape(-1, 2)[:, ::-1].tolist()  # (count_t, count_f) per value
    sizes = [t + f for t, f in pairs]
    h_y = entropy(map(sum, zip(*pairs)))
    n, conditional = sum(sizes), 0.0
    for (t, f), n_v in zip(pairs, sizes):
        if n_v:
            conditional += (n_v / n) * entropy((t, f))
    return h_y, entropy(sizes), h_y - conditional


def reference_grow(values, decisions, attributes, criterion, min_rows, rows, available):
    dec = decisions[rows]
    count_t, count_f = _class_counts(dec)
    majority = dtree._majority(count_t, count_f)
    if count_t == 0 or count_f == 0 or not available or len(rows) < min_rows:
        return Leaf(majority, count_t, count_f)
    best_j, best_score = None, -1.0
    for j in available:
        _, h_x, gain = reference_gain(values[rows, j], dec)
        if h_x == 0:  # one value only: no split can partition the rows
            continue
        score = gain if criterion == "gain" else gain / h_x
        if score > best_score + 1e-12:
            best_j, best_score = j, score
    if best_j is None:
        return Leaf(majority, count_t, count_f)
    remaining = tuple(j for j in available if j != best_j)
    col = values[rows, best_j]
    children = tuple(
        (
            int(v),
            reference_grow(
                values, decisions, attributes, criterion, min_rows, rows[col == v], remaining
            ),
        )
        for v in np.flatnonzero(np.bincount(col))
    )
    return Internal(attributes[best_j], children, majority, count_t, count_f)


def reference_prune(node, rows, values, decisions, attributes):
    leaf_hits = int(np.count_nonzero(decisions[rows] == node.decision))
    if isinstance(node, Leaf):
        return node, leaf_hits
    col = values[rows, attributes.index(node.attribute)]
    unmatched = np.ones(len(rows), dtype=bool)
    subtree_hits = 0
    pruned_children = []
    for v, child in node.children:
        reached = col == v
        unmatched &= ~reached
        pruned, hits = reference_prune(child, rows[reached], values, decisions, attributes)
        pruned_children.append((v, pruned))
        subtree_hits += hits
    subtree_hits += int(np.count_nonzero(decisions[rows[unmatched]] == node.decision))
    if leaf_hits >= subtree_hits:
        return Leaf(node.decision, node.count_t, node.count_f), leaf_hits
    candidate = Internal(
        node.attribute, tuple(pruned_children), node.decision, node.count_t, node.count_f
    )
    return candidate, subtree_hits


class TestGranuleTreeMatchesRowTree:
    @pytest.mark.parametrize("noise", [0.25, 0.9])
    def test_bench_sized_table(self, noise):
        # the reduce path's 40k-row table, split as pipeline.fit_reducer splits it
        table = discretize(synth_generate(40_000, 0.5, noise, 7))
        grow_idx, val_idx = split_indices(table.n_rows, (0.85, 0.15), 11)
        part = partition(table)
        for criterion in dtree.CRITERIA:
            tree = build_tree(part.take(grow_idx), criterion=criterion)
            assert tree == reference_grow(
                table.values, table.decisions, table.attributes, criterion, 2, grow_idx,
                tuple(range(table.n_attributes)),
            )
            pruned = prune(tree, part.take(val_idx))
            assert pruned == reference_prune(
                tree, val_idx, table.values, table.decisions, table.attributes
            )[0]
            assert select_attributes(pruned).kept
