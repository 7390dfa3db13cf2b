"""Entropy, information gain, tree induction, pruning, attribute selection."""

import numpy as np
import pytest

from dgareduce import dtree
from dgareduce.dtree import (
    Internal,
    Leaf,
    accuracy,
    build_tree,
    entropy,
    format_tree,
    information_gain,
    predict,
    prune,
    select_attributes,
)
from dgareduce.errors import (
    DegenerateSelectionWarning,
    ParameterError,
    PruneError,
    PruneSkippedWarning,
)

from conftest import make_categorical


def _xor_table():
    # 8 rows, d = 1 iff a1 != a2; per-attribute gain at the root is 0
    a1 = [1, 1, 2, 2] * 2
    a2 = [1, 2, 1, 2] * 2
    d = [0, 1, 1, 0] * 2
    return make_categorical([a1, a2], d)


class TestEntropy:
    def test_pure(self):
        assert entropy([5, 0]) == 0.0

    def test_balanced(self):
        assert entropy([4, 4]) == 1.0

    def test_hand_value(self):
        assert entropy([3, 1]) == pytest.approx(0.811278, abs=1e-6)

    def test_bounds(self, rng):
        for _ in range(50):
            counts = rng.integers(0, 20, size=2)
            if counts.sum() == 0:
                continue
            h = entropy(counts)
            assert 0.0 <= h <= 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ParameterError):
            entropy([0, 0])


class TestInformationGain:
    def test_determining_attribute(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        entry = information_gain(table, "a1")
        assert entry.gain == pytest.approx(entry.class_entropy)

    def test_constant_attribute(self):
        table = make_categorical([[1, 1, 1, 1]], [0, 1, 0, 1])
        entry = information_gain(table, "a1")
        assert entry.gain == pytest.approx(0.0)
        assert entry.gain_ratio is None

    def test_hand_worked_example(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 1, 1, 1])
        entry = information_gain(table, "a1")
        assert entry.class_entropy == pytest.approx(0.811278, abs=1e-6)
        assert entry.gain == pytest.approx(0.311278, abs=1e-6)
        assert entry.gain_ratio == pytest.approx(0.311278, abs=1e-6)

    def test_gain_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 20))
            table = make_categorical(
                rng.integers(1, 4, size=(2, n)).tolist(), rng.integers(0, 2, n)
            )
            entry = information_gain(table, "a1")
            assert -1e-12 <= entry.gain <= entry.class_entropy + 1e-12


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

    def test_criterion_validation(self):
        with pytest.raises(ParameterError):
            build_tree(_xor_table(), criterion="gini")

    def test_unseen_value_routes_to_majority(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        tree = build_tree(table)
        assert predict(tree, [3], ("a1",)) == tree.decision


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


class TestFormatTree:
    def test_lines(self):
        table = make_categorical([[1, 1, 2, 2]], [0, 0, 1, 1])
        text = format_tree(build_tree(table))
        assert "a1=1 -> class 0 (0/2)" in text
        assert "a1=2 -> class 1 (2/0)" in text

    def test_single_leaf(self):
        assert format_tree(Leaf(1, 3, 1)) == "class 1 (3/1)\n"
