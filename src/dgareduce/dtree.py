"""C4.5-style decision trees on discretized tables, used as attribute selectors.

Split scores are information gain or gain ratio in bits, read off one joint
count of (value, decision) per candidate column and node; pruning is
reduced-error against a held-out validation table.  The tree itself is never
the final classifier here: after pruning, the attributes appearing as split
nodes form the reduction result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalTable
from .errors import DegenerateSelectionWarning, ParameterError, PruneError, PruneSkippedWarning
from .reduction import ReductionResult

CRITERIA = ("gain", "gain_ratio")


@dataclass(frozen=True)
class Leaf:
    decision: int
    count_t: int
    count_f: int


@dataclass(frozen=True)
class Internal:
    attribute: str
    children: tuple[tuple[int, "TreeNode"], ...]  # (category value, subtree)
    decision: int  # majority class, routes unseen category values
    count_t: int
    count_f: int


TreeNode = Leaf | Internal


def entropy(class_counts) -> float:
    """Shannon entropy in bits; 0*log(0) is 0."""
    counts = [int(c) for c in class_counts]
    if any(c < 0 for c in counts):
        raise ParameterError("counts must be non-negative")
    total = sum(counts)
    if total == 0:
        raise ParameterError("at least one count must be positive")
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _gain(column, decisions) -> tuple[float, float, float]:
    """H(decision), H(column) and the information gain of `column`, in bits,
    read off one joint count: `joint[2 * v + d]` rows take value v and
    decision d.  The entropies run on its Python ints in ascending value order."""
    joint = np.bincount(column * 2 + decisions, minlength=10)
    pairs = joint.reshape(-1, 2)[:, ::-1].tolist()  # (count_t, count_f) per value
    sizes = [t + f for t, f in pairs]
    h_y = entropy(map(sum, zip(*pairs)))
    n, conditional = sum(sizes), 0.0
    for (t, f), n_v in zip(pairs, sizes):
        if n_v:
            conditional += (n_v / n) * entropy((t, f))
    return h_y, entropy(sizes), h_y - conditional


def _class_counts(decisions) -> tuple[int, int]:
    ones = int(np.sum(decisions))
    return ones, len(decisions) - ones


def _majority(count_t: int, count_f: int) -> int:
    # equal counts fall to the healthy class, same tie side as the classifiers
    return 1 if count_t >= count_f else 0


def build_tree(
    table: CategoricalTable, criterion: str = "gain_ratio", min_rows: int = 2
) -> TreeNode:
    """Recursive top-down induction, best score first, lowest attribute index
    on ties.

    A node becomes a leaf when it is decision-pure, no attributes remain on
    the path, it holds fewer than `min_rows` rows, or no remaining attribute
    takes two values inside it (no split can partition the rows).
    """
    if criterion not in CRITERIA:
        raise ParameterError(f"criterion must be one of {CRITERIA}")
    if table.n_rows == 0:
        raise ParameterError("cannot build a tree from an empty table")
    return _grow(
        table.values, table.decisions, table.attributes, criterion, min_rows,
        np.arange(table.n_rows), tuple(range(table.n_attributes)),
    )


# The recursive helpers below are module functions, not closures: a closure
# that calls itself is a reference cycle, and its cells would keep the
# table-sized arrays alive until the cycle collector next runs.
def _grow(values, decisions, attributes, criterion, min_rows, rows, available) -> TreeNode:
    dec = decisions[rows]
    count_t, count_f = _class_counts(dec)
    majority = _majority(count_t, count_f)
    if count_t == 0 or count_f == 0 or not available or len(rows) < min_rows:
        return Leaf(majority, count_t, count_f)
    best_j, best_score = None, -1.0
    for j in available:
        _, h_x, gain = _gain(values[rows, j], dec)
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
            _grow(values, decisions, attributes, criterion, min_rows, rows[col == v], remaining),
        )
        for v in np.flatnonzero(np.bincount(col))
    )
    return Internal(attributes[best_j], children, majority, count_t, count_f)


def _route(node: TreeNode, rows, values, attributes, out) -> None:
    """Write the tree's class for each of `rows` into `out`, sending the rows
    down by column arrays; a value with no child stops at the node's majority
    class."""
    out[rows] = node.decision
    if isinstance(node, Internal):
        col = values[rows, attributes.index(node.attribute)]
        for v, child in node.children:
            _route(child, rows[col == v], values, attributes, out)


def accuracy(node: TreeNode, table: CategoricalTable) -> float:
    """Fraction of rows the tree classifies correctly."""
    if table.n_rows == 0:
        raise ParameterError("empty table")
    predicted = np.empty(table.n_rows, dtype=np.int64)
    _route(node, np.arange(table.n_rows), table.values, table.attributes, predicted)
    return int(np.count_nonzero(predicted == table.decisions)) / table.n_rows


def prune(root: TreeNode, validation: CategoricalTable) -> TreeNode:
    """Reduced-error pruning: bottom-up, collapse a subtree to its majority
    leaf whenever validation accuracy does not decrease."""
    if validation.n_rows == 0:
        warnings.warn("empty validation set; prune skipped", PruneSkippedWarning)
        return root
    pruned, _ = _prune(
        root, np.arange(validation.n_rows), validation.values, validation.decisions,
        validation.attributes,
    )
    before, after = accuracy(root, validation), accuracy(pruned, validation)
    if after < before:
        raise PruneError(f"pruning lowered validation accuracy from {before:.4f} to {after:.4f}")
    return pruned


def _prune(node: TreeNode, rows, values, decisions, attributes) -> tuple[TreeNode, int]:
    """The pruned subtree for the validation `rows` that reach `node`, and
    its hits on them: the sum of its pruned children's hits, plus the rows
    whose value has no child scored against the node's majority."""
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
        pruned, hits = _prune(child, rows[reached], values, decisions, attributes)
        pruned_children.append((v, pruned))
        subtree_hits += hits
    subtree_hits += int(np.count_nonzero(decisions[rows[unmatched]] == node.decision))
    if leaf_hits >= subtree_hits:
        return Leaf(node.decision, node.count_t, node.count_f), leaf_hits
    candidate = Internal(
        node.attribute, tuple(pruned_children), node.decision, node.count_t, node.count_f
    )
    return candidate, subtree_hits


def select_attributes(root: TreeNode) -> ReductionResult:
    """Attributes appearing as split nodes, with shallowest-use depths."""
    depths: dict[str, int] = {}
    uses: dict[str, int] = {}
    _count_splits(root, 0, depths, uses)
    if not depths:
        warnings.warn(
            "tree pruned to a single leaf; no attributes selected",
            DegenerateSelectionWarning,
        )
    kept = tuple(sorted(depths, key=lambda a: (depths[a], a)))
    return ReductionResult(
        method="dt",
        kept=kept,
        diagnostics={"depth": dict(sorted(depths.items())), "splits": dict(sorted(uses.items()))},
    )


def _count_splits(node: TreeNode, depth: int, depths: dict, uses: dict) -> None:
    if isinstance(node, Internal):
        depths[node.attribute] = min(depths.get(node.attribute, depth), depth)
        uses[node.attribute] = uses.get(node.attribute, 0) + 1
        for _, child in node.children:
            _count_splits(child, depth + 1, depths, uses)
