"""C4.5-style decision trees on discretized tables, used as attribute selectors.

Split scores are information gain or gain ratio in bits; pruning is
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

    def child(self, value: int) -> "TreeNode | None":
        for v, node in self.children:
            if v == value:
                return node
        return None


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


@dataclass(frozen=True)
class GainEntry:
    """Per-attribute entropy and gain numbers for one table."""

    attribute: str
    class_entropy: float  # H(decision)
    attribute_entropy: float  # H(attribute)
    gain: float
    gain_ratio: float | None  # undefined when the attribute is constant


def information_gain(table: CategoricalTable, attribute: str) -> GainEntry:
    """Reduction in decision entropy from knowing the attribute's value."""
    column = table.column(attribute).astype(np.int64)
    decisions = table.decisions
    h_y = entropy(_class_counts(decisions))
    conditional = 0.0
    value_counts = []
    for v in np.unique(column):
        mask = column == v
        n_v = int(mask.sum())
        value_counts.append(n_v)
        conditional += (n_v / len(column)) * entropy(_class_counts(decisions[mask]))
    h_x = entropy(value_counts)
    gain = h_y - conditional
    ratio = gain / h_x if h_x > 0 else None
    return GainEntry(attribute, h_y, h_x, gain, ratio)


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
    values = table.values.astype(np.int64)
    decisions = table.decisions

    def grow(rows: np.ndarray, available: tuple[int, ...]) -> TreeNode:
        dec = decisions[rows]
        count_t, count_f = _class_counts(dec)
        majority = _majority(count_t, count_f)
        if count_t == 0 or count_f == 0 or not available or len(rows) < min_rows:
            return Leaf(majority, count_t, count_f)
        h_y = entropy((count_t, count_f))
        best_j, best_score = None, -1.0
        for j in available:
            col = values[rows, j]
            uniques, counts = np.unique(col, return_counts=True)
            if len(uniques) < 2:
                continue
            conditional = 0.0
            for v, n_v in zip(uniques, counts):
                conditional += (n_v / len(rows)) * entropy(
                    _class_counts(dec[col == v])
                )
            gain = h_y - conditional
            score = gain if criterion == "gain" else gain / entropy(counts)
            if score > best_score + 1e-12:
                best_j, best_score = j, score
        if best_j is None:
            return Leaf(majority, count_t, count_f)
        remaining = tuple(j for j in available if j != best_j)
        col = values[rows, best_j]
        children = tuple(
            (int(v), grow(rows[col == v], remaining)) for v in np.unique(col)
        )
        return Internal(table.attributes[best_j], children, majority, count_t, count_f)

    return grow(np.arange(table.n_rows), tuple(range(table.n_attributes)))


def predict(node: TreeNode, row, attributes) -> int:
    """Route one categorical row down the tree; unseen values stop at the
    node's majority class."""
    while isinstance(node, Internal):
        value = int(row[attributes.index(node.attribute)])
        child = node.child(value)
        if child is None:
            return node.decision
        node = child
    return node.decision


def accuracy(node: TreeNode, table: CategoricalTable) -> float:
    """Fraction of rows the tree classifies correctly."""
    if table.n_rows == 0:
        raise ParameterError("empty table")
    hits = sum(
        predict(node, table.values[i], table.attributes) == int(table.decisions[i])
        for i in range(table.n_rows)
    )
    return hits / table.n_rows


def prune(root: TreeNode, validation: CategoricalTable) -> TreeNode:
    """Reduced-error pruning: bottom-up, collapse a subtree to its majority
    leaf whenever validation accuracy does not decrease."""
    if validation.n_rows == 0:
        warnings.warn("empty validation set; prune skipped", PruneSkippedWarning)
        return root
    values = validation.values.astype(np.int64)
    decisions = validation.decisions
    attributes = validation.attributes

    def collapse(node: TreeNode) -> Leaf:
        return Leaf(node.decision, node.count_t, node.count_f)

    def walk(node: TreeNode, rows: np.ndarray) -> TreeNode:
        if isinstance(node, Leaf):
            return node
        col = values[rows, attributes.index(node.attribute)]
        pruned_children = tuple(
            (v, walk(child, rows[col == v])) for v, child in node.children
        )
        candidate = Internal(
            node.attribute, pruned_children, node.decision, node.count_t, node.count_f
        )
        subtree_hits = sum(
            predict(candidate, values[i], attributes) == int(decisions[i]) for i in rows
        )
        leaf_hits = int(np.sum(decisions[rows] == node.decision))
        if leaf_hits >= subtree_hits:
            return collapse(node)
        return candidate

    pruned = walk(root, np.arange(validation.n_rows))
    before, after = accuracy(root, validation), accuracy(pruned, validation)
    if after < before:
        raise PruneError(f"pruning lowered validation accuracy from {before:.4f} to {after:.4f}")
    return pruned


def select_attributes(root: TreeNode) -> ReductionResult:
    """Attributes appearing as split nodes, with shallowest-use depths."""
    depths: dict[str, int] = {}
    uses: dict[str, int] = {}

    def walk(node: TreeNode, depth: int):
        if isinstance(node, Internal):
            depths[node.attribute] = min(depths.get(node.attribute, depth), depth)
            uses[node.attribute] = uses.get(node.attribute, 0) + 1
            for _, child in node.children:
                walk(child, depth + 1)

    walk(root, 0)
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


def format_tree(root: TreeNode, indent: str = "  ") -> str:
    """Indented one-node-per-line rendering for human inspection."""
    lines: list[str] = []

    def emit(node: TreeNode, depth: int):
        pad = indent * depth
        if isinstance(node, Leaf):
            lines.append(f"{pad}class {node.decision} ({node.count_t}/{node.count_f})")
            return
        for value, child in node.children:
            label = f"{pad}{node.attribute}={value} -> "
            if isinstance(child, Leaf):
                lines.append(f"{label}class {child.decision} ({child.count_t}/{child.count_f})")
            else:
                lines.append(label.rstrip())
                emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines) + "\n"
