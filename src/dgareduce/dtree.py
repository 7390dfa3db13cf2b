"""C4.5-style decision trees on discretized tables, used as attribute selectors.

A tree grows, routes and prunes on granules, not rows: the table arrives as
its `roughset.Partition`, one granule per distinct row pattern with its
decision counts, and a node holds an array of granule indices.  Split scores
are information gain or gain ratio in bits, read off one joint count of
(value, decision) per candidate column and node, weighted by the granules'
row counts: the same integers a count over the rows gives, so the scores,
ties, leaves and pruning decisions are those of a tree grown on the rows.
Pruning is reduced-error against a held-out validation table, whose
granules come from the same partition, and pruning and its accuracy check
route them through one step (`_route`).  The tree itself is never the final
classifier here: after pruning, the attributes appearing as split nodes form
the reduction result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalTable
from .errors import DegenerateSelectionWarning, ParameterError, PruneError, PruneSkippedWarning
from .reduction import ReductionResult
from .roughset import Partition, _partitioned

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


def _bits(counts, total: int) -> float:
    """Shannon entropy in bits of non-negative Python ints `counts` whose sum
    is `total` > 0, unchecked; 0*log(0) is 0."""
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _gain(column, count_t, count_f) -> tuple[float, float, float]:
    """H(decision), H(column) and the information gain of `column`, in bits,
    over granules: granule i takes value column[i] in count_t[i] rows of
    decision 1 and count_f[i] rows of decision 0 (a row is a granule of one).
    The joint (value, decision) counts are two weighted bincounts, and the
    entropies run on their Python ints in ascending value order, through
    `_bits`, since the counts and their totals are known to be valid here."""
    t = np.bincount(column, weights=count_t, minlength=5).astype(np.int64).tolist()
    f = np.bincount(column, weights=count_f, minlength=5).astype(np.int64).tolist()
    sizes = [a + b for a, b in zip(t, f)]
    n, n_t = sum(sizes), sum(t)
    h_y = _bits((n_t, n - n_t), n)
    conditional = 0.0
    for a, b, n_v in zip(t, f, sizes):
        if n_v:
            conditional += (n_v / n) * _bits((a, b), n_v)
    return h_y, _bits(sizes, n), h_y - conditional


def _majority(count_t: int, count_f: int) -> int:
    # equal counts fall to the healthy class, same tie side as the classifiers
    return 1 if count_t >= count_f else 0


def _present(part: Partition) -> np.ndarray:
    """Indices of the granules that hold at least one of the partition's rows."""
    return np.flatnonzero(part.granules.count_t + part.granules.count_f)


def _correct(part: Partition, held, decision: int) -> int:
    """Rows of the granules `held` whose decision is `decision`."""
    counts = part.granules.count_t if decision else part.granules.count_f
    return int(counts[held].sum())


def build_tree(
    table: CategoricalTable | Partition, criterion: str = "gain_ratio", min_rows: int = 2
) -> TreeNode:
    """Recursive top-down induction, best score first, lowest attribute index
    on ties.

    A node becomes a leaf when it is decision-pure, no attributes remain on
    the path, it holds fewer than `min_rows` rows, or no remaining attribute
    takes two values inside it (no split can partition the rows).  A node
    holds granules, and every count it reads sums their row counts.
    """
    if criterion not in CRITERIA:
        raise ParameterError(f"criterion must be one of {CRITERIA}")
    part = _partitioned(table)
    if part.n_rows == 0:
        raise ParameterError("cannot build a tree from an empty table")
    return _grow(part, criterion, min_rows, _present(part), tuple(range(len(part.attributes))))


# The recursive helpers below are module functions, not closures: a closure
# that calls itself is a reference cycle, and its cells would keep the
# table-sized arrays alive until the cycle collector next runs.
def _grow(part: Partition, criterion, min_rows, held, available) -> TreeNode:
    patterns = part.granules.patterns
    t, f = part.granules.count_t[held], part.granules.count_f[held]
    count_t, count_f = int(t.sum()), int(f.sum())
    majority = _majority(count_t, count_f)
    if count_t == 0 or count_f == 0 or not available or count_t + count_f < min_rows:
        return Leaf(majority, count_t, count_f)
    best_j, best_score = None, -1.0
    for j in available:
        _, h_x, gain = _gain(patterns[held, j], t, f)
        if h_x == 0:  # one value only: no split can partition the rows
            continue
        score = gain if criterion == "gain" else gain / h_x
        if score > best_score + 1e-12:
            best_j, best_score = j, score
    if best_j is None:
        return Leaf(majority, count_t, count_f)
    remaining = tuple(j for j in available if j != best_j)
    col = patterns[held, best_j]
    children = tuple(
        (int(v), _grow(part, criterion, min_rows, held[col == v], remaining))
        for v in np.flatnonzero(np.bincount(col))
    )
    return Internal(part.attributes[best_j], children, majority, count_t, count_f)


def _route(node: Internal, part: Partition, held) -> tuple[list, np.ndarray]:
    """Each (value, child, the granules of `held` it takes) of `node`, and
    the granules whose value has no child, left to the node's majority."""
    col = part.granules.patterns[held, part.attributes.index(node.attribute)]
    unmatched = np.ones(len(held), dtype=bool)
    routed = []
    for v, child in node.children:
        reached = col == v
        unmatched ^= reached  # children's values differ, so each granule flips once at most
        routed.append((v, child, held[reached]))
    return routed, held[unmatched]


def _hits(node: TreeNode, part: Partition, held) -> int:
    """Rows of the granules `held` that the subtree at `node` classifies correctly."""
    if isinstance(node, Leaf):
        return _correct(part, held, node.decision)
    routed, stopped = _route(node, part, held)
    return _correct(part, stopped, node.decision) + sum(_hits(c, part, g) for _, c, g in routed)


def accuracy(node: TreeNode, table: CategoricalTable | Partition) -> float:
    """Fraction of rows the tree classifies correctly."""
    part = _partitioned(table)
    if part.n_rows == 0:
        raise ParameterError("empty table")
    return _hits(node, part, _present(part)) / part.n_rows


def prune(root: TreeNode, validation: CategoricalTable | Partition) -> TreeNode:
    """Reduced-error pruning: bottom-up, collapse a subtree to its majority
    leaf whenever validation accuracy does not decrease."""
    part = _partitioned(validation)
    if part.n_rows == 0:
        warnings.warn("empty validation set; prune skipped", PruneSkippedWarning)
        return root
    pruned, _ = _prune(root, part, _present(part))
    before, after = accuracy(root, part), accuracy(pruned, part)
    if after < before:
        raise PruneError(f"pruning lowered validation accuracy from {before:.4f} to {after:.4f}")
    return pruned


def _prune(node: TreeNode, part: Partition, held) -> tuple[TreeNode, int]:
    """The pruned subtree for the validation granules `held` that reach
    `node`, and its hits on their rows: its pruned children's hits plus the
    rows `_route` leaves to the node's majority."""
    leaf_hits = _correct(part, held, node.decision)
    if isinstance(node, Leaf):
        return node, leaf_hits
    routed, stopped = _route(node, part, held)
    subtree_hits = _correct(part, stopped, node.decision)
    children = []
    for v, child, granules in routed:
        pruned, hits = _prune(child, part, granules)
        children.append((v, pruned))
        subtree_hits += hits
    if leaf_hits >= subtree_hits:
        return Leaf(node.decision, node.count_t, node.count_f), leaf_hits
    candidate = Internal(node.attribute, tuple(children), node.decision, node.count_t, node.count_f)
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
