"""The pruned UID hierarchy the dynamic programs run on.

The virtual hierarchy over a realistic identifier domain (e.g. ``2**32``
IPv4 addresses) is astronomically large, but the paper's algorithms
only ever examine nodes that are group nodes or their ancestors
(Section 3.2.2), and the sparse-group refinement (Section 4.3) reduces
that further to the *nonzero* groups plus bookkeeping for empty
regions.  :class:`PrunedHierarchy` materializes exactly that structure:

* a **group leaf** for every group with a nonzero count in the current
  window;
* a **branch node** for every virtual node where the induced tree
  forks, *and* for every virtual node on a compressed path that has a
  nonempty all-zero sibling subtree hanging off it;
* a **zero node** summarizing each maximal all-zero sibling subtree as
  a single ``(node, group count)`` pair.

Keeping the zero-sibling attachment points is what makes the pruned
tree *exact*: a bucket placed at any virtual node is equivalent (same
covered groups, same covered tuples, same single-identifier cost) to a
bucket at the nearest retained descendant, so optimizing over the
pruned tree optimizes over the full virtual hierarchy.  Because group
subtrees never partially overlap hierarchy subtrees, every zero-count
group falls in exactly one zero node, and empty regions contribute to
any error metric in O(1) via ``PenaltyMetric.repeated_penalty``.

The hierarchy is built as flat postorder arrays (:class:`TreeArrays`)
in a fixed number of vectorized passes over the sorted group table;
the dynamic programs read only those.  The :class:`PNode` object view
(:attr:`PrunedHierarchy.nodes`, ``root``, ``leaves``) is built from the
arrays on first access, for the naive reference kernels and the
heuristics that walk the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .domain import ROOT
from .groups import GroupTable

__all__ = ["PNode", "PrunedHierarchy", "TreeArrays", "GROUP", "ZERO", "BRANCH"]

#: ``TreeArrays.kind`` codes, and the :attr:`PNode.kind` name of each.
GROUP, ZERO, BRANCH = 0, 1, 2
KIND_NAMES = ("group", "zero", "branch")


class PNode:
    """A node of the pruned hierarchy.

    Attributes
    ----------
    node:
        Virtual-hierarchy node id this pruned node is anchored at.
    kind:
        ``"group"`` (nonzero group leaf), ``"zero"`` (summary of an
        all-zero subtree) or ``"branch"``.
    left, right:
        Pruned children, ordered by identifier range (either may be
        ``None`` only for leaves).
    n_groups:
        Total number of lookup-table groups in the subtree of ``node``.
    n_nonzero:
        Number of those groups with a nonzero count in this window.
    tuples:
        Total tuple count below ``node`` in this window.
    group_index:
        For group leaves, the group's index in the
        :class:`~repro.core.groups.GroupTable`; ``None`` otherwise.
    index:
        Postorder position within the hierarchy (children precede
        parents); assigned by :class:`PrunedHierarchy`.
    """

    __slots__ = (
        "node",
        "kind",
        "left",
        "right",
        "parent",
        "n_groups",
        "n_nonzero",
        "tuples",
        "group_index",
        "index",
    )

    def __init__(self, node: int, kind: str) -> None:
        self.node = node
        self.kind = kind
        self.left: Optional[PNode] = None
        self.right: Optional[PNode] = None
        self.parent: Optional[PNode] = None
        self.n_groups = 0
        self.n_nonzero = 0
        self.tuples = 0.0
        self.group_index: Optional[int] = None
        self.index = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def n_zero_groups(self) -> int:
        """Groups below this node with zero count in this window."""
        return self.n_groups - self.n_nonzero

    @property
    def density(self) -> float:
        """Tuples per group below this node — the uniformity estimate a
        bucket anchored here assigns to each of its groups."""
        if self.n_groups == 0:
            return 0.0
        return self.tuples / self.n_groups

    def children(self) -> Iterator["PNode"]:
        if self.left is not None:
            yield self.left
        if self.right is not None:
            yield self.right

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PNode({self.kind} @ {self.node}, groups={self.n_groups}, "
            f"nonzero={self.n_nonzero}, tuples={self.tuples:g})"
        )


@dataclass
class TreeArrays:
    """Flat postorder structure of one pruned hierarchy.

    Entry ``i`` of every per-node array describes the ``i``-th node in
    postorder (children before parents, left subtrees before right, the
    root last).  ``node`` is the virtual node id the pruned node is
    anchored at and ``kind`` its :data:`GROUP` / :data:`ZERO` /
    :data:`BRANCH` code.  ``left``/``right`` are child postorder
    indices (-1 at leaves), ``size`` is the subtree node count —
    postorder puts node ``i``'s subtree at the contiguous interval
    ``[i - size[i] + 1, i]`` — and ``group`` maps group leaves to their
    count-array column (-1 for branch and zero nodes).
    ``parent``/``depth``/``phase`` (subtree height) describe the
    vertical layout, ``order`` lists the branch nodes sorted by phase
    (``order_phase`` alongside) — a valid bottom-up batch schedule —
    and ``leaf_lo``/``leaf_hi`` give each node's slice of the leaf
    slots: the leaves in postorder, each standing for ``leaf_weight``
    groups (1 for a group leaf, a zero summary's group count).  Pure
    structure: a function of which groups are nonzero, not of their
    counts.
    """

    node: np.ndarray
    kind: np.ndarray
    left: np.ndarray
    right: np.ndarray
    size: np.ndarray
    group: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    phase: np.ndarray
    n_groups: np.ndarray
    n_nonzero: np.ndarray
    order: np.ndarray
    order_phase: np.ndarray
    leaf_lo: np.ndarray
    leaf_hi: np.ndarray
    leaf_weight: np.ndarray

    def phase_slices(self) -> List[np.ndarray]:
        """The ``order`` slice of each phase, ascending — every branch's
        children belong to a strictly earlier slice."""
        cuts = np.flatnonzero(np.diff(self.order_phase)) + 1
        return np.split(self.order, cuts)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of nonnegative int64 values, exactly: a
    binary search over shifts (a float ``log2`` rounds up just below
    powers of two past 2**53)."""
    out = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        shift = ((x >> s) > 0) * s
        out += shift
        x = x >> shift
    return out + (x > 0)


def _single_zero(groups: int) -> TreeArrays:
    """The all-zero window: one zero node at the root summarizing every
    group, so each algorithm returns a trivial (and exact) empty
    histogram."""
    def col(v):
        return np.array([v], dtype=np.int64)

    empty = np.zeros(0, dtype=np.int64)
    return TreeArrays(
        node=col(ROOT), kind=np.array([ZERO], dtype=np.int8),
        left=col(-1), right=col(-1), size=col(1), group=col(-1),
        parent=col(-1), depth=col(0), phase=col(0), n_groups=col(groups),
        n_nonzero=col(0), order=empty, order_phase=empty,
        leaf_lo=col(0), leaf_hi=col(1),
        leaf_weight=np.array([float(groups)]),
    )


def _build_arrays(table: GroupTable, nonzero: np.ndarray) -> TreeArrays:
    """The pruned structure for the window whose nonzero groups are
    ``nonzero``, in a fixed number of vectorized passes.

    Branch nodes are the virtual nodes with a nonzero group below and
    groups below both children.  A virtual node has groups below both
    children exactly when it is the lowest common ancestor of one
    adjacent pair of (range-sorted) groups — the last group of its left
    child and the first of its right — so the ``|G| - 1`` adjacent
    pairs enumerate every candidate once, and the pair splits the
    node's contiguous run of groups between the children.  A branch's
    child with no nonzero group is a zero node anchored at that child.
    Every pruned node thus covers a distinct run ``[first, end)`` of
    group indices, from which everything else follows by prefix sums:
    group totals, leaf slots (leaves ranked by their first group),
    subtree sizes and the postorder position — the nodes ending before
    the node's first leaf, then its subtree.
    """
    starts, ends = table.starts, table.ends
    if not nonzero.any():
        return _single_zero(len(table))
    # The common ancestor of uids a < b sits bit_length(a ^ b) levels
    # above the leaves; the pair's outer uids pin it.
    a = starts[:-1]
    levels = _bit_length(a ^ (ends[1:] - 1))
    lo = (a >> levels) << levels
    vid = np.left_shift(1, table.domain.height - levels) + (a >> levels)
    first = np.searchsorted(starts, lo)
    last = np.searchsorted(starts, lo + np.left_shift(1, levels))
    split = np.arange(1, len(table))  # the right child's first group
    nz = np.concatenate(([0], np.cumsum(nonzero)))
    zl = nz[split] == nz[first]
    zr = nz[last] == nz[split]
    branch = ~(zl & zr)
    zl &= branch
    zr &= branch
    groups = np.flatnonzero(nonzero)
    node = np.concatenate(
        (table.nodes[groups], 2 * vid[zl], 2 * vid[zr] + 1, vid[branch])
    )
    run_first = np.concatenate(
        (groups, first[zl], split[zr], first[branch])
    )
    run_end = np.concatenate((groups + 1, split[zl], last[zr], last[branch]))
    parts = (groups.size, int(zl.sum()), int(zr.sum()), int(branch.sum()))
    kind = np.repeat(
        np.array([GROUP, ZERO, ZERO, BRANCH], dtype=np.int8), parts
    )
    # Leaves (the first three parts) ranked by their first group.
    n_leaves = node.size - parts[3]
    rank = np.zeros(len(table) + 1, dtype=np.int64)
    rank[run_first[:n_leaves] + 1] = 1
    np.cumsum(rank, out=rank)
    leaf_lo, leaf_hi = rank[run_first], rank[run_end]
    size = 2 * (leaf_hi - leaf_lo) - 1
    before = np.zeros(n_leaves + 1, dtype=np.int64)
    np.cumsum(np.bincount(leaf_hi - 1, minlength=n_leaves), out=before[1:])
    post = np.empty(node.size, dtype=np.int64)
    post[before[leaf_lo] + size - 1] = np.arange(node.size)
    node, kind, size = node[post], kind[post], size[post]
    run_first, run_end = run_first[post], run_end[post]
    leaf_lo, leaf_hi = leaf_lo[post], leaf_hi[post]

    n = node.size
    group = np.where(kind == GROUP, run_first, -1)
    br = np.flatnonzero(kind == BRANCH)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    right[br] = br - 1
    left[br] = br - 1 - size[br - 1]
    parent = np.full(n, -1, dtype=np.int64)
    parent[left[br]] = br
    parent[right[br]] = br
    # Depth: the branch intervals [b - size[b] + 1, b) covering a node.
    cover = np.bincount(br - size[br] + 1, minlength=n + 1)
    depth = np.cumsum(cover[:n] - np.bincount(br, minlength=n + 1)[:n])
    # Subtree height, one level pass per depth from the deepest up.
    phase = np.zeros(n, dtype=np.int64)
    rows = br[np.argsort(depth[br].astype(np.uint8), kind="stable")[::-1]]
    for level in np.split(rows, np.flatnonzero(np.diff(depth[rows])) + 1):
        phase[level] = np.maximum(phase[left[level]], phase[right[level]]) + 1
    order = br[np.argsort(phase[br].astype(np.uint8), kind="stable")]
    n_groups = run_end - run_first
    return TreeArrays(
        node=node, kind=kind, left=left, right=right, size=size,
        group=group, parent=parent, depth=depth, phase=phase,
        n_groups=n_groups, n_nonzero=nz[run_end] - nz[run_first],
        order=order, order_phase=phase[order],
        leaf_lo=leaf_lo, leaf_hi=leaf_hi,
        leaf_weight=n_groups[kind != BRANCH].astype(np.float64),
    )


class PrunedHierarchy:
    """The induced hierarchy over nonzero groups, with zero summaries.

    Parameters
    ----------
    table:
        The lookup table defining the group subtrees.
    counts:
        Per-group counts for the window being summarized, indexed by
        group index (as produced by ``GroupTable.counts_from_uids``).

    Attributes
    ----------
    arrays:
        The :class:`TreeArrays` structure, in postorder.
    tuples, densities:
        Per-node tuple totals and tuples per group, in postorder.
        Totals are summed child pair by child pair, so every value is
        the one the :class:`PNode` recursion ``left + right`` gives.
    leaf_actual:
        Per leaf slot, the group's count (``0.0`` for zero summaries).
    """

    def __init__(self, table: GroupTable, counts: Sequence[float]) -> None:
        self.table = table
        self.domain = table.domain
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (len(table),):
            raise ValueError(
                f"expected {len(table)} group counts, got shape {counts.shape}"
            )
        if not np.all(np.isfinite(counts)):
            raise ValueError("group counts must be finite")
        if np.any(counts < 0):
            raise ValueError("group counts must be nonnegative")
        self.counts = counts
        self.arrays = a = _build_arrays(table, counts > 0)
        tuples = np.zeros(a.node.size)
        has = a.group >= 0
        tuples[has] = counts[a.group[has]]
        for sl in a.phase_slices():
            tuples[sl] = tuples[a.left[sl]] + tuples[a.right[sl]]
        self.tuples = tuples
        self.densities = tuples / a.n_groups
        self.leaf_actual = tuples[a.kind != BRANCH]
        self._nodes: Optional[List[PNode]] = None
        self._links: Optional[Tuple[List[int], ...]] = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[PNode]:
        """Every node as a :class:`PNode`, in postorder (built on first
        access)."""
        if self._nodes is None:
            self._nodes = self._pnode_view()
        return self._nodes

    @property
    def root(self) -> PNode:
        return self.nodes[-1]

    @property
    def leaves(self) -> List[PNode]:
        """The group leaves, in identifier order."""
        return [p for p in self.nodes if p.kind == "group"]

    def _pnode_view(self) -> List[PNode]:
        a = self.arrays
        nodes = [
            PNode(v, KIND_NAMES[k])
            for v, k in zip(a.node.tolist(), a.kind.tolist())
        ]
        for i, (p, groups, nonzero, tuples, g, li, ri) in enumerate(zip(
            nodes, a.n_groups.tolist(), a.n_nonzero.tolist(),
            self.tuples.tolist(), a.group.tolist(), a.left.tolist(),
            a.right.tolist(),
        )):
            p.index = i
            p.n_groups = groups
            p.n_nonzero = nonzero
            p.tuples = tuples
            if g >= 0:
                p.group_index = g
            if li >= 0:
                p.left, p.right = nodes[li], nodes[ri]
                p.left.parent = p.right.parent = p
        return nodes

    def links(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """``(node, left, right, depth)`` as Python lists (cached): the
        reconstruction walks index these per visited node, where list
        indexing is several times cheaper than numpy scalar access."""
        if self._links is None:
            a = self.arrays
            self._links = (
                a.node.tolist(), a.left.tolist(), a.right.tolist(),
                a.depth.tolist(),
            )
        return self._links

    # ------------------------------------------------------------------
    # Facts
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.arrays.node.size)

    @property
    def root_node(self) -> int:
        """Virtual node id of the pruned root."""
        return int(self.arrays.node[-1])

    @property
    def num_nonzero_groups(self) -> int:
        return int(self.arrays.n_nonzero[-1])

    @property
    def total_tuples(self) -> float:
        return float(self.tuples[-1])

    def max_useful_buckets(self) -> int:
        """An upper bound on the number of buckets that can still reduce
        error: one per nonzero group plus one per zero summary."""
        return int(self.arrays.leaf_weight.size)

    def group_counts_below(self, pnode: PNode) -> np.ndarray:
        """Counts of every group (including zeros) below ``pnode``, in
        group-index order.  O(groups below); used by evaluators and
        tests, not by the dynamic programs."""
        idx = self.table.group_indices_below(pnode.node)
        return self.counts[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrunedHierarchy({len(self)} nodes, "
            f"{self.num_nonzero_groups} nonzero groups, "
            f"{int(self.arrays.n_groups[-1])} total groups)"
        )
