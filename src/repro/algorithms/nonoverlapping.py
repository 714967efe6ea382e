"""Optimal nonoverlapping partitioning functions (paper Section 3.2.2).

The bucket nodes of a nonoverlapping function form a cut of the UID
hierarchy (Figure 3).  The dynamic program fills::

    E[i, B] = grperr(i)                                   if B == 1
            = min over c of E[left, c] (+) E[right, B-c]  otherwise

bottom-up over the pruned hierarchy.  ``grperr(i)`` is the error of
estimating every group below ``i`` at ``i``'s density — the error of
making ``i`` a single bucket.  The table at the root yields the optimal
error for *every* budget up to the requested one in a single run.

The pruned hierarchy retains the attachment points of all-zero sibling
subtrees, so cuts that isolate empty regions (which then cost nothing
to transmit — their buckets are inferred, Section 4.3) are part of the
search space and the result is optimal over the full virtual hierarchy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PNode, PrunedHierarchy
from ..core.partition import Bucket, NonoverlappingPartitioning
from ..obs import span
from .base import INF, ConstructionResult, DPContext
from .kernels import _positive_merge_batch, knapsack_merge

__all__ = ["build_nonoverlapping"]


def build_nonoverlapping(
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    low_memory: bool = False,
    memo=None,
) -> ConstructionResult:
    """Construct the optimal nonoverlapping partitioning function.

    Parameters
    ----------
    hierarchy:
        Pruned hierarchy of the window being summarized.
    metric:
        The distributive error metric to minimize.
    budget:
        Maximum number of histogram buckets ``b``.
    low_memory:
        Apply the paper's Section 4.4 space optimization (after Guha):
        keep no per-node split arrays and reconstruct bucket sets by
        re-running the DP on the two subtrees of each chosen split.
        The naive sweep is a depth-first walk, so only O(b x depth)
        error values are live; the batched sweep merges a whole level
        at a time and keeps one frontier of error tables live.  Same
        optimum; reconstruction costs an extra O(depth) factor, which
        is why it is opt-in.
    memo:
        A :class:`~repro.algorithms.incremental.NonoverlappingSession`
        for memoized rebuilds; its sweep replaces the full one
        (re-merging only the dirty internal nodes when the nonzero
        mask is unchanged, every node otherwise) and is bit-identical
        to it.  Incompatible with ``low_memory``, which keeps none of
        the split arrays the memo carries.

    Returns
    -------
    ConstructionResult
        ``result.curve[B]`` is the optimal error for every ``B`` up to
        the budget; ``result.function_at(B)`` materializes the cut.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if memo is not None and low_memory:
        raise ValueError("incremental rebuilds require split tables; "
                         "low_memory drops them")
    ctx = DPContext(hierarchy, metric)
    root = len(hierarchy) - 1
    with span(
        "dp.nonoverlapping.sweep", budget=budget,
        nodes=len(hierarchy), low_memory=low_memory,
    ) as sp:
        if memo is not None:
            root_table, splits = memo.sweep(ctx, budget)
        else:
            root_table, splits = _sweep(
                root, ctx, budget, keep_splits=not low_memory
            )
        sp.annotate(root_entries=int(len(root_table)) - 1)
    curve = np.full(budget + 1, INF)
    upto = min(budget, len(root_table) - 1)
    curve[1 : upto + 1] = ctx.finalize_curve(root_table[1 : upto + 1])
    # Error is nonincreasing in budget: extra buckets can't hurt, so
    # budgets beyond the hierarchy's capacity keep the best value.
    best = INF
    for b in range(1, budget + 1):
        best = min(best, curve[b])
        curve[b] = best

    def make_function(b: int) -> NonoverlappingPartitioning:
        b = min(b, upto)
        bucket_nodes: List[int] = []
        with span("dp.nonoverlapping.collect", budget=b) as sp:
            if low_memory:
                _collect_multipass(root, b, ctx, bucket_nodes)
            else:
                _collect(hierarchy, b, splits, bucket_nodes)
            sp.annotate(buckets=len(bucket_nodes))
        return NonoverlappingPartitioning(
            hierarchy.domain, [Bucket(v) for v in bucket_nodes]
        )

    return ConstructionResult(
        make_function=make_function,
        curve=curve,
        budget=budget,
        stats={"nodes": float(len(hierarchy))},
    )


def _sweep(i: int, ctx: DPContext, budget: int, keep_splits: bool):
    """One bottom-up DP pass over the subtree of node ``i``.

    The naive mode walks the subtree node by node and frees child error
    tables as soon as their parent consumes them, so at most O(depth)
    tables are live; batched modes run :func:`_merge_internal`.  Split
    choices are retained only when ``keep_splits`` — dropping them is
    the Section 4.4 mode.
    """
    if ctx.batched:
        return _sweep_fast(i, ctx, budget, keep_splits)
    tables = {}
    splits: dict = {}
    stack = [(ctx.hierarchy.nodes[i], False)]
    while stack:
        p, expanded = stack.pop()
        if not expanded and not p.is_leaf:
            stack.append((p, True))
            stack.append((p.right, False))
            stack.append((p.left, False))
            continue
        if p.is_leaf:
            table = np.full(2, INF)
            table[1] = ctx.grperr_own(p)  # 0 for exact / empty leaves
            tables[p.index] = table
            continue
        left, right = tables.pop(p.left.index), tables.pop(p.right.index)
        table, split = _merge_node_naive(ctx, p, left, right, budget)
        tables[p.index] = table
        if keep_splits:
            splits[p.index] = split
    return tables[i], splits


def _merge_node_naive(ctx: DPContext, p: PNode, left, right, budget: int):
    """One naive-mode internal-node step: knapsack merge of the child
    tables plus the own-bucket overlay at ``B == 1``."""
    table, split = knapsack_merge(left, right, budget, ctx.metric.combine)
    one_bucket = ctx.grperr_own(p)
    if one_bucket < table[1]:
        table[1] = one_bucket
        split[1] = -1  # sentinel: this node is the bucket
    return table, split


def _sweep_fast(i: int, ctx: DPContext, budget: int, keep_splits: bool):
    """Batched-mode sweep of node ``i``'s subtree, bit-identical to the
    naive one: :func:`_merge_internal` over the internal nodes of the
    subtree's postorder interval ``[i - size + 1, i]`` — the whole tree
    for a full build, one subtree for a Section 4.4 re-sweep.  Child
    tables are dropped once consumed, so one frontier is live."""
    ar = ctx.hierarchy.arrays
    left = ar.left
    if left[i] < 0:
        table = np.full(2, INF)
        table[1] = ctx.own_errors()[i]
        return table, {}
    interval = np.arange(i - ar.size[i] + 1, i + 1)
    tables: Dict[int, np.ndarray] = {}
    splits: Optional[Dict[int, np.ndarray]] = {} if keep_splits else None
    _merge_internal(
        ctx, budget, interval[left[interval] >= 0], tables,
        np.where(left < 0, 2, 0), splits, release=True,
    )
    return tables[i], splits


@lru_cache(maxsize=None)
def _const_split(case: str, size: int) -> np.ndarray:
    """The split array of a closed-form merge (read-only and shared:
    its contents depend only on the case and the table size)."""
    sp = np.empty(size, dtype=np.int32)
    sp[:2] = -1
    if size > 2:
        if case == "rl":  # right child is the leaf
            sp[2:] = np.arange(1, size - 1, dtype=np.int32)
        else:  # "lr": left child is the leaf, or leaf-leaf
            sp[2:] = 1
    sp.flags.writeable = False
    return sp


def _merge_internal(
    ctx: DPContext,
    budget: int,
    nodes: np.ndarray,
    tables,
    tlen: np.ndarray,
    splits=None,
    release: bool = False,
) -> None:
    """Phase-batched merge of the internal ``nodes`` — the only fast
    nonoverlapping merge (full builds, Section 4.4 re-sweeps and
    incremental rebuilds all call it).

    ``tables`` maps a postorder index to its error table and ``tlen``
    holds every node's table length (2 at leaves).  Each child of a
    merged node is a leaf, another merged node, or a node whose table
    (and length) is already there.  Results land in ``tables``,
    ``tlen`` and,
    unless it is ``None``, ``splits``; ``release`` drops each child
    table once its parent has consumed it.

    Nonoverlapping tables have a fixed shape the fast path exploits:
    entry 0 is ``inf`` (zero buckets are infeasible), entry 1 is the
    node's own-bucket error, and every deeper in-range entry is finite.
    Leaf tables therefore never materialize — parents read the
    precomputed own-error array directly.  Nodes are processed level by
    level (by subtree height) and, within a level, grouped by the
    shapes of their children's tables; each group is one stacked
    operation: leaf-leaf parents are a gather/combine over the
    own-error array, one-leaf merges one broadcast combine over the
    stacked inner tables, and internal-internal merges convolve the
    finite table tails in
    :func:`~repro.algorithms.kernels._positive_merge_batch`.  Entries
    and recorded splits match the naive merge exactly: the dropped
    candidates are all infinite and the surviving ones combine
    identical scalars in the identical order.
    """
    own = ctx.own_errors()
    maximum = ctx.metric.combine == "max"
    ar = ctx.hierarchy.arrays
    phase, left_idx, right_idx = ar.phase, ar.left, ar.right
    keep_splits = splits is not None

    def head(gi: np.ndarray, size: int) -> np.ndarray:
        block = np.empty((gi.size, size))
        block[:, 0] = INF
        block[:, 1] = own[gi]
        return block

    def tails(ids: np.ndarray, width: int) -> np.ndarray:
        """Stack ``tables[c][1:]`` (the finite tails) for ``ids``."""
        buf = np.empty((ids.size, width))
        for k, c in enumerate(ids.tolist()):
            buf[k] = tables[c][1:]
            if release:
                tables[c] = None
        return buf

    def publish(gi: np.ndarray, block: np.ndarray, split_rows) -> None:
        ids = gi.tolist()
        for i, row in zip(ids, block):
            tables[i] = row
        if keep_splits:
            for i, row in zip(ids, split_rows):
                splits[i] = row

    def const_rows(case: str, k: int, size: int):
        return [_const_split(case, size)] * k if keep_splits else None

    order = nodes[np.argsort(phase[nodes], kind="stable")]
    ph = phase[order]
    for idx_h in np.split(order, np.flatnonzero(ph[1:] != ph[:-1]) + 1):
        li = left_idx[idx_h]
        ri = right_idx[idx_h]
        tlen[idx_h] = np.minimum(budget, tlen[li] + tlen[ri] - 2) + 1
        lleaf = left_idx[li] < 0
        rleaf = left_idx[ri] < 0

        # Leaf-leaf parents: closed form over the own-error array.
        both = lleaf & rleaf
        if both.any():
            g = idx_h[both]
            size = min(budget, 2) + 1
            block = head(g, size)
            if size == 3:
                lv = own[li[both]]
                rv = own[ri[both]]
                block[:, 2] = np.maximum(lv, rv) if maximum else lv + rv
            publish(g, block, const_rows("lr", g.size, size))

        # One-leaf merges, grouped by inner-table length and side: the
        # inner tail shifted by one, combined with the leaf's own error.
        one = lleaf ^ rleaf
        if one.any():
            g = idx_h[one]
            r_is_leaf = rleaf[one]
            inner_idx = np.where(r_is_leaf, li[one], ri[one])
            edge_idx = np.where(r_is_leaf, ri[one], li[one])
            key = tlen[inner_idx] * 2 + r_is_leaf
            for u in np.unique(key).tolist():
                sel = key == u
                gi = g[sel]
                inner_len = u // 2
                size = min(budget, inner_len) + 1
                tail = tails(inner_idx[sel], inner_len - 1)
                block = head(gi, size)
                if size > 2:
                    seg = tail[:, : size - 2]
                    e = own[edge_idx[sel]][:, None]
                    block[:, 2:] = (
                        np.maximum(seg, e) if maximum else seg + e
                    )
                publish(
                    gi, block,
                    const_rows("rl" if u & 1 else "lr", gi.size, size),
                )

        # Internal-internal merges, grouped by child-table shapes.
        both_int = ~(lleaf | rleaf)
        if both_int.any():
            g = idx_h[both_int]
            gl = li[both_int]
            gr = ri[both_int]
            key = tlen[gl] * (2 * budget + 4) + tlen[gr]
            for u in np.unique(key).tolist():
                sel = key == u
                gi = g[sel]
                m, nn = divmod(u, 2 * budget + 4)
                size = min(budget, m + nn - 2) + 1
                bl = tails(gl[sel], m - 1)
                br = tails(gr[sel], nn - 1)
                block = head(gi, size)
                split_rows = None
                if keep_splits:
                    split_rows = np.empty((gi.size, size), dtype=np.int32)
                    split_rows[:, :2] = -1
                if size > 2:
                    vals, choice = _positive_merge_batch(
                        bl, br, size - 2, maximum, want_choice=keep_splits
                    )
                    block[:, 2:] = vals
                    if keep_splits:
                        split_rows[:, 2:] = choice
                publish(gi, block, split_rows)


def _collect_multipass(
    i: int, b: int, ctx: DPContext, out: List[int]
) -> None:
    """Section 4.4 reconstruction: re-derive the split at each node by
    re-running the DP on its two subtrees, then recurse.

    Each subtree is re-swept with the budget ``b`` actually granted to
    it, not the original top-level budget: table entries up to ``b``
    are unaffected by the tighter cap (an allocation of ``c <= B <= b``
    buckets never consults entries beyond ``b``), so the recovered
    splits are identical while the low-memory reconstruction stops
    filling table columns no caller can reference.
    """
    node, left, right, _depth = ctx.hierarchy.links()
    stack = [(i, b)]
    while stack:
        i, b = stack.pop()
        if left[i] < 0 or b == 1:
            out.append(node[i])
            continue
        left_table, _ = _sweep(left[i], ctx, b, keep_splits=False)
        right_table, _ = _sweep(right[i], ctx, b, keep_splits=False)
        merged, split = knapsack_merge(
            left_table, right_table, b, ctx.metric.combine
        )
        b = min(b, len(merged) - 1)
        if b == 1:  # only the single-bucket option remains
            out.append(node[i])
            continue
        c = int(split[b])
        stack.append((left[i], c))
        stack.append((right[i], b - c))


def _collect(
    hierarchy: PrunedHierarchy,
    b: int,
    splits: Dict[int, np.ndarray],
    out: List[int],
) -> None:
    """Walk the recorded split choices from the root to materialize the
    cut for budget ``b``."""
    node, left, right, _depth = hierarchy.links()
    stack = [(len(node) - 1, b)]
    while stack:
        i, b = stack.pop()
        if left[i] < 0 or b == 1:
            out.append(node[i])
            continue
        split = splits[i]
        b = min(b, len(split) - 1)
        c = int(split[b])
        if c == -1:  # single-bucket choice recorded at B == 1 only
            out.append(node[i])
            continue
        stack.append((left[i], c))
        stack.append((right[i], b - c))
