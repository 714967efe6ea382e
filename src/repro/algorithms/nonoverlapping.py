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

from typing import List, Optional

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PrunedHierarchy
from ..core.partition import Bucket, NonoverlappingPartitioning
from ..obs import span
from .base import INF, ConstructionResult, DPContext
from .kernels import _ranges, _stacked_merge, knapsack_merge

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
        error values are live; the batched sweep keeps every internal
        table of the swept subtree in one arena (``min(b, leaves
        below) + 1`` entries a node) and drops only the split rows.
        Same optimum; reconstruction costs an extra O(depth) factor,
        which is why it is opt-in.
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
            root_table, off, splits = memo.sweep(ctx, budget)
        else:
            root_table, off, splits = _sweep(
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
                _collect(hierarchy, b, off, splits, bucket_nodes)
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

    Returns ``(table, off, splits)``: node ``i``'s error table and the
    subtree's split arena (:func:`_layout`; ``splits`` is ``None`` when
    ``keep_splits`` is off — the Section 4.4 mode).  The naive mode
    walks the subtree node by node and frees child error tables as soon
    as their parent consumes them, so at most O(depth) tables are live;
    batched modes run :func:`_sweep_fast`.
    """
    if ctx.batched:
        return _sweep_fast(i, ctx, budget, keep_splits)
    lo = i - int(ctx.hierarchy.arrays.size[i]) + 1
    off = _layout(ctx.hierarchy.arrays, budget, lo, i)
    splits = np.empty(off[-1], dtype=np.int32) if keep_splits else None
    _node, left, right, _depth = ctx.hierarchy.links()
    tables = {}
    stack = [(i, False)]
    while stack:
        j, expanded = stack.pop()
        if not expanded and left[j] >= 0:
            stack.append((j, True))
            stack.append((right[j], False))
            stack.append((left[j], False))
            continue
        if left[j] < 0:
            table = np.full(2, INF)
            table[1] = ctx.grperr_own(j)  # 0 for exact / empty leaves
            tables[j] = table
            continue
        table, split = _merge_node_naive(
            ctx, j, tables.pop(left[j]), tables.pop(right[j]), budget
        )
        tables[j] = table
        if keep_splits:
            splits[off[j - lo] : off[j - lo + 1]] = split
    return tables[i], off, splits


def _merge_node_naive(ctx: DPContext, i: int, left, right, budget: int):
    """One naive-mode step at internal node ``i``: knapsack merge of the
    child tables plus the own-bucket overlay at ``B == 1``."""
    table, split = knapsack_merge(left, right, budget, ctx.metric.combine)
    one_bucket = ctx.grperr_own(i)
    if one_bucket < table[1]:
        table[1] = one_bucket
        split[1] = -1  # sentinel: this node is the bucket
    return table, split


def _layout(ar, budget: int, lo: int, hi: int) -> np.ndarray:
    """Arena offsets of the postorder interval ``[lo, hi]``: node
    ``i``'s table is entries ``off[i - lo] : off[i - lo + 1]``, of the
    structural length ``min(budget, leaves below) + 1`` (capacities add
    up the tree, capped at the budget).  Leaves are zero wide: their
    tables stay virtual (``[inf, own]``)."""
    sl = slice(lo, hi + 1)
    width = np.minimum(budget, ar.leaf_hi[sl] - ar.leaf_lo[sl]) + 1
    width[ar.left[sl] < 0] = 0
    off = np.zeros(hi - lo + 2, dtype=np.int64)
    np.cumsum(width, out=off[1:])
    return off


def _table(ctx: DPContext, i: int, off, values, lo: int = 0) -> np.ndarray:
    """Node ``i``'s error table (``[inf, own]`` at a leaf)."""
    if ctx.hierarchy.arrays.left[i] >= 0:
        return values[off[i - lo] : off[i - lo + 1]]
    table = np.full(2, INF)
    table[1] = ctx.own_errors()[i]
    return table


def _sweep_fast(i: int, ctx: DPContext, budget: int, keep_splits: bool):
    """Batched-mode sweep of node ``i``'s subtree, bit-identical to the
    naive one: :func:`_merge_internal` over the internal nodes of the
    subtree's postorder interval ``[i - size + 1, i]`` — the whole tree
    for a full build, one subtree for a Section 4.4 re-sweep — into a
    fresh arena holding every internal table of the subtree."""
    ar = ctx.hierarchy.arrays
    lo = i - int(ar.size[i]) + 1
    off = _layout(ar, budget, lo, i)
    nodes = ar.order[(ar.order >= lo) & (ar.order <= i)]
    values = np.empty(off[-1])
    splits = np.empty(off[-1], dtype=np.int32) if keep_splits else None
    _merge_internal(ctx, budget, nodes, off, values, splits, lo)
    return _table(ctx, i, off, values, lo), off, splits


def _merge_internal(
    ctx: DPContext,
    budget: int,
    nodes: np.ndarray,
    off: np.ndarray,
    values: np.ndarray,
    splits: Optional[np.ndarray] = None,
    lo: int = 0,
) -> None:
    """Phase-batched merge of the internal ``nodes`` (in ascending
    phase) into one ragged arena — the only fast nonoverlapping merge
    (full builds, Section 4.4 re-sweeps and incremental rebuilds).

    Node ``i``'s table is ``values[off[i - lo] : off[i - lo + 1]]``
    (:func:`_layout`) and its split row the same slice of ``splits``
    (``None``: not kept).  A child of a merged node is a leaf, another
    merged node, or a node already in the arena (a clean node of an
    incremental rebuild).

    Entry 0 of a table is ``inf``, entry 1 the node's own-bucket error
    and every deeper entry finite, so leaf tables never materialize.
    Heads, leaf-leaf parents (all of phase 1) and one-leaf split rows
    are written at once; per phase, one op extends the one-leaf
    parents' inner tails, and one
    :func:`~repro.algorithms.kernels._stacked_merge` call per width
    class convolves the internal-internal parents' tails (entries
    ``1:``, so a choice ``c'`` is split ``c' + 1``), ``inf``-padded to
    the class's widest.  Entries and splits match the
    naive merge exactly: a padded candidate is ``inf``, so it never
    beats a finite one under ``+`` or ``max`` (nor moves the
    first-minimum argmin).
    """
    own = ctx.own_errors()
    maximum = ctx.metric.combine == "max"
    ar = ctx.hierarchy.arrays
    li = ar.left[nodes]
    ri = ar.right[nodes]
    head = off[nodes - lo]
    values[head] = INF
    values[head + 1] = own[nodes]
    if splits is not None:
        splits[head] = -1
        splits[head + 1] = -1
    if budget < 2 or nodes.size == 0:
        return  # every table is its head
    lleaf = ar.left[li] < 0
    rleaf = ar.left[ri] < 0
    phase = ar.phase[nodes]
    w = off[nodes - lo + 1] - head - 2  # entries past the head

    # Leaf-leaf parents (all of phase 1): closed form over the own
    # errors.
    both = lleaf & rleaf
    lv, rv = own[li[both]], own[ri[both]]
    values[head[both] + 2] = np.maximum(lv, rv) if maximum else lv + rv
    if splits is not None:
        splits[head[both] + 2] = 1

    # One-leaf parents, flattened in phase order: entry ``2 + k`` is
    # the inner child's entry ``1 + k`` combined with the leaf's own
    # error.  The split rows are structural, so they are written now.
    one = lleaf ^ rleaf
    r_is_leaf = rleaf[one]
    inner = np.where(r_is_leaf, li[one], ri[one])
    k = w[one]
    pos = _ranges(k)
    dest1 = np.repeat(head[one] + 2, k) + pos
    src1 = np.repeat(off[inner - lo] + 1, k) + pos
    edge1 = np.repeat(own[np.where(r_is_leaf, ri[one], li[one])], k)
    if splits is not None:
        splits[dest1] = np.where(np.repeat(r_is_leaf, k), pos + 1, 1)
    k_end = np.r_[0, np.cumsum(k)]

    # Internal-internal parents, grouped in one stable sort by phase
    # and floor(log2(w)); outputs of 128+ entries also by floor(log2)
    # of their left rows, where padding rows costs more than a call.
    # The key packs (phase, width class, row class) in 6-bit fields.
    two = np.flatnonzero(~(lleaf | rleaf))
    w2 = w[two]
    rows = np.minimum(off[li[two] - lo + 1] - off[li[two] - lo] - 1, w2)
    row_class = np.where(w2 >= 128, np.frexp(rows)[1], 0)
    key = (phase[two] * 64 + np.frexp(w2)[1]) * 64 + row_class
    by_key = np.argsort(key, kind="stable")
    two, key, w2 = two[by_key], key[by_key], w2[by_key]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    cw = np.r_[0, np.cumsum(w2)]
    dest2 = np.repeat(head[two] + 2, w2) + _ranges(w2)
    lt = off[li[two] - lo] + 1
    rt = off[ri[two] - lo] + 1
    lm = off[li[two] - lo + 1] - lt
    rm = off[ri[two] - lo + 1] - rt
    bounds = np.r_[first, two.size].tolist()
    widths = np.maximum.reduceat(w2, first).tolist()
    group_phase = (key[first] >> 12).tolist()

    steps = np.unique(phase).tolist()
    ends = np.searchsorted(phase[one], steps + [steps[-1] + 1])
    cut1 = k_end[ends].tolist()
    g = 0
    for step, p in enumerate(steps):
        a, b = cut1[step], cut1[step + 1]
        if b > a:
            seg = values[src1[a:b]]
            e = edge1[a:b]
            values[dest1[a:b]] = np.maximum(seg, e) if maximum else seg + e
        while g < len(group_phase) and group_phase[g] == p:
            a, b, width = bounds[g], bounds[g + 1], widths[g]
            g += 1
            vals, choice = _stacked_merge(
                _padded_tails(values, lt[a:b], lm[a:b], width),
                _padded_tails(values, rt[a:b], rm[a:b], width),
                width, maximum, want_choice=splits is not None,
            )
            keep = np.arange(width) < w2[a:b, None]
            dest = dest2[cw[a] : cw[b]]
            values[dest] = vals[keep]
            if splits is not None:
                splits[dest] = choice[keep] + 1  # tails are 1-based


def _padded_tails(
    values: np.ndarray, first: np.ndarray, length: np.ndarray, width: int
) -> np.ndarray:
    """Stack the arena runs ``values[first[k] : first[k] + length[k]]``
    (at most ``width`` entries each), ``inf``-padded to the longest."""
    cols = np.arange(min(int(length.max()), width))
    idx = first[:, None] + cols
    return np.where(
        cols < length[:, None], values.take(idx, mode="clip"), INF
    )


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
        left_table = _sweep(left[i], ctx, b, keep_splits=False)[0]
        right_table = _sweep(right[i], ctx, b, keep_splits=False)[0]
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
    off: np.ndarray,
    splits: np.ndarray,
    out: List[int],
) -> None:
    """Walk the recorded split choices from the root to materialize the
    cut for budget ``b`` (node ``i``'s split row is
    ``splits[off[i] : off[i + 1]]``)."""
    node, left, right, _depth = hierarchy.links()
    stack = [(len(node) - 1, b)]
    while stack:
        i, b = stack.pop()
        if left[i] < 0 or b == 1:
            out.append(node[i])
            continue
        b = min(b, int(off[i + 1] - off[i]) - 1)
        c = int(splits[off[i] + b])
        if c == -1:  # single-bucket choice recorded at B == 1 only
            out.append(node[i])
            continue
        stack.append((left[i], c))
        stack.append((right[i], b - c))
