"""Optimal overlapping partitioning functions (paper Section 3.2.3).

Overlapping functions let bucket subtrees nest (Figure 4); estimation
maps every group to its *closest* selected ancestor.  The dynamic
program therefore carries the closest-selected-ancestor ``j`` as an
extra parameter::

    E[i, B, j] = grperr(i, j)                         if B == 0
               = min( bucket case, non-bucket case )  otherwise

where the bucket case conditions the children on ``j = i`` and spends
one bucket on ``i`` itself.  Crucially — and this is what the greedy
longest-prefix-match heuristic (Section 3.2.6) relies on — the bucket
case is *independent of the enclosing ancestor*, so it is computed once
per node (table ``F``/``E_b`` here) and shared across all ``j``.

Sparse buckets (Section 4.3, Figure 14) are folded in as a base case:
any subtree containing at most one nonzero group is representable
exactly by a single (sparse) bucket, so the DP can cap such subtrees at
one bucket and "start at the upper node of each sparse bucket", exactly
as the paper prescribes.  Disable with ``sparse=False`` to explore the
plain bucket space only.

The root must itself be a bucket node (every identifier needs an
enclosing bucket; see Figures 4-6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PNode, PrunedHierarchy
from ..core.partition import Bucket, OverlappingPartitioning
from ..obs import span
from .base import INF, ConstructionResult, DPContext
from .incremental import _phase_slices, _ranges
from .kernels import knapsack_merge, knapsack_merge_batch

__all__ = ["build_overlapping", "OverlappingDP"]

# Flags recorded for reconstruction.
_NOT_BUCKET = 0
_BUCKET = 1
_SPARSE = 2


@dataclass
class _NodeRecord:
    """Reconstruction state for one pruned node."""

    # Bucket case: split_b[B] = buckets granted to the left child when
    # this node is a bucket and B buckets are spent at/below it.
    split_b: Optional[np.ndarray] = None
    sparse_at: Optional[int] = None  # node id of the single nonzero leaf
    bucket_flag: Optional[np.ndarray] = None  # _BUCKET or _SPARSE per B
    # Per enclosing ancestor j (by pruned-node index):
    flags: Optional[Dict[int, np.ndarray]] = None
    splits_nb: Optional[Dict[int, np.ndarray]] = None
    # Batched-mode equivalents: row i of each block is the table for
    # the ancestor at depth i (ancestors are root-first, so an
    # ancestor's depth is its row).
    flags_block: Optional[np.ndarray] = None
    splits_block: Optional[np.ndarray] = None


class _LazyRecords:
    """Reconstruction records hydrated on demand from the memo arena.

    On a same-structure incremental rebuild most nodes are never
    visited (clean subtrees are adopted whole), yet the reconstruction
    walk may descend into any of them.  Materializing a record per
    node would reintroduce an O(|nodes|) Python loop, so records are
    built lazily: the solve populates the ones it visits through the
    same ``records[i]`` accesses as the eager list, and reconstruction
    hydrates the O(budget) untouched nodes it actually reads from the
    arena's flag/split views.
    """

    def __init__(self, arena, depth: np.ndarray) -> None:
        self._arena = arena
        self._depth = depth
        self._recs: Dict[int, _NodeRecord] = {}

    def __getitem__(self, index: int) -> _NodeRecord:
        rec = self._recs.get(index)
        if rec is None:
            rec = _NodeRecord()
            a = self._arena
            kind = int(a.kind[index])
            if kind:
                size_b = int(a.size_b[index])
                rec.bucket_flag = a.bflag[index, :size_b]
                at = int(a.sparse_at[index])
                rec.sparse_at = None if at < 0 else at
                d = int(self._depth[index])
                w = int(a.blk_w[index])
                start = int(a.row_start[index])
                rec.flags_block = a.flags[start : start + d, :w]
                rec.splits_block = a.splits[start : start + d, :w]
                if kind == 2:
                    rec.split_b = a.split_b[index]
            self._recs[index] = rec
        return rec

    def sparse_collapses(self) -> int:
        return int(np.count_nonzero(self._arena.sparse_at >= 0))


class OverlappingDP:
    """One run of the overlapping dynamic program.

    Kept as a class so that the longest-prefix-match greedy heuristic
    can inspect per-bucket approximation errors after the run.
    """

    def __init__(
        self,
        hierarchy: PrunedHierarchy,
        metric: PenaltyMetric,
        budget: int,
        sparse: bool = True,
        memo=None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        self.hierarchy = hierarchy
        self.metric = metric
        self.budget = budget
        self.sparse = sparse
        # Optional OverlappingSession.  On a batched same-structure
        # rebuild no recursion runs at all: one vectorized sweep
        # re-merges every row conditioned on a dirty ancestor (always
        # a root-first prefix of each node's ancestor chain) plus the
        # dirty nodes' bucket cases, straight into the memo arena —
        # producing bit-identical arrays to a full solve.
        self._inc = memo
        self.ctx = DPContext(hierarchy, metric)
        n_nodes = len(hierarchy.nodes)
        inc_batched = memo is not None and self.ctx.batched
        same_inc = inc_batched and memo.same_structure
        self._caps = self._compute_caps()
        if inc_batched:
            memo.ensure_arena(int(self._caps.max()) + 1)
        if same_inc:
            self.records = _LazyRecords(memo.arena, memo.arrays.depth)
            self._depths = memo.arrays.depth.copy()
        else:
            self.records = [_NodeRecord() for _ in hierarchy.nodes]
            self._depths = np.zeros(n_nodes, dtype=np.int64)
        # Full tables E[p, ., j] per node, keyed by node index then by
        # ancestor index; entries are freed as soon as the parent has
        # consumed them (the paper's Section 4.4 space optimization —
        # reconstruction uses the retained choice arrays instead).
        self._tables: Dict[int, Dict[int, np.ndarray]] = {}
        # Bucket-case expansions ``(node index, b) -> buckets``, shared
        # by every budget's reconstruction (see buckets_for_budget).
        self._expanded: Dict[Tuple[int, int], List[Bucket]] = {}
        # Ancestor state maintained along the recursion: entry d holds
        # the pruned index / density of the ancestor at depth d, so the
        # first ``depth`` entries are the current node's strict
        # ancestors root-first (no per-node list rebuilding).
        self._anc_idx = np.empty(n_nodes + 1, dtype=np.int64)
        self._anc_dens = np.empty(n_nodes + 1, dtype=np.float64)
        with span(
            "dp.overlapping.solve", budget=budget,
            nodes=n_nodes, sparse=sparse,
        ) as sp:
            if same_inc:
                root_bucket_table = (
                    self._solve_same_structure()
                    if memo.dirty.any()
                    # Nothing dirty: the previous build's arena is
                    # this build's answer verbatim.
                    else self._adopt_all_clean()
                )
            else:
                root_bucket_table = self._solve(hierarchy.root, 0)
            sp.annotate(sparse_collapses=self._count_sparse())
        self.root_table = root_bucket_table

    def _count_sparse(self) -> int:
        recs = self.records
        if isinstance(recs, _LazyRecords):
            return recs.sparse_collapses()
        return sum(1 for r in recs if r.sparse_at is not None)

    # ------------------------------------------------------------------
    def _compute_caps(self) -> np.ndarray:
        """Max useful buckets per subtree (tree-knapsack bound)."""
        hierarchy = self.hierarchy
        ar = getattr(hierarchy, "_inc_tree_arrays", None)
        if ar is not None:
            # Phase-vectorized recurrence — pure integer minimums, so
            # the result equals the per-node walk exactly.
            caps = np.ones(len(hierarchy.nodes), dtype=np.int64)
            base = ar.left < 0
            if self.sparse:
                base = base | (ar.n_nonzero <= 1)
            for idx in _phase_slices(ar.order, ar.order_phase):
                sel = idx[~base[idx]]
                caps[sel] = np.minimum(
                    self.budget,
                    caps[ar.left[sel]] + caps[ar.right[sel]] + 1,
                )
            return caps
        caps = np.zeros(len(hierarchy.nodes), dtype=np.int64)
        for p in hierarchy.nodes:  # postorder
            if p.is_leaf or (self.sparse and p.n_nonzero <= 1):
                caps[p.index] = 1
            else:
                caps[p.index] = min(
                    self.budget, caps[p.left.index] + caps[p.right.index] + 1
                )
        return caps

    def _base_under_masks(self, ar) -> Tuple[np.ndarray, np.ndarray]:
        """``base``: nodes the DP resolves as a base case (leaves, and
        sparse collapses when enabled).  ``under``: nodes strictly
        inside a collapsed subtree — never solved or stored, so the
        prepass must not touch their (stale) arena rows.  Postorder
        puts each collapse's proper descendants at the contiguous
        interval before it; painting those intervals handles nested
        collapses for free."""
        n = ar.left.shape[0]
        base = ar.left < 0
        if self.sparse:
            base = base | (ar.n_nonzero <= 1)
        under = np.zeros(n, dtype=bool)
        inner = np.nonzero(base & (ar.left >= 0))[0]
        if inner.size:
            delta = np.zeros(n + 1, dtype=np.int64)
            np.add.at(delta, inner - ar.size[inner] + 1, 1)
            np.subtract.at(delta, inner, 1)
            under = np.cumsum(delta[:n]) > 0
        return base, under

    def _adopt_all_clean(self) -> np.ndarray:
        """Zero drift: the carried arena *is* this build's DP state
        (same structure, same counts, same configuration), so nothing
        runs at all; report every internal non-collapse node reused."""
        inc = self._inc
        ar = inc.arrays
        base, under = self._base_under_masks(ar)
        tgt = ~under & ~base
        inc.note_clean_bulk(
            int(np.count_nonzero(tgt)), 0, int(ar.depth[tgt].sum())
        )
        a = inc.arena
        i = len(self.hierarchy.nodes) - 1  # postorder root
        return a.eb[i, : int(a.size_b[i])]

    def _solve_same_structure(self) -> np.ndarray:
        """Whole-array incremental solve: patch the memo arena in place
        and return the root's bucket-case table — no recursion at all.

        Dirtiness is monotone up any ancestor chain, so the dirty
        ancestors of *any* node are a root-first prefix of its chain of
        some length ``D``: a node's full depth when the node itself is
        dirty, or the owning maximal clean subtree root's depth when it
        is clean.  Rows ``[0, D)`` of every node are re-merged against
        the chain's current densities; rows ``[D:]`` are conditioned on
        clean ancestors and stay valid verbatim, as do every clean
        node's bucket-case table and all structural metadata (widths,
        offsets, flags of base rows, sparse collapse ids).  The work
        per bottom-up phase is grouped by (child widths, cap) so each
        group is one whole-array gather → stacked kernel → overlay →
        scatter; base rows are closed-form (``[grperr(node, anc), 0]``)
        via one row-batched grperr.  Every rewritten value is exactly
        what a from-scratch solve computes: the kernel's rows are
        batch-independent, the bucket case re-merges the same child
        rows, and the INF-padded bucket tables make the full-width
        overlay equal the solve's length-clamped one — so the arena
        afterwards is bit-identical to a cold build's.
        """
        inc = self._inc
        a = inc.arena
        ar = inc.arrays
        n = ar.left.shape[0]
        dirty = inc.dirty
        base, under = self._base_under_masks(ar)
        clean = ~dirty
        par = ar.parent
        depth = ar.depth
        # Dirty-ancestor counts: dirty nodes have an entirely dirty
        # chain (D = depth); each maximal clean subtree (clean root,
        # dirty parent) shares its root's D = depth[root], painted over
        # the subtree's contiguous postorder interval.
        D_vec = np.where(dirty, depth, 0)
        croots = np.nonzero(
            clean & ~under & dirty[np.maximum(par, 0)]
        )[0]
        if croots.size:
            sizes = ar.size[croots]
            delta = np.zeros(n + 1, dtype=np.int64)
            np.add.at(delta, croots - sizes + 1, depth[croots])
            np.subtract.at(delta, croots + 1, depth[croots])
            D_vec = np.where(clean, np.cumsum(delta[:n]), D_vec)
        need = ~under & (D_vec > 0)
        rs = a.row_start
        rows_dirty = 0
        # Base nodes (leaves and collapse roots): closed-form rows
        # ``[grperr(node, anc_density), 0]`` in one row-batched call;
        # their bucket case ([INF, 0]) and flags are structural.
        # ``anc[k, d]`` is node tb[k]'s ancestor at depth d, built by
        # iterated parent gathers: the s-th parent of a node sits at
        # depth ``depth - s``, so reaching depth 0 takes the node's
        # full ``depth`` steps even though only columns ``< wide`` are
        # kept.  Unfilled cells alias node 0; their penalties are
        # masked off before writing.
        tb = np.nonzero(base & need)[0]
        if tb.size:
            Ds = D_vec[tb]
            wide = int(Ds.max())
            dpt = depth[tb]
            anc = np.zeros((tb.size, wide), dtype=np.int64)
            cur = par[tb].copy()
            for s in range(1, int(dpt.max()) + 1):
                m = dpt >= s
                cols = dpt[m] - s
                keep = cols < wide
                anc[np.nonzero(m)[0][keep], cols[keep]] = cur[m][keep]
                cur = np.where(cur >= 0, par[np.maximum(cur, 0)], -1)
            pens = self.ctx.grperr_rows(
                tb, self.ctx.node_densities()[anc]
            )
            keep = np.arange(wide) < Ds[:, None]
            rows = np.repeat(rs[tb], Ds) + _ranges(Ds)
            a.e2[rows, 0] = pens[keep]
            a.e2[rows, 1] = 0.0
        # Internal nodes bottom-up by phase (children strictly
        # earlier), grouped by (left width, right width, cap): the cap
        # is part of the key because it is clamped by the budget, not
        # derivable from the child widths.  Dirty nodes first re-merge
        # their bucket case (one bucket on the node, children
        # conditioned on it — child row ``depth[node]``), then all rows
        # [0, D) re-merge with the bucket-case overlay.
        combine = self.metric.combine
        caps = self._caps
        W1 = a.eb.shape[1] + 1
        span_b = self.budget + 2
        int_mask = need & ~base
        dirty_int = dirty & ~under & ~base

        def _groups(g: np.ndarray):
            if g.size == 0:
                return
            key = (
                a.blk_w[ar.left[g]] * W1 + a.blk_w[ar.right[g]]
            ) * span_b + caps[g]
            order = np.argsort(key, kind="stable")
            bounds = np.nonzero(np.diff(key[order]))[0] + 1
            for chunk in np.split(order, bounds):
                u = int(key[chunk[0]])
                rest = u // span_b
                yield g[chunk], u % span_b, rest // W1, rest % W1

        for idx0 in _phase_slices(ar.order, ar.order_phase):
            gd = idx0[dirty_int[idx0]]
            rows_dirty += int(depth[gd].sum())
            for gs, capu, wlu, wru in _groups(gd):
                # Bucket case: same child rows, same merge as the cold
                # solve's knapsack_merge (batch rows are kernel-equal).
                rowJ = depth[gs]
                L = a.e2[rs[ar.left[gs]] + rowJ, :wlu]
                R = a.e2[rs[ar.right[gs]] + rowJ, :wru]
                merged, choice = knapsack_merge_batch(
                    L, R, capu - 1, combine
                )
                size_b = min(capu, merged.shape[1]) + 1
                a.eb[gs, 1:size_b] = merged[:, : size_b - 1]
                a.split_b[gs, : choice.shape[1]] = choice
            g = idx0[int_mask[idx0]]
            if g.size == 0:
                continue
            for gs, capu, wlu, wru in _groups(g):
                Ds = D_vec[gs]
                total = int(Ds.sum())
                off = _ranges(Ds)
                rowsL = np.repeat(rs[ar.left[gs]], Ds) + off
                rowsR = np.repeat(rs[ar.right[gs]], Ds) + off
                merged2, split_m = knapsack_merge_batch(
                    a.e2[rowsL, :wlu], a.e2[rowsR, :wru], capu, combine
                )
                size = min(capu, merged2.shape[1] - 1) + 1
                em = merged2[:, :size]
                flags_m = np.zeros(em.shape, dtype=np.int8)
                rep = np.repeat(gs, Ds)
                ebp = a.eb[rep, :size]
                better = ebp < em
                np.copyto(em, ebp, where=better)
                np.copyto(flags_m, a.bflag[rep, :size], where=better)
                rowsS = rs[rep] + off
                a.e2[rowsS, :size] = em
                a.flags[rowsS, :size] = flags_m
                a.splits[rowsS, : split_m.shape[1]] = split_m
        clean_int = clean & ~under & ~base
        rows_clean = int(D_vec[clean_int].sum())
        inc.note_dirty_bulk(
            int(np.count_nonzero(dirty_int)), rows_dirty
        )
        inc.note_clean_bulk(
            int(np.count_nonzero(clean_int)),
            rows_clean,
            int((depth[clean_int] - D_vec[clean_int]).sum()),
        )
        i = n - 1  # postorder root
        return a.eb[i, : int(a.size_b[i])]

    def _single_nonzero_leaf(self, p: PNode) -> Optional[PNode]:
        """The unique nonzero group leaf below ``p`` (requires
        ``p.n_nonzero == 1``)."""
        while not p.is_leaf:
            p = p.left if p.left.n_nonzero == 1 else p.right
        return p if p.kind == "group" else None

    # ------------------------------------------------------------------
    def _solve(self, p: PNode, depth: int) -> np.ndarray:
        """Fill this subtree's tables.

        ``depth`` is the number of strict ancestors; their pruned
        indices / densities are the first ``depth`` entries of
        ``self._anc_idx`` / ``self._anc_dens`` (root-first).  Returns
        the node's *bucket-case* table (used directly at the root); the
        per-ancestor full tables are handed to the caller via
        ``_tables`` on the record.
        """
        inc = self._inc
        rec = self.records[p.index]
        self._depths[p.index] = depth
        cap = int(self._caps[p.index])
        collapse = (not p.is_leaf) and self.sparse and p.n_nonzero <= 1

        if p.is_leaf or collapse:
            # Base: one bucket resolves this subtree exactly — a plain
            # bucket at a leaf, or a sparse bucket over a subtree with
            # at most one nonzero group.
            e_b = np.full(cap + 1, INF)
            e_b[1] = 0.0
            rec.bucket_flag = np.full(cap + 1, _BUCKET, dtype=np.int8)
            if collapse:
                leaf = self._single_nonzero_leaf(p)
                if leaf is not None:
                    rec.sparse_at = leaf.node
                    rec.bucket_flag[1] = _SPARSE
            if self.ctx.batched:
                # Batched layout: the ancestor tables live in one
                # (depth, cap + 1) block, row i conditioned on the
                # ancestor at depth i; reconstruction indexes rows by
                # ancestor depth.  Entries match the per-ancestor loop
                # below exactly: e[0] = pen, e[1] = e_b[1].
                e2 = np.empty((depth, cap + 1))
                flags2 = np.zeros((depth, cap + 1), dtype=np.int8)
                if depth:
                    # One batched grperr over the materialized ancestor
                    # densities replaces the per-ancestor slice
                    # evaluations — the O(log|U|) inner loop of the
                    # DP's base case.
                    anc_pens = self.ctx.grperr_many(
                        p, self._anc_dens[:depth]
                    )
                    if cap > 1:
                        e2[:, 2:] = INF
                    e2[:, 0] = anc_pens
                    e2[:, 1] = e_b[1]
                if depth:
                    flags2[:, 1] = rec.bucket_flag[1]
                rec.flags_block = flags2
                self._tables[p.index] = e2
                if inc is not None:
                    # Every visited node is dirty, so D == depth and
                    # the block lands whole in the arena.
                    inc.store_base(
                        p.index, depth, e_b, rec.bucket_flag,
                        rec.sparse_at, e2, flags2,
                    )
                return e_b
            anc_pens = (
                self.ctx.grperr_many(p, self._anc_dens[:depth])
                if depth
                else ()
            )
            tables = {}
            rec.flags = {}
            for i, pen in enumerate(anc_pens):
                j_idx = int(self._anc_idx[i])
                e = np.full(cap + 1, INF)
                e[0] = pen
                e[1] = min(e[1], e_b[1])
                tables[j_idx] = e
                flags = np.full(cap + 1, _NOT_BUCKET, dtype=np.int8)
                flags[1] = rec.bucket_flag[1]
                rec.flags[j_idx] = flags
            self._tables[p.index] = tables
            return e_b

        self._anc_idx[depth] = p.index
        self._anc_dens[depth] = p.density
        self._solve(p.left, depth + 1)
        self._solve(p.right, depth + 1)
        left_tabs = self._tables[p.left.index]
        right_tabs = self._tables[p.right.index]
        J = depth
        batched = self.ctx.batched

        # Bucket case: one bucket on p, the rest split among children
        # which now see p as their closest selected ancestor.  In
        # batched mode the child tables are (J + 1, width) blocks: rows
        # [0, J) conditioned on this node's ancestors and row J on this
        # node itself.
        if batched:
            left_self, right_self = left_tabs[J], right_tabs[J]
        else:
            left_self = left_tabs[p.index]
            right_self = right_tabs[p.index]
        merged, split = knapsack_merge(
            left_self, right_self, cap - 1, self.metric.combine
        )
        # size - 1 <= len(merged), so every entry past 0 comes from the
        # merge — no inf prefill needed beyond entry 0.
        size_b = min(cap, len(merged)) + 1
        e_b = np.empty(size_b)
        e_b[0] = INF
        e_b[1:] = merged[: size_b - 1]
        rec.split_b = split
        rec.bucket_flag = np.full(size_b, _BUCKET, dtype=np.int8)

        # Non-bucket case per enclosing ancestor.
        if batched:
            # Sessions adopt clean subtrees before recursion ever
            # reaches them, so a visited node re-merges in full.  One
            # stacked merge replaces the per-ancestor loop below — each
            # row of the batch is the same merge the loop would run,
            # and the bucket-case overlay applies the identical
            # strict-improvement comparison, so results are bit-for-bit
            # unchanged.
            merged2, split2 = knapsack_merge_batch(
                left_tabs[:J], right_tabs[:J], cap,
                self.metric.combine,
            )
            size = min(cap, merged2.shape[1] - 1) + 1
            e2 = merged2[:, :size]
            flags2 = np.zeros(e2.shape, dtype=np.int8)
            lim = min(size, size_b)
            better2 = e_b[:lim] < e2[:, :lim]
            np.copyto(e2[:, :lim], e_b[:lim], where=better2)
            np.copyto(
                flags2[:, :lim], rec.bucket_flag[:lim], where=better2
            )
            if inc is not None:
                inc.store_block(
                    p.index, J, e_b, rec.split_b, rec.bucket_flag,
                    rec.sparse_at, e2, flags2, split2,
                )
            rec.flags_block = flags2
            rec.splits_block = split2
            self._tables[p.index] = e2
            del self._tables[p.left.index]
            del self._tables[p.right.index]
            return e_b
        # Naive reference mode: per-ancestor merges (it never
        # memoizes — the mode exists for bit-level cross-checks).
        rec.flags = {}
        rec.splits_nb = {}
        tables = {}
        for i in range(depth):
            j_idx = int(self._anc_idx[i])
            merged_nb, split_nb = knapsack_merge(
                left_tabs[j_idx], right_tabs[j_idx], cap,
                self.metric.combine,
            )
            size = min(cap, len(merged_nb) - 1) + 1
            e = np.full(size, INF)
            e[:size] = merged_nb[:size]
            flags = np.full(size, _NOT_BUCKET, dtype=np.int8)
            lim = min(size, size_b)
            better = e_b[:lim] < e[:lim]
            e[:lim][better] = e_b[:lim][better]
            flags[:lim][better] = rec.bucket_flag[:lim][better]
            tables[j_idx] = e
            rec.flags[j_idx] = flags
            rec.splits_nb[j_idx] = split_nb
        self._tables[p.index] = tables
        # Child tables are no longer needed; free the bulky arrays.
        del self._tables[p.left.index]
        del self._tables[p.right.index]
        return e_b

    # ------------------------------------------------------------------
    # Solution reconstruction
    # ------------------------------------------------------------------
    def buckets_for_budget(self, b: int) -> List[Bucket]:
        """Materialize the optimal bucket set for budget ``b``.

        An explicit-stack preorder walk of the recorded choices: a task
        ``(p, b, j, row)`` expands the full table entry ``E[p, b, j]``
        (``j`` is the enclosing bucket's node index and ``row`` its
        depth, its row in the batched blocks), or, with ``j`` ``None``,
        the bucket case at ``p``.  Children are pushed right first, so
        buckets come out in the preorder the greedy heuristic's stable
        ranking relies on to break score ties.

        The bucket case at ``p`` with ``b`` buckets depends on nothing
        above ``p``, so its expansion is recorded once per DP and reused
        by every later budget (a 100-budget curve expands a few hundred
        distinct ones instead of thousands): a ``(None, start, key, 0)``
        marker, pushed under the children, closes the expansion.
        """
        out: List[Bucket] = []
        b = max(1, min(b, len(self.root_table) - 1))
        records = self.records
        depths = self._depths
        expanded = self._expanded
        with span("dp.overlapping.collect", budget=b) as sp:
            stack: List[tuple] = [(self.hierarchy.root, b, None, 0)]
            pop, push = stack.pop, stack.append
            while stack:
                p, b, j_idx, row = pop()
                if p is None:
                    expanded[j_idx] = out[b:]
                    continue
                rec = records[p.index]
                if j_idx is not None:
                    # Entries with no budget expand to nothing and are
                    # never pushed.
                    block = rec.flags_block
                    if block is not None:
                        b = min(b, block.shape[1] - 1)
                        expand = block[row, b] == _NOT_BUCKET
                        if expand:
                            c = int(rec.splits_block[row, b])
                    else:
                        flags = rec.flags[j_idx]
                        b = min(b, len(flags) - 1)
                        expand = flags[b] == _NOT_BUCKET
                        if expand:
                            c = int(rec.splits_nb[j_idx][b])
                    if expand:
                        if b > c:
                            push((p.right, b - c, j_idx, row))
                        if c > 0:
                            push((p.left, c, j_idx, row))
                        continue
                # The bucket case at ``p`` with ``b`` buckets.
                b = min(b, len(rec.bucket_flag) - 1)
                if rec.bucket_flag[b] == _SPARSE or (
                    b == 1 and rec.sparse_at is not None
                ):
                    out.append(Bucket(p.node, sparse_group_node=rec.sparse_at))
                    continue
                if p.is_leaf or rec.split_b is None or b <= 1:
                    out.append(Bucket(p.node))
                    continue
                key = (p.index, b)
                done = expanded.get(key)
                if done is not None:
                    out.extend(done)
                    continue
                push((None, len(out), key, 0))
                out.append(Bucket(p.node))
                c = int(rec.split_b[b - 1])
                row = int(depths[p.index])
                if b - 1 > c:
                    push((p.right, b - 1 - c, p.index, row))
                if c > 0:
                    push((p.left, c, p.index, row))
            sp.annotate(buckets=len(out))
        return out


def build_overlapping(
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    sparse: bool = True,
    memo=None,
) -> ConstructionResult:
    """Construct the optimal overlapping partitioning function.

    See :class:`OverlappingDP` for the algorithm; the returned curve
    covers every budget up to ``budget`` from the single run.  ``memo``
    is an :class:`~repro.algorithms.incremental.OverlappingSession`
    for subtree-memoized rebuilds (bit-identical to a full solve).
    """
    dp = OverlappingDP(hierarchy, metric, budget, sparse=sparse, memo=memo)
    curve = np.full(budget + 1, INF)
    upto = min(budget, len(dp.root_table) - 1)
    curve[1 : upto + 1] = dp.ctx.finalize_curve(dp.root_table[1 : upto + 1])
    best = INF
    for b in range(1, budget + 1):
        best = min(best, curve[b])
        curve[b] = best

    def make_function(b: int) -> OverlappingPartitioning:
        return OverlappingPartitioning(
            hierarchy.domain, dp.buckets_for_budget(b)
        )

    return ConstructionResult(
        make_function=make_function,
        curve=curve,
        budget=budget,
        stats={"nodes": float(len(hierarchy.nodes))},
    )
