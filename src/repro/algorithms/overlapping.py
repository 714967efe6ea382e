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

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PrunedHierarchy
from ..core.partition import Bucket, OverlappingPartitioning
from ..obs import span
from .base import INF, ConstructionResult, DPContext
from .kernels import (
    _ranges, kernel_mode, knapsack_merge, knapsack_merge_batch,
)

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
    # Non-bucket case: row d of each block is the table for the
    # enclosing ancestor at depth d (ancestors are root-first, so an
    # ancestor's depth is its row).
    flags_block: Optional[np.ndarray] = None
    splits_block: Optional[np.ndarray] = None


@dataclass
class _OVArena:
    """The fast solve's DP state in flat ragged arrays, indexed by the
    build's postorder.

    Node ``i``'s conditioned block — ``depth[i]`` rows of width
    ``blk_w[i]``, row ``d`` conditioned on the ancestor at depth ``d``
    — is stored row-major at ``e2[off[i] : off[i + 1]]`` (``flags`` and
    ``splits`` share the layout), and its ancestor-independent bucket
    case at ``eb[boff[i] : boff[i + 1]]`` (``size_b[i]`` entries, with
    ``bflag`` alongside; ``split_b`` uses the same offsets and one entry
    less).  So the arena holds the ``Σ depth·blk_w`` cells a solve
    writes: most nodes are leaves two entries wide, and padding every
    row to the widest cap would multiply its size (and that of every
    memo kept of it) by tens on deep hierarchies.  Offsets, widths,
    ``kind``, ``sparse_at``, the base nodes' tables and flags and every
    bucket-case flag are structural: two builds with the same nonzero
    mask and configuration address the arena identically, which is
    what lets a rebuild re-merge only the dirty rows.
    """

    off: np.ndarray        # (n + 1,) conditioned-block offsets
    boff: np.ndarray       # (n + 1,) bucket-case offsets
    e2: np.ndarray         # conditioned tables
    flags: np.ndarray      # int8 reconstruction flags
    splits: np.ndarray     # int32 non-bucket split choices
    eb: np.ndarray         # bucket-case tables
    split_b: np.ndarray    # int32 bucket-case split choices
    bflag: np.ndarray      # int8 bucket/sparse flags
    sparse_at: np.ndarray  # (n,) sparse-leaf node id, -1 = none
    size_b: np.ndarray     # (n,) bucket-case table length
    blk_w: np.ndarray      # (n,) conditioned-block width
    kind: np.ndarray       # (n,) int8: 0 in a collapse, 1 base, 2 internal

    def patchable(self) -> "_OVArena":
        """A copy whose DP values may be rewritten (the structural
        fields are shared, never written)."""
        return replace(
            self, e2=self.e2.copy(), flags=self.flags.copy(),
            splits=self.splits.copy(), eb=self.eb.copy(),
            split_b=self.split_b.copy(),
        )


class _LazyRecords:
    """Fast-mode reconstruction records, hydrated on demand from the
    arena.

    Reconstruction reads O(budget) nodes, so records are built (as
    views into the arena) only for the nodes it visits — no per-node
    Python loop over the hierarchy.
    """

    def __init__(self, arena: _OVArena, depth: np.ndarray) -> None:
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
                b0, b1 = int(a.boff[index]), int(a.boff[index + 1])
                rec.bucket_flag = a.bflag[b0:b1]
                at = int(a.sparse_at[index])
                rec.sparse_at = None if at < 0 else at
                o0, o1 = int(a.off[index]), int(a.off[index + 1])
                shape = (int(self._depth[index]), int(a.blk_w[index]))
                rec.flags_block = a.flags[o0:o1].reshape(shape)
                rec.splits_block = a.splits[o0:o1].reshape(shape)
                if kind == 2:
                    rec.split_b = a.split_b[b0 : b1 - 1]
            self._recs[index] = rec
        return rec


class OverlappingDP:
    """One run of the overlapping dynamic program.

    Kept as a class so that the longest-prefix-match greedy heuristic
    can inspect per-bucket approximation errors after the run.

    The fast kernel mode runs one phase-batched sweep over a ragged
    :class:`_OVArena` (:meth:`_sweep`).  Scratch builds, cold
    incremental builds and same-structure rebuilds all run it and
    differ only in the dirty mask: every node for the first two, the
    count diff against the memo for the third.  The ``"naive"`` mode
    runs the recursive per-ancestor solve (:meth:`_solve`), the oracle
    the sweep is tested against; it never memoizes.
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
        ar = hierarchy.arrays
        fast = kernel_mode() != "naive"
        self.ctx = DPContext(hierarchy, metric)
        self._base, self._under = self._base_under_masks(ar)
        self._caps, self._blk_w, self._size_b = self._shape(ar)
        # Bucket-case expansions ``(node index, b) -> buckets``, shared
        # by every budget's reconstruction (see buckets_for_budget).
        self._expanded: Dict[Tuple[int, int], List[Bucket]] = {}
        self._arena: Optional[_OVArena] = None
        with span(
            "dp.overlapping.solve", budget=budget,
            nodes=len(hierarchy), sparse=sparse,
        ) as sp:
            if fast:
                root_bucket_table = self._solve_fast(ar, memo)
            else:
                root_bucket_table = self._solve_naive()
            sp.annotate(sparse_collapses=self._count_sparse())
        self.root_table = root_bucket_table

    def _count_sparse(self) -> int:
        if self._arena is not None:
            return int(np.count_nonzero(self._arena.sparse_at >= 0))
        return sum(1 for r in self.records if r.sparse_at is not None)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _base_under_masks(self, ar) -> Tuple[np.ndarray, np.ndarray]:
        """``base``: nodes the DP resolves as a base case (leaves, and
        sparse collapses when enabled).  ``under``: nodes strictly
        inside a collapsed subtree — never solved or stored.  Postorder
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

    def _shape(self, ar) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per node, in one phase-vectorized bottom-up pass: the cap
        (max useful buckets, the tree-knapsack bound), the conditioned
        block width and the bucket-case table length.

        Base nodes take one bucket and two-entry tables (nodes inside a
        collapse store nothing).  An internal node's widths are its
        merges' output lengths — ``knapsack_merge(L, R, cap)`` returns
        ``min(cap, |L| + |R| - 2) + 1`` entries — for the non-bucket
        merge at ``cap`` and the bucket case's merge at ``cap - 1``
        plus its zero-bucket entry.  Integer minimums only, so every
        value is exact.
        """
        base, under = self._base, self._under
        caps = np.ones(ar.left.shape[0], dtype=np.int64)
        blk_w = np.where(under, 0, 2)
        size_b = blk_w.copy()
        left, right = ar.left, ar.right
        for idx in ar.phase_slices():
            sel = idx[~base[idx]]
            cap = np.minimum(
                self.budget, caps[left[sel]] + caps[right[sel]] + 1
            )
            caps[sel] = cap
            both = blk_w[left[sel]] + blk_w[right[sel]]
            blk_w[sel] = np.minimum(cap + 1, both - 1)
            size_b[sel] = np.minimum(cap + 1, both)
        return caps, blk_w, size_b

    def _sparse_leaves(self, ar) -> np.ndarray:
        """Per stored collapse root, the node id a sparse bucket there
        stands for (-1 elsewhere):
        :meth:`~repro.core.hierarchy.PrunedHierarchy.single_nonzero_leaf`,
        vectorized.  Its descent ends at the subtree's only nonzero
        leaf, or, with no nonzero group below, keeps right to the
        subtree's last leaf; a subtree being the postorder interval
        ending at its root, both are running maxima of leaf positions
        read at the root."""
        n = ar.left.shape[0]
        out = np.full(n, -1, dtype=np.int64)
        roots = np.nonzero(self._base & ~self._under & (ar.left >= 0))[0]
        if roots.size:
            pos = np.arange(n)
            leaf = ar.left < 0
            last_leaf = np.maximum.accumulate(np.where(leaf, pos, -1))
            last_nz = np.maximum.accumulate(
                np.where(leaf & (ar.n_nonzero == 1), pos, -1)
            )
            at = np.where(
                ar.n_nonzero[roots] == 1, last_nz[roots], last_leaf[roots]
            )
            hit = ar.group[at] >= 0
            out[roots[hit]] = ar.node[at[hit]]
        return out

    def _cold_arena(self, ar) -> _OVArena:
        """The structural pass: a fresh arena with everything that
        depends only on the pruned shape and the configuration filled
        in — offsets, widths, ``kind``, sparse collapse ids, the base
        nodes' bucket cases (``[INF, 0]``, flagged sparse at one bucket
        over a collapse with a group below), the ``0`` column and flags
        of their conditioned rows, and every bucket case's ``INF`` at
        zero buckets.  :meth:`_sweep` fills in the rest."""
        base, under = self._base, self._under
        blk_w, size_b = self._blk_w, self._size_b
        depth = ar.depth
        n = depth.shape[0]
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(depth * blk_w, out=off[1:])
        boff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(size_b, out=boff[1:])
        cells, bcells = int(off[n]), int(boff[n])
        sparse_at = self._sparse_leaves(ar)
        eb = np.empty(bcells)
        eb[boff[:n][~under]] = INF
        bflag = np.full(bcells, _BUCKET, dtype=np.int8)
        tb = np.nonzero(base & ~under)[0]
        one = boff[tb] + 1
        eb[one] = 0.0
        bflag[one[sparse_at[tb] >= 0]] = _SPARSE
        e2 = np.empty(cells)
        flags = np.zeros(cells, dtype=np.int8)
        d = depth[tb]
        col1 = np.repeat(off[tb], d) + 2 * _ranges(d) + 1
        e2[col1] = 0.0
        flags[col1] = np.repeat(bflag[one], d)
        return _OVArena(
            off=off, boff=boff, e2=e2, flags=flags,
            splits=np.full(cells, -1, dtype=np.int32),
            eb=eb, split_b=np.full(bcells, -1, dtype=np.int32),
            bflag=bflag, sparse_at=sparse_at, size_b=size_b,
            blk_w=blk_w,
            kind=np.where(under, 0, np.where(base, 1, 2)).astype(np.int8),
        )

    # ------------------------------------------------------------------
    # Fast solve
    # ------------------------------------------------------------------
    def _solve_fast(self, ar, memo) -> np.ndarray:
        """Choose the arena and the dirty mask, then :meth:`_sweep`.

        Without a carried arena (a scratch build, or a session whose
        memo did not survive) the structural pass lays out a fresh one
        and every node is dirty.  A same-structure session carries the
        previous build's arena and its count-diff mask.  The sweep
        patches a copy of it: the carried arena still backs the
        previous memo and that build's reconstruction, and a memo
        shared through a cache may seed other rebuilds.  An empty mask
        adopts the carried arena as it is.
        """
        carried = None if memo is None else memo.arena
        if carried is None:
            arena = self._cold_arena(ar)
            dirty = np.ones(ar.left.shape[0], dtype=bool)
        else:
            dirty = memo.dirty
            arena = carried.patchable() if dirty.any() else carried
        if memo is not None:
            memo.arena = arena
        self._arena = arena
        self.records = _LazyRecords(arena, ar.depth)
        return self._sweep(arena, ar, dirty, memo)

    def _sweep(self, a: _OVArena, ar, dirty: np.ndarray, memo) -> np.ndarray:
        """Re-merge, in place, every arena value a dirty node
        determines and return the root's bucket-case table — no
        recursion at all.

        Dirtiness is monotone up any ancestor chain, so the dirty
        ancestors of *any* node are a root-first prefix of its chain of
        some length ``D``: a node's full depth when the node itself is
        dirty, or the owning maximal clean subtree root's depth when it
        is clean.  Rows ``[0, D)`` of every node are re-merged against
        the chain's current densities; rows ``[D:]`` are conditioned on
        clean ancestors and stay valid verbatim, as do every clean
        node's bucket-case table and the structural fields.  The work
        per bottom-up phase is grouped by (child widths, cap) so each
        group is one gather → stacked kernel → overlay → scatter over
        the flat arena; base rows are closed-form
        (``[grperr(node, anc), 0]``) via one row-batched grperr.  A
        scratch or cold build is the all-dirty case: ``D`` is every
        node's depth and every row is written.  Every value written is
        exactly what the naive recursion computes: the kernel's rows
        are batch-independent and equal its single merges, and the
        bucket case overlays the same strict-improvement comparison.
        """
        n = ar.left.shape[0]
        base, under = self._base, self._under
        clean = ~dirty
        par = ar.parent
        depth = ar.depth
        off, boff = a.off, a.boff
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
        # Base nodes (leaves and collapse roots): column 0 of their
        # rows is ``grperr(node, anc_density)``, in one row-batched
        # call; the rest of their state is structural.  ``anc[k, d]``
        # is node tb[k]'s ancestor at depth d, built by iterated
        # parent gathers: the s-th parent of a node sits at depth
        # ``depth - s``, so reaching depth 0 takes the node's full
        # ``depth`` steps even though only columns ``< wide`` are
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
            a.e2[np.repeat(off[tb], Ds) + 2 * _ranges(Ds)] = pens[keep]
        # Internal nodes.  Node ``i`` re-merges its rows [0, D) from
        # its children's rows [0, D); a dirty node also re-merges its
        # bucket case (one bucket on the node, children conditioned on
        # it: their row ``depth[i]`` = D) as one more row of the same
        # kernel call.  Entry B of a merge does not depend on the cap,
        # so the bucket case's ``cap - 1`` merge is a prefix of that
        # row.  Every row is laid out once, sorted by (phase, left
        # width, right width, cap) — children in strictly earlier
        # phases, and one group per stacked kernel call; the cap is in
        # the key because the budget clamps it — with each group's
        # bucket-case rows last, written before the overlay reads them.
        dirty_int = dirty & ~under & ~base
        todo = np.nonzero((need | dirty_int) & ~base)[0]
        if todo.size:
            combine = self.metric.combine
            blk_w = a.blk_w
            left, right = ar.left, ar.right
            W1 = int(blk_w.max()) + 1
            span_b = self.budget + 2
            own = dirty_int[todo]
            nrows = D_vec[todo] + own
            node = np.repeat(todo, nrows)
            row = _ranges(nrows)
            gkey = (
                (ar.phase[todo] * W1 + blk_w[left[todo]]) * W1
                + blk_w[right[todo]]
            ) * span_b + self._caps[todo]
            rkey = 2 * np.repeat(gkey, nrows) + (
                np.repeat(own, nrows) & (row == depth[node])
            )
            order = np.argsort(rkey, kind="stable")
            rkey, node, row = rkey[order], node[order], row[order]
            lc, rc = left[node], right[node]
            lstart = off[lc] + row * blk_w[lc]
            rstart = off[rc] + row * blk_w[rc]
            ostart = off[node] + row * blk_w[node]
            bstart = boff[node]
            cut = np.nonzero(np.diff(rkey >> 1))[0] + 1
            starts = np.concatenate(([0], cut))
            mids = starts + np.add.reduceat(1 - (rkey & 1), starts)
            ends = np.concatenate((cut, [rkey.size]))
            for s0, m0, e0, key in zip(
                starts.tolist(), mids.tolist(), ends.tolist(),
                (rkey[starts] >> 1).tolist(),
            ):
                rest, cap = divmod(key, span_b)
                rest, wr = divmod(rest, W1)
                wl = rest % W1
                merged, split = knapsack_merge_batch(
                    a.e2[lstart[s0:e0, None] + np.arange(wl)],
                    a.e2[rstart[s0:e0, None] + np.arange(wr)],
                    cap, combine,
                )
                nb = m0 - s0  # rows before the bucket-case rows
                if m0 < e0:
                    wb = int(a.size_b[node[m0]]) - 1
                    cols = bstart[m0:e0, None] + np.arange(wb)
                    a.eb[cols + 1] = merged[nb:, :wb]
                    a.split_b[cols] = split[nb:, :wb]
                if nb:
                    cols = np.arange(merged.shape[1])
                    vals = merged[:nb]
                    bucket = a.eb[bstart[s0:m0, None] + cols]
                    better = bucket < vals
                    np.copyto(vals, bucket, where=better)
                    cells = ostart[s0:m0, None] + cols
                    a.e2[cells] = vals
                    a.flags[cells] = np.where(better, _BUCKET, _NOT_BUCKET)
                    a.splits[cells] = split[:nb]
        if memo is not None:
            clean_int = clean & ~under & ~base
            memo.record_sweep(
                solved=int(np.count_nonzero(dirty_int)),
                reused=int(np.count_nonzero(clean_int)),
                rows_solved=int(D_vec[dirty_int | clean_int].sum()),
                rows_reused=int((depth - D_vec)[clean_int].sum()),
            )
        i = n - 1  # postorder root
        return a.eb[boff[i] : boff[i + 1]]

    # ------------------------------------------------------------------
    # Naive oracle
    # ------------------------------------------------------------------
    def _solve_naive(self) -> np.ndarray:
        hierarchy = self.hierarchy
        n_nodes = len(hierarchy)
        self.records = [_NodeRecord() for _ in range(n_nodes)]
        # Full tables E[p, ., j] per node, keyed by node index, one per
        # ancestor j in depth order; entries are freed as soon as the
        # parent has consumed them (the paper's Section 4.4 space
        # optimization — reconstruction uses the retained choice arrays
        # instead).
        self._tables: Dict[int, List[np.ndarray]] = {}
        # Entry d holds the density of the ancestor at depth d along
        # the recursion, so the first ``depth`` entries are the current
        # node's strict ancestors root-first.
        self._anc_dens = np.empty(n_nodes + 1, dtype=np.float64)
        return self._solve(n_nodes - 1, 0)

    def _solve(self, i: int, depth: int) -> np.ndarray:
        """Fill node ``i``'s subtree's tables, one merge per enclosing
        ancestor.

        ``depth`` is the number of strict ancestors; their densities
        are the first ``depth`` entries of ``self._anc_dens``
        (root-first).  Returns the node's *bucket-case* table (used
        directly at the root); the per-ancestor full tables are handed
        to the caller via ``_tables``.
        """
        hierarchy = self.hierarchy
        _node, left, right, _depth = hierarchy.links()
        rec = self.records[i]
        cap = int(self._caps[i])
        is_leaf = left[i] < 0
        collapse = (
            not is_leaf and self.sparse
            and hierarchy.arrays.n_nonzero[i] <= 1
        )

        if is_leaf or collapse:
            # Base: one bucket resolves this subtree exactly — a plain
            # bucket at a leaf, or a sparse bucket over a subtree with
            # at most one nonzero group.
            e_b = np.full(cap + 1, INF)
            e_b[1] = 0.0
            rec.bucket_flag = np.full(cap + 1, _BUCKET, dtype=np.int8)
            if collapse:
                rec.sparse_at = hierarchy.single_nonzero_leaf(i)
                if rec.sparse_at is not None:
                    rec.bucket_flag[1] = _SPARSE
            anc_pens = (
                self.ctx.grperr_many(i, self._anc_dens[:depth])
                if depth
                else ()
            )
            tables = []
            for pen in anc_pens:
                e = np.full(cap + 1, INF)
                e[0] = pen
                e[1] = min(e[1], e_b[1])
                tables.append(e)
            rec.flags_block = np.full(
                (depth, cap + 1), _NOT_BUCKET, dtype=np.int8
            )
            rec.flags_block[:, 1] = rec.bucket_flag[1]
            self._tables[i] = tables
            return e_b

        self._anc_dens[depth] = hierarchy.densities[i]
        self._solve(left[i], depth + 1)
        self._solve(right[i], depth + 1)
        # Child tables are consumed here; free the bulky arrays.
        left_tabs = self._tables.pop(left[i])
        right_tabs = self._tables.pop(right[i])

        # Bucket case: one bucket on ``i``, the rest split among
        # children which now see ``i`` as their closest selected
        # ancestor (their table row ``depth``).
        merged, split = knapsack_merge(
            left_tabs[depth], right_tabs[depth], cap - 1,
            self.metric.combine,
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
        tables, flag_rows, split_rows = [], [], []
        for j in range(depth):
            merged_nb, split_nb = knapsack_merge(
                left_tabs[j], right_tabs[j], cap, self.metric.combine,
            )
            size = min(cap, len(merged_nb) - 1) + 1
            e = np.full(size, INF)
            e[:size] = merged_nb[:size]
            flags = np.full(size, _NOT_BUCKET, dtype=np.int8)
            lim = min(size, size_b)
            better = e_b[:lim] < e[:lim]
            e[:lim][better] = e_b[:lim][better]
            flags[:lim][better] = rec.bucket_flag[:lim][better]
            tables.append(e)
            flag_rows.append(flags)
            split_rows.append(split_nb)
        if depth:  # the root's rows are never read
            rec.flags_block = np.stack(flag_rows)
            rec.splits_block = np.stack(split_rows)
        self._tables[i] = tables
        return e_b

    # ------------------------------------------------------------------
    # Solution reconstruction
    # ------------------------------------------------------------------
    def buckets_for_budget(self, b: int) -> List[Bucket]:
        """Materialize the optimal bucket set for budget ``b``.

        An explicit-stack preorder walk of the recorded choices over the
        hierarchy's index lists: a task ``(i, b, row)`` expands the full
        table entry ``E[i, b, j]`` (``row`` is the enclosing bucket
        ``j``'s depth, its row in the blocks), or, with ``row`` ``None``,
        the bucket case at node ``i``.
        Children are pushed right first, so buckets come out in the
        preorder the greedy heuristic's stable ranking relies on to
        break score ties.

        The bucket case at ``i`` with ``b`` buckets depends on nothing
        above ``i``, so its expansion is recorded once per DP and reused
        by every later budget (a 100-budget curve expands a few hundred
        distinct ones instead of thousands): a ``(None, start, key)``
        marker, pushed under the children, closes the expansion.
        """
        out: List[Bucket] = []
        b = max(1, min(b, len(self.root_table) - 1))
        records = self.records
        node, left, right, depths = self.hierarchy.links()
        expanded = self._expanded
        with span("dp.overlapping.collect", budget=b) as sp:
            stack: List[tuple] = [(len(node) - 1, b, None)]
            pop, push = stack.pop, stack.append
            while stack:
                i, b, row = pop()
                if i is None:
                    expanded[row] = out[b:]
                    continue
                rec = records[i]
                if row is not None:
                    # Entries with no budget expand to nothing and are
                    # never pushed.
                    block = rec.flags_block
                    b = min(b, block.shape[1] - 1)
                    if block[row, b] == _NOT_BUCKET:
                        c = int(rec.splits_block[row, b])
                        if b > c:
                            push((right[i], b - c, row))
                        if c > 0:
                            push((left[i], c, row))
                        continue
                # The bucket case at node ``i`` with ``b`` buckets.
                b = min(b, len(rec.bucket_flag) - 1)
                if rec.bucket_flag[b] == _SPARSE or (
                    b == 1 and rec.sparse_at is not None
                ):
                    out.append(
                        Bucket(node[i], sparse_group_node=rec.sparse_at)
                    )
                    continue
                if left[i] < 0 or rec.split_b is None or b <= 1:
                    out.append(Bucket(node[i]))
                    continue
                key = (i, b)
                done = expanded.get(key)
                if done is not None:
                    out.extend(done)
                    continue
                push((None, len(out), key))
                out.append(Bucket(node[i]))
                c = int(rec.split_b[b - 1])
                row = depths[i]
                if b - 1 > c:
                    push((right[i], b - 1 - c, row))
                if c > 0:
                    push((left[i], c, row))
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
        stats={"nodes": float(len(hierarchy))},
    )
