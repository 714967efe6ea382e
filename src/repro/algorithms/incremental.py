"""Subtree-memoized incremental DP rebuilds (ROADMAP item 2).

The paper leaves recalibration *policy* open; PR 5 answered "when"
with the drift detector, and this module answers "how much work" — a
rebuild should cost time proportional to the drift, not to ``|G|``.
The lever is the tree structure of the dynamic programs themselves:

* **Nonoverlapping.**  The table ``E[i, .]`` (and its recorded split
  choices) depends only on the *content* of ``i``'s pruned subtree —
  the leaf counts, the zero-summary weights and the subtree shape —
  plus the construction configuration (metric, budget, options).
  A subtree whose per-group counts did not change therefore
  contributes a bit-identical table to its parent's knapsack merge,
  so the whole subtree's tables and splits can be reused from the
  previous build and only the *dirty* nodes (ancestors of changed
  groups) re-run their merges.

* **Overlapping.**  The bucket-case table ``F[i, .]`` is independent
  of the enclosing ancestor (the property the LPM heuristic also
  exploits), so it memoizes per subtree exactly like the
  nonoverlapping table.  The conditioned tables ``E[i, ., j]`` depend
  on the subtree content *and* the ancestor ``j``'s density — but on
  nothing else about ``j``.  Dirtiness is monotone along any ancestor
  chain (a change below ``j`` is also below every ancestor of ``j``),
  so the dirty ancestors of a clean node are always a *prefix* of its
  root-first ancestor chain: rows conditioned on the clean suffix are
  copied from the memo and only the first ``D`` rows are re-merged —
  in one stacked kernel call, since batch rows are row-independent.

Each node's identity is its per-subtree **content fingerprint**:
BLAKE2b over the subtree's pruned structure (node ids, kinds, group
counts, tuple counts, recursively over children).  Two builds of the
same window support (the pruned tree's shape is a pure function of
which groups are nonzero) assign every subtree the same postorder
index, so the common case — localized count drift with an unchanged
support set, recognized by a BLAKE2b *structure signature* over the
nonzero mask — resolves fingerprint equality by index: the dirty set
is one vectorized diff of the new counts against the counts the memo
was built from, pushed to internal nodes by a prefix sum over each
subtree's contiguous postorder interval, and only dirty fingerprints
are re-hashed.  When the support set did change, the nonoverlapping
session falls back to fingerprint-keyed splicing (reuse survives
pruned-shape changes elsewhere in the tree); the overlapping session
starts cold — correct either way, because reuse is an optimization
over an identical computation.

A memo is only consulted when its configuration key (algorithm,
metric, budget, builder options) matches the rebuild's.  The kernel
mode is not part of the key: ``"fast"`` is bit-identical to the
``"naive"`` oracle, and only ``"fast"`` memoizes — under ``"naive"``
:func:`new_session` returns ``None`` and the rebuild runs from scratch,
leaving any previous memo to seed the next ``"fast"`` rebuild (its
dirty diff runs against the counts the memo was built from).  Because
reused entries are the arrays an identical solve on identical content
produced, the incremental result — curve, argmin tie-breaks,
reconstructed bucket set — is **bit-identical to a from-scratch
build**.  ``tests/test_incremental.py`` property-tests this against
the naive oracle with zero tolerance.

The dirty set is cross-checked against the count diff: each session
diffs the new counts against the counts the previous memo was built
from (the warehouse history the standing function used), reporting
``dirty_groups`` alongside the subtree reuse counters so the drift
signals of PR 5 (``quality.drift_score``, occupancy skew) can
corroborate what the rebuild actually re-solved.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PNode, PrunedHierarchy
from .base import INF, DPContext
from .kernels import kernel_mode

__all__ = [
    "subtree_fingerprints",
    "memo_config_key",
    "memo_compatible",
    "supports_incremental",
    "new_session",
    "NonoverlappingMemo",
    "OverlappingMemo",
    "NonoverlappingSession",
    "OverlappingSession",
]

#: Algorithms with a subtree-memoized incremental path.  The LPM
#: heuristics rebuild through their own greedy passes and are cheap
#: enough that memoization has nothing to amortize.
INCREMENTAL_ALGORITHMS = ("nonoverlapping", "overlapping")

_KIND_CODE = {"group": 0, "zero": 1, "branch": 2}

_pack_node = struct.Struct("<Bqqd").pack


def _node_hash(p: PNode, fps: List[bytes]) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(_pack_node(_KIND_CODE[p.kind], p.node, p.n_groups, p.tuples))
    if p.left is not None:
        h.update(fps[p.left.index])
        h.update(fps[p.right.index])
    return h.digest()


def subtree_fingerprints(hierarchy: PrunedHierarchy) -> List[bytes]:
    """Per-node content fingerprints, cached on the hierarchy.

    ``fps[i]`` identifies the *content* of node ``i``'s pruned subtree:
    BLAKE2b-128 over ``(kind, node id, group count, tuple count)`` plus
    the children's fingerprints (postorder guarantees children hash
    first).  Everything the dynamic programs read about a subtree —
    leaf counts and weights, densities, collapse decisions, knapsack
    caps — is a function of exactly these fields, so equal
    fingerprints imply bit-identical per-subtree DP state for a fixed
    configuration.
    """
    fps = getattr(hierarchy, "_subtree_fps", None)
    if fps is not None:
        return fps
    fps = [b""] * len(hierarchy.nodes)
    for p in hierarchy.nodes:  # postorder: children precede parents
        fps[p.index] = _node_hash(p, fps)
    hierarchy._subtree_fps = fps
    return fps


def _structure_signature(counts: np.ndarray) -> bytes:
    """BLAKE2b over the window's nonzero-support mask.

    The pruned hierarchy's shape (and therefore its postorder
    numbering) is a pure function of *which* groups are nonzero — the
    counts only set the ``tuples`` fields — so equal signatures mean
    node ``i`` of one build and node ``i`` of the other cover the same
    pruned subtree shape and differ at most in content.
    """
    mask = np.packbits(counts > 0)
    return hashlib.blake2b(mask.tobytes(), digest_size=16).digest()


def memo_config_key(
    algorithm: str, metric: PenaltyMetric, budget: int, options: Dict
) -> Tuple:
    """Everything besides subtree content that shapes the DP tables."""
    return (
        algorithm,
        int(budget),
        repr(metric),
        tuple(sorted(options.items())),
    )


def memo_compatible(
    memo, algorithm: str, metric: PenaltyMetric, budget: int, options: Dict
) -> bool:
    """Whether a (possibly foreign) memo can seed a rebuild under this
    configuration.

    Sessions already discard memos whose config key differs, so passing
    an incompatible memo is safe but pointless; this check lets a
    *shared* memo store (the serving layer's cross-tenant cache) avoid
    handing out memos that would contribute nothing.  Config-compatible
    memos from a different tenant are sound to share: every reuse
    inside a session is guarded by subtree content fingerprints, and
    equal fingerprints imply bit-identical per-subtree DP state for a
    fixed configuration (see :func:`subtree_fingerprints`).
    """
    return (
        memo is not None
        and getattr(memo, "config", None)
        == memo_config_key(algorithm, metric, budget, options)
    )


def supports_incremental(algorithm: str, options: Dict) -> bool:
    """Whether the algorithm/options pair has an incremental path.

    ``low_memory`` nonoverlapping builds drop the split arrays the memo
    reuses, so they fall back to a full rebuild.
    """
    if algorithm not in INCREMENTAL_ALGORITHMS:
        return False
    if algorithm == "nonoverlapping" and options.get("low_memory"):
        return False
    return True


def _dirty_groups(
    old_counts: Optional[np.ndarray], counts: np.ndarray
) -> int:
    """Groups whose warehouse count changed since the previous build
    (all of them when there is no comparable previous build)."""
    if old_counts is None or old_counts.shape != counts.shape:
        return int(counts.shape[0])
    return int(np.count_nonzero(old_counts != counts))


@dataclass
class _TreeArrays:
    """Flat postorder structure of one pruned hierarchy.

    ``left``/``right`` are child postorder indices (-1 at leaves),
    ``size`` is the subtree node count — postorder puts node ``i``'s
    subtree at the contiguous interval ``[i - size[i] + 1, i]`` — and
    ``group`` maps group leaves to their count-array column (-1 for
    branch and zero nodes).  ``parent``/``depth``/``phase`` (subtree
    height) describe the vertical layout, ``order`` lists the internal
    nodes sorted by phase (``order_phase`` alongside) — a valid
    bottom-up batch schedule — and the ``leaf_*`` arrays mirror
    :class:`~repro.algorithms.base.DPContext`'s postorder leaf-slot
    layout (``leaf_group`` is the slot's count column, -1 for zero
    summaries whose weight is their group count).  Pure structure: two
    builds with the same structure signature share these arrays
    verbatim, which is what lets a rebuild skip every O(|nodes|)
    Python setup loop.
    """

    left: np.ndarray
    right: np.ndarray
    size: np.ndarray
    group: np.ndarray
    node_id: np.ndarray
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
    leaf_group: np.ndarray


def _tree_arrays(hierarchy: PrunedHierarchy) -> _TreeArrays:
    cached = getattr(hierarchy, "_inc_tree_arrays", None)
    if cached is not None:
        return cached
    nodes = hierarchy.nodes
    n = len(nodes)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    group = np.full(n, -1, dtype=np.int64)
    node_id = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    n_groups = np.zeros(n, dtype=np.int64)
    n_nonzero = np.zeros(n, dtype=np.int64)
    ph = [0] * n
    leaf_lo = np.zeros(n, dtype=np.int64)
    leaf_hi = np.zeros(n, dtype=np.int64)
    weights: List[float] = []
    slots: List[int] = []
    for p in nodes:
        i = p.index
        n_groups[i] = p.n_groups
        n_nonzero[i] = p.n_nonzero
        node_id[i] = p.node
        if p.left is not None:
            li, ri = p.left.index, p.right.index
            left[i] = li
            right[i] = ri
            parent[li] = i
            parent[ri] = i
            size[i] = size[li] + size[ri] + 1
            ph[i] = (ph[li] if ph[li] >= ph[ri] else ph[ri]) + 1
            leaf_lo[i] = leaf_lo[li]
            leaf_hi[i] = leaf_hi[ri]
        else:
            leaf_lo[i] = len(weights)
            if p.group_index is not None:
                group[i] = p.group_index
                slots.append(p.group_index)
                weights.append(1.0)
            else:
                slots.append(-1)
                weights.append(float(p.n_groups))
            leaf_hi[i] = len(weights)
    for i in range(n - 1, -1, -1):  # root-first: parents before children
        li = left[i]
        if li >= 0:
            depth[li] = depth[i] + 1
            depth[right[i]] = depth[i] + 1
    phase = np.asarray(ph, dtype=np.int64)
    internal = np.nonzero(left >= 0)[0]
    order = internal[np.argsort(phase[internal], kind="stable")]
    cached = _TreeArrays(
        left=left, right=right, size=size, group=group,
        node_id=node_id,
        parent=parent, depth=depth, phase=phase, n_groups=n_groups,
        n_nonzero=n_nonzero,
        order=order, order_phase=phase[order],
        leaf_lo=leaf_lo, leaf_hi=leaf_hi,
        leaf_weight=np.asarray(weights, dtype=np.float64),
        leaf_group=np.asarray(slots, dtype=np.int64),
    )
    hierarchy._inc_tree_arrays = cached
    return cached


def _phase_slices(order: np.ndarray, order_phase: np.ndarray):
    """Yield the ``order`` slice of each phase, ascending — every
    node's children belong to a strictly earlier slice."""
    pos = 0
    total = order.size
    while pos < total:
        h = order_phase[pos]
        end = pos + int(
            np.searchsorted(order_phase[pos:], h, side="right")
        )
        yield order[pos:end]
        pos = end


def _ranges(sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s)`` for each ``s`` in ``sizes`` — the
    row-offset pattern for gathering variable-height blocks out of a
    contiguous row arena."""
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)


def _install_caches(
    hierarchy: PrunedHierarchy, ar: _TreeArrays, counts: np.ndarray
) -> None:
    """Rebuild the per-hierarchy DP caches from the structural arrays
    instead of per-node Python loops.

    A same-structure rebuild constructs a fresh :class:`PrunedHierarchy`
    whose postorder (hence leaf-slot layout) matches the memo's, so the
    cached leaf arrays, phase structure, and densities the DP setup
    would derive by walking the nodes are recomputed here with a few
    vectorized passes and pre-installed under the attribute names
    :class:`~repro.algorithms.base.DPContext` and the phase-batched
    sweep look up.  Every value is bit-identical to the walked version:
    leaf actuals are the same count gathers, and subtree tuple totals
    are accumulated child-pair by child-pair (per phase) exactly as
    ``PrunedHierarchy`` adds them, so the density quotients match.
    """
    hierarchy._inc_tree_arrays = ar
    if getattr(hierarchy, "_dp_leaf_arrays", None) is None:
        lg = ar.leaf_group
        actual = np.where(lg >= 0, counts[np.maximum(lg, 0)], 0.0)
        hierarchy._dp_leaf_arrays = (
            ar.leaf_lo, ar.leaf_hi, actual, ar.leaf_weight
        )
    if getattr(hierarchy, "_dp_structure", None) is None:
        hierarchy._dp_structure = (ar.phase, ar.left, ar.right)
    if getattr(hierarchy, "_inc_tuples", None) is None:
        n = ar.left.shape[0]
        tup = np.zeros(n)
        hg = ar.group >= 0
        tup[hg] = counts[ar.group[hg]]
        for idx in _phase_slices(ar.order, ar.order_phase):
            tup[idx] = tup[ar.left[idx]] + tup[ar.right[idx]]
        hierarchy._inc_tuples = tup
        if getattr(hierarchy, "_dp_densities", None) is None:
            dens = np.zeros(n)
            np.divide(tup, ar.n_groups, out=dens, where=ar.n_groups > 0)
            hierarchy._dp_densities = dens


def _dirty_vector(
    arrays: _TreeArrays, old_counts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-node dirty flags for a same-structure rebuild, vectorized.

    A node is dirty iff some group leaf in its subtree changed count.
    Leaf flags are one gather through ``arrays.group``; internal flags
    are one prefix-sum difference over each subtree's contiguous
    postorder interval — no per-node Python.
    """
    changed = old_counts != counts
    n = arrays.left.shape[0]
    leaf_changed = np.zeros(n, dtype=np.int64)
    has_group = arrays.group >= 0
    leaf_changed[has_group] = changed[arrays.group[has_group]]
    prefix = np.concatenate(([0], np.cumsum(leaf_changed)))
    idx = np.arange(n)
    return (prefix[idx + 1] - prefix[idx - arrays.size + 1]) > 0


_PACK_DTYPE = np.dtype(
    [("k", "u1"), ("n", "<i8"), ("g", "<i8"), ("t", "<f8")]
)  # unaligned: byte-for-byte the struct "<Bqqd" layout of _pack_node


def _refresh_fingerprints(
    hierarchy: PrunedHierarchy,
    old_fps: List[bytes],
    dirty: np.ndarray,
    ar: Optional[_TreeArrays] = None,
) -> List[bytes]:
    """Carry fingerprints forward across a same-structure rebuild by
    re-hashing only the dirty nodes (ascending postorder, so dirty
    children re-hash before their parents; clean fingerprints are
    valid as-is because their subtree content is unchanged).

    With structural arrays (and the cached per-node tuple totals, which
    match ``PNode.tuples`` bit for bit), the 25-byte hash prefixes are
    packed in one vectorized pass instead of touching ``PNode``
    attributes per node."""
    fps = list(old_fps)
    dirty_idx = np.nonzero(dirty)[0]
    tup = getattr(hierarchy, "_inc_tuples", None)
    if ar is None or tup is None:
        nodes = hierarchy.nodes
        for i in dirty_idx.tolist():
            fps[i] = _node_hash(nodes[i], fps)
        hierarchy._subtree_fps = fps
        return fps
    rec = np.empty(dirty_idx.size, dtype=_PACK_DTYPE)
    grp = ar.group[dirty_idx]
    lefts = ar.left[dirty_idx]
    rec["k"] = np.where(grp >= 0, 0, np.where(lefts < 0, 1, 2))
    rec["n"] = ar.node_id[dirty_idx]
    rec["g"] = ar.n_groups[dirty_idx]
    rec["t"] = tup[dirty_idx]
    buf = rec.tobytes()
    lch = lefts.tolist()
    rch = ar.right[dirty_idx].tolist()
    blake = hashlib.blake2b
    for j, i in enumerate(dirty_idx.tolist()):
        li = lch[j]
        pre = buf[25 * j : 25 * j + 25]
        data = pre if li < 0 else pre + fps[li] + fps[rch[j]]
        fps[i] = blake(data, digest_size=16).digest()
    hierarchy._subtree_fps = fps
    return fps


class _LazySplits(dict):
    """Split-array mapping backed by the memo's per-index entries.

    The reconstruction walk reads ``splits[index]`` for the O(budget)
    nodes on the chosen cut; resolving through the entry list avoids
    materializing an |nodes|-sized dict of mostly-untouched arrays on
    every rebuild.
    """

    def __init__(self, by_index: List[Optional["_NOEntry"]]) -> None:
        super().__init__()
        self._by_index = by_index

    def __missing__(self, index: int) -> np.ndarray:
        return self._by_index[index].split


# ---------------------------------------------------------------------------
# Nonoverlapping: whole-subtree table + split memo
# ---------------------------------------------------------------------------
class _NOEntry:
    """One internal node's sweep output (leaves are recomputed — their
    tables are two trivial entries).  Plain slots class: one of these
    is built per dirty internal node on every rebuild, so construction
    cost is on the incremental hot path."""

    __slots__ = ("table", "split")

    def __init__(self, table: np.ndarray, split: np.ndarray) -> None:
        self.table = table
        self.split = split


@dataclass
class NonoverlappingMemo:
    """All internal-node tables and splits of one build.

    ``by_index`` is indexed by the build's postorder; ``fps`` carries
    the content fingerprints so a later build whose pruned support set
    changed can still splice clean subtrees by fingerprint
    (:meth:`fp_map` builds that mapping on demand).  ``counts`` is the
    count vector the build saw — the baseline for the next rebuild's
    dirty diff.
    """

    config: Tuple
    counts: np.ndarray
    structure_sig: bytes
    arrays: _TreeArrays
    fps: List[bytes]
    by_index: List[Optional[_NOEntry]]
    #: Per-node own-density errors of the build — spliced into the next
    #: same-structure rebuild's context so only dirty rows are
    #: re-evaluated.
    own: Optional[np.ndarray] = None
    _fp_map: Optional[Dict[bytes, int]] = field(default=None, repr=False)

    def fp_map(self) -> Dict[bytes, int]:
        m = self._fp_map
        if m is None:
            m = {
                self.fps[i]: i
                for i, e in enumerate(self.by_index)
                if e is not None
            }
            self._fp_map = m
        return m


class NonoverlappingSession:
    """One incremental nonoverlapping sweep.

    Created per rebuild with the previous build's memo (or ``None``);
    :meth:`sweep` is called by
    :func:`~repro.algorithms.nonoverlapping.build_nonoverlapping` in
    place of its full sweep, and :meth:`finish` hands back the memo for
    the *next* rebuild.
    """

    algorithm = "nonoverlapping"

    def __init__(
        self,
        hierarchy: PrunedHierarchy,
        config: Tuple,
        old: Optional[NonoverlappingMemo],
    ) -> None:
        if old is not None and old.config != config:
            old = None  # a reconfigured rebuild shares nothing
        self._hierarchy = hierarchy
        self._config = config
        self._old = old
        self._sig = _structure_signature(hierarchy.counts)
        self._same = (
            old is not None
            and old.structure_sig == self._sig
            and old.counts.shape == hierarchy.counts.shape
        )
        if self._same:
            _install_caches(hierarchy, old.arrays, hierarchy.counts)
        self._result: Optional[NonoverlappingMemo] = None
        self.dirty_groups = _dirty_groups(
            None if old is None else old.counts, hierarchy.counts
        )
        #: Internal nodes whose merge was re-run (the dirty set).
        self.solved = 0
        #: Internal nodes whose table/split came from the memo.
        self.reused = 0

    # -- sweep -------------------------------------------------------------
    def sweep(self, root: PNode, ctx: DPContext, budget: int):
        """Memoized bottom-up sweep; tables and splits bit-identical to
        :func:`~repro.algorithms.nonoverlapping._sweep`."""
        hierarchy = self._hierarchy
        if root.is_leaf:
            table = np.full(2, INF)
            table[1] = ctx.grperr_own(root)
            self._result = NonoverlappingMemo(
                config=self._config,
                counts=hierarchy.counts.copy(),
                structure_sig=self._sig,
                arrays=_tree_arrays(hierarchy),
                fps=subtree_fingerprints(hierarchy),
                by_index=[None] * len(hierarchy.nodes),
            )
            return table, {}
        if self._same:
            return self._sweep_same_structure(ctx, budget)
        return self._sweep_restructured(root, ctx, budget)

    def _sweep_same_structure(self, ctx: DPContext, budget: int):
        """Fast path: the pruned support set is unchanged, so old and
        new postorders coincide index for index.  The dirty set is one
        vectorized diff; only dirty internal nodes re-run their merges,
        phase by phase, reading clean child tables straight out of the
        previous memo."""
        hierarchy = self._hierarchy
        old = self._old
        ar = old.arrays
        dirty = _dirty_vector(ar, old.counts, hierarchy.counts)
        internal = ar.left >= 0
        dirty_internal = np.nonzero(dirty & internal)[0]
        self.solved = int(dirty_internal.size)
        self.reused = int(np.count_nonzero(internal)) - self.solved

        by_index: List[Optional[_NOEntry]] = list(old.by_index)
        new_tables: Dict[int, np.ndarray] = {}
        if old.own is not None:
            ctx.splice_own_errors(old.own, np.nonzero(dirty)[0])
        self._merge_dirty_batched(
            ctx, budget, ar, dirty, dirty_internal, by_index, new_tables,
        )

        self._result = NonoverlappingMemo(
            config=self._config,
            counts=hierarchy.counts.copy(),
            structure_sig=self._sig,
            arrays=ar,
            fps=_refresh_fingerprints(hierarchy, old.fps, dirty, ar),
            by_index=by_index,
            own=ctx.own_errors(),
        )
        root_index = len(hierarchy.nodes) - 1
        root_table = new_tables.get(root_index)
        if root_table is None:  # nothing dirty at all
            root_table = by_index[root_index].table
        return root_table, _LazySplits(by_index)

    def _merge_dirty_batched(
        self,
        ctx: DPContext,
        budget: int,
        ar: _TreeArrays,
        dirty: np.ndarray,
        dirty_internal: np.ndarray,
        by_index: List[Optional[_NOEntry]],
        new_tables: Dict[int, np.ndarray],
    ) -> None:
        """Phase-batched re-merge of the dirty internal nodes.

        The dirty set is processed level by level exactly like the full
        phase-batched sweep (same grouping by child-table shapes, same
        stacked kernels — every batch row is the per-node fast merge bit
        for bit); the only difference is that clean children contribute
        their memoized tables instead of freshly swept ones, which are
        identical arrays by the fingerprint argument.  Table lengths
        are structural, so the length recurrence runs over the full
        tree to type the clean tables without touching them.
        """
        from .kernels import _positive_merge_batch
        from .nonoverlapping import _shared_split_cache

        if dirty_internal.size == 0:
            return
        own = ctx.own_errors()
        maximum = ctx.metric.combine == "max"
        left_idx, right_idx, phase = ar.left, ar.right, ar.phase
        leaf_mask = left_idx < 0
        tlen = np.where(leaf_mask, 2, 0)
        for idx in _phase_slices(ar.order, ar.order_phase):
            tlen[idx] = np.minimum(
                budget, tlen[left_idx[idx]] + tlen[right_idx[idx]] - 2
            ) + 1
        _const_split = _shared_split_cache()
        dorder = dirty_internal[
            np.argsort(phase[dirty_internal], kind="stable")
        ]

        def _table(ci: int) -> np.ndarray:
            t = new_tables.get(ci)
            return t if t is not None else by_index[ci].table

        for idx_h in _phase_slices(dorder, phase[dorder]):
            li = left_idx[idx_h]
            ri = right_idx[idx_h]
            lleaf = leaf_mask[li]
            rleaf = leaf_mask[ri]

            both = lleaf & rleaf
            if both.any():
                g = idx_h[both]
                size = min(budget, 2) + 1
                block = np.empty((g.size, size))
                block[:, 0] = INF
                block[:, 1] = own[g]
                if size == 3:
                    lv = own[li[both]]
                    rv = own[ri[both]]
                    block[:, 2] = (
                        np.maximum(lv, rv) if maximum else lv + rv
                    )
                sp = _const_split("lr", size)
                for k, i in enumerate(g.tolist()):
                    new_tables[i] = block[k]
                    by_index[i] = _NOEntry(table=block[k], split=sp)

            one = lleaf ^ rleaf
            if one.any():
                g = idx_h[one]
                gl = li[one]
                gr = ri[one]
                r_is_leaf = rleaf[one]
                inner_idx = np.where(r_is_leaf, gl, gr)
                edge_idx = np.where(r_is_leaf, gr, gl)
                key = tlen[inner_idx] * 2 + r_is_leaf
                for u in np.unique(key).tolist():
                    sel = key == u
                    gi = g[sel]
                    ginner = inner_idx[sel]
                    inner_len = int(u // 2)
                    right_leaf = bool(u & 1)
                    size = min(budget, inner_len) + 1
                    K = gi.size
                    buf = np.empty((K, inner_len))
                    for k, ii in enumerate(ginner.tolist()):
                        buf[k] = _table(int(ii))
                    edge = own[edge_idx[sel]]
                    block = np.empty((K, size))
                    block[:, 0] = INF
                    block[:, 1] = own[gi]
                    if size > 2:
                        seg = buf[:, 1 : size - 1]
                        e = edge[:, None]
                        block[:, 2:] = (
                            np.maximum(seg, e) if maximum else seg + e
                        )
                    sp = _const_split(
                        "rl" if right_leaf else "lr", size
                    )
                    for k, i in enumerate(gi.tolist()):
                        new_tables[i] = block[k]
                        by_index[i] = _NOEntry(table=block[k], split=sp)

            both_int = ~(lleaf | rleaf)
            if both_int.any():
                g = idx_h[both_int]
                gl = li[both_int]
                gr = ri[both_int]
                key = tlen[gl] * (2 * budget + 4) + tlen[gr]
                for u in np.unique(key).tolist():
                    sel = key == u
                    gi = g[sel]
                    m = int(u // (2 * budget + 4))
                    nn = int(u % (2 * budget + 4))
                    size = min(budget, m + nn - 2) + 1
                    K = gi.size
                    bl = np.empty((K, m - 1))
                    br = np.empty((K, nn - 1))
                    for k, ii in enumerate(gl[sel].tolist()):
                        bl[k] = _table(int(ii))[1:]
                    for k, ii in enumerate(gr[sel].tolist()):
                        br[k] = _table(int(ii))[1:]
                    block = np.empty((K, size))
                    block[:, 0] = INF
                    block[:, 1] = own[gi]
                    if size > 2:
                        vals, choice = _positive_merge_batch(
                            bl, br, size - 2, maximum, want_choice=True
                        )
                        block[:, 2:] = vals
                    spblock = np.empty((K, size), dtype=np.int32)
                    spblock[:, 0] = -1
                    spblock[:, 1] = -1
                    if size > 2:
                        spblock[:, 2:] = choice
                    for k, i in enumerate(gi.tolist()):
                        new_tables[i] = block[k]
                        by_index[i] = _NOEntry(
                            table=block[k], split=spblock[k]
                        )

    def _sweep_restructured(self, root: PNode, ctx: DPContext, budget: int):
        """Fallback when the pruned support set changed (or there is no
        previous memo): walk the new tree, splicing any subtree whose
        content fingerprint the old memo knows and merging the rest."""
        from .nonoverlapping import _merge_node_fast, _shared_split_cache

        hierarchy = self._hierarchy
        fps = subtree_fingerprints(hierarchy)
        old = self._old
        fpmap = old.fp_map() if old is not None else {}
        by_index: List[Optional[_NOEntry]] = [None] * len(hierarchy.nodes)
        maximum = ctx.metric.combine == "max"
        own = ctx.own_errors()
        const_split = _shared_split_cache()
        tables: Dict[int, np.ndarray] = {}
        stack = [(root, False)]
        while stack:
            p, expanded = stack.pop()
            if not expanded:
                if p.is_leaf:
                    continue
                oi = fpmap.get(fps[p.index], -1) if fpmap else -1
                if oi >= 0:
                    self._splice(p, oi, tables, by_index)
                    continue
                stack.append((p, True))
                stack.append((p.right, False))
                stack.append((p.left, False))
                continue
            left, right = p.left, p.right
            lt = tables.pop(left.index) if not left.is_leaf else None
            rt = tables.pop(right.index) if not right.is_leaf else None
            table, split = _merge_node_fast(
                own[p.index], lt, rt,
                own[left.index], own[right.index],
                budget, maximum, True, const_split,
            )
            tables[p.index] = table
            by_index[p.index] = _NOEntry(table=table, split=split)
            self.solved += 1
        self._result = NonoverlappingMemo(
            config=self._config,
            counts=hierarchy.counts.copy(),
            structure_sig=self._sig,
            arrays=_tree_arrays(hierarchy),
            fps=fps,
            by_index=by_index,
            own=own,
        )
        return tables[root.index], _LazySplits(by_index)

    def _splice(
        self,
        p: PNode,
        old_index: int,
        tables: Dict[int, np.ndarray],
        by_index: List[Optional[_NOEntry]],
    ) -> None:
        """Install a clean subtree's memoized entries without re-running
        any merge.  Equal fingerprints imply equal pruned shape, so the
        new subtree and the old one walk in lockstep; only the subtree
        *root's* table is published (parents consume nothing deeper),
        while entries land at every internal descendant so the
        reconstruction walk finds its splits."""
        old = self._old
        oar = old.arrays
        obi = old.by_index
        tables[p.index] = obi[old_index].table
        stack = [(p, old_index)]
        while stack:
            q, oj = stack.pop()
            by_index[q.index] = obi[oj]
            self.reused += 1
            lo, ro = int(oar.left[oj]), int(oar.right[oj])
            if oar.left[lo] >= 0:
                stack.append((q.left, lo))
            if oar.left[ro] >= 0:
                stack.append((q.right, ro))

    # -- lifecycle ---------------------------------------------------------
    def finish(self) -> NonoverlappingMemo:
        return self._result

    def stats(self) -> Dict[str, float]:
        total = self.solved + self.reused
        return {
            "dirty_subtrees": float(self.solved),
            "reused_subtrees": float(self.reused),
            "reused_fraction": (self.reused / total) if total else 0.0,
            "dirty_groups": float(self.dirty_groups),
        }


# ---------------------------------------------------------------------------
# Overlapping: per-node bucket case + conditioned row blocks
# ---------------------------------------------------------------------------
@dataclass
class _OVArena:
    """Contiguous DP-state arenas for one overlapping build.

    Node ``i``'s conditioned-row block (row ``d`` conditioned on the
    ancestor at depth ``d``) lives at arena rows
    ``row_start[i] : row_start[i] + depth[i]``, width ``blk_w[i]``;
    its ancestor-independent bucket case occupies ``eb[i, :size_b[i]]``
    (the tail is ``INF`` so stacked bucket-case overlays can compare
    full-width without a per-node length clamp — an ``INF`` candidate
    never wins a strict ``<``).  Widths, row offsets and the
    base/internal ``kind`` are all structural, so two same-structure
    builds address the arena identically — which is what lets a rebuild
    patch only the dirty-ancestor row prefix of each clean node *in
    place* with whole-array gathers and scatters instead of per-node
    Python.  In-place patching consumes the memo: after a rebuild the
    arena reflects the new counts, so a memo must only ever seed the
    *next* rebuild (replaying the identical transition is idempotent —
    every rewritten value is bit-identical — which is what benchmark
    repetition relies on).
    """

    row_start: np.ndarray  # (n + 1,) exclusive prefix sum of depths
    e2: np.ndarray         # (R, W) conditioned-row tables
    flags: np.ndarray      # (R, W) int8 reconstruction flags
    splits: np.ndarray     # (R, W) int32 non-bucket split choices
    eb: np.ndarray         # (n, W) bucket-case tables, INF-padded
    split_b: np.ndarray    # (n, W) int32 bucket-case split choices
    bflag: np.ndarray      # (n, W) int8 bucket/sparse flags
    sparse_at: np.ndarray  # (n,) int64 sparse-leaf node id, -1 = none
    size_b: np.ndarray     # (n,) int64 bucket-case table length
    blk_w: np.ndarray      # (n,) int64 conditioned-block width
    kind: np.ndarray       # (n,) int8: 0 unstored, 1 base, 2 internal


def _alloc_arena(depth: np.ndarray, width: int) -> _OVArena:
    n = depth.shape[0]
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(depth, out=row_start[1:])
    rows = int(row_start[n])
    return _OVArena(
        row_start=row_start,
        e2=np.empty((rows, width)),
        flags=np.zeros((rows, width), dtype=np.int8),
        splits=np.full((rows, width), -1, dtype=np.int32),
        eb=np.full((n, width), INF),
        split_b=np.full((n, width), -1, dtype=np.int32),
        bflag=np.zeros((n, width), dtype=np.int8),
        sparse_at=np.full(n, -1, dtype=np.int64),
        size_b=np.zeros(n, dtype=np.int64),
        blk_w=np.zeros(n, dtype=np.int64),
        kind=np.zeros(n, dtype=np.int8),
    )


@dataclass
class OverlappingMemo:
    """One build's DP state — the contiguous :class:`_OVArena`,
    indexed by that build's postorder — plus the counts/support
    signature identifying it."""

    config: Tuple
    counts: np.ndarray
    structure_sig: bytes
    arrays: _TreeArrays
    arena: Optional[_OVArena] = None


class OverlappingSession:
    """One incremental overlapping solve.

    On a same-structure rebuild the DP never recurses into a clean
    subtree: a vectorized prepass re-conditions the dirty-ancestor row
    prefix of *every* clean node directly in the memo arena (rows
    conditioned on clean ancestors — always the suffix, because
    dirtiness is monotone up any ancestor chain — stay valid
    verbatim), and the recursion then only visits dirty nodes,
    adopting each maximal clean subtree as one arena view.  A
    support-set change starts a cold session: every node is dirty and
    a fresh memo is recorded for the next rebuild.
    """

    algorithm = "overlapping"

    def __init__(
        self,
        hierarchy: PrunedHierarchy,
        config: Tuple,
        old: Optional[OverlappingMemo],
    ) -> None:
        if old is not None and old.config != config:
            old = None
        counts = hierarchy.counts
        self._config = config
        self._sig = _structure_signature(counts)
        self.dirty_groups = _dirty_groups(
            None if old is None else old.counts, counts
        )
        if (
            old is not None
            and old.structure_sig == self._sig
            and old.counts.shape == counts.shape
            and old.arena is not None
        ):
            self._arrays = old.arrays
            _install_caches(hierarchy, old.arrays, counts)
            #: Per-node dirty flags; the DP also folds these into its
            #: running dirty-ancestor counts.
            self.dirty = _dirty_vector(old.arrays, old.counts, counts)
        else:
            self._arrays = _tree_arrays(hierarchy)
            self.dirty = np.ones(len(hierarchy.nodes), dtype=bool)
            old = None
        #: Whether the old memo survived with an identical pruned
        #: support set — the precondition for the skip-clean fast path.
        self.same_structure = old is not None
        self._counts = counts
        self.arena: Optional[_OVArena] = (
            old.arena if old is not None else None
        )
        self.solved = 0  # internal bucket-case merges re-run
        self.reused = 0  # internal nodes adopted from the memo arena
        self.rows_solved = 0
        self.rows_reused = 0

    @property
    def arrays(self) -> _TreeArrays:
        return self._arrays

    # -- arena protocol ----------------------------------------------------
    def ensure_arena(self, width: int) -> _OVArena:
        """The carried-over arena, or a fresh one sized ``width`` (=
        ``max subtree cap + 1``, a structural constant for a fixed
        configuration) on a cold session."""
        if self.arena is None:
            self.arena = _alloc_arena(self._arrays.depth, width)
        return self.arena

    def store_base(
        self,
        index: int,
        depth: int,
        e_b: np.ndarray,
        bucket_flag: np.ndarray,
        sparse_at: Optional[int],
        e2: np.ndarray,
        flags2: np.ndarray,
    ) -> None:
        """Record a visited base node (leaf or sparse collapse).  Every
        node the recursion visits is dirty (clean subtrees are adopted
        whole), so its dirty-ancestor count equals its depth and ``e2``
        always holds the full ``depth`` rows."""
        a = self.arena
        start = int(a.row_start[index])
        if depth:
            a.e2[start : start + depth, :2] = e2
            a.flags[start : start + depth, :2] = flags2
        a.eb[index, :2] = e_b
        a.bflag[index, :2] = bucket_flag
        a.sparse_at[index] = -1 if sparse_at is None else sparse_at
        a.size_b[index] = 2
        a.blk_w[index] = 2
        a.kind[index] = 1

    def store_block(
        self,
        index: int,
        depth: int,
        e_b: np.ndarray,
        split_b: np.ndarray,
        bucket_flag: np.ndarray,
        sparse_at: Optional[int],
        e2: np.ndarray,
        flags2: np.ndarray,
        split2: np.ndarray,
    ) -> None:
        """Record a visited internal node's full solve output: one
        bucket case and ``depth`` conditioned rows re-merged."""
        self.solved += 1
        self.rows_solved += depth
        a = self.arena
        start = int(a.row_start[index])
        width = e2.shape[1]
        if depth:
            a.e2[start : start + depth, :width] = e2
            a.flags[start : start + depth, :width] = flags2
            a.splits[start : start + depth, : split2.shape[1]] = split2
        size_b = e_b.shape[0]
        a.eb[index, :size_b] = e_b
        a.eb[index, size_b:] = INF
        a.split_b[index, : split_b.shape[0]] = split_b
        a.bflag[index, :size_b] = bucket_flag
        a.sparse_at[index] = -1 if sparse_at is None else sparse_at
        a.size_b[index] = size_b
        a.blk_w[index] = width
        a.kind[index] = 2

    def note_clean_bulk(
        self, nodes: int, rows_solved: int, rows_reused: int
    ) -> None:
        """Fold the sweep totals into the reuse stats: ``nodes``
        clean internal nodes adopted, with ``rows_solved`` conditioned
        rows re-merged and ``rows_reused`` carried verbatim."""
        self.reused += int(nodes)
        self.rows_solved += int(rows_solved)
        self.rows_reused += int(rows_reused)

    def note_dirty_bulk(self, nodes: int, rows_solved: int) -> None:
        """Fold the sweep's dirty-side totals into the stats:
        ``nodes`` internal bucket cases re-merged, ``rows_solved``
        conditioned rows re-merged (one per dirty ancestor)."""
        self.solved += int(nodes)
        self.rows_solved += int(rows_solved)

    # -- lifecycle ---------------------------------------------------------
    def finish(self) -> OverlappingMemo:
        return OverlappingMemo(
            config=self._config,
            counts=self._counts.copy(),
            structure_sig=self._sig,
            arrays=self._arrays,
            arena=self.arena,
        )

    def stats(self) -> Dict[str, float]:
        total = self.solved + self.reused
        rows_total = self.rows_solved + self.rows_reused
        return {
            "dirty_subtrees": float(self.solved),
            "reused_subtrees": float(self.reused),
            "reused_fraction": (self.reused / total) if total else 0.0,
            "dirty_groups": float(self.dirty_groups),
            "rows_solved": float(self.rows_solved),
            "rows_reused": float(self.rows_reused),
            "rows_reused_fraction": (
                (self.rows_reused / rows_total) if rows_total else 0.0
            ),
        }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def new_session(
    algorithm: str,
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    memo,
    **options,
):
    """Create the memo session for one rebuild, or ``None`` under the
    ``"naive"`` kernel mode.

    ``memo`` is the previous build's memo (or ``None`` on the first
    build).  A memo built under a different configuration contributes
    nothing; the session then behaves as a cold first build that still
    records a fresh memo.  The naive oracle never memoizes: callers
    build from scratch when this returns ``None`` and keep ``memo`` for
    the next ``"fast"`` rebuild.
    """
    if not supports_incremental(algorithm, options):
        raise ValueError(
            f"algorithm {algorithm!r} (options {options!r}) has no "
            f"incremental rebuild path"
        )
    if kernel_mode() == "naive":
        return None
    config = memo_config_key(algorithm, metric, budget, options)
    if algorithm == "nonoverlapping":
        return NonoverlappingSession(hierarchy, config, memo)
    return OverlappingSession(hierarchy, config, memo)
