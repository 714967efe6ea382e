"""Subtree-memoized incremental DP rebuilds.

The paper leaves recalibration *policy* open; the drift detector
answers "when", and this module answers "how much work" — a rebuild
should cost time proportional to the drift, not to ``|G|``.  The lever
is the tree structure of the dynamic programs themselves:

* **Nonoverlapping.**  The table ``E[i, .]`` (and its recorded split
  choices) depends only on the *content* of ``i``'s pruned subtree —
  the leaf counts, the zero-summary weights and the subtree shape —
  plus the construction configuration (metric, budget, options).
  A subtree whose per-group counts did not change therefore
  contributes a bit-identical table to its parent's knapsack merge,
  so only the *dirty* nodes (ancestors of changed groups) re-run
  their merges — in the same phase-batched merge a full build runs,
  reading clean children's tables out of the memo.

* **Overlapping.**  The bucket-case table ``F[i, .]`` is independent
  of the enclosing ancestor (the property the LPM heuristic also
  exploits), so it memoizes per subtree exactly like the
  nonoverlapping table.  The conditioned tables ``E[i, ., j]`` depend
  on the subtree content *and* the ancestor ``j``'s density — but on
  nothing else about ``j``.  Dirtiness is monotone along any ancestor
  chain (a change below ``j`` is also below every ancestor of ``j``),
  so the dirty ancestors of a clean node are always a *prefix* of its
  root-first ancestor chain: rows conditioned on the clean suffix are
  carried from the memo and only the first ``D`` rows are re-merged.
  Every fast overlapping build runs the same phase-batched sweep; a
  scratch or cold build is the case where every node is dirty.

Both DPs follow one memo policy.  The pruned hierarchy's shape (and
therefore its postorder numbering) is a pure function of *which*
groups are nonzero, so a rebuild whose nonzero mask equals the memo's
— checked by a BLAKE2b *structure signature* over the mask — sees
node ``i`` of the memo cover the same subtree as its own node ``i``.
The dirty set is then one vectorized diff of the new counts against
the counts the memo was built from, pushed to internal nodes by a
prefix sum over each subtree's contiguous postorder interval.  Any
other rebuild — a changed mask, a different configuration, or no
memo at all — starts cold: it runs the full sweep and records a
complete memo for the next rebuild.  A rebuild never writes into the
memo it starts from, so a memo stays valid for whoever else holds it
(the previous build's result, or a cache shared between tenants).

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

Each session also diffs the new counts against the counts the previous
memo was built from (the warehouse history the standing function
used), reporting ``dirty_groups`` alongside the subtree reuse counters
so the drift signals (``quality.drift_score``, occupancy skew) can
corroborate what the rebuild actually re-solved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PNode, PrunedHierarchy
from .base import INF, DPContext
from .kernels import kernel_mode
from .nonoverlapping import _merge_internal

__all__ = [
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
    memos from a different tenant are sound to share: a session reuses
    a memo only when the two windows have the same nonzero mask, and
    then re-merges every node whose subtree counts differ from the
    counts the memo was built from — a clean node's DP state is a
    function of its subtree counts and the configuration alone.
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

    Every session installs them, as does every fast overlapping build:
    a cold one from the arrays it just built, a same-structure one from
    the memo's (a fresh :class:`PrunedHierarchy` whose postorder, hence
    leaf-slot layout, matches the memo's).  The cached leaf arrays,
    phase structure, and densities the DP setup would derive by walking
    the nodes are recomputed here with a few vectorized passes and
    pre-installed under the attribute names
    :class:`~repro.algorithms.base.DPContext` and the phase-batched
    sweeps look up.  Every value is bit-identical
    to the walked version: leaf actuals are the same count gathers, and
    subtree tuple totals are accumulated child-pair by child-pair (per
    phase) exactly as ``PrunedHierarchy`` adds them, so the density
    quotients match.
    """
    hierarchy._inc_tree_arrays = ar
    if getattr(hierarchy, "_dp_leaf_arrays", None) is None:
        lg = ar.leaf_group
        actual = np.where(lg >= 0, counts[np.maximum(lg, 0)], 0.0)
        hierarchy._dp_leaf_arrays = (
            ar.leaf_lo, ar.leaf_hi, actual, ar.leaf_weight
        )
    if getattr(hierarchy, "_dp_structure", None) is None:
        hierarchy._dp_structure = (ar.phase, ar.left, ar.right, ar.size)
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


# ---------------------------------------------------------------------------
# Sessions: one memo policy for both DPs
# ---------------------------------------------------------------------------
class _Session:
    """Setup shared by both sessions.

    The previous memo survives only when its configuration and its
    window's nonzero mask both match this build's (and
    :meth:`_usable` accepts it); otherwise the session is cold and
    ``self._old`` is ``None``.  Either way the structural arrays — the
    surviving memo's, or this hierarchy's own — seed the hierarchy's DP
    caches, so the tree is walked at most once.
    """

    def __init__(
        self, hierarchy: PrunedHierarchy, config: Tuple, old
    ) -> None:
        if old is not None and old.config != config:
            old = None  # a reconfigured rebuild shares nothing
        counts = hierarchy.counts
        self._config = config
        self._counts = counts
        self._sig = _structure_signature(counts)
        self.dirty_groups = _dirty_groups(
            None if old is None else old.counts, counts
        )
        if old is not None and not (
            old.structure_sig == self._sig
            and old.counts.shape == counts.shape
            and self._usable(old)
        ):
            old = None  # the support changed: start cold
        self._old = old
        self._arrays = (
            old.arrays if old is not None else _tree_arrays(hierarchy)
        )
        _install_caches(hierarchy, self._arrays, counts)
        #: Internal nodes whose merge was re-run (the dirty set).
        self.solved = 0
        #: Internal nodes whose DP state came from the memo.
        self.reused = 0

    def _usable(self, old) -> bool:
        return True

    @property
    def arrays(self) -> _TreeArrays:
        return self._arrays

    def stats(self) -> Dict[str, float]:
        total = self.solved + self.reused
        return {
            "dirty_subtrees": float(self.solved),
            "reused_subtrees": float(self.reused),
            "reused_fraction": (self.reused / total) if total else 0.0,
            "dirty_groups": float(self.dirty_groups),
        }


# ---------------------------------------------------------------------------
# Nonoverlapping: whole-subtree table + split memo
# ---------------------------------------------------------------------------
@dataclass
class NonoverlappingMemo:
    """All internal-node tables and splits of one build.

    ``tables``/``splits`` are indexed by the build's postorder (``None``
    at leaves, whose tables stay virtual), ``lengths`` holds every
    node's table length (2 at leaves; structural for a fixed
    configuration) and ``own`` the per-node own-density errors.
    ``counts`` is the count vector the build saw — the baseline for the
    next rebuild's dirty diff.
    """

    config: Tuple
    counts: np.ndarray
    structure_sig: bytes
    arrays: _TreeArrays
    tables: List[Optional[np.ndarray]]
    splits: List[Optional[np.ndarray]]
    lengths: np.ndarray
    own: np.ndarray


class NonoverlappingSession(_Session):
    """One incremental nonoverlapping sweep.

    Created per rebuild with the previous build's memo (or ``None``);
    :meth:`sweep` is called by
    :func:`~repro.algorithms.nonoverlapping.build_nonoverlapping` in
    place of its full sweep, and :meth:`finish` hands back the memo for
    the *next* rebuild.  Both paths run the full build's phase-batched
    merge: a cold session merges every internal node and keeps every
    table; a same-structure one merges only the dirty internal nodes
    and reads clean children's tables out of the memo.
    """

    algorithm = "nonoverlapping"

    def sweep(self, root: PNode, ctx: DPContext, budget: int):
        """Memoized bottom-up sweep; tables and splits bit-identical to
        :func:`~repro.algorithms.nonoverlapping._sweep`."""
        ar = self._arrays
        old = self._old
        if old is None:
            n = ar.left.shape[0]
            tables: List[Optional[np.ndarray]] = [None] * n
            splits: List[Optional[np.ndarray]] = [None] * n
            lengths = np.where(ar.left < 0, 2, 0)
            nodes = ar.order
        else:
            dirty = _dirty_vector(ar, old.counts, self._counts)
            ctx.splice_own_errors(old.own, np.nonzero(dirty)[0])
            tables, splits = list(old.tables), list(old.splits)
            lengths = old.lengths.copy()
            nodes = ar.order[dirty[ar.order]]
        _merge_internal(ctx, budget, nodes, tables, lengths, splits)
        self.solved = int(nodes.size)
        self.reused = int(ar.order.size) - self.solved
        own = ctx.own_errors()
        self._memo = NonoverlappingMemo(
            config=self._config,
            counts=self._counts.copy(),
            structure_sig=self._sig,
            arrays=ar,
            tables=tables,
            splits=splits,
            lengths=lengths,
            own=own,
        )
        if root.is_leaf:
            table = np.full(2, INF)
            table[1] = own[root.index]
            return table, splits
        return tables[root.index], splits

    def finish(self) -> NonoverlappingMemo:
        return self._memo


# ---------------------------------------------------------------------------
# Overlapping: per-node bucket case + conditioned row blocks
# ---------------------------------------------------------------------------
@dataclass
class OverlappingMemo:
    """One build's DP state — the ragged
    :class:`~repro.algorithms.overlapping._OVArena`, indexed by that
    build's postorder — plus the counts/support signature identifying
    it.  A memo is a value: later rebuilds patch a copy of its arena,
    never the arena itself."""

    config: Tuple
    counts: np.ndarray
    structure_sig: bytes
    arrays: _TreeArrays
    arena: Optional[object] = None


class OverlappingSession(_Session):
    """One incremental overlapping solve.

    Every fast overlapping build runs the same phase-batched sweep
    (:meth:`~repro.algorithms.overlapping.OverlappingDP._sweep`); the
    session only chooses its dirty mask and arena.  A cold session (no
    memo, another configuration, or a changed nonzero mask) marks every
    node dirty and the sweep fills a fresh arena, exactly as a scratch
    build does.  A same-structure session carries the memo's arena and
    marks the nodes whose subtree counts changed: the sweep re-merges
    their rows and the dirty-ancestor row prefix of every clean node
    (rows conditioned on clean ancestors — always the suffix, because
    dirtiness is monotone up any ancestor chain — stay valid verbatim)
    in a copy of that arena.  With nothing dirty the carried arena is
    this build's state as it is.
    """

    algorithm = "overlapping"

    def __init__(
        self,
        hierarchy: PrunedHierarchy,
        config: Tuple,
        old: Optional[OverlappingMemo],
    ) -> None:
        super().__init__(hierarchy, config, old)
        old = self._old
        #: Per-node dirty flags (every node on a cold session).
        self.dirty = (
            _dirty_vector(old.arrays, old.counts, self._counts)
            if old is not None
            else np.ones(len(hierarchy.nodes), dtype=bool)
        )
        #: The carried arena (``None`` on a cold session); the solve
        #: replaces it with the arena it built.
        self.arena = old.arena if old is not None else None
        self.rows_solved = 0
        self.rows_reused = 0

    def _usable(self, old: OverlappingMemo) -> bool:
        return old.arena is not None

    def record_sweep(
        self, solved: int, reused: int, rows_solved: int, rows_reused: int
    ) -> None:
        """The sweep's totals: internal nodes whose bucket case was
        re-merged (``solved``) or carried (``reused``), and conditioned
        rows re-merged or carried verbatim."""
        self.solved = solved
        self.reused = reused
        self.rows_solved = rows_solved
        self.rows_reused = rows_reused

    def finish(self) -> OverlappingMemo:
        return OverlappingMemo(
            config=self._config,
            counts=self._counts.copy(),
            structure_sig=self._sig,
            arrays=self._arrays,
            arena=self.arena,
        )

    def stats(self) -> Dict[str, float]:
        stats = super().stats()
        rows_total = self.rows_solved + self.rows_reused
        stats.update(
            rows_solved=float(self.rows_solved),
            rows_reused=float(self.rows_reused),
            rows_reused_fraction=(
                (self.rows_reused / rows_total) if rows_total else 0.0
            ),
        )
        return stats


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
