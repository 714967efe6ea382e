"""Subtree-memoized incremental DP rebuilds.

The paper leaves recalibration *policy* open; the drift detector
answers "when" (from each window's quality drift score), and this
module answers "how much work" — a rebuild should cost time
proportional to the drift, not to ``|G|``.  The lever is the tree
structure of the dynamic programs themselves:

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
so the drift signals every decoded window carries (``drift_score`` and
occupancy skew on each ``WindowReport``, computed whether or not
telemetry is live; the ``quality.*`` gauges export them) can
corroborate what the rebuild actually re-solved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PrunedHierarchy, TreeArrays
from .base import DPContext
from .kernels import kernel_mode
from .nonoverlapping import _layout, _merge_internal, _table

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


def _dirty_vector(
    arrays: TreeArrays, old_counts: np.ndarray, counts: np.ndarray
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
    ``self._old`` is ``None``.  A surviving memo's postorder is this
    hierarchy's, so its state is addressed by this hierarchy's arrays.
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
        self._arrays = hierarchy.arrays
        #: Internal nodes whose merge was re-run (the dirty set).
        self.solved = 0
        #: Internal nodes whose DP state came from the memo.
        self.reused = 0

    def _usable(self, old) -> bool:
        return True

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
    """One build's DP state: the ragged arena every internal node's
    error table and split row live in.

    Node ``i``'s table is ``values[offsets[i] : offsets[i + 1]]`` and
    its split row the same slice of ``splits`` (zero wide at leaves,
    whose tables stay virtual); ``offsets`` is structural for a fixed
    configuration and nonzero mask.  ``own`` holds the per-node
    own-density errors and ``counts`` the count vector the build saw —
    the baseline for the next rebuild's dirty diff.  A memo is a value:
    later rebuilds re-merge into a copy of its arrays, never the arrays
    themselves.
    """

    config: Tuple
    counts: np.ndarray
    structure_sig: bytes
    values: np.ndarray
    splits: np.ndarray
    offsets: np.ndarray
    own: np.ndarray


class NonoverlappingSession(_Session):
    """One incremental nonoverlapping sweep.

    Created per rebuild with the previous build's memo (or ``None``);
    :meth:`sweep` is called by
    :func:`~repro.algorithms.nonoverlapping.build_nonoverlapping` in
    place of its full sweep, and :meth:`finish` hands back the memo for
    the *next* rebuild.  Both paths run the full build's phase-batched
    merge: a cold session merges every internal node into a fresh
    arena; a same-structure one re-merges only the dirty internal nodes
    into a copy of the memo's arena, whose clean entries it reads.
    """

    algorithm = "nonoverlapping"

    def sweep(self, ctx: DPContext, budget: int):
        """Memoized bottom-up sweep of the whole hierarchy; tables and
        splits bit-identical to
        :func:`~repro.algorithms.nonoverlapping._sweep`."""
        ar = self._arrays
        old = self._old
        root = ar.node.size - 1
        if old is None:
            off = _layout(ar, budget, 0, root)
            values = np.empty(off[-1])
            splits = np.empty(off[-1], dtype=np.int32)
            nodes = ar.order
        else:
            dirty = _dirty_vector(ar, old.counts, self._counts)
            ctx.splice_own_errors(old.own, np.nonzero(dirty)[0])
            off = old.offsets
            values, splits = old.values.copy(), old.splits.copy()
            nodes = ar.order[dirty[ar.order]]
        _merge_internal(ctx, budget, nodes, off, values, splits)
        self.solved = int(nodes.size)
        self.reused = int(ar.order.size) - self.solved
        self._memo = NonoverlappingMemo(
            config=self._config,
            counts=self._counts.copy(),
            structure_sig=self._sig,
            values=values,
            splits=splits,
            offsets=off,
            own=ctx.own_errors(),
        )
        return _table(ctx, root, off, values), off, splits

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
            _dirty_vector(self._arrays, old.counts, self._counts)
            if old is not None
            else np.ones(len(hierarchy), dtype=bool)
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
