"""Compiled fast paths for the per-window serving pipeline.

The steady-state loop the paper actually runs — Monitor-side window
partitioning (Section 2.1) and Control-Center uniform-spread estimation
(Section 2.2.2) — is executed once per window for the lifetime of an
installed partitioning function, so it pays to compile the function
into flat arrays *once per install* and reduce per-tuple work to index
arithmetic.  An adaptive system installs inside its rebuild window, so
the compile itself runs in array passes too: no per-identifier search,
and no per-slot ancestor walk or dict probe:

:class:`CompiledPartitioner`
    Every bucket of every semantics class is a UID interval (a subtree
    of the hierarchy covers a contiguous identifier range), so matching
    compiles to interval tables:

    * **closest-ancestor semantics** (nonoverlapping cuts and
      longest-prefix-match): the match intervals nest, so the UID axis
      decomposes into *elementary segments* — between two consecutive
      interval boundaries the deepest covering bucket never changes.
      The compiler precomputes the sorted boundary array and a parallel
      segment-owner table (the LPM nesting-resolution table: nested
      buckets "punch holes" in their parents by overwriting the
      segments they cover), and composes the two into one uid -> slot
      lookup.  Per window, matching is then one lookup per tuple (a
      dense-table gather for small domains, else one
      ``np.searchsorted`` into the owner table) plus one
      ``np.bincount`` — replacing the per-depth ancestor-mask loop of
      :meth:`~.partition.PartitioningFunction._matches_by_depth`.
    * **overlapping semantics**: an identifier maps to *all* matching
      ancestors (Section 3.2.3), so a count(*) bucket is a range count
      over the elementary segments its interval covers.  Per window
      that is the same lookup, stopping at the segment index, then one
      shifted integer ``bincount`` over the segment indices and one
      ``cumsum``: each bucket is a difference of two prefix sums, and
      the unmatched tuples are the window total minus the top-level
      buckets (which are disjoint and contain every deeper one).  A
      ``sum(value)`` window keeps per-level accumulation, because
      float sums must add in tuple order: buckets are grouped by
      *nesting level* (number of enclosing buckets), within a level
      intervals are disjoint, and after the shared segment lookup
      each level is a gather plus a bincount.

    A count(*) window (no ``values``) needs no weights at all: its
    buckets and its unmatched tuples come out of unweighted integer
    ``bincount`` arithmetic, which is exact.  Every output is built by
    the trusted :meth:`~.partition.Histogram.from_slots` constructor,
    since the slot layout is already sorted and distinct.

:class:`CompiledEstimator`
    The Control Center's uniform-spread reconstruction compiles to a
    sparse gather: per group its assigned bucket slot, per slot the
    (net) group population.  The group-to-slot map is exactly the CSR
    form of the bucket→group spread matrix with one nonzero per row
    (``indices = group_slot``, ``data = 1 / population``); the decode
    is then one vectorized divide + gather instead of a per-node Python
    loop over ``groups_below`` dict rebuilds.  Division is performed at
    estimate time (``counts / populations``) rather than multiplying by
    precomputed reciprocals so the floats are bit-identical to the
    reference path's ``count / max(1, pop)``.  The Control Center also
    merges a window here, in slot space: when every node of the
    window's payloads is a slot of the current function,
    :meth:`~CompiledEstimator.slot_sums` adds them into the dense slot
    array with one ``bincount`` and the estimate reads it directly.

:class:`CompiledGroupJoin`
    The ground-truth join of Section 2.2.2 (each identifier joined with
    ``GroupTable``, then grouped by node) compiled the same way: the
    disjoint group ranges cut the UID axis into elementary segments,
    each owned by one group or by none, and the same lookup maps a uid
    to its segment's group index.  The join is one lookup per tuple
    plus one shifted ``np.bincount``.

:func:`evaluate_closest`
    The construction heuristics' measured error curve
    (:func:`~.estimate.evaluate_function` at every budget) compiled for
    closest-ancestor functions: :func:`closest_enclosing` assigns every
    group its closest enclosing bucket from two vectorized
    ``searchsorted`` calls, one stable ``argsort`` makes each bucket's
    groups a contiguous run of one gather, and each run is summed by
    its own ``.sum()`` — the same array in the same order as the
    reference's boolean-mask gather, so the same pairwise summation.
    (``np.add.reduceat`` or a weighted ``bincount`` would sum in a
    different order and drift by ulps; the running minimum over the
    curve picks the installed function, so an ulp can change it.)

Identifiers outside the domain (negative, or ``>= 2**height``) match
nothing on every compiled path, exactly as on the reference paths:
they count as ``unmatched`` in histograms and are dropped by the join.

**Bit-exactness contract** (the same one ``algorithms.kernels``
established for construction): every compiled path performs the
*same* floating-point accumulations in the *same order* as the naive
reference, so histograms, estimates and join results are bit-for-bit
identical — ``np.bincount`` adds weights in input order, and every
window is processed in its original tuple order.
``tests/test_stream_kernels.py`` property-tests this across all three
semantics classes, sparse buckets included; ``tests/test_compiled_join.py``
covers the join and ``tests/test_curve_eval.py`` the curve evaluator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DistributiveErrorMetric
from .groups import GroupTable
from .partition import (
    Histogram,
    LongestPrefixMatchPartitioning,
    OverlappingPartitioning,
    PartitioningFunction,
)

__all__ = [
    "CompiledPartitioner",
    "CompiledEstimator",
    "CompiledGroupJoin",
    "closest_enclosing",
    "closest_estimates",
    "evaluate_closest",
]

#: Largest domain (in identifiers) for which the compiler builds a
#: dense uid -> owner lookup table; larger ones binary-search.
_DENSE_SEGMENT_CAP = 1 << 20


def _gather_in_domain(table: np.ndarray, uids: np.ndarray) -> np.ndarray:
    """``table[uids]`` for a dense per-uid ``table``, with identifiers
    outside ``[0, table.size)`` mapped to ``-1``.

    Viewed as unsigned, negative identifiers are huge, so one ``max``
    proves the whole window in range; only a window that fails it pays
    for the masked gather."""
    as_unsigned = uids.view(np.uint64)
    if not uids.size or as_unsigned.max() < table.size:
        return table[uids]
    out = np.full(uids.shape, -1, dtype=table.dtype)
    ok = as_unsigned < table.size
    out[ok] = table[uids[ok]]
    return out


#: ``_POW2[k] == 2**k``, for vectorized node depths.
_POW2 = np.left_shift(1, np.arange(63, dtype=np.int64))


def _node_ranges(
    nodes: Sequence[int], height: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(depths, los, his)`` of hierarchy ``nodes`` in a height-``height``
    domain: :meth:`~.domain.UIDDomain.uid_range` by node arithmetic, in
    one pass over the array.  A node's depth is its ``bit_length() - 1``
    (the number of powers of two at most the node, less one), and node
    ``2**d + p`` covers ``[p << s, (p + 1) << s)`` with ``s = height -
    d``, so ``lo = (node << s) - 2**height``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    depths = np.searchsorted(_POW2, nodes, side="right") - 1
    shifts = height - depths
    los = (nodes << shifts) - (1 << height)
    return depths, los, los + (1 << shifts)


def _paint(
    lo: np.ndarray,
    hi: np.ndarray,
    row: np.ndarray,
    ids: np.ndarray,
    rows: int,
    width: int,
) -> np.ndarray:
    """Interval ``k`` = ``[lo[k], hi[k])`` of row ``row[k]`` painted
    with ``ids[k]``: a ``(rows, width + 1)`` int64 array, ``0`` where no
    interval of the row covers the column (always in column ``width``).

    The intervals of one row must be nonempty and disjoint: each puts
    its id at its start and takes it off at its end, and one ``cumsum``
    along each row paints them all."""
    marks = np.zeros((rows, width + 1), dtype=np.int64)
    marks[row, lo] = ids
    marks[row, hi] -= ids
    return marks.cumsum(axis=1)


class _SegmentLookup:
    """uid -> owner of its elementary segment, the one identifier
    lookup of every compiled path.

    ``bounds`` is strictly increasing, starts at 0 and ends at the
    domain size: segment ``k`` is ``[bounds[k], bounds[k + 1])``.
    ``owner`` holds one int64 entry per segment plus a trailing ``-1``
    sentinel, and a uid's answer is
    ``owner[searchsorted(bounds, uid, side="right") - 1]``.  Every
    identifier outside the domain gets ``-1``: the binary search sends
    negative ids to index ``-1`` and ids ``>=`` the domain size to
    index ``bounds.size - 1``, and both are the sentinel.
    """

    def __init__(
        self, bounds: np.ndarray, owner: np.ndarray, num_uids: int
    ) -> None:
        self.bounds = bounds
        self.owner = owner
        #: Dense uid -> owner table for small domains: one gather per
        #: window instead of a searchsorted.  8 MiB at the 2^20 cap;
        #: larger domains fall back to binary search.  Owner ``k``
        #: repeated over its ``bounds[k + 1] - bounds[k]`` identifiers
        #: is the binary search's answer for every in-domain uid, built
        #: in one pass instead of ``num_uids`` searches.
        self.dense: Optional[np.ndarray] = None
        if num_uids <= _DENSE_SEGMENT_CAP:
            self.dense = np.repeat(owner[:-1], np.diff(bounds))

    def __call__(self, uids: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return _gather_in_domain(self.dense, uids)
        seg = np.searchsorted(self.bounds, uids, side="right") - 1
        return self.owner[seg]


class CompiledPartitioner:
    """A partitioning function compiled to flat interval tables.

    Compile once per install with :meth:`for_function` (cached on the
    function object); then :meth:`build_histogram` /
    :meth:`build_histograms` produce histograms bit-identical to
    :meth:`~.partition.PartitioningFunction.build_histogram`.
    """

    def __init__(self, function: PartitioningFunction) -> None:
        self.function = function
        domain = function.domain
        #: Match nodes in ascending node-id order; the *slot* index used
        #: by every compiled table below is the position in this array.
        self.slot_nodes = np.asarray(function.match_nodes, dtype=np.int64)
        n = int(self.slot_nodes.size)
        depths, los, his = _node_ranges(self.slot_nodes, domain.height)
        self.overlapping = isinstance(function, OverlappingPartitioning)

        # Elementary segments: boundaries cover the whole UID axis, and
        # slot ``s`` covers the segments ``[seg_lo, seg_hi)``.
        bounds, at = np.unique(
            np.concatenate(
                [np.asarray([0, domain.num_uids], dtype=np.int64), los, his]
            ),
            return_inverse=True,
        )
        seg_lo, seg_hi = at[2:].reshape(2, n)

        # One painted row per depth (slots of one depth are disjoint),
        # slot ``s`` painted with ``s + 1``.  The slots covering a
        # segment are a chain of nested buckets, and a node's id exceeds
        # its ancestors', so the largest is the deepest covering bucket:
        # the segment-owner table (the LPM nesting-resolution table:
        # nested buckets "punch holes" in their parents).  At a slot's
        # first segment, the smaller ones are exactly its enclosing
        # slots: the largest is its nesting parent (-1 for top level),
        # their number its nesting level.
        ids = np.arange(1, n + 1)
        by_depth = _paint(
            seg_lo, seg_hi, depths, ids, domain.height + 1, bounds.size - 1
        )
        above = by_depth[:, seg_lo]
        above[above >= ids] = 0
        parent = above.max(axis=0) - 1
        #: Per-slot nesting parent (the LPM "holes" structure, Fig. 7).
        self.nesting_parent_slot = parent

        # Overlapping count(*) is a range count per slot: over the
        # window's shifted segment bincount (column ``1 + seg``) its
        # inclusive prefix sum ``C`` gives slot ``s`` the count
        # ``C[seg_hi] - C[seg_lo]``.  Top-level slots are disjoint and
        # contain every deeper one, so the tuples they leave out are
        # exactly the unmatched ones.
        self._seg_lo = seg_lo
        self._seg_hi = seg_hi
        #: Bin columns (``1 + slot``) of the top-level slots.
        self._top_bins = np.flatnonzero(parent < 0) + 1

        # The uid lookup.  A closest-ancestor tuple matches its
        # segment's owner slot (the painted column past the last
        # segment is the ``-1`` sentinel); an overlapping tuple counts
        # in every bucket covering its segment, so its lookup stops at
        # the segment index.
        if self.overlapping:
            owner = np.arange(bounds.size, dtype=np.int64)
            owner[-1] = -1
        else:
            owner = by_depth.max(axis=0) - 1
        self._lookup = _SegmentLookup(bounds, owner, domain.num_uids)

        # Per-nesting-level disjoint interval tables (overlapping
        # ``sum(value)``): level k holds (interval count, slot ids in
        # uid order, and a segment -> interval-position table, one
        # painted row per level).  A window then needs one segment
        # lookup total; each level is a gather + float bincount over
        # the shared segment indices, which keeps every bucket's
        # accumulation in tuple order.
        self._levels = []
        if self.overlapping:
            level = np.count_nonzero(above, axis=0)
            order = np.lexsort((los, level))
            sizes = np.bincount(level)
            starts = np.cumsum(sizes) - sizes
            pos = np.empty(n, dtype=np.int64)
            pos[order] = np.arange(n) - np.repeat(starts, sizes)
            seg_pos = _paint(
                seg_lo, seg_hi, level, pos + 1, sizes.size, bounds.size - 1
            ) - 1
            self._levels = [
                (size, order[start:start + size], seg_pos[lv])
                for lv, (start, size) in enumerate(
                    zip(starts.tolist(), sizes.tolist())
                )
            ]

    # -- compile cache -----------------------------------------------------
    @classmethod
    def for_function(
        cls, function: PartitioningFunction
    ) -> "CompiledPartitioner":
        """The compiled form of ``function``, compiling at most once
        (the result is cached on the function object)."""
        cached = getattr(function, "_compiled_partitioner", None)
        if cached is None:
            cached = cls(function)
            function._compiled_partitioner = cached
        return cached

    # -- matching ----------------------------------------------------------
    def _bins(
        self,
        uids: np.ndarray,
        weights: Optional[np.ndarray],
        win: Optional[np.ndarray] = None,
        n_win: int = 1,
    ) -> "tuple[np.ndarray, Optional[np.ndarray]]":
        """Per-window slot aggregates behind a leading unmatched bin.

        Returns an ``(n_win, slots + 1)`` array — column 0 holds the
        tuples no bucket matched, column ``1 + s`` slot ``s`` — plus the
        per-tuple matched mask (``None`` for count(*), which needs
        none).  ``win`` gives each tuple's window (``None``: one
        window).  ``weights=None`` is count(*): unweighted integer
        ``bincount`` arithmetic, exact.  Otherwise the sums are float
        ``bincount`` accumulations in tuple order, bit-identical to the
        naive path.
        """
        if not self.overlapping:
            slot = self._lookup(uids)
            bins = _shifted_bincount(
                slot, weights, win, n_win, int(self.slot_nodes.size)
            )
            return bins, (slot >= 0 if weights is not None else None)
        seg = self._lookup(uids)
        if weights is None:
            # One segment bincount, then range counts from its prefix
            # sums; the last prefix column is the window's tuple count.
            # Out-of-domain tuples (segment -1) land in column 0, which
            # every prefix sum includes: the range counts cancel them
            # and the window total keeps them.
            cum = _shifted_bincount(
                seg, None, win, n_win, self._lookup.bounds.size - 1
            ).cumsum(axis=1)
            bins = np.empty((n_win, self.slot_nodes.size + 1), np.int64)
            bins[:, 1:] = cum[:, self._seg_hi] - cum[:, self._seg_lo]
            bins[:, 0] = cum[:, -1] - bins[:, self._top_bins].sum(axis=1)
            return bins, None
        for k, (width, slots, seg_pos) in enumerate(self._levels):
            pos = seg_pos[seg]
            local = _shifted_bincount(pos, weights, win, n_win, width)
            if k == 0:
                # Top-level intervals contain every deeper one, so a
                # tuple unmatched at level 0 matches nothing at all.
                matched = pos >= 0
                bins = np.zeros(
                    (n_win, self.slot_nodes.size + 1), dtype=local.dtype
                )
                bins[:, 0] = local[:, 0]
            bins[:, slots + 1] = local[:, 1:]
        return bins, matched

    # -- histogram construction --------------------------------------------
    def build_histogram(
        self,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Bit-identical fast form of
        :meth:`~.partition.PartitioningFunction.build_histogram`."""
        uids = np.asarray(uids, dtype=np.int64)
        if values is None:
            bins, _ = self._bins(uids, None)
            return Histogram.from_slots(
                self.slot_nodes, bins[0, 1:], bins[0, 0], uids.size
            )
        weights = PartitioningFunction._weights(uids, values)
        bins, matched = self._bins(uids, weights)
        return Histogram.from_slots(
            self.slot_nodes,
            bins[0, 1:],
            unmatched=float(weights[~matched].sum()),
            total=float(weights.sum()),
        )

    def build_histograms(
        self,
        uid_windows: Sequence[Sequence[int]],
        values: Optional[Sequence[Optional[Sequence[float]]]] = None,
    ) -> List[Histogram]:
        """Batched multi-window partitioning.

        All windows are matched in one concatenated pass; per-window
        bucket sums come from a flattened 2-D ``(window, slot)``
        bincount.  The concatenation is window-major — already
        lexsorted by (window, arrival) — so per-bucket accumulation
        order inside each window equals the single-window path and the
        histograms are bit-identical to ``W`` separate
        :meth:`build_histogram` calls.
        """
        arrays = [np.asarray(w, dtype=np.int64) for w in uid_windows]
        if values is not None and len(values) != len(arrays):
            raise ValueError(
                f"{len(values)} value vectors for {len(arrays)} windows"
            )
        n_win = len(arrays)
        if n_win == 0:
            return []
        uids = np.concatenate(arrays) if n_win > 1 else arrays[0]
        lengths = [a.size for a in arrays]
        win = np.repeat(np.arange(n_win, dtype=np.int64), lengths)
        if values is None:
            bins, _ = self._bins(uids, None, win, n_win)
            return [
                Histogram.from_slots(
                    self.slot_nodes, bins[w, 1:], bins[w, 0], lengths[w]
                )
                for w in range(n_win)
            ]
        weight_arrays = [
            PartitioningFunction._weights(u, v)
            for u, v in zip(arrays, values)
        ]
        weights = (
            np.concatenate(weight_arrays) if n_win > 1 else weight_arrays[0]
        )
        bins, matched = self._bins(uids, weights, win, n_win)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        out = []
        for w in range(n_win):
            lo, hi = int(offsets[w]), int(offsets[w + 1])
            w_weights = weights[lo:hi]
            out.append(
                Histogram.from_slots(
                    self.slot_nodes,
                    bins[w, 1:],
                    unmatched=float(w_weights[~matched[lo:hi]].sum()),
                    total=float(w_weights.sum()),
                )
            )
        return out


def _shifted_bincount(
    idx: np.ndarray,
    weights: Optional[np.ndarray],
    win: Optional[np.ndarray],
    n_win: int,
    width: int,
) -> np.ndarray:
    """``(n_win, width + 1)`` per-window bincount of ``idx + 1``: index
    ``-1`` (unmatched) lands in column 0 instead of being compressed
    out, which leaves every bucket's accumulation order untouched."""
    flat = idx + 1 if win is None else win * (width + 1) + (idx + 1)
    return np.bincount(
        flat, weights=weights, minlength=n_win * (width + 1)
    ).reshape(n_win, width + 1)


#: Compiled estimators keyed by function (weakly) -> (table, estimator).
_ESTIMATOR_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


class CompiledEstimator:
    """Uniform-spread reconstruction compiled to CSR-style arrays.

    Precomputes, per ``(table, function)`` pair: the group→slot
    assignment (``indices`` of the one-nonzero-per-row spread matrix),
    per-slot populations (clamped denominators), and the sparse-bucket
    special cases.  :meth:`estimate` is then a vectorized divide +
    gather, bit-identical to
    :func:`~.estimate.reconstruct_estimates`.

    The compile is a fixed number of array passes, independent of the
    reference's per-node spread metadata
    (:func:`~.estimate.reconstruct_estimates` keeps that): the
    assignment is :func:`closest_enclosing` of the match nodes, a slot's
    gross population (the key density table) is the length of its
    enclosed group run, and a longest-prefix-match slot's hole-netted
    population is the number of groups assigned to it.
    """

    def __init__(
        self, table: GroupTable, function: PartitioningFunction
    ) -> None:
        # No reference to ``function``: the estimator is the value of a
        # cache keyed weakly by it, and a value that pins its key is
        # never dropped.
        nodes = function.match_nodes
        self.slot_nodes = np.asarray(nodes, dtype=np.int64)
        first, last, slot = closest_enclosing(table, nodes)
        empty = np.flatnonzero(first == last)
        if empty.size:
            _check_not_below_groups(table, nodes, empty)
        self.group_slot = slot
        self._gather = np.maximum(slot, 0)
        self._covered = slot >= 0
        self.overlapping = isinstance(function, OverlappingPartitioning)
        if isinstance(function, LongestPrefixMatchPartitioning):
            # Nested buckets are holes: a slot spreads only over the
            # groups no deeper bucket takes.
            pops = np.bincount(slot[self._covered], minlength=len(nodes))
        else:
            pops = last - first
        pops = pops.astype(np.float64)
        #: Clamped uniform-spread denominators (``max(1, pop)``).
        self.populations = np.maximum(1.0, pops)
        # Sparse buckets (Section 4.3): the inner sub-bucket reports its
        # group exactly; the outer spreads the residual over the
        # "empty" groups.  Only the overlapping reference path treats
        # them specially — for nested (LPM) semantics the net
        # populations already make them fall out naturally.
        sparse = [
            (b.node, b.sparse_group_node)
            for b in (function.buckets if self.overlapping else ())
            if b.is_sparse
        ]
        pairs = np.asarray(sparse, dtype=np.int64).reshape(-1, 2).T
        self._outer_slots, self._inner_slots = np.searchsorted(
            self.slot_nodes, np.ascontiguousarray(pairs)
        )
        self._outer_empties = np.maximum(1.0, pops[self._outer_slots] - 1.0)

    @classmethod
    def for_pair(
        cls, table: GroupTable, function: PartitioningFunction
    ) -> "CompiledEstimator":
        """The compiled estimator for ``(table, function)``, reusing a
        cached instance across windows of the same install."""
        entry = _ESTIMATOR_CACHE.get(function)
        if entry is not None and entry[0] is table:
            return entry[1]
        estimator = cls(table, function)
        _ESTIMATOR_CACHE[function] = (table, estimator)
        return estimator

    def slot_counts(self, histogram: Histogram) -> np.ndarray:
        """Per-slot bucket counts of a histogram (zeros for absent
        buckets; unknown nodes are ignored, as the reference path's
        per-node ``histogram.get`` would)."""
        counts = np.zeros(self.slot_nodes.size, dtype=np.float64)
        if len(histogram):
            idx = np.searchsorted(self.slot_nodes, histogram.nodes)
            idx = np.minimum(idx, self.slot_nodes.size - 1)
            ok = self.slot_nodes[idx] == histogram.nodes
            counts[idx[ok]] = histogram.values[ok]
        return counts

    def slot_sums(self, views: Sequence) -> Optional[np.ndarray]:
        """The slot-space merge: dense per-slot sums of several bucket
        views' counters (:class:`~.wire.WireHistogram` views or
        anything with sorted ``nodes`` and parallel ``values``), or
        ``None`` when some node is not a slot of this function.

        The nodes are concatenated and binary-searched into
        :attr:`slot_nodes`; one ``bincount`` then adds each slot's
        counters in view order into a zero bin — the accumulation
        :func:`~.partition.merge_views` performs per node, so the sums are
        bit-identical to it (and exact-zero where no view has the
        slot)."""
        nodes = np.concatenate([v.nodes for v in views])
        last = self.slot_nodes.size - 1
        idx = np.minimum(np.searchsorted(self.slot_nodes, nodes), last)
        if not (self.slot_nodes[idx] == nodes).all():
            return None
        # ``bincount`` casts the (possibly narrow unsigned) counters to
        # float64 exactly as a per-view cast would.
        values = np.concatenate([v.values for v in views])
        return np.bincount(idx, weights=values, minlength=last + 1)

    def estimate(self, histogram: Histogram) -> np.ndarray:
        """Per-group estimates — the sparse matvec form of
        :func:`~.estimate.reconstruct_estimates`."""
        return self.estimate_slots(self.slot_counts(histogram))

    def estimate_slots(self, counts: np.ndarray) -> np.ndarray:
        """Per-group estimates from dense per-slot bucket counts (the
        form :meth:`slot_counts` and :meth:`slot_sums` produce)."""
        slot_est = counts / self.populations
        if self._inner_slots.size:
            # Sparse inner sub-buckets report their single group
            # exactly; outers spread the residual over the empties.
            slot_est[self._inner_slots] = counts[self._inner_slots]
            residual = np.maximum(
                0.0,
                counts[self._outer_slots] - counts[self._inner_slots],
            )
            slot_est[self._outer_slots] = residual / self._outer_empties
        return np.where(self._covered, slot_est[self._gather], 0.0)


#: Compiled group joins keyed by table (weakly).
_JOIN_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


class CompiledGroupJoin:
    """The exact identifier -> group join compiled to a segment lookup.

    The disjoint group ranges cut the UID axis into elementary
    segments, each owned by one group or by none, and the join's
    :class:`_SegmentLookup` maps a uid straight to its segment's group
    index (one gather per tuple up to the dense cap, one binary search
    above it).  :meth:`counts` is bit-identical to
    :meth:`~.groups.GroupTable.counts_from_uids`: a shifted
    ``np.bincount`` drops uncovered tuples in bin 0 instead of
    compressing them out, which leaves every group's accumulation order
    unchanged.
    """

    def __init__(self, table: GroupTable) -> None:
        # The table itself is not kept, so the weakly keyed cache entry
        # dies with it.
        self.num_groups = len(table)
        num_uids = table.domain.num_uids
        bounds = np.unique(
            np.concatenate(
                [
                    np.asarray([0, num_uids], dtype=np.int64),
                    table.starts,
                    table.ends,
                ]
            )
        )
        # Groups are disjoint, so each is exactly one segment.
        owner = np.full(bounds.size, -1, dtype=np.int64)
        owner[np.searchsorted(bounds, table.starts)] = np.arange(
            self.num_groups, dtype=np.int64
        )
        self._lookup = _SegmentLookup(bounds, owner, num_uids)

    @classmethod
    def for_table(cls, table: GroupTable) -> "CompiledGroupJoin":
        """The compiled join for ``table``, compiling at most once per
        table."""
        join = _JOIN_CACHE.get(table)
        if join is None:
            join = cls(table)
            _JOIN_CACHE[table] = join
        return join

    def group_indices(self, uids: np.ndarray) -> np.ndarray:
        """Group index per uid, ``-1`` where no group covers it (or it
        lies outside the domain) — the values of
        :meth:`~.groups.GroupTable.lookup_many`."""
        return self._lookup(np.asarray(uids, dtype=np.int64))

    def counts(
        self,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Per-group ``count(*)``, or ``sum(value)`` with a parallel
        ``values`` vector: bit-identical to
        :meth:`~.groups.GroupTable.counts_from_uids`."""
        idx = self.group_indices(uids)
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != idx.shape:
                raise ValueError(
                    f"{values.shape[0] if values.ndim else 0} values for "
                    f"{idx.shape[0]} identifiers"
                )
        sums = np.bincount(
            idx + 1, weights=values, minlength=self.num_groups + 1
        )
        return sums[1:].astype(np.float64)


_add_reduce = np.add.reduce


def closest_enclosing(
    table: GroupTable, nodes: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest-ancestor assignment of ``table``'s groups to ``nodes``.

    Returns ``(first, last, slot)``: node ``k`` encloses the groups
    ``first[k]:last[k]`` (two vectorized ``searchsorted`` calls, the
    bounds of :meth:`~.groups.GroupTable.group_indices_below`), and
    ``slot[g]`` is the position in ``nodes`` of group ``g``'s closest
    enclosing node, ``-1`` where none encloses it.  Nodes paint their
    ranges shallow to deep, deeper ranges overwrite — the assignment
    of :func:`~.estimate.assign_groups_to_buckets`.
    """
    depths, los, his = _node_ranges(nodes, table.domain.height)
    first = np.searchsorted(table.starts, los, side="left")
    last = np.maximum(first, np.searchsorted(table.ends, his, side="right"))
    slot = np.full(len(table), -1, dtype=np.int64)
    lo_list, hi_list = first.tolist(), last.tolist()
    for k in np.argsort(depths, kind="stable").tolist():
        slot[lo_list[k]:hi_list[k]] = k
    return first, last, slot


def _check_not_below_groups(
    table: GroupTable, nodes: Sequence[int], empty: np.ndarray
) -> None:
    """Raise :class:`ValueError`, as the reference assignment does, if
    a node enclosing no group (``empty`` holds their positions in
    ``nodes``, ascending) lies strictly below a group node.  Like the
    reference, which visits nodes shallow to deep, the error names the
    shallowest such node (the first in ``nodes`` among equals)."""
    below = np.asarray(nodes, dtype=np.int64)[empty]
    depths, los, his = _node_ranges(below, table.domain.height)
    g = np.searchsorted(table.starts, los, side="right") - 1
    starts = table.starts[np.maximum(g, 0)]
    ends = table.ends[np.maximum(g, 0)]
    inside = (g >= 0) & (his <= ends) & (his - los < ends - starts)
    if inside.any():
        hits = np.flatnonzero(inside)
        k = int(hits[np.argmin(depths[hits])])
        raise ValueError(
            f"bucket node {int(below[k])} lies strictly below group node "
            f"{int(table.nodes[g[k]])}; group-level estimation is undefined"
        )


def closest_estimates(
    table: GroupTable,
    counts: Sequence[float],
    function: PartitioningFunction,
) -> np.ndarray:
    """Per-group estimates of a window with exact group ``counts``
    under a closest-ancestor (nonoverlapping or longest-prefix-match)
    function: bit-identical to :func:`~.estimate.reconstruct_estimates`
    of :func:`~.estimate.histogram_from_group_counts`.

    Each bucket's groups are one contiguous run of the stable-sorted
    count gather; the run's sum is the histogram count, its length the
    (hole-netted) key density, and one gather of
    ``sum / max(1, population)`` gives every group's estimate.
    """
    if isinstance(function, OverlappingPartitioning):
        raise TypeError("closest_estimates needs closest-ancestor semantics")
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (len(table),):
        raise ValueError(
            f"expected {len(table)} group counts, got shape {counts.shape}"
        )
    nodes = function.match_nodes
    first, last, slot = closest_enclosing(table, nodes)
    empty = np.flatnonzero(first == last)
    if empty.size:
        _check_not_below_groups(table, nodes, empty)
    order = np.argsort(slot, kind="stable")
    gathered = counts[order]
    edges = np.searchsorted(slot[order], np.arange(len(nodes) + 1))
    populations = np.diff(edges)
    # A one-group run's sum is its count; longer runs take the same
    # ``add.reduce`` (``ndarray.sum``) the reference applies to its
    # masked gather.
    sums = np.zeros(len(nodes), dtype=np.float64)
    single = populations == 1
    sums[single] = gathered[edges[:-1][single]]
    bounds = edges.tolist()
    for k in np.flatnonzero(populations > 1).tolist():
        sums[k] = _add_reduce(gathered[bounds[k]:bounds[k + 1]])
    slot_est = sums / np.maximum(1, populations)
    return np.where(slot >= 0, slot_est[slot], 0.0)


def evaluate_closest(
    table: GroupTable,
    counts: Sequence[float],
    function: PartitioningFunction,
    metric: DistributiveErrorMetric,
) -> float:
    """:func:`~.estimate.evaluate_function` of a closest-ancestor
    function, bit for bit: ``metric`` over :func:`closest_estimates`."""
    counts = np.asarray(counts, dtype=np.float64)
    return metric.evaluate(counts, closest_estimates(table, counts, function))
