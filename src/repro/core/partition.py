"""Histogram partitioning functions (paper Section 2.1).

A partitioning function is a set of *bucket nodes* drawn from the UID
hierarchy, plus an interpretation:

``nonoverlapping``
    The bucket nodes form a cut of the hierarchy; every identifier maps
    to the bucket of its unique ancestor in the cut (Figure 3).
``overlapping``
    An identifier maps to the buckets of *all* its ancestors that are
    bucket nodes (Figure 4); estimation later uses only the closest.
``longest-prefix-match``
    An identifier maps only to its *closest* ancestor bucket node
    (Figures 5-6); buckets nest strictly, nested buckets punch "holes"
    in their parents.

This module also implements the *sparse buckets* of Section 4.3
(Figure 14): a bucket whose subtree is known (from history) to be empty
except for a single group.  A sparse bucket carries an inner
single-group sub-bucket; it represents the group's count exactly and
the surrounding emptiness explicitly, at a representation cost of only
``O(log log |U|)`` extra bits.

Monitors use :meth:`PartitioningFunction.build_histogram` to turn a
window of identifiers into a :class:`Histogram` — the compact message
actually shipped to the Control Center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .domain import UIDDomain

__all__ = [
    "Bucket",
    "Histogram",
    "PartitioningFunction",
    "NonoverlappingPartitioning",
    "OverlappingPartitioning",
    "LongestPrefixMatchPartitioning",
]


@dataclass(frozen=True)
class Bucket:
    """One bucket of a partitioning function.

    ``sparse_group_node`` marks a sparse bucket: the subtree of ``node``
    is empty except for the group anchored at ``sparse_group_node``
    (which must be a descendant of ``node``).  The group gets its own
    inner counter; the rest of the subtree is explicitly empty.
    """

    node: int
    sparse_group_node: Optional[int] = None

    @property
    def is_sparse(self) -> bool:
        return self.sparse_group_node is not None

    def match_nodes(self) -> Tuple[int, ...]:
        """Hierarchy nodes at which this bucket maintains counters."""
        if self.sparse_group_node is not None:
            return (self.node, self.sparse_group_node)
        return (self.node,)


class Histogram:
    """Per-bucket aggregates for one window — the Monitor's message.

    Internally array-backed: parallel sorted ``nodes``/``values`` arrays
    hold the nonzero buckets, so merging, sizing and the Control
    Center's compiled decode are vectorized.  ``counts`` — the mapping
    from *match nodes* (bucket anchor nodes, including sparse inner
    nodes) to counts that the rest of the system historically consumed
    — is preserved as a lazily materialized read-only view.  Zero-count
    buckets are omitted, since the Control Center infers them
    (Section 4.3).  ``unmatched`` counts identifiers no bucket covered
    (possible under longest-prefix-match functions whose root does not
    span live traffic).
    """

    __slots__ = ("nodes", "values", "unmatched", "total", "_dict")

    def __init__(
        self,
        counts: Dict[int, float],
        unmatched: float = 0.0,
        total: float = 0.0,
    ) -> None:
        nodes = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        values = np.fromiter(
            counts.values(), dtype=np.float64, count=len(counts)
        )
        self._init_arrays(nodes, values, unmatched, total)

    def _init_arrays(
        self,
        nodes: np.ndarray,
        values: np.ndarray,
        unmatched: float,
        total: float,
    ) -> None:
        nonzero = values != 0
        if not nonzero.all():
            nodes, values = nodes[nonzero], values[nonzero]
        if nodes.size > 1 and np.any(nodes[1:] < nodes[:-1]):
            order = np.argsort(nodes, kind="stable")
            nodes, values = nodes[order], values[order]
        self.nodes = nodes
        self.values = values
        self.unmatched = float(unmatched)
        self.total = float(total)
        self._dict: Optional[Dict[int, float]] = None

    @classmethod
    def from_arrays(
        cls,
        nodes: np.ndarray,
        values: np.ndarray,
        unmatched: float = 0.0,
        total: float = 0.0,
    ) -> "Histogram":
        """Build directly from parallel node/value arrays (the compiled
        partitioning and merge paths), skipping the dict round-trip."""
        h = cls.__new__(cls)
        h._init_arrays(
            np.asarray(nodes, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            unmatched,
            total,
        )
        return h

    @classmethod
    def from_slots(
        cls,
        slot_nodes: np.ndarray,
        sums: np.ndarray,
        unmatched: float = 0.0,
        total: float = 0.0,
    ) -> "Histogram":
        """Build from dense per-slot sums over a compiled function's
        sorted, distinct ``slot_nodes`` (the compiled build and the
        slot-space merge).  The layout is trusted, so nothing is
        re-validated: zero slots are dropped and the rest kept in
        order."""
        # ``flatnonzero`` of the 1-D sums, without its Python wrapper.
        keep = sums.nonzero()[0]
        h = cls.__new__(cls)
        h.nodes = slot_nodes[keep]
        h.values = np.asarray(sums[keep], dtype=np.float64)
        h.unmatched = float(unmatched)
        h.total = float(total)
        h._dict = None
        return h

    @property
    def counts(self) -> Dict[int, float]:
        """Node-to-count mapping (nonzero buckets only).  Materialized
        on first access and cached; treat it as read-only."""
        if self._dict is None:
            self._dict = dict(
                zip(self.nodes.tolist(), self.values.tolist())
            )
        return self._dict

    def __len__(self) -> int:
        return int(self.nodes.size)

    def get(self, node: int) -> float:
        k = int(np.searchsorted(self.nodes, node))
        if k < self.nodes.size and int(self.nodes[k]) == node:
            return float(self.values[k])
        return 0.0

    @classmethod
    def merge(cls, histograms: "Iterable[Histogram]") -> "Histogram":
        """Merge histograms of disjoint sub-streams (count aggregates
        are distributive: bucket-wise sums) with :func:`merge_views`.
        Used by pane-based sliding windows and as the Control Center's
        naive decode reference."""
        hs = list(histograms)
        nodes, sums, unmatched, total = merge_views(hs)
        if len(hs) == 1:
            nodes, sums = nodes.copy(), sums.copy()
        return cls.from_arrays(nodes, sums, unmatched, total)

    def size_bits(self, domain: UIDDomain, counter_bits: int = 32) -> int:
        """Transmitted size: one (identifier, counter) pair per nonzero
        bucket."""
        id_bits = _node_id_bits(domain)
        return len(self) * (id_bits + counter_bits)

    def size_bytes(self, domain: UIDDomain, counter_bits: int = 32) -> int:
        return (self.size_bits(domain, counter_bits) + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Histogram({len(self)} nonzero buckets, "
            f"total={self.total:g}, unmatched={self.unmatched:g})"
        )


def merge_views(
    views: Sequence,
) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """The k-way merge every merge path runs: combine bucket views into
    ``(nodes, sums, unmatched, total)``.

    ``views`` may be :class:`Histogram` objects,
    :class:`~.wire.WireHistogram` views, or anything else exposing
    sorted ``nodes``, parallel ``values``, ``unmatched`` and ``total``.
    One concatenation + ``np.unique`` + ``np.bincount`` over the union
    of the buckets: per node the counters accumulate into a zero bin in
    view order, and totals accumulate in view order, so any path that
    merges through here is bit-identical to any other.  No views give
    empty arrays.
    """
    unmatched = 0.0
    total = 0.0
    for v in views:
        unmatched += v.unmatched
        total += v.total
    if not views:
        return np.empty(0, dtype=np.int64), np.empty(0), unmatched, total
    if len(views) == 1:
        return (
            views[0].nodes,
            np.asarray(views[0].values, dtype=np.float64),
            unmatched,
            total,
        )
    all_nodes = np.concatenate([v.nodes for v in views])
    all_values = np.concatenate(
        [np.asarray(v.values, dtype=np.float64) for v in views]
    )
    nodes, inverse = np.unique(all_nodes, return_inverse=True)
    sums = np.bincount(inverse, weights=all_values, minlength=nodes.size)
    return nodes, sums, unmatched, total


class LazySlotHistogram(Histogram):
    """:meth:`Histogram.from_slots` deferred: the nonzero buckets are
    gathered on the first read of ``nodes`` or ``values`` (``sums``
    must stay unchanged until then)."""

    __slots__ = ("_slots",)

    def __init__(self, slot_nodes, sums, unmatched=0.0, total=0.0) -> None:
        self._slots = (slot_nodes, sums)
        self.unmatched = float(unmatched)
        self.total = float(total)
        self._dict = None

    def __getattr__(self, name: str):
        # Reached only for attributes not yet set.
        if name not in ("nodes", "values"):
            raise AttributeError(name)
        full = Histogram.from_slots(*self._slots)
        self.nodes, self.values = full.nodes, full.values
        return getattr(self, name)


def _node_id_bits(domain: UIDDomain) -> int:
    """Bits to encode one hierarchy node as (prefix, length)."""
    return domain.height + max(1, math.ceil(math.log2(domain.height + 1)))


def _sparse_offset_bits(domain: UIDDomain) -> int:
    """Extra bits for a sparse bucket: the inner sub-bucket is encoded
    as a distance up the tree, O(log log |U|) (Section 4.3)."""
    return max(1, math.ceil(math.log2(domain.height + 1)))


class PartitioningFunction:
    """Base class: a set of buckets over a domain, plus match machinery.

    Subclasses fix the interpretation (which ancestors an identifier
    maps to) by overriding :meth:`build_histogram` /
    :meth:`buckets_for_uid`.
    """

    semantics = "abstract"

    def __init__(self, domain: UIDDomain, buckets: Sequence[Bucket]) -> None:
        self.domain = domain
        self.buckets: List[Bucket] = list(buckets)
        if not self.buckets:
            raise ValueError("a partitioning function needs at least one bucket")
        seen: Dict[int, Bucket] = {}
        for b in self.buckets:
            if not domain.contains_node(b.node):
                raise ValueError(f"bucket node {b.node} invalid for {domain}")
            if b.node in seen:
                raise ValueError(f"duplicate bucket node {b.node}")
            seen[b.node] = b
            if b.sparse_group_node is not None and not UIDDomain.is_ancestor(
                b.node, b.sparse_group_node
            ):
                raise ValueError(
                    f"sparse sub-bucket {b.sparse_group_node} is not below "
                    f"its enclosing bucket {b.node}"
                )
        self._match_nodes = sorted(
            {n for b in self.buckets for n in b.match_nodes()}
        )
        if len(self._match_nodes) != sum(
            len(b.match_nodes()) for b in self.buckets
        ):
            raise ValueError("sparse sub-buckets collide with other buckets")
        # Per-depth sorted arrays for vectorized ancestor matching.
        by_depth: Dict[int, List[int]] = {}
        for n in self._match_nodes:
            by_depth.setdefault(UIDDomain.depth(n), []).append(n)
        self._depth_nodes = {
            d: np.asarray(sorted(ns), dtype=np.int64) for d, ns in by_depth.items()
        }
        self._validate()

    # -- hooks ----------------------------------------------------------
    def _validate(self) -> None:
        """Subclass structural checks (e.g. cut property)."""

    @property
    def num_buckets(self) -> int:
        """Bucket budget consumed (sparse buckets count once)."""
        return len(self.buckets)

    @property
    def match_nodes(self) -> List[int]:
        """All nodes carrying counters, sparse inner nodes included."""
        return list(self._match_nodes)

    def bucket_nodes(self) -> List[int]:
        return [b.node for b in self.buckets]

    def size_bits(self) -> int:
        """Representation size of the function itself: one identifier
        per bucket, plus the sparse-offset surcharge.  Computed once
        per function (functions are immutable once built): a rebuild
        charges it on every install and journals it."""
        bits = getattr(self, "_size_bits", None)
        if bits is None:
            id_bits = _node_id_bits(self.domain)
            off_bits = _sparse_offset_bits(self.domain)
            bits = self._size_bits = sum(
                id_bits + (off_bits if b.is_sparse else 0)
                for b in self.buckets
            )
        return bits

    # -- matching --------------------------------------------------------
    def _matches_by_depth(
        self, uids: np.ndarray
    ) -> Iterable[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(depth, mask, ancestor_nodes)`` for each populated
        depth: which uids have a match node as ancestor at that depth."""
        height = self.domain.height
        for d in sorted(self._depth_nodes):
            nodes = self._depth_nodes[d]
            anc = (uids >> (height - d)) + (1 << d)
            pos = np.searchsorted(nodes, anc)
            pos = np.minimum(pos, len(nodes) - 1)
            mask = nodes[pos] == anc
            yield d, mask, anc

    def matching_nodes_for_uid(self, uid: int) -> List[int]:
        """All match nodes that are ancestors of ``uid``, shallowest
        first."""
        if not self.domain.contains_uid(uid):
            raise ValueError(f"uid {uid} outside {self.domain}")
        leaf = self.domain.leaf(uid)
        out = []
        for d in sorted(self._depth_nodes):
            anc = UIDDomain.ancestor_at_depth(leaf, d)
            nodes = self._depth_nodes[d]
            k = int(np.searchsorted(nodes, anc))
            if k < len(nodes) and nodes[k] == anc:
                out.append(int(anc))
        return out

    def buckets_for_uid(self, uid: int) -> List[int]:
        """Match nodes ``uid`` maps to under this function's semantics."""
        raise NotImplementedError

    def build_histogram(
        self,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Partition a window of identifiers into per-bucket aggregates.

        Without ``values`` the buckets hold ``count(*)``; with a
        per-tuple value vector they hold ``sum(value)`` (any
        distributive SQL aggregate reduces to such weighted counters).
        """
        raise NotImplementedError

    @staticmethod
    def _weights(
        uids: np.ndarray, values: Optional[Sequence[float]]
    ) -> np.ndarray:
        if values is None:
            return np.ones(uids.shape, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != uids.shape:
            raise ValueError(
                f"value vector shape {values.shape} does not match "
                f"{uids.shape[0]} identifiers"
            )
        return values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.num_buckets} buckets, "
            f"{self.size_bits()} bits)"
        )


class _ClosestAncestorMixin:
    """Shared counting logic for semantics where each identifier maps to
    its single closest matching ancestor (nonoverlapping cuts satisfy
    this trivially — there is exactly one match)."""

    def buckets_for_uid(self, uid: int) -> List[int]:
        matches = self.matching_nodes_for_uid(uid)
        return [matches[-1]] if matches else []

    def build_histogram(
        self,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> Histogram:
        uids = np.asarray(uids, dtype=np.int64)
        weights = self._weights(uids, values)
        best = np.full(uids.shape, -1, dtype=np.int64)
        # Depths ascend, so later (deeper) matches overwrite earlier ones,
        # leaving the closest ancestor.
        for _d, mask, anc in self._matches_by_depth(uids):
            best[mask] = anc[mask]
        matched = best >= 0
        nodes, inverse = np.unique(best[matched], return_inverse=True)
        sums = np.bincount(
            inverse, weights=weights[matched], minlength=len(nodes)
        )
        return Histogram(
            dict(zip(nodes.tolist(), sums.tolist())),
            unmatched=float(weights[~matched].sum()),
            total=float(weights.sum()),
        )


class NonoverlappingPartitioning(_ClosestAncestorMixin, PartitioningFunction):
    """Bucket nodes form a cut of the hierarchy (Figure 3)."""

    semantics = "nonoverlapping"

    def __init__(self, domain: UIDDomain, buckets: Sequence[Bucket]) -> None:
        if any(
            b.is_sparse for b in (buckets if isinstance(buckets, list) else list(buckets))
        ):
            raise ValueError("sparse buckets only apply to nested semantics")
        super().__init__(domain, buckets)

    def _validate(self) -> None:
        # A cut = pairwise disjoint subtrees.  (Covering the whole
        # domain is not required: the lookup table may not either.)
        ranges = sorted(self.domain.uid_range(b.node) for b in self.buckets)
        for (alo, ahi), (blo, _bhi) in zip(ranges, ranges[1:]):
            if blo < ahi:
                raise ValueError(
                    "nonoverlapping buckets overlap: ranges "
                    f"[{alo}, {ahi}) and starting at {blo}"
                )

    def covers_domain(self) -> bool:
        ranges = sorted(self.domain.uid_range(b.node) for b in self.buckets)
        if ranges[0][0] != 0 or ranges[-1][1] != self.domain.num_uids:
            return False
        return all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


class OverlappingPartitioning(PartitioningFunction):
    """Identifiers map to every matching ancestor bucket (Figure 4)."""

    semantics = "overlapping"

    def buckets_for_uid(self, uid: int) -> List[int]:
        return self.matching_nodes_for_uid(uid)

    def build_histogram(
        self,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> Histogram:
        uids = np.asarray(uids, dtype=np.int64)
        weights = self._weights(uids, values)
        counts: Dict[int, float] = {}
        any_match = np.zeros(uids.shape, dtype=bool)
        for _d, mask, anc in self._matches_by_depth(uids):
            any_match |= mask
            nodes, inverse = np.unique(anc[mask], return_inverse=True)
            sums = np.bincount(
                inverse, weights=weights[mask], minlength=len(nodes)
            )
            for n, c in zip(nodes.tolist(), sums.tolist()):
                counts[n] = counts.get(n, 0.0) + c
        return Histogram(
            counts,
            unmatched=float(weights[~any_match].sum()),
            total=float(weights.sum()),
        )


class LongestPrefixMatchPartitioning(_ClosestAncestorMixin, PartitioningFunction):
    """Identifiers map only to the closest ancestor bucket (Figures 5-6).

    Buckets nest arbitrarily; a nested bucket is a "hole" in its parent.
    """

    semantics = "longest_prefix_match"

    def nesting_parent(self) -> Dict[int, Optional[int]]:
        """For each match node, the match node of its closest enclosing
        bucket (``None`` for top-level buckets)."""
        nodes = set(self._match_nodes)
        out: Dict[int, Optional[int]] = {}
        for n in self._match_nodes:
            parent = None
            for anc in UIDDomain.ancestors(n):
                if anc in nodes:
                    parent = int(anc)
                    break
            out[int(n)] = parent
        return out

    def holes(self) -> Dict[int, List[int]]:
        """Direct nested buckets ("holes", Figure 7) per match node."""
        out: Dict[int, List[int]] = {int(n): [] for n in self._match_nodes}
        for child, parent in self.nesting_parent().items():
            if parent is not None:
                out[parent].append(child)
        return out
