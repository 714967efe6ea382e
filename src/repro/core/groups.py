"""The lookup table mapping identifiers to groups (paper Sections 1-2).

A :class:`GroupTable` is the paper's ``GroupTable``/``GroupHierarchy``
relation: a set of *group nodes* — nonoverlapping subtrees of the UID
hierarchy — each carrying a group id.  Every identifier below a group
node belongs to that group.  For the network-monitoring workload the
group nodes are the subnet prefixes derived from WHOIS data.

The table is stored column-wise in sorted numpy arrays so that
histogram construction can count groups inside any identifier range in
``O(log |G|)``, and so that the identifier-to-group join (the expensive
lookup the paper wants to avoid shipping) has a vectorized reference
form: :meth:`GroupTable.counts_from_uids` binary-searches the group
starts.  The serving loop's ``fast`` stream kernel mode runs the same
join through :class:`~repro.core.compiled.CompiledGroupJoin` instead —
one dense uid -> group gather per tuple — and is checked bit for bit
against this reference.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .domain import UIDDomain

__all__ = ["GroupTable"]


class GroupTable:
    """An immutable table of nonoverlapping group nodes.

    Parameters
    ----------
    domain:
        The identifier domain the group nodes live in.
    group_nodes:
        Hierarchy node ids of the group subtrees.  They must be
        pairwise nonoverlapping (no node an ancestor of another), per
        the paper's problem definition (Section 2.2.1).
    group_ids:
        Optional application-level labels, parallel to ``group_nodes``.
        Defaults to the position index.

    Groups are re-sorted by the identifier range they cover; the
    *group index* used throughout this library refers to that sorted
    order.
    """

    def __init__(
        self,
        domain: UIDDomain,
        group_nodes: Sequence[int],
        group_ids: Optional[Sequence[object]] = None,
    ) -> None:
        if domain.height > 62:
            # Identifier arrays are int64 throughout the vectorized
            # paths (lookups, histogram building).
            raise ValueError(
                f"domain height {domain.height} exceeds the 62-bit limit "
                "of the vectorized identifier representation"
            )
        self.domain = domain
        nodes = list(group_nodes)
        if not nodes:
            raise ValueError("a group table needs at least one group node")
        if group_ids is None:
            group_ids = list(range(len(nodes)))
        elif len(group_ids) != len(nodes):
            raise ValueError(
                f"{len(group_ids)} group ids for {len(nodes)} group nodes"
            )
        ranges = []
        for node in nodes:
            if not domain.contains_node(node):
                raise ValueError(f"invalid node id {node} for {domain}")
            ranges.append(domain.uid_range(node))
        order = sorted(range(len(nodes)), key=lambda k: ranges[k][0])
        self.nodes = np.asarray([nodes[k] for k in order], dtype=np.int64)
        self.group_ids: List[object] = [group_ids[k] for k in order]
        self.starts = np.asarray([ranges[k][0] for k in order], dtype=np.int64)
        self.ends = np.asarray([ranges[k][1] for k in order], dtype=np.int64)
        overlap = np.nonzero(self.starts[1:] < self.ends[:-1])[0]
        if overlap.size:
            k = int(overlap[0])
            raise ValueError(
                "group nodes overlap: "
                f"{domain.describe(int(self.nodes[k]))} and "
                f"{domain.describe(int(self.nodes[k + 1]))}"
            )

    # ------------------------------------------------------------------
    # Basic facts
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.nodes.size)

    def fingerprint(self) -> bytes:
        """BLAKE2b-128 content fingerprint of this table.

        Covers the domain height, the sorted group nodes and the group
        ids — everything that shapes lookups and construction — so two
        tables with equal fingerprints are interchangeable for DP work
        and compiled-table reuse.  The serving layer keys its
        cross-tenant caches by this (the rebuild fingerprint alone
        hashes counts and configuration but not the table, so sharing
        across tenants needs both).  Cached after the first call; the
        table is immutable.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(bytes([self.domain.height]))
            digest.update(self.nodes.tobytes())
            digest.update(repr(self.group_ids).encode("utf-8"))
            fp = digest.digest()
            self._fingerprint = fp
        return fp

    @property
    def num_groups(self) -> int:
        """Number of groups ``|G|``."""
        return len(self)

    def covers_domain(self) -> bool:
        """Whether the group subtrees tile the whole identifier space."""
        if self.starts[0] != 0 or self.ends[-1] != self.domain.num_uids:
            return False
        return bool(np.all(self.starts[1:] == self.ends[:-1]))

    def covered_uids(self) -> int:
        """Total number of identifiers covered by some group."""
        return int((self.ends - self.starts).sum())

    def group_range(self, index: int) -> Tuple[int, int]:
        """Identifier range ``[lo, hi)`` of the group at ``index``."""
        return (int(self.starts[index]), int(self.ends[index]))

    def index_of_node(self, node: int) -> int:
        """Group index of the group whose node is exactly ``node``."""
        lo, _hi = self.domain.uid_range(node)
        k = int(np.searchsorted(self.starts, lo))
        if k < len(self) and int(self.nodes[k]) == node:
            return k
        raise KeyError(f"no group with node {node}")

    # ------------------------------------------------------------------
    # The identifier -> group join
    # ------------------------------------------------------------------
    def lookup(self, uid: int) -> Optional[int]:
        """Group index of ``uid``, or ``None`` if no group covers it."""
        k = int(np.searchsorted(self.starts, uid, side="right")) - 1
        if k >= 0 and uid < int(self.ends[k]):
            return k
        return None

    def lookup_many(self, uids: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`lookup`; uncovered identifiers map to ``-1``."""
        uids = np.asarray(uids, dtype=np.int64)
        idx = np.searchsorted(self.starts, uids, side="right") - 1
        idx = np.where(idx < 0, 0, idx)
        hit = (uids >= self.starts[idx]) & (uids < self.ends[idx])
        return np.where(hit, idx, -1)

    def counts_from_uids(
        self,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Per-group aggregates of a window of identifiers (the exact
        join the grouped aggregation query performs).

        Without ``values`` this is ``count(*)`` per group; with a
        per-tuple value vector it is ``sum(value)`` — the paper notes
        the extension to other SQL aggregates is straightforward, and
        for distributive aggregates it is exactly this weighting.
        Identifiers not covered by any group are dropped, mirroring the
        semantics of the inner join in the paper's query.
        """
        idx = self.lookup_many(uids)
        if values is None:
            idx = idx[idx >= 0]
            return np.bincount(idx, minlength=len(self)).astype(np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != idx.shape:
            raise ValueError(
                f"{values.shape[0] if values.ndim else 0} values for "
                f"{idx.shape[0]} identifiers"
            )
        covered = idx >= 0
        return np.bincount(
            idx[covered], weights=values[covered], minlength=len(self)
        ).astype(np.float64)

    # ------------------------------------------------------------------
    # Range statistics (used by histogram construction)
    # ------------------------------------------------------------------
    def groups_in_uid_range(self, lo: int, hi: int) -> int:
        """Number of groups entirely inside the identifier range
        ``[lo, hi)``.

        Because group subtrees never partially overlap a hierarchy
        subtree (they either contain it or are contained by it, and a
        group containing a range that holds other groups would violate
        nonoverlap), this count is exact for any subtree range.
        """
        first = int(np.searchsorted(self.starts, lo, side="left"))
        last = int(np.searchsorted(self.ends, hi, side="right"))
        return max(0, last - first)

    def groups_below(self, node: int) -> int:
        """Number of groups inside the subtree of ``node``."""
        lo, hi = self.domain.uid_range(node)
        return self.groups_in_uid_range(lo, hi)

    def group_indices_below(self, node: int) -> np.ndarray:
        """Indices of the groups inside the subtree of ``node``."""
        lo, hi = self.domain.uid_range(node)
        first = int(np.searchsorted(self.starts, lo, side="left"))
        last = int(np.searchsorted(self.ends, hi, side="right"))
        return np.arange(first, max(first, last))

    # ------------------------------------------------------------------
    # Key-density metadata (paper Figure 1)
    # ------------------------------------------------------------------
    def key_density(self, bucket_nodes: Iterable[int]) -> Dict[int, int]:
        """The *key density table*: groups per bucket subtree.

        The Control Center joins this static metadata with the
        histograms it receives to spread bucket counts uniformly over
        the groups each bucket contains.
        """
        return {int(node): self.groups_below(int(node)) for node in bucket_nodes}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupTable({len(self)} groups over {self.domain.num_uids} uids, "
            f"covers_domain={self.covers_domain()})"
        )
