"""Cross-tenant sharing of DP rebuilds and compiled tables.

Two tenants whose group tables, budgets and builder configurations
match byte-for-byte perform byte-for-byte identical dynamic-programming
work.  :class:`SharedServingCache` deduplicates that work across the
:class:`~repro.streams.ControlCenter` instances of a
:class:`~.engine.ServingEngine`:

* **functions** — finished :class:`~repro.core.partition.PartitioningFunction`
  objects keyed by ``(table fingerprint, rebuild fingerprint)``.  The
  rebuild fingerprint (``ControlCenter._fingerprint``) hashes the count
  vector, algorithm, budget, metric and builder options but *not* the
  table, so the table's own BLAKE2b content fingerprint
  (:meth:`~repro.core.groups.GroupTable.fingerprint`) joins the key.
* **memos** — incremental curve memos keyed by ``(table fingerprint,
  config key)``.  Memos self-guard: a session reuses one only when
  the tenant's window has the donor's nonzero mask, and then rebuilds
  every subtree whose counts differ; any other window builds cold
  (see :func:`repro.algorithms.incremental.memo_compatible`).
* **canonical tables** — the first :class:`~repro.core.groups.GroupTable`
  instance seen per fingerprint.  The compiled-table caches
  (:meth:`~repro.core.compiled.CompiledEstimator.for_pair`,
  :meth:`~repro.core.compiled.CompiledPartitioner.for_function`) key by
  *object identity*; routing every tenant with an equal table through
  one canonical instance makes those caches hit across tenants.

The cache is in-process and not thread-safe; the serving engine drives
tenants sequentially from the control plane (shard workers never touch
it — they receive finished functions).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..core.groups import GroupTable
from ..core.partition import PartitioningFunction

__all__ = ["SharedServingCache"]


class SharedServingCache:
    """Shared rebuild/memo/compiled-table cache for a tenant fleet.

    Parameters
    ----------
    max_functions:
        LRU bound on retained finished functions (each is a few KB of
        bucket arrays).  Memos are kept one per ``(table, config)`` —
        a newer memo for the same key replaces the older.
    """

    def __init__(self, max_functions: int = 128) -> None:
        if max_functions < 1:
            raise ValueError(
                f"max_functions must be >= 1, got {max_functions}"
            )
        self.max_functions = max_functions
        self._functions: "OrderedDict[Tuple[bytes, bytes], PartitioningFunction]" = (
            OrderedDict()
        )
        self._memos: Dict[Tuple[bytes, tuple], object] = {}
        self._tables: Dict[bytes, GroupTable] = {}
        self.function_hits = 0
        self.function_misses = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.table_hits = 0
        self.table_misses = 0
        #: Counter values already published via :meth:`publish_metrics`
        #: (counters are monotonic, so only the delta is emitted).
        self._published: Dict[str, int] = {}

    # -- canonical tables ---------------------------------------------------
    def canonical_table(self, table: GroupTable) -> GroupTable:
        """The first-seen table instance with this content fingerprint.

        Build tenant systems against the returned instance so the
        identity-keyed compiled caches are shared fleet-wide."""
        fp = table.fingerprint()
        canonical = self._tables.get(fp)
        if canonical is None:
            self.table_misses += 1
            self._tables[fp] = table
            return table
        self.table_hits += 1
        return canonical

    # -- finished functions -------------------------------------------------
    def get_function(
        self, table_fp: bytes, rebuild_fp: bytes
    ) -> Optional[PartitioningFunction]:
        function = self._functions.get((table_fp, rebuild_fp))
        if function is None:
            self.function_misses += 1
            return None
        self._functions.move_to_end((table_fp, rebuild_fp))
        self.function_hits += 1
        return function

    def put_function(
        self,
        table_fp: bytes,
        rebuild_fp: bytes,
        function: PartitioningFunction,
    ) -> None:
        key = (table_fp, rebuild_fp)
        self._functions[key] = function
        self._functions.move_to_end(key)
        while len(self._functions) > self.max_functions:
            self._functions.popitem(last=False)

    # -- incremental curve memos --------------------------------------------
    def get_memo(self, table_fp: bytes, config_key: tuple) -> Optional[object]:
        memo = self._memos.get((table_fp, config_key))
        if memo is None:
            self.memo_misses += 1
        else:
            self.memo_hits += 1
        return memo

    def put_memo(
        self, table_fp: bytes, config_key: tuple, memo: object
    ) -> None:
        self._memos[(table_fp, config_key)] = memo

    # -- reporting ----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus current sizes, for benchmarks and the
        engine's journal events."""
        return {
            "function_hits": self.function_hits,
            "function_misses": self.function_misses,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "functions": len(self._functions),
            "memos": len(self._memos),
            "tables": len(self._tables),
        }

    def publish_metrics(self, registry) -> None:
        """Export hit/miss totals as ``serving.cache.*`` counters.

        Idempotent across calls: only the delta since the last publish
        is added, so an engine serving several windows (or several
        engines sharing one cache) can publish after every run without
        inflating the counters.  No-op on a disabled registry — the
        deltas stay pending until a live one is scoped.
        """
        if not registry.enabled:
            return
        values = {
            "serving.cache.function.hits": self.function_hits,
            "serving.cache.function.misses": self.function_misses,
            "serving.cache.memo.hits": self.memo_hits,
            "serving.cache.memo.misses": self.memo_misses,
            "serving.cache.table.hits": self.table_hits,
            "serving.cache.table.misses": self.table_misses,
        }
        for name, total in values.items():
            delta = total - self._published.get(name, 0)
            if delta:
                registry.counter(name).inc(delta)
                self._published[name] = total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"SharedServingCache(functions={s['functions']}, "
            f"memos={s['memos']}, tables={s['tables']}, "
            f"hits={s['function_hits'] + s['memo_hits']})"
        )
