"""The Control Center (paper Figure 1, right).

The Control Center owns the full lookup table.  Periodically it runs a
construction algorithm over the recent history of the identifier stream
to (re)build the partitioning function it pushes to the Monitors; for
each incoming window it merges the Monitors' histograms (count
histograms merge by bucket-wise addition) and joins the result with the
key density table to produce the approximate group-by answer.

Rebuilds are memoized: the history counts plus the construction
configuration are fingerprinted, and a small LRU of recently built
partitioning functions answers repeat requests without re-running the
dynamic programs.  Recalibration loops frequently ask for the same
window of warehouse history (drift detectors can fire repeatedly while
traffic is stable), so identical rebuilds are pure waste; a cache hit
still installs the function and bumps the version, exactly as a fresh
build would.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..algorithms.construct import build
from ..algorithms.incremental import (
    memo_compatible,
    memo_config_key,
    new_session,
    supports_incremental,
)
from ..core.compiled import CompiledEstimator
from ..core.errors import DistributiveErrorMetric, PenaltyMetric
from ..core.estimate import reconstruct_estimates
from ..core.groups import GroupTable
from ..core.hierarchy import PrunedHierarchy
from ..core.partition import Histogram, PartitioningFunction
from ..core.wire import WireHistogram, merge_views
# Not on the decode path; re-exported for tools that wrap it by this name.
from ..core.wire import merge_wire  # noqa: F401
from ..obs import (
    QualityTracker,
    WindowQuality,
    get_journal,
    get_registry,
    get_tracer,
    span,
)
from .kernels import stream_kernel_mode
from .monitor import HistogramMessage

__all__ = ["ControlCenter", "DecodedWindow", "STALE_POLICIES"]

#: How :meth:`ControlCenter.decode_window` treats histograms built with
#: a stale partitioning function:
#:
#: * ``"strict"`` — raise (the pre-fault-era contract; right when the
#:   fleet is supposed to be version-homogeneous).
#: * ``"quarantine"`` — set stale histograms aside (their bucket layout
#:   does not match the current function, so they cannot be merged) and
#:   decode from the current-version ones as-is.
#: * ``"rescale"`` — quarantine stale histograms, then rescale the
#:   estimates by observed-monitor coverage: with ``r`` of ``m``
#:   expected monitors reporting and traffic split uniformly, the
#:   merged histogram saw roughly ``r/m`` of the window's traffic, so
#:   estimates are divided by ``r/m``.
STALE_POLICIES = ("strict", "quarantine", "rescale")


@dataclass(frozen=True)
class DecodedWindow:
    """One window's decode outcome plus its degradation accounting."""

    #: Per-group estimates (coverage-rescaled under the ``rescale``
    #: policy).
    estimates: np.ndarray
    #: Bucket-wise merge of the histograms that were actually used.
    merged: Histogram
    #: Distinct monitors whose histograms contributed to the decode.
    monitors_reporting: int
    #: Monitors that were expected to report this window.
    expected_monitors: int
    #: Redundant copies discarded by ``(monitor, window, version)`` dedup.
    duplicates_dropped: int
    #: Histograms quarantined for carrying a stale function version.
    stale_messages: int
    #: ``monitors_reporting / expected_monitors`` (0.0 when nothing was
    #: expected).
    coverage: float
    #: Nonzero buckets across the used histograms (decode-time cost).
    nonzero_buckets: int
    #: Online quality signals for this window (``None`` when neither
    #: metrics nor the journal are enabled — the disabled path stays
    #: strictly no-op).
    quality: Optional[WindowQuality] = None


class ControlCenter:
    """Builds partitioning functions and decodes histogram streams."""

    def __init__(
        self,
        table: GroupTable,
        metric: PenaltyMetric,
        algorithm: str = "lpm_greedy",
        budget: int = 100,
        cache_size: int = 8,
        stale_policy: str = "strict",
        incremental: bool = False,
        shared_cache=None,
        **builder_options,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if stale_policy not in STALE_POLICIES:
            raise ValueError(
                f"stale_policy must be one of {STALE_POLICIES}, "
                f"got {stale_policy!r}"
            )
        self.table = table
        self.metric = metric
        self.algorithm = algorithm
        self.budget = budget
        #: Mixed-version decode policy (see :data:`STALE_POLICIES`).
        self.stale_policy = stale_policy
        self.builder_options = builder_options
        self.function: Optional[PartitioningFunction] = None
        self.function_version = -1
        #: Max memoized partitioning functions (0 disables the cache).
        self.cache_size = cache_size
        self._function_cache: OrderedDict[bytes, PartitioningFunction] = (
            OrderedDict()
        )
        #: Subtree-memoized incremental rebuilds (ROADMAP item 2): when
        #: on, each DP rebuild re-solves only the subtrees whose counts
        #: changed since the previous build and splices the rest from
        #: the curve memo.  Results are bit-identical to full rebuilds;
        #: the flag only changes how much of the sweep is re-run.  An
        #: exact-fingerprint LRU hit still short-circuits everything,
        #: including the memo refresh.
        self.incremental = bool(incremental) and supports_incremental(
            algorithm, builder_options
        )
        self._curve_memo = None
        #: Cross-tenant cache (:class:`repro.serving.SharedServingCache`
        #: or anything with its ``get_function``/``put_function``/
        #: ``get_memo``/``put_memo`` surface).  Keyed by the table
        #: fingerprint *plus* the rebuild fingerprint, so tenants with
        #: identical group tables, history counts and configuration
        #: reuse each other's DP work; ``None`` keeps every tenant's
        #: work private.
        self.shared_cache = shared_cache
        #: Online quality bookkeeping (drift reference per function
        #: version); consulted by :meth:`decode_window` when metrics or
        #: the event journal are live.
        self.quality = QualityTracker()

    # -- function construction -------------------------------------------
    def _fingerprint(self, counts: np.ndarray) -> bytes:
        """Cache key for a rebuild: the exact history counts plus every
        configuration knob that influences construction."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(counts.tobytes())
        config = (
            self.algorithm,
            self.budget,
            repr(self.metric),
            sorted(self.builder_options.items()),
        )
        digest.update(repr(config).encode("utf-8"))
        return digest.digest()

    def rebuild_function(
        self, history_counts: Sequence[float]
    ) -> PartitioningFunction:
        """(Re)build the partitioning function from past per-group
        counts (typically loaded from the warehouse of Monitor logs).

        Identical requests (same counts, same configuration) are served
        from the LRU cache without re-running construction; hits and
        misses are counted in the metrics registry.  The function
        version advances either way — Monitors must still reinstall,
        because a version only certifies which function a histogram was
        built against, not how the Control Center obtained it.
        """
        counts = np.asarray(history_counts, dtype=np.float64)
        registry = get_registry()
        key: Optional[bytes] = None
        if self.cache_size > 0 or self.shared_cache is not None:
            key = self._fingerprint(counts)
        if self.cache_size > 0 and key is not None:
            cached = self._function_cache.get(key)
            if cached is not None:
                self._function_cache.move_to_end(key)
                self.function = cached
                self.function_version += 1
                self._journal_rebuild(cached, cache="hit")
                if registry.enabled:
                    registry.counter("control.rebuilds").inc()
                    registry.counter("control.rebuild.cache.hits").inc()
                    registry.gauge("control.function.buckets").set(
                        cached.num_buckets
                    )
                    registry.gauge("control.function.bits").set(
                        cached.size_bits()
                    )
                return cached
        if self.shared_cache is not None and key is not None:
            shared = self.shared_cache.get_function(
                self.table.fingerprint(), key
            )
            if shared is not None:
                # Another tenant (same table, counts and configuration)
                # already ran this DP; adopt its function.  It enters
                # the local LRU too, so repeat recalibrations stay
                # process-local.
                if self.cache_size > 0:
                    self._function_cache[key] = shared
                    while len(self._function_cache) > self.cache_size:
                        self._function_cache.popitem(last=False)
                self.function = shared
                self.function_version += 1
                self._journal_rebuild(shared, cache="shared")
                if registry.enabled:
                    registry.counter("control.rebuilds").inc()
                    registry.counter(
                        "control.rebuild.cache.shared_hits"
                    ).inc()
                    registry.gauge("control.function.buckets").set(
                        shared.num_buckets
                    )
                    registry.gauge("control.function.bits").set(
                        shared.size_bits()
                    )
                return shared
        inc_stats: Optional[Dict[str, float]] = None
        with span(
            "control.rebuild", algorithm=self.algorithm, budget=self.budget,
        ) as sp:
            hierarchy = PrunedHierarchy(self.table, counts)
            session = None
            if self.incremental:
                if self._curve_memo is None and self.shared_cache is not None:
                    # Cold start: seed from a config-compatible memo
                    # another tenant with the same table left behind.
                    candidate = self.shared_cache.get_memo(
                        self.table.fingerprint(),
                        memo_config_key(
                            self.algorithm, self.metric, self.budget,
                            self.builder_options,
                        ),
                    )
                    if memo_compatible(
                        candidate, self.algorithm, self.metric,
                        self.budget, self.builder_options,
                    ):
                        self._curve_memo = candidate
                session = new_session(
                    self.algorithm, hierarchy, self.metric, self.budget,
                    self._curve_memo, **self.builder_options,
                )
            result = build(
                self.algorithm, hierarchy, self.metric, self.budget,
                memo=session, **self.builder_options,
            )
            self.function = result.function_at(self.budget)
            if session is not None:
                self._curve_memo = session.finish()
                if self.shared_cache is not None:
                    self.shared_cache.put_memo(
                        self.table.fingerprint(),
                        self._curve_memo.config,
                        self._curve_memo,
                    )
                inc_stats = session.stats()
                sp.annotate(
                    dirty_subtrees=inc_stats["dirty_subtrees"],
                    reused_fraction=inc_stats["reused_fraction"],
                )
            sp.annotate(
                buckets=self.function.num_buckets,
                function_bits=self.function.size_bits(),
            )
        self.function_version += 1
        self._journal_rebuild(
            self.function, cache="miss" if key is not None else "off",
            incremental=inc_stats,
        )
        if key is not None and self.cache_size > 0:
            self._function_cache[key] = self.function
            while len(self._function_cache) > self.cache_size:
                self._function_cache.popitem(last=False)
        if key is not None and self.shared_cache is not None:
            self.shared_cache.put_function(
                self.table.fingerprint(), key, self.function
            )
        if registry.enabled:
            registry.counter("control.rebuilds").inc()
            if key is not None:
                registry.counter("control.rebuild.cache.misses").inc()
            if inc_stats is not None:
                registry.counter("control.rebuild.subtrees.dirty").inc(
                    int(inc_stats["dirty_subtrees"])
                )
                registry.counter("control.rebuild.subtrees.reused").inc(
                    int(inc_stats["reused_subtrees"])
                )
            registry.gauge("control.function.buckets").set(
                self.function.num_buckets
            )
            registry.gauge("control.function.bits").set(
                self.function.size_bits()
            )
        return self.function

    def _journal_rebuild(
        self,
        function: PartitioningFunction,
        cache: str,
        incremental: Optional[Dict[str, float]] = None,
    ) -> None:
        journal = get_journal()
        if journal.enabled:
            extra = {}
            if incremental is not None:
                # Only incremental rebuilds carry these fields, so
                # journals written with the flag off stay byte-identical
                # to previous releases; replay ignores rebuild events
                # either way.
                extra = {
                    "dirty_subtrees": int(incremental["dirty_subtrees"]),
                    "reused_fraction": float(
                        incremental["reused_fraction"]
                    ),
                }
            journal.emit(
                "rebuild",
                version=self.function_version,
                buckets=int(function.num_buckets),
                function_bits=int(function.size_bits()),
                cache=cache,
                **extra,
            )

    # -- decoding ----------------------------------------------------------
    @staticmethod
    def merge_histograms(messages: Sequence[HistogramMessage]) -> Histogram:
        """Merge one window's histograms from all Monitors (count
        aggregates are distributive: bucket-wise sums)."""
        return Histogram.merge(msg.histogram for msg in messages)

    def _parse(self, payload) -> WireHistogram:
        """Parse one v2 payload — the Control Center's validation of the
        bytes that crossed the link — and check that it was built for
        the current function's domain and semantics."""
        view = WireHistogram(payload)
        function = self.function
        if (view.height, view.semantics) != (
            function.domain.height, function.semantics
        ):
            raise ValueError(
                f"v2 payload for height {view.height}, {view.semantics} "
                f"semantics does not match the current function (height "
                f"{function.domain.height}, {function.semantics})"
            )
        return view

    def _views(self, usable: Sequence[HistogramMessage]) -> list:
        """The merge views: v1 histograms as they are, each v2 payload
        parsed once by :meth:`_parse`."""
        return [
            m.histogram if m.payload is None else self._parse(m.payload)
            for m in usable
        ]

    def _merge_and_estimate(self, usable: Sequence[HistogramMessage]):
        """Merge one window's usable histograms and reconstruct the
        per-group estimates.  ``fast``: one ``merge_views`` over
        :meth:`_views`, one merged histogram, one compiled estimate.
        ``naive``, the reference: parse and decode each payload, merge
        the objects, reconstruct group by group.  Both are bit-identical
        (same accumulation order; integral wire counters cast exactly)."""
        if not usable:
            return self.merge_histograms(usable), np.zeros(
                len(self.table), dtype=np.float64
            )
        if stream_kernel_mode() != "fast":
            merged = Histogram.merge(
                m.histogram if m.payload is None
                else self._parse(m.payload).to_histogram()
                for m in usable
            )
            return merged, reconstruct_estimates(
                self.table, self.function, merged
            )
        nodes, sums, unmatched, total = merge_views(self._views(usable))
        merged = Histogram.from_arrays(nodes, sums, unmatched, total)
        estimator = CompiledEstimator.for_pair(self.table, self.function)
        return merged, estimator.estimate(merged)

    def decode_window(
        self,
        messages: Sequence[HistogramMessage],
        expected_monitors: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> DecodedWindow:
        """Decode one window, tolerant of the imperfect delivery a real
        link produces.

        The pipeline is: deduplicate by ``(monitor, window_index,
        function_version)`` (at-least-once delivery must not double
        count), quarantine stale-version histograms per ``policy``
        (default: the instance's ``stale_policy``), merge and
        reconstruct what remains, and — under ``"rescale"`` — divide
        the estimates by observed-monitor coverage.  An empty usable
        set decodes to all-zero estimates, never an error: total
        message loss is a degraded answer, not a crash.
        """
        if self.function is None:
            raise RuntimeError("no partitioning function built yet")
        policy = self.stale_policy if policy is None else policy
        if policy not in STALE_POLICIES:
            raise ValueError(
                f"stale_policy must be one of {STALE_POLICIES}, "
                f"got {policy!r}"
            )
        seen = set()
        unique: List[HistogramMessage] = []
        for m in messages:
            key = (m.monitor, m.window_index, m.function_version)
            if key in seen:
                continue
            seen.add(key)
            unique.append(m)
        duplicates = len(messages) - len(unique)
        usable = [
            m for m in unique if m.function_version == self.function_version
        ]
        stale = len(unique) - len(usable)
        if stale and policy == "strict":
            raise ValueError(
                f"{stale} histogram(s) built with a stale partitioning "
                f"function (expected version {self.function_version})"
            )
        registry = get_registry()
        if registry.enabled:
            with registry.timer("control.decode.duration").time():
                merged, estimates = self._merge_and_estimate(usable)
        else:
            merged, estimates = self._merge_and_estimate(usable)
        monitors_reporting = len({m.monitor for m in usable})
        if expected_monitors is None:
            expected_monitors = len({m.monitor for m in messages})
        coverage = (
            monitors_reporting / expected_monitors if expected_monitors else 0.0
        )
        if policy == "rescale" and 0.0 < coverage < 1.0:
            estimates = estimates / coverage
        tracer = get_tracer()
        if tracer.enabled:
            # Close each copy's lifecycle trace with its decode fate.
            # Copies decoded here arrived without delay, so the close
            # tick is the message's own window (age 0 in window-time).
            rescaled = policy == "rescale" and 0.0 < coverage < 1.0
            closed = set()
            for m in messages:
                key = (m.monitor, m.window_index, m.function_version)
                if key in closed:
                    outcome = "deduped"
                elif m.function_version != self.function_version:
                    closed.add(key)
                    outcome = "quarantined"
                else:
                    closed.add(key)
                    outcome = "rescaled" if rescaled else "decoded"
                tracer.close(
                    m.monitor, m.window_index, m.function_version,
                    outcome, at_window=m.window_index,
                )
        quality: Optional[WindowQuality] = None
        if registry.enabled or get_journal().enabled:
            # Online quality signals need no ground truth — everything
            # below derives from the merged histogram and the decode
            # accounting.  Skipped entirely on the disabled path.
            quality = self.quality.observe(
                counts=merged.counts,
                unmatched=merged.unmatched,
                num_buckets=self.function.num_buckets,
                version=self.function_version,
                coverage=coverage,
                messages=len(messages),
                duplicates=duplicates,
                stale=stale,
            )
            if registry.enabled:
                for name, value in quality.as_dict().items():
                    registry.gauge(f"quality.{name}").set(value)
        if registry.enabled:
            registry.counter("control.decodes").inc()
            registry.counter("control.decode.messages").inc(len(messages))
            if duplicates:
                registry.counter("control.decode.duplicates").inc(duplicates)
            if stale:
                registry.counter("control.decode.stale").inc(stale)
        return DecodedWindow(
            estimates=estimates,
            merged=merged,
            monitors_reporting=monitors_reporting,
            expected_monitors=expected_monitors,
            duplicates_dropped=duplicates,
            stale_messages=stale,
            coverage=coverage,
            nonzero_buckets=sum(len(m.histogram) for m in usable),
            quality=quality,
        )

    def decode(self, messages: Sequence[HistogramMessage]) -> np.ndarray:
        """Approximate per-group counts for one window (the
        estimates-only view of :meth:`decode_window`)."""
        return self.decode_window(messages).estimates

    def approximate_answer(
        self, messages: Sequence[HistogramMessage]
    ) -> Dict[object, float]:
        """The approximate group-by result keyed by group id (groups
        estimated nonzero only — Section 4.3 notes decode time is
        proportional to these)."""
        estimates = self.decode(messages)
        return {
            self.table.group_ids[i]: float(v)
            for i, v in enumerate(estimates)
            if v > 0
        }

    def error(
        self,
        estimates: np.ndarray,
        actual: Sequence[float],
        metric: Optional[DistributiveErrorMetric] = None,
    ) -> float:
        """Score an approximate answer against the exact one."""
        metric = metric or self.metric
        return metric.evaluate(np.asarray(actual, dtype=np.float64), estimates)
