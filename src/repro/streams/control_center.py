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
import inspect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.construct import ALGORITHMS, build
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
from ..core.partition import Histogram, LazySlotHistogram, PartitioningFunction
from ..core.wire import WireHistogram, merge_views
# Not on the decode path; re-exported for tools that wrap it by this name.
from ..core.wire import merge_wire  # noqa: F401
from ..obs import (
    QUALITY_GAUGES,
    QualityTracker,
    WindowQuality,
    emit,
    get_registry,
    span,
    telemetry_on,
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


def _check_builder_options(algorithm: str, options: Dict[str, object]) -> None:
    """Raise ``TypeError`` at construction for an option the selected
    builder does not take, rather than at the first rebuild.  Unknown
    algorithm names are left to :func:`~repro.algorithms.construct.build`,
    which lists the known ones."""
    builder = ALGORITHMS.get(algorithm)
    if builder is None:
        return
    params = list(inspect.signature(builder).parameters.values())
    # (hierarchy, metric, budget) are positional; ``memo`` is the
    # Control Center's own (incremental rebuild sessions).
    accepted = {p.name for p in params[3:]} - {"memo"}
    for name in options:
        if name not in accepted:
            raise TypeError(
                f"unexpected option {name!r} for algorithm {algorithm!r} "
                f"(accepted: {', '.join(sorted(accepted)) or 'none'})"
            )


@dataclass(frozen=True)
class DecodedWindow:
    """One window's decode outcome plus its degradation accounting."""

    #: Per-group estimates (coverage-rescaled under the ``rescale``
    #: policy).
    estimates: np.ndarray
    #: Bucket-wise merge of the histograms that were actually used (on
    #: the fast path its buckets are gathered on first read).
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
    #: Buckets carried by the used payloads (decode-time cost; the
    #: Monitors encode nonzero buckets only).
    nonzero_buckets: int
    #: Online quality signals for this window (computed on every
    #: window, whatever telemetry is live).
    quality: WindowQuality
    #: Each input message's decode outcome, in input order: ``decoded``
    #: (``rescaled`` in a coverage-rescaled window), ``deduped`` or
    #: ``quarantined`` (see :mod:`repro.obs.lifecycle`).
    outcomes: Tuple[str, ...]


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
        _check_builder_options(algorithm, builder_options)
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
        #: Subtree-memoized incremental rebuilds: when on, a DP rebuild
        #: whose window keeps the previous build's nonzero mask
        #: re-solves only the subtrees whose counts changed and reads
        #: the rest from the curve memo; any other rebuild runs cold
        #: and records a fresh memo.  Results are bit-identical to
        #: full rebuilds; the flag only changes how much of the sweep
        #: is re-run.  An exact-fingerprint LRU hit still
        #: short-circuits everything, including the memo refresh.
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
        #: Online quality bookkeeping (drift reference per run and
        #: function version); :meth:`decode_window` feeds it every
        #: window.
        self.quality = QualityTracker()

    # -- function construction -------------------------------------------
    def _fingerprint(self, counts: np.ndarray) -> bytes:
        """Cache key for a rebuild: the exact history counts plus every
        configuration knob that influences construction.

        The construction kernel mode is not such a knob: ``"fast"`` is
        bit-identical to the ``"naive"`` oracle, so a function built
        under either mode serves both."""
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
        key: Optional[bytes] = None
        if self.cache_size > 0 or self.shared_cache is not None:
            key = self._fingerprint(counts)
        if self.cache_size > 0 and key is not None:
            cached = self._function_cache.get(key)
            if cached is not None:
                self._function_cache.move_to_end(key)
                return self._adopt(cached, "hit")
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
                return self._adopt(shared, "shared")
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
                # None under the naive kernel mode: the oracle builds
                # from scratch and the memo waits for the next fast
                # rebuild.
                session = new_session(
                    self.algorithm, hierarchy, self.metric, self.budget,
                    self._curve_memo, **self.builder_options,
                )
            result = build(
                self.algorithm, hierarchy, self.metric, self.budget,
                memo=session, **self.builder_options,
            )
            function = result.function_at(self.budget)
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
                buckets=function.num_buckets,
                function_bits=function.size_bits(),
            )
        if key is not None and self.cache_size > 0:
            self._function_cache[key] = function
            while len(self._function_cache) > self.cache_size:
                self._function_cache.popitem(last=False)
        if key is not None and self.shared_cache is not None:
            self.shared_cache.put_function(
                self.table.fingerprint(), key, function
            )
        return self._adopt(
            function, "miss" if key is not None else "off", inc_stats
        )

    def _adopt(
        self,
        function: PartitioningFunction,
        cache: str,
        incremental: Optional[Dict[str, float]] = None,
    ) -> PartitioningFunction:
        """Bookkeeping shared by every rebuild outcome (``cache`` is
        ``hit``, ``shared``, ``miss`` or ``off``): make ``function``
        current under a new version, journal the rebuild, count it and
        set the ``control.function.*`` gauges."""
        self.function = function
        self.function_version += 1
        if incremental is not None:
            get_registry().counter("control.rebuild.subtrees.reused").inc(
                int(incremental["reused_subtrees"])
            )
        if telemetry_on():
            # Only incremental rebuilds carry the subtree fields, so
            # journals written with the flag off stay byte-identical to
            # previous releases; replay ignores rebuild events either
            # way.
            extra = {} if incremental is None else {
                "dirty_subtrees": int(incremental["dirty_subtrees"]),
                "reused_fraction": float(incremental["reused_fraction"]),
            }
            emit(
                "rebuild",
                version=self.function_version,
                buckets=int(function.num_buckets),
                function_bits=int(function.size_bits()),
                cache=cache,
                **extra,
            )
        return function

    # -- decoding ----------------------------------------------------------
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

    def _merge_and_estimate(self, usable: Sequence[HistogramMessage]):
        """Parse, merge and estimate one window's usable messages.
        Returns ``(merged, sums, estimates, nonzero_buckets)``, where
        ``sums`` are the merged bucket counts laid out over the current
        function's slots (empty when nothing is usable) — the form the
        quality tracker reads.

        ``fast`` merges in slot space: the payloads' nodes are looked
        up in the current function's slots and one ``bincount`` gives
        the dense slot sums the compiled estimate reads
        (:meth:`~repro.core.compiled.CompiledEstimator.slot_sums`).  A
        node outside the current function falls back to the node-space
        ``merge_views``.  ``naive``, the reference: decode each payload,
        merge the objects (``Histogram.merge``, the same merge body as
        the fallback), reconstruct group by group.  All are
        bit-identical (same accumulation order; integral wire counters
        cast exactly); the fallback and the reference scatter their
        merged histogram into the slot layout, where a node outside the
        function has no slot and is left out, as the estimate leaves
        it out."""
        if not usable:
            return Histogram({}), np.zeros(0), np.zeros(len(self.table)), 0
        views = [self._parse(m.payload) for m in usable]
        nonzero = sum(len(v) for v in views)
        estimator = CompiledEstimator.for_pair(self.table, self.function)
        if stream_kernel_mode() != "fast":
            merged = Histogram.merge(v.to_histogram() for v in views)
            estimates = reconstruct_estimates(
                self.table, self.function, merged
            )
            return merged, estimator.slot_counts(merged), estimates, nonzero
        sums = estimator.slot_sums(views)
        if sums is None:
            nodes, sums, unmatched, total = merge_views(views)
            merged = Histogram.from_arrays(nodes, sums, unmatched, total)
            sums = estimator.slot_counts(merged)
            return merged, sums, estimator.estimate_slots(sums), nonzero
        unmatched = total = 0.0
        for v in views:
            unmatched += v.unmatched
            total += v.total
        # Nothing on the window path reads ``merged``; build it on
        # first access.
        merged = LazySlotHistogram(
            estimator.slot_nodes, sums, unmatched, total
        )
        return merged, sums, estimator.estimate_slots(sums), nonzero

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
        # The dedup/stale rule: the first copy of a (monitor, window,
        # version) key counts, later ones are duplicates, and a key
        # built with another function version is stale.
        seen = set()
        usable: List[HistogramMessage] = []
        outcomes: List[str] = []
        for m in messages:
            key = (m.monitor, m.window_index, m.function_version)
            if key in seen:
                outcomes.append("deduped")
            elif m.function_version != self.function_version:
                outcomes.append("quarantined")
            else:
                usable.append(m)
                outcomes.append("decoded")
            seen.add(key)
        duplicates = len(messages) - len(seen)
        stale = len(seen) - len(usable)
        if stale and policy == "strict":
            raise ValueError(
                f"{stale} histogram(s) built with a stale partitioning "
                f"function (expected version {self.function_version})"
            )
        registry = get_registry()
        with registry.timer("control.decode.duration").time():
            merged, sums, estimates, nonzero = self._merge_and_estimate(
                usable
            )
        monitors_reporting = len({m.monitor for m in usable})
        if expected_monitors is None:
            expected_monitors = len({m.monitor for m in messages})
        coverage = (
            monitors_reporting / expected_monitors if expected_monitors else 0.0
        )
        if policy == "rescale" and 0.0 < coverage < 1.0:
            estimates = estimates / coverage
            outcomes = ["rescaled" if o == "decoded" else o for o in outcomes]
        # Online quality signals need no ground truth: they derive from
        # the merged slot sums and the decode accounting, on every
        # window, so a report never depends on what telemetry is live.
        quality = self.quality.observe(
            sums,
            merged.unmatched,
            num_buckets=self.function.num_buckets,
            version=self.function_version,
            coverage=coverage,
            messages=len(messages),
            duplicates=duplicates,
            stale=stale,
        )
        if registry.enabled:
            for name, value in zip(QUALITY_GAUGES, quality):
                registry.gauge(name).set(value)
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
            nonzero_buckets=nonzero,
            quality=quality,
            outcomes=tuple(outcomes),
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
            if v != 0
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
