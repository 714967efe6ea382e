"""End-to-end monitoring system simulation (paper Figure 1).

Wires together the full pipeline on a single machine:

1. the Control Center builds a partitioning function from the history
   portion of a trace and installs it on every Monitor (downstream
   bytes are accounted);
2. the trace's remainder is split across the Monitors; for each
   tumbling window every Monitor ships its histogram (upstream bytes);
3. the Control Center merges, decodes and scores each window against
   the exact grouped aggregation.

The link between the two sides is not assumed perfect.  Passing a
:class:`~.faults.FaultModel` makes the channel drop, duplicate, delay
and reorder histograms, lose function installs, and crash Monitors;
the pipeline then runs its recovery story — install retries with
capped exponential backoff, decode-side deduplication, stale-version
quarantine/rescale — and every :class:`WindowReport` carries the
degradation accounting (``monitors_reporting``, ``duplicates_dropped``,
``stale_messages``, ``late_messages``).

Delivery semantics are explicit rather than implicitly exactly-once:

* upstream histograms are at-least-zero-times (drop) and
  at-least-once under duplication — the Control Center dedups by
  ``(monitor, window_index, function_version)``;
* the decode watermark is one window: window ``w`` is decoded at tick
  ``w`` from the copies that arrived by then; late copies are counted
  (``late_messages``) and discarded;
* a window whose histograms were *all* lost is still **reported** — as
  a fully degraded window with ``monitors_reporting == 0`` and
  all-zero estimates — never silently skipped.  The only skipped tick
  is one where no Monitor even had a window slot, which cannot happen
  with tumbling windows over the longest share (the guard is explicit
  anyway);
* downstream installs are at-least-once: version-stamped, idempotent,
  retried by the :class:`~.faults.InstallScheduler` until acked.

The output is a list of per-window reports plus channel totals — the
accuracy-per-bit story of the paper, measured rather than asserted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.groups import GroupTable
from ..obs import (
    Alert,
    emit,
    emit_window_record,
    get_journal,
    get_registry,
    get_slo_engine,
    lifecycle_on,
    span,
    telemetry_on,
)
from ..obs.slo import quantile
from .channel import Channel
from .control_center import ControlCenter, DecodedWindow
from .faults import Delivery, FaultModel, InstallScheduler
from .monitor import HistogramMessage, Monitor
from .query import exact_group_counts
from .tuples import Trace
from .windows import TumblingWindows

__all__ = ["WindowReport", "SystemReport", "MonitoringSystem"]

#: Sentinel distinguishing "no faults passed to run()" from an explicit
#: ``faults=None`` override of the system-level default.
_UNSET = object()


@dataclass(frozen=True)
class WindowReport:
    """Accuracy, cost and degradation accounting for one decoded
    window."""

    window_index: int
    tuples: int
    error: float
    histogram_bytes: int
    raw_bytes: int
    nonzero_buckets: int
    #: Distinct monitors whose histograms reached this window's decode.
    monitors_reporting: int = 0
    #: Redundant deliveries discarded by decode-side deduplication.
    duplicates_dropped: int = 0
    #: Deliveries quarantined for carrying a stale function version.
    stale_messages: int = 0
    #: Deliveries that arrived after their window's decode watermark.
    late_messages: int = 0
    #: Online quality signals (see :mod:`repro.obs.quality`), computed
    #: on every window whether or not telemetry is live.
    coverage: float = 0.0
    spill_fraction: float = 0.0
    occupancy_entropy: float = 0.0
    occupancy_skew: float = 0.0
    drift_score: float = 0.0


@dataclass
class SystemReport:
    """Aggregate outcome of a monitoring run."""

    windows: List[WindowReport] = field(default_factory=list)
    function_bytes: int = 0
    upstream_bytes: int = 0
    raw_bytes: int = 0
    #: Monitor crash-and-restart events during the run.
    monitor_crashes: int = 0
    #: Deliveries still in flight when the run ended (delayed past the
    #: last window; never decoded).
    expired_messages: int = 0
    #: SLO alert history (empty unless an
    #: :class:`~repro.obs.slo.SLOEngine` was scoped during the run;
    #: rebuilt bit-identically from the journal by ``repro replay``).
    alerts: List[Alert] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        if not self.windows:
            return 0.0
        return float(np.mean([w.error for w in self.windows]))

    @property
    def compression_ratio(self) -> float:
        """Raw-stream bytes over histogram bytes (higher is better).

        ``0.0`` when nothing was sent — an idle system compressed
        nothing, and ``0.0`` keeps downstream arithmetic finite."""
        sent = self.upstream_bytes + self.function_bytes
        return self.raw_bytes / sent if sent else 0.0


def _close(m: HistogramMessage, copy: int, outcome: str, at: int) -> float:
    """Emit one copy's ``trace.closed``; returns its age in windows."""
    age = at - m.window_index
    emit(
        "trace.closed", monitor=m.monitor, window=m.window_index,
        version=m.function_version, copy=copy, outcome=outcome,
        at_window=at, age_windows=age,
    )
    return float(age)


def _close_decoded(
    arrivals: List[Delivery], decoded: DecodedWindow, w: int
) -> List[float]:
    """Close each on-time copy with its decode outcome; returns their
    ages.  Copies of one message are bit-identical, so which copy gets
    which outcome is a convention: a key's outcomes, in arrival order,
    go to its copies in ascending copy index."""
    on_time = [d for d in arrivals if d.message.window_index == w]
    copies: Dict[Tuple[str, int], List[int]] = {}
    for d in sorted(on_time, key=lambda d: d.copy, reverse=True):
        m = d.message
        copies.setdefault((m.monitor, m.function_version), []).append(d.copy)
    return [
        _close(m, copies[m.monitor, m.function_version].pop(), outcome, w)
        for m, outcome in zip((d.message for d in on_time), decoded.outcomes)
    ]


class MonitoringSystem:
    """A Control Center plus a fleet of Monitors over one channel."""

    #: Control-center implementation to instantiate — subclasses swap
    #: in specialized decoders (the serving layer's fan-in center).
    control_center_class = ControlCenter

    def __init__(
        self,
        table: GroupTable,
        metric: PenaltyMetric,
        num_monitors: int = 4,
        algorithm: str = "lpm_greedy",
        budget: int = 100,
        cache_size: int = 8,
        stale_policy: str = "strict",
        incremental: bool = False,
        faults: Optional[FaultModel] = None,
        max_install_attempts: int = 64,
        shared_cache=None,
        **builder_options,
    ) -> None:
        if num_monitors < 1:
            raise ValueError(f"need at least one monitor, got {num_monitors}")
        if max_install_attempts < 1:
            raise ValueError(
                f"max_install_attempts must be >= 1, got "
                f"{max_install_attempts}"
            )
        self.table = table
        self.metric = metric
        self.control_center = self.control_center_class(
            table, metric, algorithm=algorithm, budget=budget,
            cache_size=cache_size, stale_policy=stale_policy,
            incremental=incremental, shared_cache=shared_cache,
            **builder_options,
        )
        self.monitors = [Monitor(f"monitor-{i}") for i in range(num_monitors)]
        self.faults = faults
        self.channel = Channel(table.domain, faults=faults)
        self.max_install_attempts = max_install_attempts

    def train(self, history: Trace) -> None:
        """Build the partitioning function from past traffic and push it
        to every Monitor.

        Installs go over the (possibly faulty) channel; training blocks
        until every Monitor holds the function, retrying lost installs
        up to ``max_install_attempts`` times per Monitor — every
        attempt is a charged wire transmission.
        """
        counts = exact_group_counts(
            self.table, history.uids, values=history.values
        )
        function = self.control_center.rebuild_function(counts)
        version = self.control_center.function_version
        for monitor in self.monitors:
            for attempt in range(1, self.max_install_attempts + 1):
                acked = self.channel.send_function(function, version=version)
                # window -1 marks the training phase (before any live
                # window existed).
                emit(
                    "install",
                    window=-1,
                    monitor=monitor.name,
                    version=version,
                    attempt=attempt,
                    retry=attempt > 1,
                    acked=acked,
                )
                if acked:
                    monitor.install_function(function, version)
                    break
            else:
                raise RuntimeError(
                    f"could not install function on {monitor.name!r} in "
                    f"{self.max_install_attempts} attempts"
                )

    # -- the windowed pipeline ---------------------------------------------
    def _partition_jobs(self, jobs):
        """Phase 2 of the window loop: turn the planned ``(monitor,
        window, fault-plan)`` jobs into outgoing histogram messages.

        Pure per-monitor work — no RNG draws, no channel writes — so
        subclasses may source the messages elsewhere (shard worker
        processes in :class:`repro.serving.ShardedMonitoringSystem`) as
        long as they are bit-identical to the serial build's.
        """
        return [
            monitor.process_window(
                window.index, window.uids, values=window.values
            )
            for monitor, window, _ in jobs
        ]

    def _prefetch(self, segmented: List[list]) -> None:
        """Hook run once per run, after the live trace is split across
        Monitors and segmented into windows, before any window is
        processed (subclass extension point: the serving layer builds
        every window's histograms in shard worker processes here).
        ``segmented[i]`` is Monitor ``i``'s list of windows."""

    def _after_window(
        self,
        window: int,
        decoded: DecodedWindow,
        actual: np.ndarray,
        report: SystemReport,
    ) -> None:
        """Hook run after each decoded window (subclass extension
        point: drift detection, recalibration, ...)."""

    def _window_signals(self, window: int) -> Dict[str, float]:
        """Extra named signals merged into the SLO engine's per-window
        observation (subclass extension point: the sharded serving
        layer contributes ``prefetch_miss_rate`` and
        ``shard_imbalance``).  Keys here shadow same-named
        :class:`WindowReport` fields, so pick fresh names."""
        return {}

    def _run_windows(
        self,
        live: Trace,
        window_width: float,
        split_seed: int,
        faults: Optional[FaultModel],
        report: SystemReport,
    ) -> SystemReport:
        if self.control_center.function is None:
            raise RuntimeError("call train() before run()")
        cc = self.control_center
        registry = get_registry()
        lifecycle = lifecycle_on()
        slo = get_slo_engine()
        if faults is not None:
            faults.reset()
        # Drift is measured within a run: re-anchor on its first window
        # with traffic, not on an earlier run's.
        cc.quality.reset()
        previous_faults = self.channel.faults
        self.channel.faults = faults
        installer = InstallScheduler()
        #: arrival tick -> deliveries landing there (delayed copies).
        in_flight: Dict[int, List[Delivery]] = {}
        try:
            windows = TumblingWindows(window_width)
            segmented = [
                list(windows.segment(share))
                for share in live.split(len(self.monitors), seed=split_seed)
            ]
            n_windows = max((len(s) for s in segmented), default=0)
            self._prefetch(segmented)
            if telemetry_on():
                emit(
                    "run_start",
                    wall_start=get_journal().wall_start,
                    windows=n_windows,
                    monitors=len(self.monitors),
                    algorithm=cc.algorithm,
                    budget=cc.budget,
                    metric=getattr(self.metric, "name", "") or repr(self.metric),
                    stale_policy=cc.stale_policy,
                    window_width=float(window_width),
                    split_seed=int(split_seed),
                    faults=asdict(faults) if faults is not None else None,
                )
            with span(
                "system.run", windows=n_windows, monitors=len(self.monitors),
            ):
                for w in range(n_windows):
                    # Control plane first: lagging Monitors (crashed, or
                    # missed an install) get a retry when their backoff
                    # expires.
                    installer.tick(w, cc, self.monitors, self.channel)
                    upstream_before = self.channel.upstream_bytes
                    arrivals: List[Delivery] = list(in_flight.pop(w, []))
                    window_uids = []
                    window_values = []
                    expected = 0
                    # Phase 1 (sequential): ground truth, crash checks
                    # and fault-plan draws, in monitor order — the RNG
                    # consumes decisions exactly as the serial loop did.
                    jobs: List[Tuple[Monitor, object, object]] = []
                    for monitor, segs in zip(self.monitors, segmented):
                        if w >= len(segs):
                            continue
                        window = segs[w]
                        # Ground truth covers the traffic that existed,
                        # whether or not its Monitor managed to report
                        # it — that is what degradation is measured
                        # against.
                        window_uids.append(window.uids)
                        if window.values is not None:
                            window_values.append(window.values)
                        expected += 1
                        if faults is not None and faults.crashes(
                            monitor.name, w
                        ):
                            monitor.crash()
                            report.monitor_crashes += 1
                            emit(
                                "fault.crash", window=w, monitor=monitor.name
                            )
                            continue
                        if monitor.function is None:
                            # Down since a crash; rejoins once the
                            # install scheduler reaches it.
                            continue
                        plan = (
                            faults.plan_decisions()
                            if faults is not None
                            else None
                        )
                        jobs.append((monitor, window, plan))
                    # Phase 2: partition every reporting Monitor's
                    # window — pure per-monitor work.
                    messages = self._partition_jobs(jobs)
                    # Phase 3 (sequential): sends in monitor order,
                    # applying the pre-drawn fault plans.
                    for (monitor, window, plan), msg in zip(jobs, messages):
                        for delivery in self.channel.send_histogram(
                            msg, plan=plan
                        ):
                            if delivery.delay == 0:
                                arrivals.append(delivery)
                            else:
                                in_flight.setdefault(
                                    w + delivery.delay, []
                                ).append(delivery)
                    if faults is not None:
                        faults.apply_reorder(arrivals)
                    hist_bytes = (
                        self.channel.upstream_bytes - upstream_before
                    )
                    on_time = [
                        d.message
                        for d in arrivals
                        if d.message.window_index == w
                    ]
                    late = len(arrivals) - len(on_time)
                    # Ages of the copies closed as delivered this window.
                    ages: List[float] = []
                    if lifecycle:
                        # Every copy arriving this tick is delivered;
                        # copies past their window's watermark close
                        # at once as late (decode never sees them).
                        for d in arrivals:
                            m = d.message
                            emit(
                                "trace.delivered", monitor=m.monitor,
                                window=m.window_index,
                                version=m.function_version, copy=d.copy,
                                at_window=w,
                            )
                            if m.window_index != w:
                                ages.append(_close(m, d.copy, "late", w))
                    if not window_uids:
                        # No Monitor had a window slot this tick; there
                        # is nothing to ground-truth against, so skip.
                        continue
                    uids = np.concatenate(window_uids)
                    vals = (
                        np.concatenate(window_values)
                        if len(window_values) == len(window_uids)
                        else None
                    )
                    # The Section 2.2.2 join, per window (the compiled
                    # dense-gather join under the ``fast`` kernel mode).
                    actual = exact_group_counts(self.table, uids, values=vals)
                    decoded = cc.decode_window(
                        on_time, expected_monitors=expected
                    )
                    if lifecycle:
                        ages += _close_decoded(arrivals, decoded, w)
                    error = float(cc.error(decoded.estimates, actual))
                    raw = self.channel.raw_stream_bytes(int(uids.size))
                    quality = decoded.quality
                    # The report's fields, in declaration order; every
                    # one is a number, so this shallow dict is what
                    # ``asdict`` would copy.
                    row = dict(
                        window_index=w,
                        tuples=int(uids.size),
                        error=error,
                        histogram_bytes=hist_bytes,
                        raw_bytes=raw,
                        nonzero_buckets=decoded.nonzero_buckets,
                        monitors_reporting=decoded.monitors_reporting,
                        duplicates_dropped=decoded.duplicates_dropped,
                        stale_messages=decoded.stale_messages,
                        late_messages=late,
                        coverage=decoded.coverage,
                        spill_fraction=quality.spill_fraction,
                        occupancy_entropy=quality.occupancy_entropy,
                        occupancy_skew=quality.occupancy_skew,
                        drift_score=quality.drift_score,
                    )
                    report.windows.append(WindowReport(**row))
                    report.raw_bytes += raw
                    if telemetry_on():
                        # The decode event carries the full WindowReport
                        # so replay can rebuild it field-for-field.
                        emit("decode", **row)
                    self._after_window(w, decoded, actual, report)
                    # One time-series point per decoded window:
                    # counters as deltas, gauges as levels, timers as
                    # per-window quantiles (no-op when disabled).
                    emit_window_record(registry, w)
                    if slo.enabled:
                        signals = {
                            name: float(value)
                            for name, value in row.items()
                            if isinstance(value, (int, float))
                        }
                        if lifecycle:
                            for p in (50, 90, 99):
                                signals[f"delivery_p{p}_windows"] = quantile(
                                    ages, p / 100
                                )
                        signals.update(self._window_signals(w))
                        slo.observe(w, signals)
            report.expired_messages = sum(
                len(v) for v in in_flight.values()
            )
            if lifecycle:
                # Copies still in flight past the last window can never
                # decode.
                for pending in in_flight.values():
                    for d in pending:
                        _close(d.message, d.copy, "expired", n_windows)
        finally:
            self.channel.faults = previous_faults
        report.upstream_bytes = self.channel.upstream_bytes
        report.function_bytes = self.channel.downstream_bytes
        report.alerts = slo.finish()
        emit(
            "run_end",
            windows=len(report.windows),
            upstream_bytes=report.upstream_bytes,
            function_bytes=report.function_bytes,
            raw_bytes=report.raw_bytes,
            monitor_crashes=report.monitor_crashes,
            expired_messages=report.expired_messages,
        )
        if registry.enabled:
            registry.gauge("system.mean_error").set(report.mean_error)
            registry.gauge("system.compression_ratio").set(
                report.compression_ratio
            )
        return report

    def run(
        self,
        live: Trace,
        window_width: float,
        split_seed: int = 0,
        faults: object = _UNSET,
    ) -> SystemReport:
        """Stream the live trace through the system window by window.

        ``faults`` overrides the system-level fault model for this run
        (``None`` forces a clean link); by default the model given at
        construction applies.
        """
        active = self.faults if faults is _UNSET else faults
        return self._run_windows(
            live, window_width, split_seed, active, SystemReport()
        )
