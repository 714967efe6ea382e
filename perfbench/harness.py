"""Untraced measurement: systems, the reference check and the
end-to-end metrics.

Protocol
--------
* **Reference.**  Once per invocation a fresh system of the workload's
  class and configuration is trained and run once under the naive
  stream and construction kernels (with telemetry live when the
  workload has it, because the ``WindowReport`` quality fields are
  ``0.0`` otherwise).  Its report is the reference.
* **Runs share a system a fixed number of times.**  ``Channel`` keeps
  every message and delivery for the system's lifetime, so resident
  memory grows with every run on one system: a ``thin_windows`` run
  retains 8192 messages and 8192 deliveries, about 10 MB (peak RSS
  78 -> 151 MB over 8 runs).  Each measured system therefore serves
  exactly one untimed warm-up run plus ``RUNS_PER_SYSTEM[workload]``
  timed runs and is then discarded; a new system is set up while the
  time budget lasts.  ``peak_rss_mb`` is the process high-water mark
  under that fixed schedule.
* **Every run starts freshly trained.**  Where a run leaves state that
  changes the next run's report (adaptive systems, telemetry), the
  system is retrained on the same history before each run (untimed)
  and, for adaptive systems, the drift detector is replaced.  Each run
  then reproduces the reference run exactly, so every timed run is
  checked against it.
* **What is compared.**  Per-window reports, the bytes charged during
  the run (``Channel`` byte totals accumulate over a system's
  lifetime, so ``SystemReport`` byte totals are replaced by this run's
  deltas), and every other report field.
* **Timing.**  ``run()`` is timed with ``perf_counter``.  The only
  other hook on the timed path runs after each ``decode_window``
  return (an instance attribute on the control center): it reads the
  clock, from which ``first_window_ms`` and the window gaps come, and
  on timed runs the thread's CPU time and context switches, and now
  and then calibrates (below).
* **Host speed.**  On a shared 2-vCPU virtual machine the same code
  runs at two speeds about 1.8x apart, switching every few seconds to
  minutes (one seed, one system: 0.9 ms windows for half a run,
  1.7 ms for the other half).  Medians cannot average that away
  within a run of a few seconds, so timed runs are calibrated: the
  same hook runs a fixed kernel that calls no program code
  (:func:`host_slowdown`) once every ``CALIBRATION_EVERY_S`` and just
  before and after ``run()``, its own time is left out of every
  measured interval, and each interval is divided by the mean
  slowdown of the calibrations on either side of it.  The host also
  takes the processor away for milliseconds at a time (a 1.8 ms
  window read 5.8 ms of wall time); so an interval in which the
  thread never blocked counts its CPU time, and one in which it did
  block (waiting for shard workers) counts its wall time.  Setups
  are bracketed the same way.  The end-to-end metrics are these
  adjusted times; ``run.py`` prints the unadjusted ones beside them.
"""

from __future__ import annotations

import dataclasses
import io
import math
import multiprocessing
import resource
import statistics
import time
from contextlib import ExitStack, contextmanager
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

from repro.algorithms.kernels import use_kernel_mode
from repro.core.errors import AverageError
from repro.obs import EventJournal, MetricsRegistry, use_journal, use_registry
from repro.serving import ShardedMonitoringSystem
from repro.streams import (
    AdaptiveMonitoringSystem,
    BucketDriftDetector,
    FaultModel,
    MonitoringSystem,
    use_stream_kernel_mode,
)

from .workloads import Workload

#: Timed runs each measured system serves after its warm-up run (held
#: fixed so ``peak_rss_mb`` compares across commits; see module doc).
RUNS_PER_SYSTEM = {
    "thin_windows": 4,
    "fat_windows": 16,
    "drift_faults": 3,
    "sharded_telemetry": 5,
}

#: Setups measured per invocation at least (``setup_s`` is their median).
MIN_SETUPS = 5

#: Pooled window gaps needed so at least 10 lie beyond the p99.
MIN_GAPS = 1000

#: Rebuilds the drift detector must fire per full-size drift_faults run.
MIN_DRIFT_REBUILDS = 4

#: Median time of the calibration kernel on the fast host state (s).
NOMINAL_CALIBRATION_S = 1.6e-4
#: Kernel repetitions per calibration (their median is taken).
CALIBRATION_SAMPLES = 7
#: Least time between two calibrations inside a timed run.
CALIBRATION_EVERY_S = 0.02

QUALITY_FIELDS = (
    "spill_fraction", "occupancy_entropy", "occupancy_skew", "drift_score",
)


class BenchmarkError(RuntimeError):
    """The workload stopped exercising the layer it exists for."""


def _calibration_kernel() -> float:
    """Seconds taken by a fixed interpreter-bound integer loop.  It runs
    no program code, so a change to the program cannot move it.  Of the
    kernels tried (this loop; dict and tuple work with small numpy
    calls; a searchsorted over 8 MB; object allocation and sorting),
    this one tracked ``thin_windows``' window speed most closely across
    the two host states (correlation 0.74 over 355 segments of 50 ms)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - t0


def host_slowdown() -> float:
    """How much slower than nominal the host runs right now (1.0 =
    nominal): the calibration kernel's median time over
    ``NOMINAL_CALIBRATION_S``."""
    samples = [_calibration_kernel() for _ in range(CALIBRATION_SAMPLES)]
    return statistics.median(samples) / NOMINAL_CALIBRATION_S


def make_system(w: Workload):
    """Construct (untrained) the system ``w`` configures."""
    common = dict(
        num_monitors=4, algorithm=w.algorithm, budget=100,
        faults=FaultModel(**w.faults) if w.faults else None,
        **w.options,
    )
    if w.kind == "serial":
        return MonitoringSystem(w.table, AverageError(), **common)
    if w.kind == "adaptive":
        return AdaptiveMonitoringSystem(
            w.table, AverageError(),
            detector=BucketDriftDetector(**w.detector), **common,
        )
    return ShardedMonitoringSystem(w.table, AverageError(), **common)


def close_system(system) -> None:
    if isinstance(system, ShardedMonitoringSystem):
        system.close()


def stop_children() -> None:
    """Stop and reap every process this one started.

    Pool workers are joined (terminated first if a system was left
    open).  ``shared_memory`` starts a resource-tracker process that
    would otherwise outlive this one; it is stopped and waited for."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


@contextmanager
def telemetry(on: bool, recorder=None):
    """A fresh in-memory registry and journal when ``on``; yields
    ``(journal, sink)`` (``(None, None)`` when off).  A tracing
    ``recorder`` times the journal's ``emit``."""
    if not on:
        yield None, None
        return
    sink = io.StringIO()
    journal = EventJournal(sink)
    if recorder is not None:
        recorder.wrap_journal(journal)
    with use_registry(MetricsRegistry()), use_journal(journal):
        yield journal, sink


def prepare(system, w: Workload) -> None:
    """Return ``system`` to its freshly trained state (untimed).

    Only adaptive systems (installed function, drift detector) and
    telemetry runs (the quality tracker's per-version drift reference)
    carry state from one run into the next run's report; other systems
    are left as they are."""
    if w.kind != "adaptive" and not w.telemetry:
        return
    system.train(w.history)
    if w.kind == "adaptive":
        # A new detector, not ``reset()``: ``reset`` keeps
        # ``last_score``, which the next run's first window reports.
        system.detector = BucketDriftDetector(**w.detector)


def normalized(report, up: int, down: int, quality: bool = True):
    """``report`` with this run's byte deltas in place of the system's
    lifetime byte totals (and, with ``quality=False``, the telemetry-only
    quality fields zeroed)."""
    windows = report.windows
    if not quality:
        blank = dict.fromkeys(QUALITY_FIELDS, 0.0)
        windows = [dataclasses.replace(r, **blank) for r in windows]
    return dataclasses.replace(
        report, windows=windows, upstream_bytes=up, function_bytes=down
    )


@dataclasses.dataclass
class RunResult:
    wall_s: float
    #: ``perf_counter_ns`` offsets of each ``decode_window`` return from
    #: ``run()`` entry.
    marks_ns: List[int]
    report: object
    up_bytes: int
    down_bytes: int
    messages_before: int
    journal_events: int = 0
    journal_bytes: int = 0
    #: Host-adjusted time of each interval in ms: run entry to the first
    #: mark, mark to mark, last mark to return (empty when the run was
    #: not calibrated).
    adjusted_ms: List[float] = dataclasses.field(default_factory=list)

    @property
    def tuples(self) -> int:
        return sum(r.tuples for r in self.report.windows)

    def intervals_ms(self, adjusted: bool = True) -> List[float]:
        """The run cut at each mark, in ms, host-adjusted if
        ``adjusted`` and the run was calibrated."""
        if adjusted and self.adjusted_ms:
            return self.adjusted_ms
        edges = [0, *self.marks_ns, round(self.wall_s * 1e9)]
        return [(b - a) / 1e6 for a, b in zip(edges, edges[1:])]


def _interval_slowdowns(cals, intervals: int) -> List[float]:
    """Per interval, the mean of the calibrations taken at its nearest
    boundaries on either side; ``cals`` holds ``(boundary, slowdown)``
    (then the wall clock) in boundary order, boundary ``b`` being the
    start of interval ``b``."""
    out = []
    j = 0
    for b in range(intervals):
        while cals[j + 1][0] <= b:
            j += 1
        out.append((cals[j][1] + cals[j + 1][1]) / 2)
    return out


def _stamp():
    """``(wall ns, this thread's CPU ns, its voluntary context
    switches)``."""
    return (
        time.perf_counter_ns(),
        time.thread_time_ns(),
        resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw,
    )


def _busy_ns(start, end) -> int:
    """Time the program used between two stamps: wall time if the
    thread blocked in between (it waited for something, such as shard
    workers), else its CPU time, which leaves out time the host gave
    the processor to someone else."""
    if end[2] != start[2]:
        return end[0] - start[0]
    return end[1] - start[1]


def timed_run(
    system, w: Workload, telemetry_on: Optional[bool] = None, recorder=None,
    calibrate: bool = False,
):
    """One ``run()`` of ``system`` on ``w``'s live trace (inside a
    ``run`` span when a tracing ``recorder`` is given), with host-speed
    calibration when ``calibrate`` (see module doc)."""
    on = w.telemetry if telemetry_on is None else telemetry_on
    cc = system.control_center
    decode = cc.decode_window
    marks: List[int] = []
    # Calibrated runs only: (boundary, slowdown) and per-interval
    # (start, end) stamps; an interval starts after any calibration.
    cals = []
    spans = []
    every_ns = CALIBRATION_EVERY_S * 1e9
    excluded = 0
    start = None

    def marked(*args, **kwargs):
        nonlocal excluded, start
        result = decode(*args, **kwargs)
        if not calibrate:
            marks.append(time.perf_counter_ns())
            return result
        end = _stamp()
        marks.append(end[0] - excluded)
        spans.append((start, end))
        if end[0] - cals[-1][2] >= every_ns:
            slowdown = host_slowdown()
            start = _stamp()
            cals.append((len(marks), slowdown, start[0]))
            excluded += start[0] - end[0]
        else:
            start = end
        return result

    channel = system.channel
    up0, down0 = channel.upstream_bytes, channel.downstream_bytes
    before = len(channel.messages)
    cc.decode_window = marked
    try:
        with telemetry(on, recorder) as (journal, sink):
            span = recorder.open("run") if recorder is not None else None
            if calibrate:
                slowdown = host_slowdown()
                start = _stamp()
                cals.append((0, slowdown, start[0]))
            t0 = time.perf_counter_ns()
            report = system.run(
                w.live, w.window_width, split_seed=w.split_seed
            )
            t1 = time.perf_counter_ns()
            if calibrate:
                end = _stamp()
                spans.append((start, end))
                cals.append((len(spans), host_slowdown(), end[0]))
            if span is not None:
                recorder.close(span)
    finally:
        del cc.decode_window
    adjusted = []
    if calibrate:
        slowdowns = _interval_slowdowns(cals, len(spans))
        adjusted = [
            _busy_ns(a, b) / 1e6 / f for (a, b), f in zip(spans, slowdowns)
        ]
    return RunResult(
        wall_s=(t1 - t0 - excluded) / 1e9,
        marks_ns=[m - t0 for m in marks],
        report=report,
        up_bytes=channel.upstream_bytes - up0,
        down_bytes=channel.downstream_bytes - down0,
        messages_before=before,
        journal_events=journal.events_written if journal else 0,
        journal_bytes=len(sink.getvalue()) if sink else 0,
        adjusted_ms=adjusted,
    )


def setup_system(w: Workload):
    """Construct and train; returns ``(system, seconds)``."""
    with telemetry(w.telemetry):
        t0 = time.perf_counter()
        system = make_system(w)
        system.train(w.history)
        return system, time.perf_counter() - t0


def calibrated_setup(w: Workload, m: "Measurement"):
    """:func:`setup_system`, recording in ``m`` its time as measured
    and host-adjusted; returns the system."""
    before = host_slowdown()
    start = _stamp()
    system, setup_s = setup_system(w)
    end = _stamp()
    slowdown = (before + host_slowdown()) / 2
    m.setups.append(setup_s)
    m.setups_adjusted.append(_busy_ns(start, end) / 1e9 / slowdown)
    return system


def reference(w: Workload):
    """The naive-kernel reference report of a freshly trained system."""
    with ExitStack() as stack:
        stack.enter_context(use_stream_kernel_mode("naive"))
        stack.enter_context(use_kernel_mode("naive"))
        system, _ = setup_system(w)
        try:
            result = timed_run(system, w)
        finally:
            close_system(system)
    return normalized(result.report, result.up_bytes, result.down_bytes)


def check_exercised(w: Workload, system, result: RunResult, size: str):
    """Raise when a workload no longer exercises its layer."""
    if w.kind == "adaptive":
        need = MIN_DRIFT_REBUILDS if size == "full" else 1
        fired = len(result.report.rebuilds)
        if fired < need:
            raise BenchmarkError(
                f"drift_faults fired {fired} rebuilds, expected >= {need}"
            )
    if w.kind == "sharded" and system.prefetch_misses:
        raise BenchmarkError(
            f"sharded_telemetry had {system.prefetch_misses} prefetch misses"
        )


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


@dataclasses.dataclass
class Measurement:
    setups: List[float] = dataclasses.field(default_factory=list)
    setups_adjusted: List[float] = dataclasses.field(default_factory=list)
    runs: List[RunResult] = dataclasses.field(default_factory=list)
    cold: List[RunResult] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    retained_messages: int = 0
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0
    parent_cpu_s: float = 0.0
    children_cpu_s: float = 0.0

    def gaps_ms(self, adjusted: bool = True) -> List[float]:
        """Gaps between consecutive ``decode_window`` returns, pooled
        over the timed runs."""
        gaps = []
        for r in self.runs:
            gaps.extend(r.intervals_ms(adjusted)[1:-1])
        return gaps


def measure(
    w: Workload, ref, seconds: float, size: str = "full"
) -> Measurement:
    """Set up systems and time their runs while another whole system
    fits in ``seconds`` (at least one system, and at full size until
    enough window gaps are pooled for a p99)."""
    m = Measurement()
    per_system = RUNS_PER_SYSTEM[w.name]
    start = time.perf_counter()
    cpu0 = _cpu(resource.RUSAGE_SELF)
    child0 = _cpu(resource.RUSAGE_CHILDREN)
    deadline = start + seconds

    last_system_s = 0.0

    def more() -> bool:
        # Another whole system only if it fits in the time left.
        if m.failed:
            return False
        if time.perf_counter() + last_system_s <= deadline:
            return True
        return size == "full" and len(m.gaps_ms()) < MIN_GAPS

    while not m.setups or more():
        system_start = time.perf_counter()
        system = calibrated_setup(w, m)
        try:
            for k in range(per_system + 1):
                if k:
                    with telemetry(w.telemetry):
                        prepare(system, w)
                    m.attempted += 1
                try:
                    result = timed_run(system, w, calibrate=k > 0)
                    got = normalized(
                        result.report, result.up_bytes, result.down_bytes
                    )
                    if got != ref:
                        raise AssertionError(
                            "report differs from the naive reference"
                        )
                    check_exercised(w, system, result, size)
                except BenchmarkError:
                    raise
                except Exception as exc:  # a failed operation
                    m.failed += 1
                    m.errors.append(f"{type(exc).__name__}: {exc}")
                    if not k:
                        m.attempted += 1
                    continue
                (m.runs if k else m.cold).append(result)
            m.retained_messages = max(
                m.retained_messages, len(system.channel.messages)
            )
        finally:
            close_system(system)
        del system
        last_system_s = time.perf_counter() - system_start
    m.wall_s = time.perf_counter() - start
    m.parent_cpu_s = _cpu(resource.RUSAGE_SELF) - cpu0
    m.children_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - child0
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(m.setups) < MIN_SETUPS:
        close_system(calibrated_setup(w, m))
    return m


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation across samples)."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(q * len(ordered))), len(ordered))
    return ordered[rank - 1]


def end_to_end(m: Measurement, adjusted: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one measurement, from host-adjusted
    times if ``adjusted`` (see module doc), else as measured."""
    if not m.runs:
        raise BenchmarkError("no timed run succeeded")
    runs = m.runs
    gaps = m.gaps_ms(adjusted)
    windows = len(runs[0].report.windows)
    return {
        "setup_s": statistics.median(
            m.setups_adjusted if adjusted else m.setups
        ),
        "tuples_per_s": statistics.median(
            r.tuples / sum(r.intervals_ms(adjusted)) * 1e3 for r in runs
        ),
        "first_window_ms": statistics.median(
            r.intervals_ms(adjusted)[0] for r in runs
        ),
        "window_p50_ms": quantile(gaps, 0.50),
        "window_p99_ms": quantile(gaps, 0.99),
        "link_bytes_per_window": (runs[0].up_bytes + runs[0].down_bytes)
        / windows,
        "mean_error": runs[0].report.mean_error,
        "peak_rss_mb": m.peak_rss_mb,
    }
