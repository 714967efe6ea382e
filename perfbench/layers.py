"""The traced run and the per-layer metrics it yields.

The traced sequence is: set up a fresh system (phase ``setup``), run it
once cold (``cold``), return it to its freshly trained state
(``prepare``, see :func:`.harness.prepare`) and run it once more
(``steady``), all with the span patches of :mod:`.tracing` live.
Per-window layer metrics come from the ``steady`` run.  Afterwards,
with the patches removed, the same system runs once with the
workload's telemetry setting flipped (``obs.overhead_ratio``; its
report must match the reference apart from the quality fields), and
the kernel floor is timed over the workload's own tuple arrays.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

from repro.streams import Trace, TumblingWindows

from . import harness
from .tracing import Recorder, durations, median_or_zero, self_times
from .workloads import Workload

#: Span names summed into each per-window layer metric.
_PER_WINDOW = {
    "streams.partition_us_per_window": "streams.partition",
    "streams.channel_us_per_window": "streams.channel",
    "streams.truth_us_per_window": "streams.truth",
    "streams.decode_us_per_window": "streams.decode",
    "streams.score_us_per_window": "streams.score",
    "core.build_histogram_us_per_window": "core.build_histogram",
    "core.encode_us_per_window": "core.encode",
    "core.merge_wire_us_per_window": "core.merge_wire",
    "core.estimate_us_per_window": "core.estimate",
    "obs.journal_emit_us_per_window": "obs.journal_emit",
    "obs.quality_us_per_window": "obs.quality",
    "obs.window_record_us_per_window": "obs.window_record",
}


def kernel_floor_ms(w: Workload, function, repeats: int = 5) -> float:
    """Bare ``np.searchsorted`` + ``np.bincount`` over the same
    per-(monitor, window) tuple arrays the monitors partition, against
    the installed function's bucket boundaries (median of
    ``repeats``)."""
    domain = function.domain
    edges = sorted(
        {e for node in function.bucket_nodes() for e in domain.uid_range(node)}
    )
    bounds = np.asarray(edges, dtype=np.int64)
    windows = TumblingWindows(w.window_width)
    arrays: List[np.ndarray] = [
        win.uids
        for share in Trace.split(w.live, 4, seed=w.split_seed)
        for win in windows.segment(share)
    ]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for uids in arrays:
            slot = np.searchsorted(bounds, uids, side="right")
            np.bincount(slot, minlength=bounds.size + 1)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def traced_metrics(
    w: Workload, ref, m: "harness.Measurement", spans_path: str
) -> Dict[str, float]:
    """Run the traced sequence and compute every per-layer metric."""
    rec = Recorder()
    rec.install()
    try:
        system, _ = harness.setup_system(w)
        try:
            rec.phase = "cold"
            rec.window = -1
            cold = harness.timed_run(system, w, recorder=rec)
            rec.phase = "prepare"
            with harness.telemetry(w.telemetry, rec):
                harness.prepare(system, w)
            rec.phase = "steady"
            rec.window = -1
            installs_before = len(rec.facts.get("installs", []))
            sessions_before = len(rec.facts.get("sessions", []))
            kernel_before = len(rec.facts.get("kernel_tuples", []))
            steady = harness.timed_run(system, w, recorder=rec)
        finally:
            rec.uninstall()
        for result in (cold, steady):
            got = harness.normalized(
                result.report, result.up_bytes, result.down_bytes
            )
            if got != ref:
                raise AssertionError(
                    "traced report differs from the naive reference"
                )
        # The other telemetry leg, untraced, on the same warm system.
        harness.prepare(system, w)
        flipped = harness.timed_run(system, w, telemetry_on=not w.telemetry)
        got = harness.normalized(
            flipped.report, flipped.up_bytes, flipped.down_bytes,
            quality=False,
        )
        want = harness.normalized(
            ref, ref.upstream_bytes, ref.function_bytes, quality=False
        )
        if got != want:
            raise AssertionError(
                "report with telemetry flipped differs from the reference"
            )
        prefetch = (
            getattr(system, "prefetch_hits", 0),
            getattr(system, "prefetch_misses", 0),
        )
        floor_ms = kernel_floor_ms(w, system.control_center.function)
    finally:
        harness.close_system(system)
    rec.write(spans_path)

    spans = rec.spans
    windows = len(steady.report.windows)
    own = self_times(spans, "steady")
    out: Dict[str, float] = {}
    for metric, name in _PER_WINDOW.items():
        out[metric] = own.get(name, 0.0) * 1e6 / windows
    out["streams.segment_ms"] = 1e3 * sum(
        durations(spans, "streams.segment", "steady")
        + durations(spans, "streams.split", "steady")
    )
    run_wall = steady.wall_s
    # The loop's own Python: run() time outside every layer span.  On
    # the sharded system the prefetch pass (shared-memory fill, waiting
    # on the workers, unpacking) is serving work, not loop overhead.
    first_decode = steady.marks_ns[0] / 1e9
    prefetch_s = 0.0
    if w.kind == "sharded":
        scaffold = sum(
            (end - start) / 1e9
            for name, start, end, _p, window, phase in spans
            if phase == "steady" and window == 0
            and name in ("streams.segment", "streams.split", "streams.truth")
        )
        prefetch_s = first_decode - scaffold
    unattributed = own.get("run", 0.0) - prefetch_s
    out["streams.unattributed_ms"] = unattributed * 1e3
    out["streams.unattributed_share"] = unattributed / run_wall
    out["streams.retained_messages"] = float(m.retained_messages)
    report = steady.report
    out["streams.coverage_mean"] = float(
        np.mean([r.coverage for r in report.windows])
    )
    for field in ("late_messages", "duplicates_dropped", "stale_messages"):
        out[f"streams.{field}"] = float(
            sum(getattr(r, field) for r in report.windows)
        )
    out["streams.expired_messages"] = float(report.expired_messages)
    installs = rec.facts.get("installs", [])[installs_before:]
    out["streams.install_attempts"] = float(len(installs))
    out["streams.installs_lost"] = float(sum(1 for a in installs if not a))

    kernel = rec.facts.get("kernel_tuples", [])[kernel_before:]
    out["core.tuples_per_kernel_call"] = (
        float(np.mean(kernel)) if kernel else 0.0
    )
    out["core.compile_ms"] = 1e3 * sum(durations(spans, "core.compile"))
    out["core.payload_bytes_per_window"] = _payload_bytes(
        system, steady, flipped
    ) / windows

    rebuilds = durations(spans, "algorithms.rebuild")
    builds = durations(spans, "algorithms.build")
    out["algorithms.rebuilds"] = float(
        len(durations(spans, "algorithms.rebuild", "steady"))
    )
    out["algorithms.rebuild_ms_p50"] = 1e3 * median_or_zero(rebuilds)
    out["algorithms.rebuild_ms_max"] = 1e3 * max(rebuilds, default=0.0)
    out["algorithms.build_ms"] = 1e3 * sum(
        durations(spans, "algorithms.build", "setup")
    )
    out["algorithms.cache_hit_ratio"] = (
        1.0 - len(builds) / len(rebuilds) if rebuilds else 0.0
    )
    sessions = rec.facts.get("sessions", [])[sessions_before:]
    out["algorithms.reused_fraction"] = median_or_zero(
        s.stats()["reused_fraction"] for s in sessions
    )

    if w.kind == "sharded":
        out["serving.prefetch_ms"] = 1e3 * prefetch_s
        hits, misses = prefetch
        out["serving.prefetch_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        n_runs = len(m.runs) + len(m.cold)
        out["serving.worker_cpu_s_per_run"] = m.children_cpu_s / n_runs
    else:
        out["serving.prefetch_ms"] = 0.0
        out["serving.prefetch_hit_ratio"] = 0.0
        out["serving.worker_cpu_s_per_run"] = 0.0
    out["serving.cpu_utilization"] = (
        m.parent_cpu_s + m.children_cpu_s
    ) / m.wall_s

    journal_run = steady if w.telemetry else flipped
    out["obs.journal_events_per_window"] = journal_run.journal_events / windows
    out["obs.journal_bytes_per_window"] = journal_run.journal_bytes / windows
    out["obs.crossproc_merge_ms"] = 1e3 * sum(
        durations(spans, "obs.crossproc_merge", "steady")
    )
    # Runs on one system slow down as its Channel retains more messages,
    # so each traced-system run is compared with the untraced run at the
    # same position on a measured system: the steady run is a system's
    # second run (m.runs[0]), the flipped run its third (m.runs[1]).
    same_age = m.runs[1].wall_s
    with_tel, without = (
        (same_age, flipped.wall_s)
        if w.telemetry
        else (flipped.wall_s, same_age)
    )
    out["obs.overhead_ratio"] = with_tel / without

    out["floor.kernel_ms"] = floor_ms
    build_ms = own.get("core.build_histogram", 0.0) * 1e3
    out["floor.kernel_ratio"] = build_ms / floor_ms
    out["setup.first_run_extra_s"] = (
        statistics.median(r.wall_s for r in m.cold)
        - statistics.median(r.wall_s for r in m.runs)
    )
    out["trace.overhead_ratio"] = run_wall / m.runs[0].wall_s
    return out


def _payload_bytes(system, steady, flipped) -> float:
    """Wire payload bytes the steady traced run transmitted."""
    start = steady.messages_before
    end = flipped.messages_before
    return float(
        sum(
            len(msg.payload) if msg.payload is not None else 0
            for msg in system.channel.messages[start:end]
        )
    )
