"""Metric definitions: the end-to-end metrics, the per-layer metrics and
which end-to-end metric each layer metric is expected to move.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks
that the two agree.  ``BENCHMARK.json`` has a fixed schema with no room
for the layer-to-end-to-end map, so the map lives here (``MOVES``).
"""

from __future__ import annotations

#: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "tuples_per_s": ("tuples/s", "higher", 0.25),
    "first_window_ms": ("ms", "lower", 0.25),
    "window_p50_ms": ("ms", "lower", 0.25),
    "window_p99_ms": ("ms", "lower", 0.25),
    "link_bytes_per_window": ("B", "lower", 0.1),
    "mean_error": ("count", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

#: name -> (unit, better).
PER_LAYER = {
    "streams.segment_ms": ("ms", "lower"),
    "streams.partition_us_per_window": ("us", "lower"),
    "streams.channel_us_per_window": ("us", "lower"),
    "streams.truth_us_per_window": ("us", "lower"),
    "streams.decode_us_per_window": ("us", "lower"),
    "streams.score_us_per_window": ("us", "lower"),
    "streams.unattributed_ms": ("ms", "lower"),
    "streams.unattributed_share": ("ratio", "lower"),
    "streams.retained_messages": ("count", "lower"),
    "streams.coverage_mean": ("ratio", "higher"),
    "streams.late_messages": ("count", "lower"),
    "streams.duplicates_dropped": ("count", "lower"),
    "streams.stale_messages": ("count", "lower"),
    "streams.expired_messages": ("count", "lower"),
    "streams.install_attempts": ("count", "lower"),
    "streams.installs_lost": ("count", "lower"),
    "core.build_histogram_us_per_window": ("us", "lower"),
    "core.tuples_per_kernel_call": ("count", "higher"),
    "core.encode_us_per_window": ("us", "lower"),
    "core.merge_wire_us_per_window": ("us", "lower"),
    "core.estimate_us_per_window": ("us", "lower"),
    "core.compile_ms": ("ms", "lower"),
    "core.payload_bytes_per_window": ("B", "lower"),
    "algorithms.rebuilds": ("count", "lower"),
    "algorithms.rebuild_ms_p50": ("ms", "lower"),
    "algorithms.rebuild_ms_max": ("ms", "lower"),
    "algorithms.build_ms": ("ms", "lower"),
    "algorithms.cache_hit_ratio": ("ratio", "higher"),
    "algorithms.reused_fraction": ("ratio", "higher"),
    "serving.prefetch_ms": ("ms", "lower"),
    "serving.prefetch_hit_ratio": ("ratio", "higher"),
    "serving.worker_cpu_s_per_run": ("s", "lower"),
    "serving.cpu_utilization": ("ratio", "higher"),
    "obs.journal_emit_us_per_window": ("us", "lower"),
    "obs.journal_events_per_window": ("count", "lower"),
    "obs.journal_bytes_per_window": ("B", "lower"),
    "obs.quality_us_per_window": ("us", "lower"),
    "obs.window_record_us_per_window": ("us", "lower"),
    "obs.crossproc_merge_ms": ("ms", "lower"),
    "obs.overhead_ratio": ("ratio", "lower"),
    "floor.kernel_ms": ("ms", "lower"),
    "floor.kernel_ratio": ("ratio", "lower"),
    "setup.first_run_extra_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Layer metric -> the end-to-end metrics (on the named workloads) it is
#: expected to move.  Written down before measuring; a change that moves
#: a layer metric but not its end-to-end partner has saved time off the
#: blocking path, or moved it elsewhere.
MOVES = {
    "streams.segment_ms": "first_window_ms on every workload",
    "streams.partition_us_per_window":
        "window_p50_ms and tuples_per_s on thin_windows",
    "streams.channel_us_per_window":
        "window_p50_ms on thin_windows and drift_faults",
    "streams.truth_us_per_window": "tuples_per_s on fat_windows",
    "streams.decode_us_per_window": "window_p50_ms on thin_windows",
    "streams.score_us_per_window": "window_p50_ms on thin_windows",
    "streams.unattributed_ms": "tuples_per_s on thin_windows",
    "streams.unattributed_share": "tuples_per_s on thin_windows",
    "streams.retained_messages": "peak_rss_mb on every workload",
    "streams.coverage_mean": "context for drift_faults",
    "streams.late_messages": "context for drift_faults",
    "streams.duplicates_dropped": "context for drift_faults",
    "streams.stale_messages": "context for drift_faults",
    "streams.expired_messages": "context for drift_faults",
    "streams.install_attempts": "context for drift_faults",
    "streams.installs_lost": "context for drift_faults",
    "core.build_histogram_us_per_window": "tuples_per_s on fat_windows",
    "core.tuples_per_kernel_call": "tuples_per_s on fat_windows",
    "core.encode_us_per_window":
        "window_p50_ms on thin_windows and sharded_telemetry",
    "core.merge_wire_us_per_window":
        "window_p50_ms on thin_windows and sharded_telemetry",
    "core.estimate_us_per_window":
        "window_p50_ms on thin_windows and sharded_telemetry",
    "core.compile_ms": "setup_s; window_p99_ms on drift_faults",
    "core.payload_bytes_per_window": "link_bytes_per_window",
    "algorithms.rebuilds": "window_p99_ms on drift_faults",
    "algorithms.rebuild_ms_p50":
        "setup_s on fat_windows; window_p99_ms on drift_faults",
    "algorithms.rebuild_ms_max":
        "setup_s on fat_windows; window_p99_ms on drift_faults",
    "algorithms.build_ms":
        "setup_s on fat_windows; window_p99_ms on drift_faults",
    "algorithms.cache_hit_ratio": "window_p99_ms on drift_faults",
    "algorithms.reused_fraction": "window_p99_ms on drift_faults",
    "serving.prefetch_ms": "first_window_ms on sharded_telemetry",
    "serving.prefetch_hit_ratio": "tuples_per_s on sharded_telemetry",
    "serving.worker_cpu_s_per_run": "tuples_per_s on sharded_telemetry",
    "serving.cpu_utilization": "tuples_per_s on sharded_telemetry",
    "obs.journal_emit_us_per_window":
        "window_p50_ms and tuples_per_s on drift_faults and sharded_telemetry",
    "obs.journal_events_per_window":
        "window_p50_ms and tuples_per_s on drift_faults and sharded_telemetry",
    "obs.journal_bytes_per_window":
        "window_p50_ms and tuples_per_s on drift_faults and sharded_telemetry",
    "obs.quality_us_per_window":
        "window_p50_ms and tuples_per_s on drift_faults and sharded_telemetry",
    "obs.window_record_us_per_window":
        "window_p50_ms and tuples_per_s on drift_faults and sharded_telemetry",
    "obs.crossproc_merge_ms":
        "window_p50_ms and tuples_per_s on sharded_telemetry",
    "obs.overhead_ratio":
        "tuples_per_s on drift_faults and sharded_telemetry; "
        "nothing on thin_windows or fat_windows",
    "floor.kernel_ms": "none: the hardware floor for build_histogram",
    "floor.kernel_ratio": "tuples_per_s on fat_windows",
    "setup.first_run_extra_s": "none: cold-start cost kept out of setup_s",
    "trace.overhead_ratio": "none: the cost of this benchmark's tracing",
}
