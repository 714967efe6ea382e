"""Observability: metrics registry, tracing spans, exporters.

The measurement layer for the reproduction — see
``docs/observability.md`` for the metric catalog.  Instrumentation is
disabled by default (the current registry is a no-op
:class:`NullRegistry`); enable it by scoping a live registry::

    from repro.obs import MetricsRegistry, use_registry, write_metrics

    reg = MetricsRegistry()
    with use_registry(reg):
        build("lpm_greedy", hierarchy, metric, budget=100)
    write_metrics(reg, "run.jsonl", "json")

or from the CLI with ``repro <cmd> --metrics run.jsonl`` and inspect
the result with ``repro stats run.jsonl``.
"""

from .registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    HistogramInstrument,
    MetricsRegistry,
    NullRegistry,
    SpanRecord,
    Timer,
    get_registry,
    set_registry,
    use_registry,
)
from .spans import Span, current_span, span
from .export import (
    EXPORT_FORMATS,
    load_jsonl,
    registry_records,
    render_summary,
    render_span_tree,
    to_csv,
    to_jsonl,
    to_prometheus,
    write_metrics,
)
from .snapshots import (
    RegistrySnapshot,
    bucket_quantile,
    emit_window_record,
    take_snapshot,
)
from .quality import (
    QUALITY_GAUGES,
    QualityTracker,
    WindowQuality,
)
from .journal import (
    NULL_JOURNAL,
    BufferJournal,
    EventJournal,
    NullJournal,
    get_journal,
    read_journal,
    set_journal,
    use_journal,
)
from .facts import REDUCERS, emit, lifecycle_on, telemetry_on, use_lifecycle
from .crossproc import (
    WIRE_SNAPSHOT_VERSION,
    capture_worker_snapshot,
    merge_snapshot,
    merge_worker_snapshots,
    parse_instrument_key,
    replay_worker_events,
    shard_tenant_summary,
    snapshot_from_wire,
    snapshot_to_wire,
    worker_resource_events,
)
from .resources import (
    PROC_GAUGES,
    ResourceSample,
    export_resources,
    resource_delta,
    sample_resources,
)
from .lifecycle import (
    DELIVERED_OUTCOMES,
    OUTCOMES,
    LifecycleBooks,
    fold_lifecycle,
)
from .slo import (
    NULL_SLO_ENGINE,
    Alert,
    NullSLOEngine,
    SLOEngine,
    SLORule,
    get_slo_engine,
    load_slo_file,
    parse_slo_rule,
    parse_slo_spec,
    set_slo_engine,
    use_slo_engine,
)
from .chrometrace import chrome_trace, unpaired_flows
from .server import MetricsServer, PeriodicMetricsWriter, parse_serve_spec
from .top import TopSource, TopState, load_state, render_top

__all__ = [
    # registry
    "Counter",
    "Gauge",
    "HistogramInstrument",
    "Timer",
    "SpanRecord",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    # spans
    "span",
    "Span",
    "current_span",
    # exporters
    "EXPORT_FORMATS",
    "registry_records",
    "to_jsonl",
    "to_csv",
    "to_prometheus",
    "write_metrics",
    "load_jsonl",
    "render_summary",
    "render_span_tree",
    # per-window records and snapshots
    "RegistrySnapshot",
    "take_snapshot",
    "emit_window_record",
    "bucket_quantile",
    # quality signals
    "WindowQuality",
    "QualityTracker",
    "QUALITY_GAUGES",
    # event journal
    "EventJournal",
    "BufferJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "get_journal",
    "set_journal",
    "use_journal",
    "read_journal",
    # one call per fact
    "emit",
    "telemetry_on",
    "REDUCERS",
    # cross-process telemetry
    "WIRE_SNAPSHOT_VERSION",
    "parse_instrument_key",
    "snapshot_to_wire",
    "snapshot_from_wire",
    "capture_worker_snapshot",
    "merge_snapshot",
    "merge_worker_snapshots",
    "replay_worker_events",
    "worker_resource_events",
    "shard_tenant_summary",
    # resource profiling
    "ResourceSample",
    "PROC_GAUGES",
    "sample_resources",
    "resource_delta",
    "export_resources",
    # lifecycle capture
    "lifecycle_on",
    "use_lifecycle",
    "OUTCOMES",
    "DELIVERED_OUTCOMES",
    "LifecycleBooks",
    "fold_lifecycle",
    # SLOs and alerting
    "Alert",
    "SLORule",
    "SLOEngine",
    "NullSLOEngine",
    "NULL_SLO_ENGINE",
    "parse_slo_rule",
    "parse_slo_spec",
    "load_slo_file",
    "get_slo_engine",
    "set_slo_engine",
    "use_slo_engine",
    # Chrome trace export
    "chrome_trace",
    "unpaired_flows",
    # live surfaces
    "MetricsServer",
    "PeriodicMetricsWriter",
    "parse_serve_spec",
    "TopSource",
    "TopState",
    "load_state",
    "render_top",
]
