"""One call per fact: ``emit("fault.crash", window=w, monitor=m)``
writes the event through the current journal's own ``emit`` and
applies its :data:`REDUCERS` row to the current registry (here
``system.monitor.crashes`` += 1); each sink is skipped while disabled.

Adding a fact is one :func:`emit` call plus, if it is also a metric,
one row below.  A metric no event field carries (timers, ``monitor.*``,
resource samples, ...) stays a direct registry call.  Events
re-emitted from shard worker buffers (``shard.worker.*``) are journaled
only: the worker's registry snapshot already carries their counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator

from .journal import get_journal
from .lifecycle import DELIVERED_OUTCOMES
from .registry import MetricsRegistry, get_registry

__all__ = ["REDUCERS", "emit", "lifecycle_on", "telemetry_on", "use_lifecycle"]

Fields = Dict[str, object]

_lifecycle = False


def telemetry_on() -> bool:
    """Whether a journal or a metrics registry is live — the one check
    a call site makes before computing costly event fields."""
    return get_journal().enabled or get_registry().enabled


def lifecycle_on() -> bool:
    """Whether per-copy lifecycle facts are captured (see
    :mod:`repro.obs.lifecycle`); off unless :func:`use_lifecycle` is
    scoped."""
    return _lifecycle


@contextmanager
def use_lifecycle() -> Iterator[None]:
    """Scope lifecycle capture on for a ``with`` block."""
    global _lifecycle
    previous, _lifecycle = _lifecycle, True
    try:
        yield
    finally:
        _lifecycle = previous


def emit(event: str, **fields) -> None:
    """Journal ``event`` and fold it into the registry."""
    journal = get_journal()
    if journal.enabled:
        journal.emit(event, **fields)
    registry = get_registry()
    if registry.enabled and event in REDUCERS:
        REDUCERS[event](registry, fields)


def _count(name: str, label: str = "") -> Callable:
    """A row adding one to ``name`` per event (labelled by the
    ``label`` field when given)."""
    if label:
        return lambda reg, f: reg.counter(name, **{label: f[label]}).inc()
    return lambda reg, f: reg.counter(name).inc()


def _install(reg: MetricsRegistry, f: Fields) -> None:
    # Window -1 is training, which the scheduler's counters skip.
    if f["window"] >= 0:
        if f["retry"]:
            reg.counter("control.install.retries").inc()
        reg.counter("control.install.attempts").inc()


#: Rebuild outcome -> its ``control.rebuild.cache.*`` counter (rebuilds
#: with caching off count only in ``control.rebuilds``).
_CACHE_COUNTERS = {
    "hit": "control.rebuild.cache.hits",
    "shared": "control.rebuild.cache.shared_hits",
    "miss": "control.rebuild.cache.misses",
}


def _rebuild(reg: MetricsRegistry, f: Fields) -> None:
    reg.counter("control.rebuilds").inc()
    if f["cache"] in _CACHE_COUNTERS:
        reg.counter(_CACHE_COUNTERS[f["cache"]]).inc()
    if "dirty_subtrees" in f:
        reg.counter("control.rebuild.subtrees.dirty").inc(
            f["dirty_subtrees"]
        )
    reg.gauge("control.function.buckets").set(f["buckets"])
    reg.gauge("control.function.bits").set(f["function_bits"])


def _decode(reg: MetricsRegistry, f: Fields) -> None:
    if f["late_messages"]:
        reg.counter("system.messages.late").inc(f["late_messages"])
    reg.counter("system.windows").inc()
    reg.counter("system.tuples").inc(f["tuples"])
    reg.counter("system.raw.bytes").inc(f["raw_bytes"])
    for name, field in (
        ("error", "error"),
        ("bytes", "histogram_bytes"),
        ("nonzero_buckets", "nonzero_buckets"),
        ("monitors_reporting", "monitors_reporting"),
    ):
        reg.histogram(f"system.window.{name}").observe(f[field])


def _run_end(reg: MetricsRegistry, f: Fields) -> None:
    if f["expired_messages"]:
        reg.counter("system.messages.expired").inc(f["expired_messages"])


def _fault_drop(reg: MetricsRegistry, f: Fields) -> None:
    reg.counter("channel.faults.dropped").inc()
    # Under lifecycle capture the drop also closes its copy.
    if "copy" in f:
        reg.counter("lifecycle.outcome.dropped").inc()


def _trace_closed(reg: MetricsRegistry, f: Fields) -> None:
    reg.counter(f"lifecycle.outcome.{f['outcome']}").inc()
    if f["outcome"] in DELIVERED_OUTCOMES:
        reg.timer("delivery.age_windows").observe(float(f["age_windows"]))


def _tenant_report(reg: MetricsRegistry, f: Fields) -> None:
    tenant = f["tenant"]
    reg.counter("serving.tenant.windows", tenant=tenant).inc(f["windows"])
    reg.counter("serving.tenant.bytes", tenant=tenant).inc(f["bytes_used"])
    reg.gauge("serving.tenant.mean_error", tenant=tenant).set(
        f["mean_error"]
    )


def _shard_labels(f: Fields) -> Dict[str, str]:
    labels = {"shard": str(f["shard"])}
    if f["tenant"]:
        labels["tenant"] = f["tenant"]
    return labels


def _shard_prefetch(reg: MetricsRegistry, f: Fields) -> None:
    labels = _shard_labels(f)
    for field in ("windows", "tuples", "payload_bytes"):
        reg.counter(f"serving.shard.{field}", **labels).inc(f[field])


def _shard_summary(reg: MetricsRegistry, f: Fields) -> None:
    labels = _shard_labels(f)
    reg.gauge("serving.shard.cpu_seconds", **labels).set(f["cpu_s"])
    reg.gauge("serving.shard.max_rss_kb", **labels).set(f["max_rss_kb"])


#: event -> the registry updates it implies.
REDUCERS: Dict[str, Callable[[MetricsRegistry, Fields], None]] = {
    "install": _install,
    "rebuild": _rebuild,
    "decode": _decode,
    "run_end": _run_end,
    "fault.crash": _count("system.monitor.crashes"),
    "fault.drop": _fault_drop,
    "fault.duplicate": _count("channel.faults.duplicated"),
    "fault.delay": _count("channel.faults.delayed"),
    "drift": lambda reg, f: reg.histogram("system.drift.score").observe(
        f["score"]
    ),
    "recalibration": _count("system.recalibrations"),
    "trace.sent": _count("lifecycle.sent"),
    "trace.closed": _trace_closed,
    "alert.fired": _count("slo.alerts.fired"),
    "alert.resolved": _count("slo.alerts.resolved"),
    "tenant.admitted": _count("serving.tenants.admitted", "tenant"),
    "tenant.rejected": _count("serving.tenants.rejected", "tenant"),
    "tenant.over_budget": _count("serving.tenant.over_budget", "tenant"),
    "tenant.report": _tenant_report,
    "shard.prefetch": _shard_prefetch,
    "shard.summary": _shard_summary,
    "shard.fanin": lambda reg, f: reg.counter(
        "serving.fanin.payloads"
    ).inc(f["payloads"]),
}
