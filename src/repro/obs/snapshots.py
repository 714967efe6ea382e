"""Windowed registry records and frozen snapshots.

A cumulative :class:`~repro.obs.registry.MetricsRegistry` answers "what
has happened so far"; a live operator wants "what happened *this*
window".  This module bridges the two:

* :func:`emit_window_record` appends one time-series record to
  ``registry.window_series``: **counters as deltas**, **gauges as
  levels**, **histograms and timers as per-window count/sum/mean plus
  approximate p50/p90/p99 quantiles** interpolated from the
  bucket-count deltas.  It reads only the children the registry's
  change log noted since the previous record (and the gauges), and of
  each histogram or timer only the buckets that received observations,
  so a record costs O(observations), not O(instruments × buckets).
  The monitoring loop calls it once per decoded window, so a run
  leaves a full per-window telemetry trail behind (served live at
  ``/series.json`` by :mod:`repro.obs.server` and rendered by
  ``repro top``).
* :func:`take_snapshot` freezes the whole registry into an immutable
  :class:`RegistrySnapshot` (counter/gauge values, histogram and timer
  states keyed by ``name{label=value,...}``) — the unit a shard worker
  ships to the parent (:mod:`repro.obs.crossproc`).

Everything costs nothing when the registry is the no-op
``NullRegistry`` (:func:`emit_window_record` returns immediately).

Record shape (JSON-friendly)::

    {"window": 3, "ts": 12.345,          # seconds since registry epoch
     "counters":  {"system.tuples": 4096.0, ...},          # deltas
     "gauges":    {"quality.coverage": 1.0, ...},          # levels
     "timers":    {"control.decode.duration":
                   {"count": 1, "sum": ..., "mean": ...,
                    "p50": ..., "p90": ..., "p99": ...}},
     "histograms": {...same shape as timers...}}

Keys in each section are in export order (sorted by name, then
labels).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, Optional, Tuple

from .registry import (
    Counter,
    Gauge,
    HistogramInstrument,
    MetricsRegistry,
    Timer,
    instrument_key,
)

__all__ = [
    "RegistrySnapshot",
    "take_snapshot",
    "emit_window_record",
    "bucket_quantile",
    "instrument_key",
]

#: Quantiles reported for every histogram/timer family per window, in
#: ascending order (:func:`_window_quantiles` finds them in one pass).
WINDOW_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)
#: Sort key of a record's children: by name, then labels.
_EXPORT_ORDER = attrgetter("name", "labels")


@dataclass(frozen=True)
class _HistogramState:
    """Frozen histogram/timer state inside a snapshot."""

    count: int
    sum: float
    bounds: Tuple[float, ...]
    bucket_counts: Tuple[int, ...]
    #: Observation extrema (the instrument's sentinels ±inf when no
    #: observation landed yet) — carried so the cross-process snapshot
    #: merge (:mod:`repro.obs.crossproc`) can pool them losslessly.
    min: float = float("inf")
    max: float = float("-inf")


@dataclass(frozen=True)
class RegistrySnapshot:
    """An immutable point-in-time capture of a registry's instruments.

    The mappings are built once and never mutated; treat them as
    read-only (they are shared between the snapshot and any deltas
    derived from it).
    """

    #: Seconds since the registry's epoch (monotonic clock).
    ts: float
    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, _HistogramState]
    #: Keys in ``histograms`` that are timers (durations in seconds).
    timer_keys: FrozenSet[str]


def take_snapshot(registry: MetricsRegistry) -> RegistrySnapshot:
    """Freeze the registry's current instrument values."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, _HistogramState] = {}
    timer_keys = set()
    for kind, inst in registry.instruments():
        key = inst.key
        if isinstance(inst, HistogramInstrument):
            with inst._lock:
                state = _HistogramState(
                    count=inst.count,
                    sum=inst.sum,
                    bounds=tuple(inst.bounds),
                    bucket_counts=tuple(inst.bucket_counts),
                    min=inst.min,
                    max=inst.max,
                )
            histograms[key] = state
            if isinstance(inst, Timer):
                timer_keys.add(key)
        elif isinstance(inst, Counter):
            counters[key] = inst.value
        elif isinstance(inst, Gauge):
            gauges[key] = inst.value
    return RegistrySnapshot(
        ts=time.perf_counter() - registry.epoch,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        timer_keys=frozenset(timer_keys),
    )


def bucket_quantile(
    bounds: Tuple[float, ...],
    bucket_counts: Tuple[int, ...],
    q: float,
) -> float:
    """Approximate the ``q``-quantile of a bucketed distribution.

    Linear interpolation within the bucket holding the target rank
    (Prometheus ``histogram_quantile`` style); the overflow (+Inf)
    bucket is clamped to the last finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(bucket_counts)
    if total <= 0:
        return 0.0
    rank = q * total
    cum = 0.0
    lo = 0.0
    for i, n in enumerate(bucket_counts):
        hi = bounds[i] if i < len(bounds) else bounds[-1]
        if n > 0 and cum + n >= rank:
            if i >= len(bounds):
                return float(hi)
            fraction = (rank - cum) / n
            return float(lo + (hi - lo) * max(0.0, min(1.0, fraction)))
        cum += n
        lo = hi
    return float(bounds[-1])


def _window_quantiles(
    bounds: Tuple[float, ...],
    increments: Dict[int, int],
    entry: Dict[str, object],
) -> None:
    """Set ``entry``'s :data:`WINDOW_QUANTILES` from the window's sparse
    ``{bucket: n}`` observations — bit-identical to
    :func:`bucket_quantile` over the dense bucket deltas, in one walk
    over the nonzero buckets.

    Zero buckets move neither the rank sum (``cum + 0 == cum``) nor the
    answer, and a bucket's lower edge is the previous bound whether or
    not that bucket is empty, so only the nonzero ones are visited.
    Ranks ascend with ``q``, so each quantile resumes where the last
    one stopped."""
    total = sum(increments.values())
    if total <= 0:
        for label, _q in WINDOW_QUANTILES:
            entry[label] = 0.0
        return
    buckets = sorted(increments.items())
    last = len(buckets) - 1
    j = 0
    i, n = buckets[0]
    cum = 0.0
    for label, q in WINDOW_QUANTILES:
        rank = q * total
        while cum + n < rank and j < last:
            cum += n
            j += 1
            i, n = buckets[j]
        if cum + n < rank or i >= len(bounds):
            # Past every bucket, or in the +inf one: the last bound.
            entry[label] = float(bounds[-1])
            continue
        lo = bounds[i - 1] if i else 0.0
        fraction = (rank - cum) / n
        # ``max(0.0, min(1.0, fraction))`` without the two calls (NaN
        # included: ``min`` keeps 1.0 unless ``fraction < 1.0``).
        if not fraction < 1.0:
            fraction = 1.0
        elif not fraction > 0.0:
            fraction = 0.0
        entry[label] = float(lo + (bounds[i] - lo) * fraction)


def emit_window_record(
    registry: MetricsRegistry, window: int
) -> Optional[Dict[str, object]]:
    """Append the record for ``window`` to ``registry.window_series`` and
    return it (``None`` when the registry is disabled — strictly free on
    the no-op path).

    The record is built from the children the registry's change log
    noted since the previous record, plus every gauge's level; nothing
    else is read.  Draining the log resets each child's base, so the
    next record starts from here."""
    if not registry.enabled:
        return None
    counters: Dict[str, float] = {}
    sections: Dict[str, Dict[str, object]] = {"timers": {}, "histograms": {}}
    changed = registry.drain_changes()
    changed.sort(key=_EXPORT_ORDER)
    for child in changed:
        with child._lock:
            base, child._base = child._base, None
            if isinstance(child, Counter):
                delta = child.value - base
                if delta:
                    counters[child.key] = delta
                continue
            count = child.count - base[0]
            if count <= 0:
                continue
            dsum = child.sum - base[1]
        # The increment dict left the child with its base: later
        # observations start a fresh one.
        entry: Dict[str, object] = {
            "count": count,
            "sum": dsum,
            "mean": dsum / count,
        }
        _window_quantiles(child.bounds, base[2], entry)
        section = "timers" if isinstance(child, Timer) else "histograms"
        sections[section][child.key] = entry
    record: Dict[str, object] = {
        "window": window,
        "ts": time.perf_counter() - registry.epoch,
        "counters": counters,
        "gauges": {g.key: g.value for g in registry.gauges()},
        "timers": sections["timers"],
        "histograms": sections["histograms"],
    }
    with registry._lock:
        registry.window_series.append(record)
    return record
