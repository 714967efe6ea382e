"""Cross-process telemetry: snapshot codec, fan-in merge, shard views.

The sharded serving layer (:mod:`repro.serving.sharded`) builds its
histograms inside worker *processes*; a worker's metrics and journal
events live in that process's memory and would vanish with it.  This
module is the bridge:

* **Worker side** — each shard worker runs a real local
  :class:`~repro.obs.registry.MetricsRegistry` plus an in-memory
  :class:`~repro.obs.journal.BufferJournal`;
  :func:`capture_worker_snapshot` freezes both into one JSON-safe dict
  (a :func:`snapshot_to_wire` registry snapshot + the buffered event
  records + a shard/seq envelope) that rides the existing IPC result
  pipe back to the parent alongside the packed v2 payloads.
* **Parent side** — :func:`merge_worker_snapshots` folds any number of
  worker snapshots into the parent registry/journal
  **deterministically**: snapshots are processed in ``(shard, seq)``
  order, and per snapshot

  - **counters add** (worker registries are fresh per batch, so their
    values are per-batch deltas),
  - **gauges are last-write-by-seq** (a later snapshot of the same
    shard overwrites an earlier one; distinct shards write distinct
    children, so cross-shard order cannot matter),
  - **histogram/timer observation buckets pool** — counts, sums and
    per-bucket tallies add, extrema take min/max — so
    :func:`~repro.obs.snapshots.bucket_quantile` over a merged
    instrument is *exactly* the quantile over the pooled observations'
    buckets (property-tested in ``tests/test_crossproc.py``),

  every merged instrument gaining a ``shard=N`` label.  Buffered
  journal events are re-emitted under the ``shard.worker.*`` namespace
  with ``shard`` / ``worker_seq`` / ``worker_ts`` fields; the parent
  journal assigns fresh gapless sequence ids, and replay ignores the
  namespace, so ``repro replay`` stays byte-identical.

* **Serving views** — :func:`shard_tenant_summary` rolls a registry up
  into per-shard / per-tenant dicts, the document behind the metrics
  server's ``/shards.json`` endpoint and the shards pane of
  ``repro top``.

The wire format is versioned (``"v": 1``) and strictly JSON-safe so it
can cross pickle pipes, files, or sockets unchanged.  Snapshot series
keys are the flat ``name{k=v,...}`` strings of
:func:`~repro.obs.snapshots.instrument_key`;
:func:`parse_instrument_key` is its exact inverse for label values
free of ``,`` ``=`` ``{`` ``}`` (every label this package emits —
monitor, tenant, shard names — satisfies that; the parser raises on
anything else rather than mis-merging).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .journal import BufferJournal
from .registry import HistogramInstrument, MetricsRegistry
from .snapshots import RegistrySnapshot, _HistogramState, take_snapshot

__all__ = [
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
]

#: Version stamp of the worker-snapshot wire dict.
WIRE_SNAPSHOT_VERSION = 1

#: Journal-envelope keys stripped from a buffered record before it is
#: re-emitted in the parent (the parent journal writes fresh ones).
_ENVELOPE = ("seq", "ts", "event")


# -- series-key codec --------------------------------------------------------
def parse_instrument_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`~repro.obs.snapshots.instrument_key`:
    ``"name{k=v,...}"`` → ``(name, {k: v})``.

    Raises ``ValueError`` on malformed keys (unterminated braces, items
    without ``=``) instead of guessing — a mis-parsed label would merge
    a worker series into the wrong parent child.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"unterminated label block in series key {key!r}")
    name = key[:brace]
    body = key[brace + 1:-1]
    labels: Dict[str, str] = {}
    if body:
        for item in body.split(","):
            label, sep, value = item.partition("=")
            if not sep or not label:
                raise ValueError(
                    f"label item {item!r} in series key {key!r} "
                    f"is not k=v"
                )
            labels[label] = value
    return name, labels


# -- RegistrySnapshot codec --------------------------------------------------
def snapshot_to_wire(snapshot: RegistrySnapshot) -> Dict[str, object]:
    """Encode a :class:`~repro.obs.snapshots.RegistrySnapshot` as a
    JSON-safe dict (exact round trip through
    :func:`snapshot_from_wire`).

    Distribution extrema are ``None`` on the wire while no observation
    landed (JSON has no ±inf) and decode back to the instrument
    sentinels.
    """
    histograms = {}
    for key, state in snapshot.histograms.items():
        histograms[key] = {
            "count": int(state.count),
            "sum": float(state.sum),
            "bounds": list(state.bounds),
            "buckets": list(state.bucket_counts),
            "min": None if state.count == 0 else float(state.min),
            "max": None if state.count == 0 else float(state.max),
        }
    return {
        "ts": float(snapshot.ts),
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "histograms": histograms,
        "timers": sorted(snapshot.timer_keys),
    }


def snapshot_from_wire(doc: Dict[str, object]) -> RegistrySnapshot:
    """Decode :func:`snapshot_to_wire` output (validating shape)."""
    if not isinstance(doc, dict):
        raise ValueError(f"snapshot wire doc must be a dict, got {doc!r}")
    try:
        counters = {str(k): float(v) for k, v in doc["counters"].items()}
        gauges = {str(k): float(v) for k, v in doc["gauges"].items()}
        histograms: Dict[str, _HistogramState] = {}
        for key, entry in doc["histograms"].items():
            count = int(entry["count"])
            histograms[str(key)] = _HistogramState(
                count=count,
                sum=float(entry["sum"]),
                bounds=tuple(float(b) for b in entry["bounds"]),
                bucket_counts=tuple(int(n) for n in entry["buckets"]),
                min=(
                    float("inf")
                    if entry.get("min") is None
                    else float(entry["min"])
                ),
                max=(
                    float("-inf")
                    if entry.get("max") is None
                    else float(entry["max"])
                ),
            )
        timer_keys = frozenset(str(k) for k in doc["timers"])
        ts = float(doc["ts"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed snapshot wire doc: {exc}") from None
    return RegistrySnapshot(
        ts=ts,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        timer_keys=timer_keys,
    )


# -- worker capture ----------------------------------------------------------
def capture_worker_snapshot(
    registry: MetricsRegistry,
    journal: object,
    shard: int,
    seq: int,
) -> Dict[str, object]:
    """Freeze one worker batch's telemetry into the wire dict the
    worker returns over the IPC pipe.

    ``journal`` is the worker's :class:`~repro.obs.journal.BufferJournal`
    (any disabled journal contributes no events).  ``seq`` is the
    parent-assigned batch sequence — snapshots merge in ``(shard,
    seq)`` order, which is what makes gauge merging deterministic.
    """
    events: List[Dict] = []
    if isinstance(journal, BufferJournal):
        with journal._lock:
            events = [dict(record) for record in journal.events]
    return {
        "v": WIRE_SNAPSHOT_VERSION,
        "shard": int(shard),
        "seq": int(seq),
        "snapshot": snapshot_to_wire(take_snapshot(registry)),
        "events": events,
    }


def _check_wire(doc: Dict[str, object]) -> None:
    if not isinstance(doc, dict) or doc.get("v") != WIRE_SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported worker snapshot (want v={WIRE_SNAPSHOT_VERSION}): "
            f"{doc if not isinstance(doc, dict) else doc.get('v')!r}"
        )


# -- parent-side merge -------------------------------------------------------
def merge_snapshot(
    registry: MetricsRegistry,
    snapshot: RegistrySnapshot,
    extra_labels: Optional[Dict[str, str]] = None,
) -> None:
    """Fold one registry snapshot into ``registry``, optionally adding
    labels (the serving layer passes ``{"shard": "N"}``).

    Counters add, gauges overwrite, distributions pool (count / sum /
    per-bucket tallies add, extrema min/max).  Bucket bounds must match
    the existing parent child's — a mismatch raises rather than pooling
    incomparable buckets.  Every pooled child enters the registry's
    change log, so the next window record carries what was merged.
    No-op on a disabled registry.
    """
    if not registry.enabled:
        return
    extra = dict(extra_labels or {})

    def resolved(key: str) -> Tuple[str, Dict[str, str]]:
        name, labels = parse_instrument_key(key)
        labels.update(extra)
        return name, labels

    for key, value in sorted(snapshot.counters.items()):
        name, labels = resolved(key)
        registry.counter(name, **labels).inc(value)
    for key, value in sorted(snapshot.gauges.items()):
        name, labels = resolved(key)
        registry.gauge(name, **labels).set(value)
    for key, state in sorted(snapshot.histograms.items()):
        name, labels = resolved(key)
        lookup = (
            registry.timer if key in snapshot.timer_keys
            else registry.histogram
        )
        child = lookup(name, **labels)
        _pool_distribution(child, state)


def _pool_distribution(
    child: HistogramInstrument, state: _HistogramState
) -> None:
    with child._lock:
        if tuple(child.bounds) != tuple(state.bounds):
            raise ValueError(
                f"cannot pool {child.name!r}: bucket bounds differ "
                f"({tuple(child.bounds)} vs {tuple(state.bounds)})"
            )
        increments = child.note_change()
        child.count += state.count
        child.sum += state.sum
        if state.count:
            if state.min < child.min:
                child.min = state.min
            if state.max > child.max:
                child.max = state.max
        for i, add in enumerate(state.bucket_counts):
            if add:
                child.bucket_counts[i] += add
                if increments is not None:
                    increments[i] = increments.get(i, 0) + add


def replay_worker_events(journal: object, doc: Dict[str, object]) -> None:
    """Re-emit one worker snapshot's buffered events into the parent
    journal under the ``shard.worker.*`` namespace.

    The parent journal stamps fresh gapless sequence ids; the worker's
    original ``seq``/``ts`` survive as ``worker_seq``/``worker_ts`` so
    the in-worker ordering and timing stay reconstructible.
    """
    _check_wire(doc)
    if not getattr(journal, "enabled", False):
        return
    shard = int(doc["shard"])
    for record in doc["events"]:
        fields = {
            k: v for k, v in record.items() if k not in _ENVELOPE
        }
        fields.setdefault("shard", shard)
        fields["worker_seq"] = record.get("seq")
        fields["worker_ts"] = record.get("ts")
        journal.emit(f"shard.worker.{record.get('event')}", **fields)


def merge_worker_snapshots(
    registry: MetricsRegistry,
    journal: object,
    docs: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Fold worker snapshot wire dicts into the parent sinks in
    deterministic ``(shard, seq)`` order; returns the sorted list.

    Metrics merge under a ``shard=N`` label (see :func:`merge_snapshot`)
    and journal events re-sequence under ``shard.worker.*``
    (:func:`replay_worker_events`); either half is a no-op when its
    parent sink is disabled.
    """
    ordered = sorted(docs, key=lambda d: (d.get("shard"), d.get("seq")))
    for doc in ordered:
        _check_wire(doc)
        merge_snapshot(
            registry,
            snapshot_from_wire(doc["snapshot"]),
            extra_labels={"shard": str(doc["shard"])},
        )
        replay_worker_events(journal, doc)
    return ordered


def worker_resource_events(
    doc: Dict[str, object]
) -> List[Dict[str, object]]:
    """The ``resources`` records buffered in one worker snapshot
    (each a per-batch :class:`~repro.obs.resources.ResourceSample`
    field dict) — what the serving layer accumulates into its
    per-shard ``close()`` summaries."""
    _check_wire(doc)
    return [
        record
        for record in doc["events"]
        if record.get("event") == "resources"
    ]


# -- serving views -----------------------------------------------------------
def shard_tenant_summary(registry: MetricsRegistry) -> Dict[str, object]:
    """Roll a registry up into per-shard and per-tenant summaries.

    Every counter/gauge child carrying a ``shard=`` (resp. ``tenant=``)
    label contributes its value to that shard's (tenant's) entry under
    its metric name, summing across any remaining labels; histogram
    and timer children contribute ``<name>.count`` / ``<name>.sum``.
    This is the ``/shards.json`` document of
    :class:`~repro.obs.server.MetricsServer` and the data source of the
    shards/tenants panes in ``repro top``.
    """
    shards: Dict[str, Dict[str, float]] = {}
    tenants: Dict[str, Dict[str, float]] = {}
    for kind, inst in registry.instruments():
        labels = dict(inst.labels)
        if isinstance(inst, HistogramInstrument):
            entries = (
                (inst.name + ".count", float(inst.count)),
                (inst.name + ".sum", float(inst.sum)),
            )
        else:
            entries = ((inst.name, float(inst.value)),)
        for label, rollup in (("shard", shards), ("tenant", tenants)):
            owner = labels.get(label)
            if owner is None:
                continue
            bucket = rollup.setdefault(owner, {})
            for key, value in entries:
                bucket[key] = bucket.get(key, 0.0) + value
    return {"shards": shards, "tenants": tenants}
