"""Sharded ingest with wire-level fan-in (the serving tentpole).

:class:`ShardedMonitoringSystem` promotes the single-process
:class:`~repro.streams.MonitoringSystem` loop into a ``shards=K``
engine while keeping its :class:`~repro.streams.SystemReport`
**bit-identical** to the serial run for the same seed — faults
included.  Two mechanisms, neither of which touches the fault RNG:

1. **Shard prefetch.**  Before the first window is processed, every
   ``(monitor, window)`` histogram is built by shard worker processes:
   the base loop hands over its own split and segmentation
   (:meth:`~repro.streams.MonitoringSystem._prefetch`), the window
   buffers are placed in :mod:`multiprocessing.shared_memory`
   segments (workers read zero-copy ``int64``/``float64`` views), and
   each worker runs the batched
   :meth:`~repro.streams.Monitor.process_windows` kernel — which is
   property-tested bit-identical to the serial per-window build.
   Histogram *content* is independent of fault outcomes, so prefetch
   needs no fault model; the base loop then draws crash and delivery
   decisions in the exact serial order
   (:meth:`~repro.streams.faults.FaultModel.plan_decisions`) and simply
   consumes prefetched messages in phase 2.
2. **Wire-level fan-in.**  Each shard ships its v2 payloads back as
   one blob (plus window indices and payload lengths); the messages
   rebuilt from it carry those bytes and nothing else.  The
   :class:`FanInControlCenter` decodes one window's shard payloads
   **exactly once at the tenant boundary**, with the serial Control
   Center's code: each payload is parsed and validated, then merged
   in slot space and estimated.  The estimates are bit-identical to
   the serial path because it is the same code over the same bytes.

Segmentation and the exact per-window ground truth stay in the base
loop: the Monitors only build histograms (paper Figure 1).

If a prefetched message is missing or carries a stale function version
(e.g. an adaptive subclass rebuilt mid-run), phase 2 falls back to the
inline serial build for that job — correctness never depends on the
prefetch; ``prefetch_misses`` counts the fallbacks.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

# Re-exported for tools that wrap it by this name.
from ..core.wire import merge_views  # noqa: F401
from ..obs import (
    NULL_JOURNAL,
    BufferJournal,
    MetricsRegistry,
    NullRegistry,
    capture_worker_snapshot,
    emit,
    export_resources,
    get_journal,
    get_registry,
    merge_worker_snapshots,
    resource_delta,
    sample_resources,
    telemetry_on,
    use_journal,
    use_registry,
    worker_resource_events,
)
from ..streams.control_center import ControlCenter
from ..streams.kernels import stream_kernel_mode, use_stream_kernel_mode
from ..streams.monitor import HistogramMessage, Monitor
# Re-exported for tools that wrap it by this name.
from ..streams.query import exact_group_counts_batched  # noqa: F401
from ..streams.system import MonitoringSystem, SystemReport, _UNSET
from ..streams.tuples import Trace

__all__ = ["FanInControlCenter", "ShardedMonitoringSystem"]


class FanInControlCenter(ControlCenter):
    """The serial Control Center plus a fan-in timer.

    Shard payloads are parsed, merged and estimated by the base class,
    exactly as serial link bytes are.  Each fan-in is timed
    (``serving.fanin.*``, ``shard.fanin`` events).
    """

    def _merge_and_estimate(self, usable):
        timed = bool(usable) and telemetry_on()
        start = time.perf_counter() if timed else 0.0
        result = super()._merge_and_estimate(usable)
        if timed:
            # The fan-in merge is the serving layer's per-window hot
            # spot; surface it as a timer plus a journal slice (the
            # Chrome trace exporter renders `shard.fanin` events on the
            # control-center track).
            duration = time.perf_counter() - start
            get_registry().timer("serving.fanin.duration").observe(duration)
            emit(
                "shard.fanin",
                window=usable[0].window_index,
                payloads=len(usable),
                duration_us=round(duration * 1e6, 1),
            )
        return result


def _shard_worker(task):
    """Build all of one shard's (monitor, window) histograms.

    Runs in a worker process with the parent's stream kernel mode
    pinned explicitly so a ``spawn`` start method cannot drift from
    the serial build.  Returns each monitor's messages packed by
    :func:`_pack_messages` — payload bytes, never views into the
    shared segments.

    Observability is nulled by default (worker Monitor objects are
    throwaway; the parent owns metrics and the journal).  When the
    parent requests telemetry (``task[-1]`` is a ``(metrics_on, seq)``
    pair) the worker instead runs a **real local**
    :class:`~repro.obs.MetricsRegistry` and an in-memory
    :class:`~repro.obs.BufferJournal`, samples its own CPU/RSS/GC
    delta around the batch, and ships one
    :func:`~repro.obs.capture_worker_snapshot` wire dict back with the
    results for the parent to merge under a ``shard=N`` label.
    """
    (
        shard_id,
        shm_name,
        values_shm_name,
        total_tuples,
        mode,
        function,
        version,
        monitor_jobs,
        telemetry,
    ) = task
    shm = shared_memory.SharedMemory(name=shm_name)
    vshm = (
        shared_memory.SharedMemory(name=values_shm_name)
        if values_shm_name is not None
        else None
    )
    if telemetry is not None:
        metrics_on, seq = telemetry
        registry = MetricsRegistry() if metrics_on else NullRegistry()
        buffer = BufferJournal()
    else:
        registry = NullRegistry()
        buffer = NULL_JOURNAL

    def build_all():
        # Scoped so every view into the shared segments is dropped when
        # this returns (SharedMemory refuses to close while exported
        # buffers are alive).  Payloads are fresh bytes, never views.
        uid_buf = np.ndarray((total_tuples,), dtype=np.int64, buffer=shm.buf)
        val_buf = (
            np.ndarray((total_tuples,), dtype=np.float64, buffer=vshm.buf)
            if vshm is not None
            else None
        )
        results = []
        for name, wins in monitor_jobs:
            batch_start = time.perf_counter()
            monitor = Monitor(name)
            monitor.install_function(function, version)
            indices = [w for (w, _off, _n) in wins]
            arrays = [uid_buf[off:off + n] for (_w, off, n) in wins]
            vals = (
                [val_buf[off:off + n] for (_w, off, n) in wins]
                if val_buf is not None
                else None
            )
            messages = monitor.process_windows(indices, arrays, vals)
            if buffer.enabled:
                buffer.emit(
                    "batch",
                    monitor=name,
                    windows=len(messages),
                    tuples=sum(n for (_w, _o, n) in wins),
                    payload_bytes=sum(len(m.payload) for m in messages),
                    duration_us=round(
                        (time.perf_counter() - batch_start) * 1e6, 1
                    ),
                )
            results.append(_pack_messages(name, messages))
        return results

    try:
        before = sample_resources() if telemetry is not None else None
        with use_registry(registry), use_journal(buffer), \
                use_stream_kernel_mode(mode):
            results = build_all()
        snapshot = None
        if telemetry is not None:
            usage = resource_delta(sample_resources(), before)
            export_resources(registry, usage)
            buffer.emit("resources", **usage.as_fields())
            snapshot = capture_worker_snapshot(
                registry, buffer, shard_id, seq
            )
        return shard_id, results, snapshot
    finally:
        shm.close()
        if vshm is not None:
            vshm.close()


def _pack_messages(name, messages):
    """Flatten one monitor's messages for the result pipe: window
    indices, payload lengths and one payload blob.  Pickling thousands
    of small ``bytes`` and dataclass instances one by one costs more
    than the build itself, while two arrays and one blob cross the pipe
    almost for free."""
    indices = np.asarray([m.window_index for m in messages], dtype=np.int64)
    lengths = np.asarray([len(m.payload) for m in messages], dtype=np.int64)
    return name, indices, lengths, b"".join(m.payload for m in messages)


def _unpack_messages(packed, function_version):
    """Inverse of :func:`_pack_messages`: payload-only messages whose
    payloads are slices of the blob."""
    name, indices, lengths, blob = packed
    ends = np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    return name, [
        HistogramMessage(
            monitor=name,
            window_index=w,
            function_version=function_version,
            payload=blob[lo:hi],
        )
        for w, lo, hi in zip(indices.tolist(), starts, ends)
    ]


class ShardedMonitoringSystem(MonitoringSystem):
    """A :class:`~repro.streams.MonitoringSystem` whose ingest fans out
    across ``shards`` worker processes and whose decode fans shard
    payloads in at the tenant boundary.

    Reports are bit-identical (dataclass-equal) to the serial system
    for the same seeds, clean or faulty — the fault RNG, channel and
    decode bookkeeping all run unmodified in the base loop; only the
    pure per-monitor partitioning work and the merge arithmetic move.

    Parameters beyond the base class:

    shards:
        Worker processes for the prefetch pass.  Monitors are assigned
        round-robin (monitor ``i`` → shard ``i % shards``); UIDs are
        already hash-split across monitors by the seeded
        :meth:`~repro.streams.tuples.Trace.split`.
    tenant:
        Optional tenant label stamped on ``serving.shard.*`` metrics
        and ``shard.prefetch`` journal events (the
        :class:`~.engine.ServingEngine` sets it).

    When a live registry or journal is scoped in the parent at prefetch
    time, shard workers run a real local
    :class:`~repro.obs.MetricsRegistry` plus an in-memory
    :class:`~repro.obs.BufferJournal` and ship a
    :mod:`repro.obs.crossproc` snapshot back with the results; the
    parent merges the metrics under ``shard=N`` labels and re-sequences
    the events as ``shard.worker.*`` in deterministic ``(shard, seq)``
    order.  With observability disabled workers run fully nulled and
    nothing changes on the wire — reports stay byte-identical.
    """

    control_center_class = FanInControlCenter

    def __init__(
        self,
        table,
        metric,
        num_monitors: int = 4,
        shards: int = 2,
        tenant: Optional[str] = None,
        **kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        super().__init__(table, metric, num_monitors=num_monitors, **kwargs)
        self.shards = shards
        self.tenant = tenant
        #: Persistent worker pool: forked lazily on the first prefetch
        #: and reused for the system's lifetime (fork + interpreter
        #: warm-up costs as much as building several windows' worth of
        #: histograms, so paying it once per run would dominate short
        #: runs).  :meth:`close` tears it down.
        self._pool: Optional[ProcessPoolExecutor] = None
        #: (monitor name, window index) -> prefetched message.
        self._prefetched: Dict[Tuple[str, int], HistogramMessage] = {}
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        #: Monotonic snapshot sequence: one per prefetch pass, shared
        #: by every shard in that pass (the merge orders by
        #: ``(shard, seq)``, so within one pass shards disambiguate).
        self._telemetry_seq = 0
        #: shard id -> accumulated worker resource usage, summarized
        #: (gauges + ``shard.summary`` events) at :meth:`close`.
        self._shard_resources: Dict[int, Dict[str, float]] = {}
        #: Per-window prefetch hit/miss tallies and shard imbalance
        #: (max/mean prefetch tuples across shards), feeding the
        #: ``prefetch_miss_rate`` / ``shard_imbalance`` SLO signals.
        self._window_hits: Dict[int, int] = {}
        self._window_misses: Dict[int, int] = {}
        self._window_imbalance: Dict[int, float] = {}

    # -- worker pool --------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.shards)
        return self._pool

    def close(self) -> None:
        """Shut the shard worker pool down (idempotent).  The system
        remains usable — the next run re-forks the pool.  Accumulated
        per-shard worker resource usage is summarized first (so the
        summaries land while the caller's registry/journal scope is
        still live)."""
        self._export_shard_summaries()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _export_shard_summaries(self) -> None:
        """Flush per-shard resource totals as ``shard.summary`` events
        (the registry folds them into ``serving.shard.*`` gauges), then
        reset."""
        usage, self._shard_resources = self._shard_resources, {}
        for shard in sorted(usage):
            summary = usage[shard]
            emit(
                "shard.summary",
                shard=shard,
                tenant=self.tenant or "",
                batches=int(summary["batches"]),
                cpu_s=round(summary["cpu_s"], 6),
                max_rss_kb=round(summary["max_rss_kb"], 3),
            )

    def __enter__(self) -> "ShardedMonitoringSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- prefetch -----------------------------------------------------------
    def _prefetch(self, segmented: List[list]) -> None:
        """Build every ``(monitor, window)`` histogram of this run in
        the shard workers, from the base loop's segmentation."""
        self._prefetched = {}
        self._window_hits = {}
        self._window_misses = {}
        self._window_imbalance = {}
        if not any(segmented):
            return
        cc = self.control_center
        total = sum(len(win) for segs in segmented for win in segs)
        has_values = any(
            win.values is not None for segs in segmented for win in segs
        )
        # One shared segment per stream column; workers map zero-copy
        # typed views over it and slice windows by (offset, length).
        shm = shared_memory.SharedMemory(create=True, size=max(8, total * 8))
        vshm = (
            shared_memory.SharedMemory(create=True, size=max(8, total * 8))
            if has_values
            else None
        )
        try:
            uid_buf = np.ndarray((total,), dtype=np.int64, buffer=shm.buf)
            val_buf = (
                np.ndarray((total,), dtype=np.float64, buffer=vshm.buf)
                if vshm is not None
                else None
            )
            shard_jobs: List[list] = [[] for _ in range(self.shards)]
            offset = 0
            for i, (monitor, segs) in enumerate(
                zip(self.monitors, segmented)
            ):
                wins = []
                for win in segs:
                    n = len(win)
                    uid_buf[offset:offset + n] = win.uids
                    if val_buf is not None:
                        val_buf[offset:offset + n] = win.values
                    wins.append((win.index, offset, n))
                    offset += n
                shard_jobs[i % self.shards].append((monitor.name, wins))
            registry = get_registry()
            telemetry = None
            if telemetry_on():
                self._telemetry_seq += 1
                telemetry = (registry.enabled, self._telemetry_seq)
            tasks = [
                (
                    shard,
                    shm.name,
                    vshm.name if vshm is not None else None,
                    total,
                    stream_kernel_mode(),
                    cc.function,
                    cc.function_version,
                    jobs,
                    telemetry,
                )
                for shard, jobs in enumerate(shard_jobs)
                if jobs
            ]
            shard_bytes = [0] * self.shards
            snapshots = []
            pool = self._ensure_pool()
            try:
                outputs = list(pool.map(_shard_worker, tasks))
            except BrokenProcessPool:
                # A worker died (in this pass or since the last run):
                # drop the broken pool so the next run forks a fresh one.
                self._pool = None
                pool.shutdown(wait=True, cancel_futures=True)
                raise
            for shard, results, snapshot in outputs:
                if snapshot is not None:
                    snapshots.append(snapshot)
                for packed in results:
                    name, messages = _unpack_messages(
                        packed, cc.function_version
                    )
                    for msg in messages:
                        self._prefetched[(name, msg.window_index)] = msg
                        shard_bytes[shard] += len(msg.payload)
        finally:
            del uid_buf, val_buf
            shm.close()
            shm.unlink()
            if vshm is not None:
                vshm.close()
                vshm.unlink()
        self._record_imbalance(shard_jobs)
        for shard, jobs in enumerate(shard_jobs):
            if jobs and telemetry_on():
                emit(
                    "shard.prefetch",
                    shard=shard,
                    tenant=self.tenant or "",
                    monitors=[name for name, _wins in jobs],
                    windows=sum(len(wins) for _name, wins in jobs),
                    tuples=sum(
                        n for _name, wins in jobs for (_w, _o, n) in wins
                    ),
                    payload_bytes=shard_bytes[shard],
                )
        if snapshots:
            # Deterministic fan-in: metrics merge under shard=N labels,
            # worker events re-sequence as shard.worker.* in
            # (shard, seq) order.  Resource deltas accumulate for the
            # close()-time per-shard summaries.
            merge_worker_snapshots(registry, get_journal(), snapshots)
            for doc in snapshots:
                shard = int(doc["shard"])
                for rec in worker_resource_events(doc):
                    entry = self._shard_resources.setdefault(
                        shard,
                        {"cpu_s": 0.0, "max_rss_kb": 0.0, "batches": 0},
                    )
                    entry["cpu_s"] += float(rec.get("cpu_user_s", 0.0))
                    entry["cpu_s"] += float(rec.get("cpu_system_s", 0.0))
                    entry["max_rss_kb"] = max(
                        entry["max_rss_kb"],
                        float(rec.get("max_rss_kb", 0.0)),
                    )
                    entry["batches"] += 1

    def _record_imbalance(self, shard_jobs: List[list]) -> None:
        """Per-window shard imbalance: max/mean prefetch tuples across
        the configured shards (1.0 = perfectly balanced; idle shards
        count, because they are provisioned capacity)."""
        per_window: Dict[int, List[float]] = {}
        for shard, jobs in enumerate(shard_jobs):
            for _name, wins in jobs:
                for (w, _off, n) in wins:
                    per_window.setdefault(
                        w, [0.0] * self.shards
                    )[shard] += n
        for w, tuples in per_window.items():
            mean = sum(tuples) / len(tuples)
            self._window_imbalance[w] = (
                max(tuples) / mean if mean > 0 else 0.0
            )

    # -- base-loop hooks ----------------------------------------------------
    def _partition_jobs(self, jobs):
        prefetched = self._prefetched
        if not prefetched:
            return super()._partition_jobs(jobs)
        messages = []
        hits = misses = 0
        for monitor, window, _plan in jobs:
            msg = prefetched.get((monitor.name, window.index))
            if (
                msg is None
                or msg.function_version != monitor.function_version
            ):
                # Not prefetched (or built against a superseded
                # function): fall back to the inline serial build.
                self.prefetch_misses += 1
                misses += 1
                messages.append(
                    monitor.process_window(
                        window.index, window.uids, values=window.values
                    )
                )
                continue
            self.prefetch_hits += 1
            hits += 1
            # The worker's throwaway Monitor absorbed the per-window
            # accounting; replay its lifetime stats on the real one so
            # they match the serial run.  Its monitor.* metrics are not
            # replayed: a registry live at prefetch time made the worker
            # record them (merged under shard=N labels), and without one
            # there is nothing to record.
            monitor._account(1, len(window), (), metrics=False)
            messages.append(msg)
        if jobs:
            w = int(jobs[0][1].index)
            self._window_hits[w] = self._window_hits.get(w, 0) + hits
            self._window_misses[w] = (
                self._window_misses.get(w, 0) + misses
            )
            registry = get_registry()
            if registry.enabled:
                labels = {"tenant": self.tenant} if self.tenant else {}
                if hits:
                    registry.counter(
                        "serving.prefetch.hits", **labels
                    ).inc(hits)
                if misses:
                    registry.counter(
                        "serving.prefetch.misses", **labels
                    ).inc(misses)
                total = hits + misses
                registry.gauge(
                    "serving.prefetch.miss_rate", **labels
                ).set(misses / total if total else 0.0)
                imbalance = self._window_imbalance.get(w)
                if imbalance is not None:
                    registry.gauge(
                        "serving.shard.imbalance", **labels
                    ).set(round(imbalance, 6))
        return messages

    def _window_signals(self, window: int) -> Dict[str, float]:
        signals = super()._window_signals(window)
        hits = self._window_hits.get(window, 0)
        misses = self._window_misses.get(window, 0)
        total = hits + misses
        if total:
            signals["prefetch_miss_rate"] = misses / total
        imbalance = self._window_imbalance.get(window)
        if imbalance is not None:
            signals["shard_imbalance"] = imbalance
        return signals

    # -- entry point --------------------------------------------------------
    def run(
        self,
        live: Trace,
        window_width: float,
        split_seed: int = 0,
        faults: object = _UNSET,
    ) -> "SystemReport":
        report = super().run(live, window_width, split_seed, faults)
        # Parent-process counterpart of the worker proc.* series:
        # cumulative totals under shard="parent".
        export_resources(get_registry(), sample_resources(), shard="parent")
        return report
