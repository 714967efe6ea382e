"""Sharded ingest with wire-level fan-in (the serving tentpole).

:class:`ShardedMonitoringSystem` promotes the single-process
:class:`~repro.streams.MonitoringSystem` loop into a ``shards=K``
engine while keeping its :class:`~repro.streams.SystemReport`
**bit-identical** to the serial run for the same seed — faults
included.  Three mechanisms, none of which touches the fault RNG:

1. **Shard prefetch.**  Before the window loop starts, every
   ``(monitor, window)`` histogram is built by shard worker processes:
   UIDs are hash-split across Monitors exactly as the serial run splits
   them (:meth:`~repro.streams.tuples.Trace.split` is seeded), the
   window buffers are placed in :mod:`multiprocessing.shared_memory`
   segments (workers read zero-copy ``int64``/``float64`` views), and
   each worker runs the batched
   :meth:`~repro.streams.Monitor.process_windows` kernel — which is
   property-tested bit-identical to the serial per-window build.
   Histogram *content* is independent of fault outcomes, so prefetch
   needs no fault model; the base loop then draws crash and delivery
   decisions in the exact serial order
   (:meth:`~repro.streams.faults.FaultModel.plan_decisions`) and simply
   consumes prefetched messages in phase 2.
2. **Wire-level fan-in.**  Each shard ships v2-encoded payloads; the
   :class:`FanInControlCenter` combines one window's shard histograms
   with the Control Center's k-way merge
   (:func:`repro.core.wire.merge_views`) and decodes **exactly once at
   the tenant boundary**.  It skips the per-payload parse the serial
   decode uses to validate link bytes, because the prefetch already
   holds each payload's histogram.  The estimates are bit-identical to
   the serial path (same merge and estimate code, and v2
   encode/decode is a lossless inverse).
3. **Batched ground truth.**  The exact per-window grouped aggregation
   is computed for the whole run in one flattened bincount
   (:func:`~repro.streams.query.exact_group_counts_batched`) and
   answered from the matrix.

If a prefetched message is missing or carries a stale function version
(e.g. an adaptive subclass rebuilt mid-run), phase 2 falls back to the
inline serial build for that job — correctness never depends on the
prefetch; ``prefetch_misses`` counts the fallbacks.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.partition import Histogram
# Re-exported for tools that wrap it by this name.
from ..core.wire import merge_views  # noqa: F401
from ..obs import (
    NULL_JOURNAL,
    NULL_TRACER,
    BufferJournal,
    MetricsRegistry,
    NullRegistry,
    capture_worker_snapshot,
    export_resources,
    get_journal,
    get_registry,
    merge_worker_snapshots,
    resource_delta,
    sample_resources,
    use_journal,
    use_registry,
    use_tracer,
    worker_resource_events,
)
from ..streams.control_center import ControlCenter
from ..streams.kernels import stream_kernel_mode, use_stream_kernel_mode
from ..streams.monitor import HistogramMessage, Monitor
from ..streams.query import exact_group_counts_batched
from ..streams.system import MonitoringSystem, SystemReport, _UNSET
from ..streams.tuples import Trace

__all__ = ["FanInControlCenter", "ShardedMonitoringSystem"]


class FanInControlCenter(ControlCenter):
    """Control center that fans shard histograms in without a parse.

    Shard messages arrive with their payload's histogram already
    unpacked by the prefetch (the v2 codec is a lossless inverse), so
    those are the merge views; merge and estimate are the base class's.
    Each fan-in is timed (``serving.fanin.*``, ``shard.fanin`` events).
    """

    def _views(self, usable):
        return [m.histogram for m in usable]

    def _merge_and_estimate(self, usable):
        registry = get_registry()
        journal = get_journal()
        timed = bool(usable) and (registry.enabled or journal.enabled)
        start = time.perf_counter() if timed else 0.0
        merged, estimates = super()._merge_and_estimate(usable)
        if timed:
            # The fan-in merge is the serving layer's per-window hot
            # spot; surface it as a timer plus a journal slice (the
            # Chrome trace exporter renders `shard.fanin` events on the
            # control-center track).
            duration = time.perf_counter() - start
            window = usable[0].window_index
            if registry.enabled:
                registry.timer("serving.fanin.duration").observe(duration)
                registry.counter("serving.fanin.payloads").inc(len(usable))
            if journal.enabled:
                journal.emit(
                    "shard.fanin",
                    window=window,
                    payloads=len(usable),
                    duration_us=round(duration * 1e6, 1),
                )
        return merged, estimates


def _shard_worker(task):
    """Build all of one shard's (monitor, window) histograms.

    Runs in a worker process with the parent's stream kernel mode
    pinned explicitly so a ``spawn`` start method cannot drift from
    the serial build.  Returns pickled
    :class:`~repro.streams.monitor.HistogramMessage` lists — histogram
    arrays are fresh bincount outputs, never views into the shared
    segments.

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
        # buffers are alive).  Histogram arrays are bincount outputs —
        # fresh memory, never views.
        uid_buf = np.ndarray((total_tuples,), dtype=np.int64, buffer=shm.buf)
        val_buf = (
            np.ndarray((total_tuples,), dtype=np.float64, buffer=vshm.buf)
            if vshm is not None
            else None
        )
        results = []
        for name, wins in monitor_jobs:
            batch_start = time.perf_counter()
            monitor = Monitor(name, wire_format="v2")
            monitor.install_function(function, version)
            indices = [w for (w, _off, _n, _hv) in wins]
            arrays = [uid_buf[off:off + n] for (_w, off, n, _hv) in wins]
            if val_buf is not None and all(hv for (*_rest, hv) in wins):
                vals = [val_buf[off:off + n] for (_w, off, n, _hv) in wins]
                messages = monitor.process_windows(indices, arrays, vals)
            elif val_buf is not None:
                # Mixed weighted/unweighted windows (cannot happen
                # from Trace.split, but keep the slow exact path).
                messages = [
                    monitor.process_window(
                        w,
                        uid_buf[off:off + n],
                        values=val_buf[off:off + n] if hv else None,
                    )
                    for (w, off, n, hv) in wins
                ]
            else:
                messages = monitor.process_windows(indices, arrays)
            if buffer.enabled:
                buffer.emit(
                    "batch",
                    monitor=name,
                    windows=len(messages),
                    tuples=sum(n for (_w, _o, n, _hv) in wins),
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
                use_tracer(NULL_TRACER), use_stream_kernel_mode(mode):
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
    """Flatten one monitor's messages into a few large objects for the
    result pipe: per-message pickling of thousands of small arrays,
    payload bytes and dataclass instances costs more than the build
    itself, while a handful of concatenated arrays plus one payload
    blob crosses the pipe almost for free.  :func:`_unpack_messages`
    reconstructs messages with histogram arrays that are slices of the
    blobs — every downstream consumer (the k-way merge, accounting,
    byte charging) only reads them."""
    indices = np.asarray([m.window_index for m in messages], dtype=np.int64)
    lengths = np.asarray(
        [m.histogram.nodes.size for m in messages], dtype=np.int64
    )
    nodes = (
        np.concatenate([m.histogram.nodes for m in messages])
        if messages
        else np.empty(0, dtype=np.int64)
    )
    values = (
        np.concatenate([m.histogram.values for m in messages])
        if messages
        else np.empty(0, dtype=np.float64)
    )
    unmatched = np.asarray(
        [m.histogram.unmatched for m in messages], dtype=np.float64
    )
    totals = np.asarray(
        [m.histogram.total for m in messages], dtype=np.float64
    )
    payload_lengths = np.asarray(
        [len(m.payload) for m in messages], dtype=np.int64
    )
    payload_blob = b"".join(m.payload for m in messages)
    return (
        name, indices, lengths, nodes, values, unmatched, totals,
        payload_lengths, payload_blob,
    )


def _unpack_messages(packed, function_version):
    """Inverse of :func:`_pack_messages`."""
    (
        name, indices, lengths, nodes, values, unmatched, totals,
        payload_lengths, payload_blob,
    ) = packed
    messages = []
    bucket_off = 0
    payload_off = 0
    for i in range(int(indices.size)):
        n = int(lengths[i])
        p = int(payload_lengths[i])
        histogram = Histogram.__new__(Histogram)
        histogram.nodes = nodes[bucket_off:bucket_off + n]
        histogram.values = values[bucket_off:bucket_off + n]
        histogram.unmatched = float(unmatched[i])
        histogram.total = float(totals[i])
        histogram._dict = None
        messages.append(
            HistogramMessage(
                monitor=name,
                window_index=int(indices[i]),
                histogram=histogram,
                function_version=function_version,
                payload=payload_blob[payload_off:payload_off + p],
            )
        )
        bucket_off += n
        payload_off += p
    return name, messages


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
    worker_telemetry:
        When true (the default) **and** a live registry or journal is
        scoped in the parent at prefetch time, shard workers run a real
        local :class:`~repro.obs.MetricsRegistry` plus an in-memory
        :class:`~repro.obs.BufferJournal` and ship a
        :mod:`repro.obs.crossproc` snapshot back with the results; the
        parent merges the metrics under ``shard=N`` labels and
        re-sequences the events as ``shard.worker.*`` in deterministic
        ``(shard, seq)`` order.  With observability disabled (or this
        flag off) workers run fully nulled and nothing changes on the
        wire — reports and journals stay byte-identical.
    """

    control_center_class = FanInControlCenter

    def __init__(
        self,
        table,
        metric,
        num_monitors: int = 4,
        shards: int = 2,
        tenant: Optional[str] = None,
        wire_format: str = "v2",
        worker_telemetry: bool = True,
        **kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if wire_format != "v2":
            raise ValueError(
                "sharded serving fans histograms in at the wire level; "
                f"wire_format must be 'v2', got {wire_format!r}"
            )
        super().__init__(
            table, metric, num_monitors=num_monitors,
            wire_format=wire_format, **kwargs,
        )
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
        #: Segmentation computed by the prefetch pass, handed to the
        #: base loop so the (deterministic) split/segment work runs
        #: once per run.  Keyed by the run parameters as a guard.
        self._segmented_cache: Optional[Tuple[Tuple[int, float, int], List[list]]] = None
        #: window index -> exact per-group aggregates row.
        self._truth: Dict[int, np.ndarray] = {}
        self._truth_sizes: Dict[int, int] = {}
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        self.worker_telemetry = worker_telemetry
        #: Monotonic snapshot sequence: one per prefetch pass, shared
        #: by every shard in that pass (the merge orders by
        #: ``(shard, seq)``, so within one pass shards disambiguate).
        self._telemetry_seq = 0
        #: True while worker ``monitor.*`` metrics for the current run
        #: were merged into the parent registry — prefetch hits then
        #: replay accounting with ``metrics=False`` so nothing is
        #: counted twice.
        self._worker_metrics_merged = False
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
        """Flush per-shard resource totals as ``serving.shard.*``
        gauges and ``shard.summary`` journal events, then reset."""
        usage, self._shard_resources = self._shard_resources, {}
        if not usage:
            return
        registry = get_registry()
        journal = get_journal()
        labels = {"tenant": self.tenant} if self.tenant else {}
        for shard in sorted(usage):
            summary = usage[shard]
            cpu_s = round(summary["cpu_s"], 6)
            if registry.enabled:
                registry.gauge(
                    "serving.shard.cpu_seconds", shard=str(shard), **labels
                ).set(cpu_s)
                registry.gauge(
                    "serving.shard.max_rss_kb", shard=str(shard), **labels
                ).set(summary["max_rss_kb"])
            if journal.enabled:
                journal.emit(
                    "shard.summary",
                    shard=shard,
                    tenant=self.tenant or "",
                    batches=int(summary["batches"]),
                    cpu_s=cpu_s,
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
    def _segment_shares(
        self, live: Trace, window_width: float, split_seed: int
    ) -> List[list]:
        """Reuse the prefetch pass's decomposition when the base loop
        asks for the same one (split and segmentation are
        deterministic, so it is exactly what the base computation would
        return); recompute otherwise."""
        cached = self._segmented_cache
        if cached is not None:
            key, segmented = cached
            if key == (id(live), float(window_width), int(split_seed)):
                return segmented
        return super()._segment_shares(live, window_width, split_seed)

    def _prefetch_truth(self, segmented: List[list], n_windows: int) -> None:
        plain: List[Tuple[int, np.ndarray]] = []
        weighted: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for w in range(n_windows):
            window_uids = [s[w].uids for s in segmented if w < len(s)]
            if not window_uids:
                continue
            window_values = [
                s[w].values
                for s in segmented
                if w < len(s) and s[w].values is not None
            ]
            uids = np.concatenate(window_uids)
            # Same all-or-nothing rule as the base loop: a window where
            # some share lacks values is scored unweighted.
            if len(window_values) == len(window_uids):
                weighted.append((w, uids, np.concatenate(window_values)))
            else:
                plain.append((w, uids))
        if plain:
            rows = exact_group_counts_batched(
                self.table, [u for _w, u in plain]
            )
            for (w, u), row in zip(plain, rows):
                self._truth[w] = row
                self._truth_sizes[w] = int(u.size)
        if weighted:
            rows = exact_group_counts_batched(
                self.table,
                [u for _w, u, _v in weighted],
                [v for _w, _u, v in weighted],
            )
            for (w, u, _v), row in zip(weighted, rows):
                self._truth[w] = row
                self._truth_sizes[w] = int(u.size)

    def _prefetch(
        self, live: Trace, window_width: float, split_seed: int
    ) -> None:
        cc = self.control_center
        segmented = MonitoringSystem._segment_shares(
            self, live, window_width, split_seed
        )
        self._segmented_cache = (
            (id(live), float(window_width), int(split_seed)),
            segmented,
        )
        n_windows = max((len(s) for s in segmented), default=0)
        if n_windows == 0:
            return
        self._prefetch_truth(segmented, n_windows)
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
                    win_has_values = win.values is not None
                    if val_buf is not None and win_has_values:
                        val_buf[offset:offset + n] = win.values
                    wins.append((win.index, offset, n, win_has_values))
                    offset += n
                shard_jobs[i % self.shards].append((monitor.name, wins))
            registry = get_registry()
            journal = get_journal()
            telemetry = None
            if self.worker_telemetry and (
                registry.enabled or journal.enabled
            ):
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
            for shard, results, snapshot in pool.map(_shard_worker, tasks):
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
        labels = {"tenant": self.tenant} if self.tenant else {}
        for shard, jobs in enumerate(shard_jobs):
            if not jobs:
                continue
            windows = sum(len(wins) for _name, wins in jobs)
            tuples = sum(n for _name, wins in jobs for (_w, _o, n, _hv) in wins)
            if registry.enabled:
                registry.counter(
                    "serving.shard.windows", shard=str(shard), **labels
                ).inc(windows)
                registry.counter(
                    "serving.shard.tuples", shard=str(shard), **labels
                ).inc(tuples)
                registry.counter(
                    "serving.shard.payload_bytes", shard=str(shard), **labels
                ).inc(shard_bytes[shard])
            if journal.enabled:
                journal.emit(
                    "shard.prefetch",
                    shard=shard,
                    tenant=self.tenant or "",
                    monitors=[name for name, _wins in jobs],
                    windows=windows,
                    tuples=tuples,
                    payload_bytes=shard_bytes[shard],
                )
        if snapshots:
            # Deterministic fan-in: metrics merge under shard=N labels,
            # worker events re-sequence as shard.worker.* in
            # (shard, seq) order.  Resource deltas accumulate for the
            # close()-time per-shard summaries.
            merge_worker_snapshots(registry, journal, snapshots)
            if registry.enabled:
                self._worker_metrics_merged = True
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
                for (w, _off, n, _hv) in wins:
                    per_window.setdefault(
                        w, [0.0] * self.shards
                    )[shard] += n
        for w, tuples in per_window.items():
            mean = sum(tuples) / len(tuples)
            self._window_imbalance[w] = (
                max(tuples) / mean if mean > 0 else 0.0
            )

    # -- base-loop hooks ----------------------------------------------------
    def _partition_jobs(self, pool, jobs):
        prefetched = self._prefetched
        if not prefetched:
            return super()._partition_jobs(pool, jobs)
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
            # accounting; replay it on the real one so lifetime stats
            # match the serial run.  When the worker's own registry was
            # merged (telemetry on) the monitor.* metrics already exist
            # under shard=N labels, so skip them here — otherwise every
            # hit window would be counted twice.
            monitor._account(
                1,
                len(window),
                (msg.histogram,),
                metrics=not self._worker_metrics_merged,
            )
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

    def _ground_truth(self, window, uids, values):
        row = self._truth.get(window)
        if row is not None and self._truth_sizes.get(window) == int(uids.size):
            return row
        return super()._ground_truth(window, uids, values)

    # -- entry point --------------------------------------------------------
    def run(
        self,
        live: Trace,
        window_width: float,
        split_seed: int = 0,
        faults: object = _UNSET,
    ) -> "SystemReport":
        self._prefetched = {}
        self._truth = {}
        self._truth_sizes = {}
        self._segmented_cache = None
        self._worker_metrics_merged = False
        self._window_hits = {}
        self._window_misses = {}
        self._window_imbalance = {}
        if self.control_center.function is not None:
            # Untrained systems skip straight to the base loop's
            # "call train() before run()" error.
            self._prefetch(live, window_width, split_seed)
        try:
            report = super().run(live, window_width, split_seed, faults)
            registry = get_registry()
            if registry.enabled:
                # Parent-process counterpart of the worker proc.*
                # series: cumulative totals under shard="parent".
                export_resources(
                    registry, sample_resources(), shard="parent"
                )
            return report
        finally:
            # Per-run caches can pin the whole live trace; drop them.
            self._segmented_cache = None
            self._truth = {}
            self._truth_sizes = {}
