"""Outside-in traced run: spans around the public calls into each layer.

The benchmark wraps the calls from its own files; the program is not
changed.  Names are patched where they are looked up: ``system.py``
imports ``exact_group_counts`` and ``emit_window_record`` by name,
``monitor.py`` the v2 encoders, ``control_center.py`` ``build``,
``merge_wire`` and ``new_session``, and ``serving/sharded.py``
``exact_group_counts_batched``, ``merge_views`` and
``merge_worker_snapshots``.  Wrapping only the defining module would
silently measure nothing.

Each span records (name, start, end, parent, window, phase); the window
is the request id: spans opened after ``decode_window`` returned for
window ``k-1`` belong to window ``k``.  Spans stay in memory and are
written out when the benchmark ends.  Worker processes forked while the
patches are live skip recording (their spans could not reach the
parent anyway).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.serving.sharded as sharded_module
import repro.streams.control_center as control_center_module
import repro.streams.monitor as monitor_module
import repro.streams.system as system_module
from repro.core.compiled import CompiledEstimator, CompiledPartitioner
from repro.obs.quality import QualityTracker
from repro.streams import ControlCenter, Monitor, Trace, TumblingWindows
from repro.streams.channel import Channel

__all__ = ["Recorder", "Span", "durations", "median_or_zero", "self_times"]

#: (name, start_ns, end_ns, parent index, window, phase)
Span = Tuple[str, int, int, int, int, str]


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        self.phase = "setup"
        #: Windows decoded so far in the current run (the request id).
        self.window = -1
        #: Extra per-call facts: name -> list of values.
        self.facts: Dict[str, List[object]] = {}

    # -- span recording -----------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent,
                           self.window + 1, self.phase))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, window, phase = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, window, phase)

    def wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        rec = self

        def traced(*args, **kwargs):
            if os.getpid() != rec._pid:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            func = raw.__func__
            self._set(owner, attr, classmethod(self.wrap(name, func)))
        else:
            self._set(owner, attr, self.wrap(name, raw, on_result))

    def fact(self, key: str, value) -> None:
        self.facts.setdefault(key, []).append(value)

    def install(self) -> None:
        """Patch every layer boundary the benchmark measures."""
        self.patch(Trace, "split", "streams.split")
        # A generator: the work happens while it is drained, so the span
        # materializes it (every caller drains it anyway).
        segment = TumblingWindows.__dict__["segment"]
        self._set(TumblingWindows, "segment", self.wrap(
            "streams.segment",
            lambda windows, trace: iter(list(segment(windows, trace))),
        ))
        self.patch(Monitor, "process_window", "streams.partition")
        self.patch(Monitor, "process_windows", "streams.partition")
        self.patch(Channel, "send_histogram", "streams.channel")
        self.patch(
            Channel, "send_function", "streams.install",
            on_result=lambda _args, acked: self.fact("installs", acked),
        )
        self.patch(system_module, "exact_group_counts", "streams.truth")
        self.patch(
            sharded_module, "exact_group_counts_batched", "streams.truth"
        )

        def count_decode(_args, _result):
            self.window += 1

        self.patch(
            ControlCenter, "decode_window", "streams.decode",
            on_result=count_decode,
        )
        self.patch(ControlCenter, "error", "streams.score")
        for attr in ("build_histogram", "build_histograms"):
            self.patch(
                CompiledPartitioner, attr, "core.build_histogram",
                on_result=self._kernel_tuples,
            )
        self.patch(monitor_module, "encode_histogram_v2", "core.encode")
        self.patch(monitor_module, "encode_histograms_v2", "core.encode")
        self.patch(control_center_module, "merge_wire", "core.merge_wire")
        self.patch(sharded_module, "merge_views", "core.merge_wire")
        self.patch(CompiledEstimator, "estimate", "core.estimate")
        self.patch(CompiledPartitioner, "for_function", "core.compile")
        self.patch(CompiledEstimator, "for_pair", "core.compile")
        self.patch(
            ControlCenter, "rebuild_function", "algorithms.rebuild"
        )
        self.patch(control_center_module, "build", "algorithms.build")
        self.patch(
            control_center_module, "new_session", "algorithms.session",
            on_result=lambda _args, session: self.fact("sessions", session),
        )
        self.patch(
            sharded_module, "merge_worker_snapshots", "obs.crossproc_merge"
        )
        self.patch(QualityTracker, "observe", "obs.quality")
        self.patch(system_module, "emit_window_record", "obs.window_record")

    def _kernel_tuples(self, args, _result) -> None:
        uids = args[1]
        if isinstance(uids, (list, tuple)):
            self.fact("kernel_tuples", sum(len(u) for u in uids))
        else:
            self.fact("kernel_tuples", len(uids))

    def wrap_journal(self, journal) -> None:
        """Time ``emit`` on a journal object the benchmark created."""
        journal.emit = self.wrap("obs.journal_emit", journal.emit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                name, start, end, parent, window, phase = s
                f.write(json.dumps({
                    "id": i, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "window": window,
                    "phase": phase,
                }) + "\n")


def self_times(spans: List[Span], phase: str) -> Dict[str, float]:
    """Self time (seconds) per span name within ``phase``: each span's
    duration minus the part its child spans cover."""
    child = [0] * len(spans)
    for name, start, end, parent, _w, _p in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _parent, _w, p) in enumerate(spans):
        if p == phase:
            out[name] = out.get(name, 0.0) + (end - start - child[i]) / 1e9
    return out


def durations(spans: List[Span], name: str, phase=None) -> List[float]:
    """Wall durations (seconds) of every span called ``name``."""
    return [
        (end - start) / 1e9
        for n, start, end, _parent, _w, p in spans
        if n == name and (phase is None or p == phase)
    ]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
