"""Chrome Trace Event Format export of an event journal.

``repro trace run.journal`` turns the flight recorder into a trace
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` can load:

* one **track per monitor** plus one for the Control Center (threads
  of a single "repro run" process, named via metadata events);
* one **track per shard worker** (``shard-N``) when the journal holds
  cross-process telemetry (:mod:`repro.serving.sharded`):
  ``shard.worker.batch`` events become prefetch slices sized by their
  measured duration, ``shard.fanin`` events become fan-in merge slices
  on the Control Center track, and prefetch/resource/summary events
  annotate their shard's track as instants;
* each lifecycle copy (``trace.sent`` → ``trace.delivered`` →
  ``trace.closed``) becomes a **flow** — an ``s`` arrow tail on the
  monitor's send slice, an optional ``t`` step on the arrival slice,
  and an ``f`` head on the closing slice — so a message's journey
  across tracks is a clickable arrow chain.  A dropped copy's head is
  its ``fault.drop`` event (which carries ``copy`` under lifecycle
  capture), on the monitor's track;
* faults (drops, duplicates, delays, reorders, crashes), installs,
  drift scores, recalibrations and SLO alerts are **instant events**
  annotating the track they happened on;
* each decoded window is a slice on the Control Center track carrying
  the full ``WindowReport`` accounting as args.

Timestamps are the journal's monotonic ``ts`` offsets converted to
microseconds (the format's unit).  The export is pure data massaging —
:func:`chrome_trace` takes the parsed event list and returns the
JSON-object form of the format (``{"traceEvents": [...]}``), and
:func:`unpaired_flows` is the validity check CI runs: every flow id
must have exactly one tail and one head.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

__all__ = ["chrome_trace", "unpaired_flows"]

#: The single process every track lives in.
_PID = 1
#: The Control Center's thread id; monitors get 1..N.
_CENTER_TID = 0

#: Events annotated on the Control Center track as instants.
_CENTER_INSTANTS = {
    "run_start", "run_end", "rebuild", "drift", "recalibration",
    "alert.fired", "alert.resolved",
}
#: Events annotated on their monitor's track as instants.
_MONITOR_INSTANTS = {
    "fault.drop", "fault.duplicate", "fault.delay", "fault.crash",
    "install", "trace.reordered",
}

#: Nominal slice width (µs) for point-in-time journal events rendered
#: as complete ("X") slices so flows have something to bind to.
_SLICE_DUR_US = 1


def _us(event: Dict) -> float:
    return round(float(event.get("ts", 0.0)) * 1e6, 3)


def _flow_id(event: Dict) -> str:
    """The deterministic trace id as a flow id string."""
    return (
        f"{event.get('monitor')}/w{event.get('window')}"
        f"/v{event.get('version')}/c{event.get('copy')}"
    )


def _args(event: Dict) -> Dict:
    """Event payload minus the journal envelope."""
    return {
        k: v
        for k, v in event.items()
        if k not in ("seq", "ts", "event")
    }


def chrome_trace(events: Sequence[Dict]) -> Dict:
    """Convert parsed journal events (:func:`~repro.obs.journal.
    read_journal`) into a Chrome Trace Event Format document."""
    monitors: List[str] = []
    seen: Set[str] = set()
    shards: List[int] = []
    shard_seen: Set[int] = set()
    for ev in events:
        name = ev.get("monitor")
        if isinstance(name, str) and name not in seen:
            seen.add(name)
            monitors.append(name)
        kind = ev.get("event")
        shard = ev.get("shard")
        if (
            isinstance(kind, str)
            and kind.startswith("shard.")
            and isinstance(shard, int)
            and shard not in shard_seen
        ):
            shard_seen.add(shard)
            shards.append(shard)
    monitors.sort()
    shards.sort()
    tid_of = {name: i + 1 for i, name in enumerate(monitors)}
    # Shard worker tracks sit below the monitor tracks.
    shard_tid_of = {
        shard: len(monitors) + 1 + i for i, shard in enumerate(shards)
    }

    out: List[Dict] = [
        {
            "ph": "M", "pid": _PID, "tid": _CENTER_TID,
            "name": "process_name", "args": {"name": "repro run"},
        },
        {
            "ph": "M", "pid": _PID, "tid": _CENTER_TID,
            "name": "thread_name", "args": {"name": "control-center"},
        },
    ]
    for name, tid in sorted(tid_of.items(), key=lambda kv: kv[1]):
        out.append({
            "ph": "M", "pid": _PID, "tid": tid,
            "name": "thread_name", "args": {"name": name},
        })
    for shard, tid in sorted(shard_tid_of.items(), key=lambda kv: kv[1]):
        out.append({
            "ph": "M", "pid": _PID, "tid": tid,
            "name": "thread_name", "args": {"name": f"shard-{shard}"},
        })

    def slice_with_flow(
        event: Dict, tid: int, name: str, phase: str
    ) -> None:
        ts = _us(event)
        out.append({
            "ph": "X", "pid": _PID, "tid": tid, "ts": ts,
            "dur": _SLICE_DUR_US, "name": name, "cat": "lifecycle",
            "args": _args(event),
        })
        flow = {
            "ph": phase, "pid": _PID, "tid": tid, "ts": ts,
            "id": _flow_id(event), "name": "delivery", "cat": "lifecycle",
        }
        if phase == "f":
            flow["bp"] = "e"  # bind the arrow head to the enclosing slice
        out.append(flow)

    for ev in events:
        kind = ev.get("event")
        mon_tid = tid_of.get(ev.get("monitor"), _CENTER_TID)
        if kind == "fault.drop" and "copy" in ev:
            # Also rendered as an instant below.
            slice_with_flow(ev, mon_tid, f"dropped w{ev.get('window')}", "f")
        if kind == "trace.sent":
            slice_with_flow(ev, mon_tid, f"send w{ev.get('window')}", "s")
        elif kind == "trace.delivered":
            slice_with_flow(
                ev, _CENTER_TID, f"arrive w{ev.get('window')}", "t"
            )
        elif kind == "trace.closed":
            name = f"{ev.get('outcome')} w{ev.get('window')}"
            slice_with_flow(ev, _CENTER_TID, name, "f")
        elif kind == "decode":
            out.append({
                "ph": "X", "pid": _PID, "tid": _CENTER_TID, "ts": _us(ev),
                "dur": _SLICE_DUR_US, "cat": "decode",
                "name": f"decode w{ev.get('window_index')}",
                "args": _args(ev),
            })
        elif kind == "shard.worker.batch":
            # Re-sequenced worker events land in the parent journal at
            # merge time, after the work; back-date the slice by its
            # measured duration so it reads as the build it was.
            dur = max(_SLICE_DUR_US, float(ev.get("duration_us", 0)))
            out.append({
                "ph": "X", "pid": _PID,
                "tid": shard_tid_of.get(ev.get("shard"), _CENTER_TID),
                "ts": max(0.0, _us(ev) - dur), "dur": dur,
                "cat": "serving",
                "name": f"prefetch {ev.get('monitor')}",
                "args": _args(ev),
            })
        elif kind == "shard.fanin":
            dur = max(_SLICE_DUR_US, float(ev.get("duration_us", 0)))
            out.append({
                "ph": "X", "pid": _PID, "tid": _CENTER_TID,
                "ts": max(0.0, _us(ev) - dur), "dur": dur,
                "cat": "serving",
                "name": f"fan-in w{ev.get('window')}",
                "args": _args(ev),
            })
        elif kind in ("shard.prefetch", "shard.worker.resources",
                      "shard.summary"):
            out.append({
                "ph": "i", "pid": _PID,
                "tid": shard_tid_of.get(ev.get("shard"), _CENTER_TID),
                "ts": _us(ev), "s": "t", "cat": "serving", "name": kind,
                "args": _args(ev),
            })
        elif kind in _MONITOR_INSTANTS:
            out.append({
                "ph": "i", "pid": _PID, "tid": mon_tid, "ts": _us(ev),
                "s": "t", "cat": "fault", "name": kind, "args": _args(ev),
            })
        elif kind in _CENTER_INSTANTS:
            out.append({
                "ph": "i", "pid": _PID, "tid": _CENTER_TID, "ts": _us(ev),
                "s": "t", "cat": "run", "name": kind, "args": _args(ev),
            })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro trace",
            "monitors": monitors,
            "shards": shards,
            "journal_events": len(events),
        },
    }


def unpaired_flows(doc: Dict) -> List[str]:
    """Flow ids missing their tail (``s``) or head (``f``) — a valid
    export returns ``[]`` (flow steps ``t`` are optional)."""
    tails: Dict[str, int] = {}
    heads: Dict[str, int] = {}
    steps: Set[str] = set()
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph not in ("s", "t", "f"):
            continue
        fid = str(ev.get("id"))
        if ph == "s":
            tails[fid] = tails.get(fid, 0) + 1
        elif ph == "f":
            heads[fid] = heads.get(fid, 0) + 1
        else:
            steps.add(fid)
    bad = []
    for fid in sorted(set(tails) | set(heads) | steps):
        if tails.get(fid) != 1 or heads.get(fid) != 1:
            bad.append(fid)
    return bad
