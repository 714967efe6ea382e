"""``repro top`` — an in-terminal dashboard over a live run.

Renders per-window telemetry — error proxy / actual error, decode
coverage, trash-bin spill, drift, fault counters, ingest rate — from
either of the two live surfaces a run exposes:

* an **event journal** (``repro simulate --journal run.journal``):
  decode events carry the full per-window accounting, fault events the
  degradation story; the dashboard tails the file (lenient reads
  tolerate a partially flushed last line) and exits once it sees the
  ``run_end`` event;
* a **metrics server URL** (``repro simulate --serve-metrics :9100``):
  the per-window record series is fetched from
  ``<url>/series.json`` (:mod:`repro.obs.snapshots`); here the error
  column is the window's measured error from the
  ``system.window.error`` histogram delta and the quality gauges ride
  along.

Rendering is plain text (one screenful, ANSI clear between refreshes
when stdout is a TTY) so it works over ssh and in CI logs alike.
"""

from __future__ import annotations

import json
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .facts import REDUCERS
from .journal import read_journal
from .registry import MetricsRegistry

__all__ = ["TopRow", "TopSource", "TopState", "load_state", "render_top"]


@dataclass(frozen=True)
class TopRow:
    """One decoded window as the dashboard shows it."""

    window: int
    ts: Optional[float] = None
    tuples: Optional[int] = None
    error: Optional[float] = None
    coverage: Optional[float] = None
    spill: Optional[float] = None
    drift: Optional[float] = None
    bytes: Optional[int] = None
    reporting: Optional[int] = None


@dataclass
class TopState:
    """Everything one refresh of the dashboard needs."""

    source: str
    rows: List[TopRow] = field(default_factory=list)
    #: Cumulative degradation/install counters.
    counters: Dict[str, float] = field(default_factory=dict)
    #: SLO alert history as dicts (``rule``, ``fired_window``,
    #: ``value``, ``threshold``, ``resolved_window``), open alerts
    #: having ``resolved_window`` None.
    alerts: List[Dict] = field(default_factory=list)
    #: Per-shard rollups (shard id -> short-key dict: ``windows``,
    #: ``tuples``, ``bytes``, ``cpu_s``, ``rss_kb``) from
    #: ``shard.prefetch`` / ``shard.worker.resources`` events or the
    #: ``/shards.json`` endpoint.  The parent process appears as
    #: shard ``"parent"``.
    shards: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-tenant rollups (``windows``, ``bytes``, ``mean_error``,
    #: ``over_budget``).
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)
    finished: bool = False

    @property
    def active_alerts(self) -> List[Dict]:
        return [a for a in self.alerts if a.get("resolved_window") is None]

    @property
    def total_tuples(self) -> int:
        return sum(r.tuples or 0 for r in self.rows)

    @property
    def mean_error(self) -> float:
        errors = [r.error for r in self.rows if r.error is not None]
        return sum(errors) / len(errors) if errors else 0.0

    @property
    def ingest_rate(self) -> float:
        """Tuples/second over the observed windows (0 until two
        timestamped windows exist)."""
        timed = [r for r in self.rows if r.ts is not None]
        if len(timed) < 2:
            return 0.0
        elapsed = timed[-1].ts - timed[0].ts
        if elapsed <= 0:
            return 0.0
        return sum(r.tuples or 0 for r in timed[1:]) / elapsed


#: Registry counters -> dashboard counter keys (both modes).
_SERIES_COUNTERS = {
    "channel.faults.dropped": "drop",
    "channel.faults.duplicated": "dup",
    "channel.faults.delayed": "delay",
    "system.monitor.crashes": "crash",
    "system.messages.late": "late",
    "control.install.attempts": "installs",
    "control.install.retries": "retries",
    "system.recalibrations": "recalibrations",
}

#: Journal events whose :data:`~repro.obs.facts.REDUCERS` rows update
#: :data:`_SERIES_COUNTERS`.
_COUNTER_EVENTS = frozenset((
    "decode", "fault.drop", "fault.duplicate", "fault.delay",
    "fault.crash", "install", "recalibration",
))


def state_from_journal(events: List[Dict], source: str) -> TopState:
    """Fold journal events into dashboard state.

    The degradation/install counters come from folding the events that
    carry them through :data:`~repro.obs.facts.REDUCERS` into a scratch
    registry and reading :data:`_SERIES_COUNTERS` off it — the same
    counters series mode reads, so both modes agree on one run.
    """
    state = TopState(source=source)
    registry = MetricsRegistry()
    for ev in events:
        kind = ev.get("event")
        if kind in _COUNTER_EVENTS:
            REDUCERS[kind](registry, ev)
        if kind == "decode":
            state.rows.append(
                TopRow(
                    window=int(ev.get("window_index", len(state.rows))),
                    ts=ev.get("ts"),
                    tuples=ev.get("tuples"),
                    error=ev.get("error"),
                    coverage=ev.get("coverage"),
                    spill=ev.get("spill_fraction"),
                    drift=ev.get("drift_score"),
                    bytes=ev.get("histogram_bytes"),
                    reporting=ev.get("monitors_reporting"),
                )
            )
        elif kind == "alert.fired":
            state.alerts.append({
                "rule": ev.get("rule"),
                "fired_window": ev.get("window"),
                "value": ev.get("value"),
                "threshold": ev.get("threshold"),
                "resolved_window": None,
            })
        elif kind == "alert.resolved":
            rule = ev.get("rule")
            for alert in reversed(state.alerts):
                if alert["rule"] == rule and alert["resolved_window"] is None:
                    alert["resolved_window"] = ev.get("window")
                    break
        elif kind == "shard.prefetch":
            entry = state.shards.setdefault(str(ev.get("shard")), {})
            for key, src in (
                ("windows", "windows"),
                ("tuples", "tuples"),
                ("bytes", "payload_bytes"),
            ):
                value = ev.get(src)
                if value is not None:
                    entry[key] = entry.get(key, 0) + value
        elif kind == "shard.worker.resources":
            entry = state.shards.setdefault(str(ev.get("shard")), {})
            cpu = float(ev.get("cpu_user_s", 0.0)) + float(
                ev.get("cpu_system_s", 0.0)
            )
            entry["cpu_s"] = entry.get("cpu_s", 0.0) + cpu
            entry["rss_kb"] = max(
                entry.get("rss_kb", 0.0), float(ev.get("max_rss_kb", 0.0))
            )
        elif kind == "tenant.report":
            entry = state.tenants.setdefault(str(ev.get("tenant")), {})
            for key, src in (
                ("windows", "windows"),
                ("bytes", "bytes_used"),
            ):
                value = ev.get(src)
                if value is not None:
                    entry[key] = entry.get(key, 0) + value
            if ev.get("mean_error") is not None:
                entry["mean_error"] = float(ev["mean_error"])
            if ev.get("over_budget"):
                entry["over_budget"] = entry.get("over_budget", 0) + 1
        elif kind == "run_end":
            state.finished = True
    for key, short in _SERIES_COUNTERS.items():
        value = registry.counter(key).value
        if value:
            state.counters[short] = value
    return state



def state_from_series(records: List[Dict], source: str) -> TopState:
    """Fold per-window records (``/series.json``) into
    dashboard state."""
    state = TopState(source=source)
    for rec in records:
        counters = rec.get("counters", {})
        gauges = rec.get("gauges", {})
        hists = dict(rec.get("histograms", {}))
        hists.update(rec.get("timers", {}))
        error_dist = hists.get("system.window.error")
        bytes_dist = hists.get("system.window.bytes")
        reporting_dist = hists.get("system.window.monitors_reporting")
        tuples = counters.get("system.tuples")
        state.rows.append(
            TopRow(
                window=int(rec.get("window") or len(state.rows)),
                ts=rec.get("ts"),
                tuples=int(tuples) if tuples is not None else None,
                error=error_dist["mean"] if error_dist else None,
                coverage=gauges.get("quality.coverage"),
                spill=gauges.get("quality.spill_fraction"),
                drift=gauges.get("quality.drift_score"),
                bytes=int(bytes_dist["sum"]) if bytes_dist else None,
                reporting=(
                    int(round(reporting_dist["mean"]))
                    if reporting_dist
                    else None
                ),
            )
        )
        for key, short in _SERIES_COUNTERS.items():
            delta = counters.get(key)
            if delta:
                state.counters[short] = state.counters.get(short, 0) + delta
    return state


def _fold_shard_summary(state: TopState, doc: Dict) -> None:
    """Normalize a ``/shards.json`` document (full metric names per
    shard/tenant) into the dashboard's short-key rollups.  Values are
    registry totals, so they replace rather than accumulate."""
    for shard, series in doc.get("shards", {}).items():
        entry = state.shards.setdefault(str(shard), {})
        for key, src in (
            ("windows", "serving.shard.windows"),
            ("tuples", "serving.shard.tuples"),
            ("bytes", "serving.shard.payload_bytes"),
        ):
            if src in series:
                entry[key] = series[src]
        cpu = series.get("serving.shard.cpu_seconds")
        if cpu is None and (
            "proc.cpu.user_seconds" in series
            or "proc.cpu.system_seconds" in series
        ):
            cpu = series.get("proc.cpu.user_seconds", 0.0) + series.get(
                "proc.cpu.system_seconds", 0.0
            )
        if cpu is not None:
            entry["cpu_s"] = cpu
        rss = series.get(
            "serving.shard.max_rss_kb", series.get("proc.rss.max_kb")
        )
        if rss is not None:
            entry["rss_kb"] = rss
    for tenant, series in doc.get("tenants", {}).items():
        entry = state.tenants.setdefault(str(tenant), {})
        for key, src in (
            ("windows", "serving.tenant.windows"),
            ("bytes", "serving.tenant.bytes"),
            ("mean_error", "serving.tenant.mean_error"),
            ("over_budget", "serving.tenant.over_budget"),
        ):
            if src in series:
                entry[key] = series[src]


class TopSource:
    """Stateful poller behind the ``repro top`` refresh loop.

    URL mode fetches ``/series.json?since=N`` (``N`` = records already
    held) so each window record crosses the wire exactly once, then
    polls ``/alerts.json`` and ``/shards.json`` best-effort for the
    alert and shards/tenants panes.  Journal mode re-reads the file
    leniently each poll — the page cache makes that cheap and the
    lenient parser already tolerates the live tail.
    """

    def __init__(self, source: str, timeout: float = 5.0) -> None:
        self.source = source
        self.timeout = timeout
        self.is_url = source.startswith(("http://", "https://"))
        self._records: List[Dict] = []

    def poll(self) -> TopState:
        """Fetch whatever is new and fold it into a fresh state."""
        if not self.is_url:
            return state_from_journal(
                read_journal(self.source, strict=False), self.source
            )
        base = self.source.rstrip("/")
        url = f"{base}/series.json?since={len(self._records)}"
        with urllib.request.urlopen(url, timeout=self.timeout) as resp:
            fresh = json.loads(resp.read().decode("utf-8"))
        self._records.extend(fresh)
        state = state_from_series(self._records, self.source)
        try:
            with urllib.request.urlopen(
                f"{base}/alerts.json", timeout=self.timeout
            ) as resp:
                doc = json.loads(resp.read().decode("utf-8"))
            state.alerts = list(doc.get("alerts", []))
        except Exception:
            pass  # pre-SLO server — the alert pane just stays empty
        try:
            with urllib.request.urlopen(
                f"{base}/shards.json", timeout=self.timeout
            ) as resp:
                doc = json.loads(resp.read().decode("utf-8"))
            _fold_shard_summary(state, doc)
        except Exception:
            pass  # pre-sharding server — the shards pane stays empty
        return state


def load_state(source: str, timeout: float = 5.0) -> TopState:
    """One-shot dashboard state from a journal path or metrics-server
    URL (a single :class:`TopSource` poll)."""
    return TopSource(source, timeout=timeout).poll()


def _fmt(value, spec: str, width: int) -> str:
    if value is None:
        return "-".rjust(width)
    return format(value, spec).rjust(width)


def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M tup/s"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k tup/s"
    return f"{rate:.0f} tup/s"


def render_top(state: TopState, max_rows: int = 12) -> str:
    """One screenful of dashboard."""
    out: List[str] = []
    status = "finished" if state.finished else "running"
    out.append(
        f"repro top — {state.source}  [{status}]"
    )
    out.append(
        f"windows {len(state.rows)}   tuples {state.total_tuples:,}   "
        f"ingest {_fmt_rate(state.ingest_rate)}   "
        f"mean error {state.mean_error:.4g}"
    )
    if state.counters:
        parts = [
            f"{key} {int(value)}"
            for key, value in sorted(state.counters.items())
        ]
        out.append("faults/installs: " + "  ".join(parts))
    if state.shards:
        out.append(
            f"shards: {'shard':>8} {'windows':>8} {'tuples':>10} "
            f"{'bytes':>10} {'cpu(s)':>8} {'rss(MB)':>8}"
        )
        # Numeric shard ids first (in order), then "parent" and any
        # other named processes.
        def _shard_order(item):
            key = item[0]
            return (0, int(key), key) if key.isdigit() else (1, 0, key)
        for shard, e in sorted(state.shards.items(), key=_shard_order):
            rss = e.get("rss_kb")
            out.append(
                f"        {shard:>8}"
                f" {_fmt(e.get('windows'), '.0f', 8)}"
                f" {_fmt(e.get('tuples'), '.0f', 10)}"
                f" {_fmt(e.get('bytes'), '.0f', 10)}"
                f" {_fmt(e.get('cpu_s'), '.2f', 8)}"
                f" {_fmt(rss / 1024.0 if rss is not None else None, '.1f', 8)}"
            )
    if state.tenants:
        out.append(
            f"tenants: {'tenant':>10} {'windows':>8} {'bytes':>10} "
            f"{'mean err':>10} {'over':>5}"
        )
        for tenant, e in sorted(state.tenants.items()):
            out.append(
                f"         {tenant:>10}"
                f" {_fmt(e.get('windows'), '.0f', 8)}"
                f" {_fmt(e.get('bytes'), '.0f', 10)}"
                f" {_fmt(e.get('mean_error'), '.4g', 10)}"
                f" {_fmt(e.get('over_budget'), '.0f', 5)}"
            )
    if state.alerts:
        active = state.active_alerts
        out.append(
            f"alerts: {len(active)} firing / {len(state.alerts)} total"
        )
        for alert in state.alerts[-5:]:
            resolved = alert.get("resolved_window")
            status = (
                "FIRING" if resolved is None else f"resolved w{resolved}"
            )
            value = alert.get("value")
            value_text = (
                f"{value:.4g}" if isinstance(value, (int, float)) else "-"
            )
            out.append(
                f"  [{status:>12}] {alert.get('rule')}  "
                f"fired w{alert.get('fired_window')}  value {value_text}"
            )
    out.append("")
    header = (
        f"{'win':>5} {'tuples':>9} {'error':>10} {'cover':>6} "
        f"{'spill':>6} {'drift':>6} {'bytes':>8} {'rep':>4}  error bar"
    )
    out.append(header)
    rows = state.rows[-max_rows:]
    max_error = max(
        (r.error for r in rows if r.error is not None), default=0.0
    )
    for r in rows:
        bar = ""
        if r.error is not None and max_error > 0:
            bar = "#" * max(1, round(20 * r.error / max_error))
        out.append(
            f"{r.window:>5}"
            f" {_fmt(r.tuples, 'd', 9)}"
            f" {_fmt(r.error, '.4g', 10)}"
            f" {_fmt(r.coverage, '.2f', 6)}"
            f" {_fmt(r.spill, '.3f', 6)}"
            f" {_fmt(r.drift, '.3f', 6)}"
            f" {_fmt(r.bytes, 'd', 8)}"
            f" {_fmt(r.reporting, 'd', 4)}"
            f"  {bar}"
        )
    if not rows:
        out.append("  (no decoded windows yet)")
    return "\n".join(out) + "\n"
