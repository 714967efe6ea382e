"""Declarative per-window SLOs and the alerting engine over them.

A rule is one comparison against a per-window signal::

    coverage>=0.9            # decode coverage must stay at/above 0.9
    delivery_p99_windows<=2  # p99 end-to-end delivery age, in windows
    drift_score<=0.5         # anchored drift must stay inside budget

Signals come from the per-window accounting the run already produces —
every numeric :class:`~repro.streams.system.WindowReport` field
(``coverage``, ``drift_score``, ``spill_fraction``, ``error``,
``late_messages``, ...) plus, while lifecycle capture is on
(:func:`~repro.obs.facts.use_lifecycle`, ``--trace``), exact
``delivery_p50_windows`` / ``delivery_p90_windows`` /
``delivery_p99_windows`` quantiles over the ages of the copies the
window loop closed as delivered in that window.

The engine is a per-rule alert state machine evaluated once per
decoded window:

* a rule that goes out of bounds **fires** — an ``alert.fired``
  journal event, an ``slo.alerts.fired`` counter tick, and the
  ``slo.breached`` gauge (labelled by rule) set to 1;
* a firing rule that comes back in bounds **resolves** —
  ``alert.resolved`` journal event, gauge back to 0;
* every evaluation exports the observed value as the ``slo.value``
  gauge for that rule.

Alert history lands on ``SystemReport.alerts`` (and is rebuilt
bit-identically from the journal by ``repro replay``), is served live
at ``/alerts.json`` by the metrics server, and gets a pane in
``repro top``.

Like the registry and the journal, the module-level *current* engine
defaults to a no-op :class:`NullSLOEngine`::

    from repro.obs import SLOEngine, parse_slo_spec, use_slo_engine

    engine = SLOEngine(parse_slo_spec("coverage>=0.9,drift_score<=0.5"))
    with use_slo_engine(engine):
        report = system.run(live, window_width=w)
    assert report.alerts == engine.alerts
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Union

from .facts import emit
from .registry import get_registry

__all__ = [
    "Alert",
    "SLORule",
    "SLOEngine",
    "NullSLOEngine",
    "NULL_SLO_ENGINE",
    "parse_slo_rule",
    "parse_slo_spec",
    "load_slo_file",
    "quantile",
    "get_slo_engine",
    "set_slo_engine",
    "use_slo_engine",
]

#: Comparison operators a rule may use, longest first so ``<=`` is not
#: split as ``<`` + ``=``.
_OPS = ("<=", ">=", "==", "<", ">")

_OP_FUNCS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "==": lambda v, t: v == t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
}


@dataclass(frozen=True)
class SLORule:
    """One objective: ``signal op threshold`` must hold every window."""

    signal: str
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in _OP_FUNCS:
            raise ValueError(
                f"unknown SLO operator {self.op!r} "
                f"(accepted: {', '.join(_OPS)})"
            )
        if not self.signal or not self.signal.replace("_", "").isalnum():
            raise ValueError(f"bad SLO signal name {self.signal!r}")

    def ok(self, value: float) -> bool:
        return _OP_FUNCS[self.op](value, self.threshold)

    @property
    def spec(self) -> str:
        """The canonical one-token form, e.g. ``coverage>=0.9``."""
        threshold = self.threshold
        text = (
            str(int(threshold))
            if float(threshold).is_integer()
            else repr(threshold)
        )
        return f"{self.signal}{self.op}{text}"


def parse_slo_rule(item: str) -> SLORule:
    """Parse one rule token like ``coverage>=0.9``."""
    item = item.strip()
    for op in _OPS:
        if op in item:
            signal, _, threshold = item.partition(op)
            try:
                value = float(threshold)
            except ValueError:
                raise ValueError(
                    f"bad SLO rule {item!r}: threshold {threshold!r} "
                    f"is not a number"
                )
            return SLORule(signal.strip(), op, value)
    raise ValueError(
        f"bad SLO rule {item!r}: expected signal<op>threshold with one "
        f"of {', '.join(_OPS)}"
    )


def parse_slo_spec(spec: str) -> List[SLORule]:
    """Parse a comma-separated rule list
    (``'coverage>=0.9,delivery_p99_windows<=2'``)."""
    rules = [
        parse_slo_rule(item)
        for item in spec.split(",")
        if item.strip()
    ]
    if not rules:
        raise ValueError(f"SLO spec {spec!r} contains no rules")
    return rules


def load_slo_file(path: str) -> List[SLORule]:
    """Load rules from a JSON or TOML file.

    Accepted shapes: a bare list of rule strings, or an object/table
    with a ``rules`` list (``{"rules": ["coverage>=0.9", ...]}`` /
    ``rules = ["coverage>=0.9"]``).  TOML needs Python 3.11+
    (``tomllib``); JSON always works.
    """
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - version-dependent
            raise ValueError(
                f"cannot read {path!r}: TOML support needs Python 3.11+ "
                f"(tomllib); use a JSON rules file instead"
            )
        with open(path, "rb") as f:
            data = tomllib.load(f)
    else:
        with open(path) as f:
            data = json.load(f)
    if isinstance(data, dict):
        data = data.get("rules")
    if not isinstance(data, list) or not data:
        raise ValueError(
            f"{path}: expected a list of rule strings (or an object "
            f"with a 'rules' list)"
        )
    return [parse_slo_rule(str(item)) for item in data]


def quantile(values: Sequence[float], q: float) -> float:
    """Exact ``q``-quantile of a small sample (linear interpolation
    between order statistics; ``0.0`` for an empty sample)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac)


@dataclass(frozen=True)
class Alert:
    """One fired objective (open while ``resolved_window`` is None)."""

    rule: str
    fired_window: int
    value: float
    threshold: float
    resolved_window: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "fired_window": self.fired_window,
            "value": self.value,
            "threshold": self.threshold,
            "resolved_window": self.resolved_window,
        }


class SLOEngine:
    """Evaluates a rule set once per decoded window and keeps the
    fired/resolved alert history."""

    enabled = True

    def __init__(self, rules: Sequence[SLORule]) -> None:
        if not rules:
            raise ValueError("SLOEngine needs at least one rule")
        self.rules: List[SLORule] = list(rules)
        self._lock = threading.Lock()
        #: rule spec -> index into :attr:`alerts` of the open alert.
        self._active: Dict[str, int] = {}
        self.alerts: List[Alert] = []
        self.windows_evaluated = 0

    def observe(self, window: int, signals: Dict[str, float]) -> List[Alert]:
        """Evaluate every rule against one window's signals; returns
        the alerts that *fired* this window.

        A rule whose signal is absent from ``signals`` is skipped (it
        can neither fire nor resolve) — e.g. ``delivery_*`` quantiles
        with lifecycle capture off.
        """
        registry = get_registry()
        fired: List[Alert] = []
        with self._lock:
            self.windows_evaluated += 1
            for rule in self.rules:
                value = signals.get(rule.signal)
                if value is None:
                    continue
                value = float(value)
                breached = not rule.ok(value)
                registry.gauge("slo.value", rule=rule.spec).set(value)
                registry.gauge("slo.breached", rule=rule.spec).set(
                    1.0 if breached else 0.0
                )
                active = self._active.get(rule.spec)
                if breached and active is None:
                    alert = Alert(
                        rule=rule.spec,
                        fired_window=window,
                        value=value,
                        threshold=rule.threshold,
                    )
                    self._active[rule.spec] = len(self.alerts)
                    self.alerts.append(alert)
                    fired.append(alert)
                    emit(
                        "alert.fired",
                        window=window, rule=rule.spec,
                        value=value, threshold=rule.threshold,
                    )
                elif not breached and active is not None:
                    self.alerts[active] = replace(
                        self.alerts[active], resolved_window=window
                    )
                    del self._active[rule.spec]
                    emit(
                        "alert.resolved",
                        window=window, rule=rule.spec, value=value,
                    )
        return fired

    @property
    def active_alerts(self) -> List[Alert]:
        with self._lock:
            return [self.alerts[i] for i in sorted(self._active.values())]

    def finish(self) -> List[Alert]:
        """The full alert history (open alerts stay unresolved)."""
        with self._lock:
            return list(self.alerts)

    def as_json(self) -> Dict[str, object]:
        """The ``/alerts.json`` document."""
        with self._lock:
            active = {self.alerts[i].rule for i in self._active.values()}
            return {
                "rules": [rule.spec for rule in self.rules],
                "windows_evaluated": self.windows_evaluated,
                "active": sorted(active),
                "alerts": [a.as_dict() for a in self.alerts],
            }


class NullSLOEngine:
    """The disabled engine: no rules, no alerts, no-ops throughout."""

    enabled = False
    rules: List[SLORule] = []
    alerts: List[Alert] = []
    active_alerts: List[Alert] = []
    windows_evaluated = 0

    def observe(self, window: int, signals: Dict[str, float]) -> List[Alert]:
        return []

    def finish(self) -> List[Alert]:
        return []

    def as_json(self) -> Dict[str, object]:
        return {
            "rules": [], "windows_evaluated": 0, "active": [], "alerts": [],
        }


#: The process-wide disabled engine (the default).
NULL_SLO_ENGINE = NullSLOEngine()

_current: Union[SLOEngine, NullSLOEngine] = NULL_SLO_ENGINE
_current_lock = threading.Lock()


def get_slo_engine() -> Union[SLOEngine, NullSLOEngine]:
    """The engine the run loop currently evaluates against."""
    return _current


def set_slo_engine(
    engine: Optional[Union[SLOEngine, NullSLOEngine]]
) -> Union[SLOEngine, NullSLOEngine]:
    """Install ``engine`` as current (``None`` disables); returns the
    previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = engine if engine is not None else NULL_SLO_ENGINE
    return previous


@contextmanager
def use_slo_engine(
    engine: Optional[Union[SLOEngine, NullSLOEngine]]
) -> Iterator[Union[SLOEngine, NullSLOEngine]]:
    """Scope ``engine`` as current for a ``with`` block."""
    previous = set_slo_engine(engine)
    try:
        yield get_slo_engine()
    finally:
        set_slo_engine(previous)
