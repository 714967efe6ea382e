"""Message-lifecycle tracing for the monitor→center path.

Every histogram *copy* put on the wire gets a deterministic trace id —
``(monitor, window_index, function_version, copy)`` where ``copy``
numbers the wire transmissions of one send (0 is the original, 1+ are
network duplicates) — and the tracer follows it end to end:

* the :class:`~repro.streams.channel.Channel` reports ``sent`` /
  ``duplicated`` / ``dropped`` / ``delayed`` per copy at send time;
* the :class:`~repro.streams.faults.FaultModel` reports ``reordered``
  copies as it shuffles an arrival window;
* the run loop reports ``delivered`` when a copy reaches the Control
  Center, and :meth:`~repro.streams.control_center.ControlCenter.
  decode_window` **closes** each trace with its decode outcome.

Close outcomes partition every copy exactly once:

========== ===========================================================
outcome    meaning
========== ===========================================================
decoded    merged into the window's estimate
rescaled   merged, in a window whose estimates were coverage-rescaled
deduped    redundant copy discarded by ``(monitor, window, version)``
quarantined carried a stale function version; set aside by policy
late       arrived after its window's decode watermark; discarded
dropped    lost in flight (never reached the Control Center)
expired    still in flight when the run ended
========== ===========================================================

The first five are *delivered* outcomes, which yields the conservation
invariant the tests lock exactly::

    sent copies == delivered + dropped + expired
    delivered   == decoded + rescaled + deduped + quarantined + late

Delivered closes record their **end-to-end age in window-time**
(``close window - send window``); every transition is one ``trace.*``
event through :func:`repro.obs.emit` (the raw material of ``repro
trace``), which the registry folds into the ``lifecycle.*`` counters
and the ``delivery.age_windows`` timer.

Plumbing mirrors the registry/journal: a module-level *current* tracer
defaults to a shared no-op :class:`NullTracer`, so the instrumented
paths pay one function call and one attribute check when tracing is
off::

    from repro.obs import LifecycleTracer, use_tracer

    with use_tracer(LifecycleTracer()) as tracer:
        system.run(live, window_width=w)
    assert tracer.conservation_ok()
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .facts import emit

__all__ = [
    "DELIVERED_OUTCOMES",
    "OUTCOMES",
    "LifecycleTracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

#: Close outcomes meaning "the copy reached the Control Center".
DELIVERED_OUTCOMES = (
    "decoded", "rescaled", "deduped", "quarantined", "late",
)

#: Every close outcome; each copy gets exactly one.
OUTCOMES = DELIVERED_OUTCOMES + ("dropped", "expired")

#: A trace id: (monitor, window_index, function_version) — the message
#: key; the copy index completes the per-wire-transmission identity.
TraceKey = Tuple[str, int, int]

#: Copy status while a trace is open.
_IN_FLIGHT = "in_flight"
_ARRIVED = "arrived"


class LifecycleTracer:
    """Per-copy lifecycle bookkeeping with exact conservation totals."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> {copy: status} for traces not yet closed (insertion
        #: order is send order; closes pick the oldest eligible copy).
        self._open: Dict[TraceKey, Dict[int, str]] = {}
        self.sent_copies = 0
        self.outcomes: Dict[str, int] = {}
        #: Delivered-close ages since the last :meth:`drain_window_ages`
        #: (consumed by the SLO engine for per-window quantiles).
        self._window_ages: List[float] = []

    # -- transport-side events (Channel / FaultModel) ----------------------
    def sent(
        self, monitor: str, window: int, version: int, copy: int
    ) -> None:
        """One wire transmission left a Monitor."""
        with self._lock:
            self.sent_copies += 1
            self._open.setdefault((monitor, window, version), {})[copy] = (
                _IN_FLIGHT
            )
        emit(
            "trace.sent",
            monitor=monitor, window=window, version=version, copy=copy,
        )

    def duplicated(
        self, monitor: str, window: int, version: int, copy: int
    ) -> None:
        """Copy ``copy`` exists only because the network duplicated the
        send (informational; the copy was separately :meth:`sent`)."""
        emit(
            "trace.duplicated",
            monitor=monitor, window=window, version=version, copy=copy,
        )

    def dropped(
        self, monitor: str, window: int, version: int, copy: int
    ) -> None:
        """The copy was lost in flight — closes its trace."""
        self._close_copy(
            (monitor, window, version), copy, "dropped", at_window=window,
        )

    def delayed(
        self, monitor: str, window: int, version: int, copy: int, k: int
    ) -> None:
        """The copy will arrive ``k`` windows late (still in flight)."""
        emit(
            "trace.delayed",
            monitor=monitor, window=window, version=version, copy=copy,
            delay=k,
        )

    def reordered(
        self, monitor: str, window: int, version: int, copy: int
    ) -> None:
        """The copy was shuffled within its arrival window."""
        emit(
            "trace.reordered",
            monitor=monitor, window=window, version=version, copy=copy,
        )

    def delivered(
        self,
        monitor: str,
        window: int,
        version: int,
        copy: int,
        at_window: int,
    ) -> None:
        """The copy reached the Control Center at tick ``at_window``."""
        with self._lock:
            copies = self._open.get((monitor, window, version))
            if copies is not None and copy in copies:
                copies[copy] = _ARRIVED
        emit(
            "trace.delivered",
            monitor=monitor, window=window, version=version, copy=copy,
            at_window=at_window,
        )

    # -- decode-side closes ------------------------------------------------
    def close(
        self,
        monitor: str,
        window: int,
        version: int,
        outcome: str,
        at_window: int,
        copy: Optional[int] = None,
    ) -> None:
        """Close one open copy of ``(monitor, window, version)`` with
        its decode outcome.

        Without an explicit ``copy`` the oldest *arrived* open copy is
        closed (copies of one message are bit-identical, so FIFO
        attribution is exact), falling back to the oldest open copy.
        Closing a key the tracer never saw sent is a no-op — decode may
        legitimately be fed messages that bypassed a traced channel.
        """
        if outcome not in OUTCOMES:
            raise ValueError(
                f"unknown lifecycle outcome {outcome!r} "
                f"(known: {', '.join(OUTCOMES)})"
            )
        self._close_copy((monitor, window, version), copy, outcome, at_window)

    def _close_copy(
        self,
        key: TraceKey,
        copy: Optional[int],
        outcome: str,
        at_window: int,
    ) -> None:
        with self._lock:
            copies = self._open.get(key)
            if not copies:
                return
            if copy is None:
                copy = next(
                    (c for c, s in copies.items() if s == _ARRIVED),
                    next(iter(copies)),
                )
            elif copy not in copies:
                return
            del copies[copy]
            if not copies:
                del self._open[key]
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            age = at_window - key[1]
            if outcome in DELIVERED_OUTCOMES:
                self._window_ages.append(float(age))
        emit(
            "trace.closed",
            monitor=key[0], window=key[1], version=key[2], copy=copy,
            outcome=outcome, at_window=at_window, age_windows=age,
        )

    def expire_open(self, at_window: int) -> int:
        """Close every still-open trace as ``expired`` (the run ended
        while they were in flight); returns how many were expired."""
        with self._lock:
            pending = [
                (key, copy)
                for key, copies in self._open.items()
                for copy in copies
            ]
        for key, copy in pending:
            self._close_copy(key, copy, "expired", at_window)
        return len(pending)

    # -- accounting --------------------------------------------------------
    @property
    def open_traces(self) -> int:
        with self._lock:
            return sum(len(copies) for copies in self._open.values())

    @property
    def delivered_total(self) -> int:
        return sum(self.outcomes.get(o, 0) for o in DELIVERED_OUTCOMES)

    def conservation(self) -> Dict[str, int]:
        """The invariant's terms: ``sent``, ``delivered`` (with its
        per-outcome split), ``dropped``, ``expired``, ``open``."""
        with self._lock:
            open_count = sum(len(c) for c in self._open.values())
        totals = {
            "sent": self.sent_copies,
            "delivered": self.delivered_total,
            "dropped": self.outcomes.get("dropped", 0),
            "expired": self.outcomes.get("expired", 0),
            "open": open_count,
        }
        totals.update(
            {o: self.outcomes.get(o, 0) for o in DELIVERED_OUTCOMES}
        )
        return totals

    def conservation_ok(self) -> bool:
        """``sent == delivered + dropped + expired`` with no trace left
        open — every copy attributed exactly once."""
        c = self.conservation()
        return (
            c["open"] == 0
            and c["sent"] == c["delivered"] + c["dropped"] + c["expired"]
        )

    def drain_window_ages(self) -> List[float]:
        """Delivered-close ages since the last drain (window-time);
        consumed once per window by the SLO engine."""
        with self._lock:
            ages = self._window_ages
            self._window_ages = []
        return ages


class NullTracer:
    """The disabled tracer: every hook is a no-op."""

    enabled = False
    sent_copies = 0
    outcomes: Dict[str, int] = {}

    def sent(self, *a, **k) -> None:
        pass

    def duplicated(self, *a, **k) -> None:
        pass

    def dropped(self, *a, **k) -> None:
        pass

    def delayed(self, *a, **k) -> None:
        pass

    def reordered(self, *a, **k) -> None:
        pass

    def delivered(self, *a, **k) -> None:
        pass

    def close(self, *a, **k) -> None:
        pass

    def expire_open(self, at_window: int) -> int:
        return 0

    def conservation(self) -> Dict[str, int]:
        return {}

    def conservation_ok(self) -> bool:
        return True

    def drain_window_ages(self) -> List[float]:
        return []


#: The process-wide disabled tracer (the default).
NULL_TRACER = NullTracer()

_current: Union[LifecycleTracer, NullTracer] = NULL_TRACER
_current_lock = threading.Lock()


def get_tracer() -> Union[LifecycleTracer, NullTracer]:
    """The tracer instrumented code currently reports into."""
    return _current


def set_tracer(
    tracer: Optional[Union[LifecycleTracer, NullTracer]]
) -> Union[LifecycleTracer, NullTracer]:
    """Install ``tracer`` as the current sink (``None`` disables);
    returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(
    tracer: Optional[Union[LifecycleTracer, NullTracer]]
) -> Iterator[Union[LifecycleTracer, NullTracer]]:
    """Scope ``tracer`` as the current sink for a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)
