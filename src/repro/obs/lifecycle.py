"""Message-lifecycle facts for the monitor→center path, and their fold.

Every histogram *copy* put on the wire has a deterministic trace id —
``(monitor, window_index, function_version, copy)`` where ``copy``
numbers the wire transmissions of one send (0 is the original, 1+ are
network duplicates; surviving copies come first).  While lifecycle
capture is on (``repro simulate --trace``, or
:func:`~repro.obs.facts.use_lifecycle` from Python) each copy-level
fact is one :func:`repro.obs.emit` call at the site that knows it:

* the :class:`~repro.streams.channel.Channel` emits ``trace.sent``,
  and its ``fault.duplicate`` / ``fault.drop`` / ``fault.delay``
  events carry ``version`` and ``copy`` (a ``fault.drop`` closes its
  copy as ``dropped``);
* :meth:`~repro.streams.faults.FaultModel.apply_reorder` emits
  ``trace.reordered``;
* the window loop emits ``trace.delivered`` and every other close
  (``trace.closed``).

Close outcomes partition every copy exactly once:

=========== ==========================================================
outcome     meaning
=========== ==========================================================
decoded     merged into the window's estimate
rescaled    merged, in a window whose estimates were coverage-rescaled
deduped     redundant copy discarded by ``(monitor, window, version)``
quarantined carried a stale function version; set aside by policy
late        arrived after its window's decode watermark; discarded
dropped     lost in flight (never reached the Control Center)
expired     still in flight when the run ended
=========== ==========================================================

The first five are *delivered* outcomes, which yields the conservation
invariant the tests lock exactly::

    sent copies == delivered + dropped + expired
    delivered   == decoded + rescaled + deduped + quarantined + late

Delivered closes carry their **end-to-end age in window-time**
(``close window - send window``), which the registry folds into the
``delivery.age_windows`` timer.  The per-copy books are a pure fold
over the events (:func:`fold_lifecycle`), like ``repro replay``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "DELIVERED_OUTCOMES",
    "OUTCOMES",
    "LifecycleBooks",
    "fold_lifecycle",
]

#: Close outcomes meaning "the copy reached the Control Center".
DELIVERED_OUTCOMES = (
    "decoded", "rescaled", "deduped", "quarantined", "late",
)

#: Every close outcome; each copy gets exactly one.
OUTCOMES = DELIVERED_OUTCOMES + ("dropped", "expired")

#: A copy's trace id: (monitor, window_index, function_version, copy).
CopyId = Tuple[str, int, int, int]
_ID_FIELDS = ("monitor", "window", "version", "copy")


@dataclass(frozen=True)
class LifecycleBooks:
    """The lifecycle books of one event stream."""

    #: ``trace.sent`` events.
    sent: int
    #: Closes of sent copies per outcome (every outcome present).
    outcomes: Dict[str, int]
    #: Copies sent and never closed, in send order.
    open: Tuple[CopyId, ...]

    @property
    def delivered(self) -> int:
        return sum(self.outcomes[o] for o in DELIVERED_OUTCOMES)

    @property
    def conservation_ok(self) -> bool:
        """``sent == delivered + dropped + expired`` with no copy left
        open — every copy attributed exactly once."""
        return not self.open and self.sent == sum(self.outcomes.values())


def _copy_id(event: Dict) -> CopyId:
    return tuple(event.get(k) for k in _ID_FIELDS)


def fold_lifecycle(events: Iterable[Dict]) -> LifecycleBooks:
    """Fold journal events (:func:`~repro.obs.journal.read_journal`, or
    a :class:`~repro.obs.journal.BufferJournal`'s ``events``) into the
    lifecycle books.

    The fold does not depend on event order.  A close of a copy the
    events never sent is ignored (decode may be fed messages that
    bypassed a captured channel); a copy closed twice counts twice, so
    the books no longer balance.  An unknown outcome raises
    ``ValueError``.
    """
    sent: Dict[CopyId, None] = {}
    sends = 0
    closes: List[Tuple[CopyId, str]] = []
    for event in events:
        kind = event.get("event")
        if kind == "trace.sent":
            sends += 1
            sent[_copy_id(event)] = None
        elif kind == "trace.closed":
            outcome = event.get("outcome")
            if outcome not in OUTCOMES:
                raise ValueError(
                    f"unknown lifecycle outcome {outcome!r} "
                    f"(known: {', '.join(OUTCOMES)})"
                )
            closes.append((_copy_id(event), outcome))
        elif kind == "fault.drop" and "copy" in event:
            closes.append((_copy_id(event), "dropped"))
    outcomes = dict.fromkeys(OUTCOMES, 0)
    closed = set()
    for copy, outcome in closes:
        if copy in sent:
            outcomes[outcome] += 1
            closed.add(copy)
    return LifecycleBooks(
        sent=sends,
        outcomes=outcomes,
        open=tuple(c for c in sent if c not in closed),
    )
