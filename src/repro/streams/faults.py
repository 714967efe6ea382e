"""Fault injection and recovery for the Monitor↔Control-Center link.

The paper's setting is a lossy wide area: remote Monitors ship
histograms to a Control Center over a constrained link.  The rest of
the streams layer simulates that link; this module makes it *imperfect*
in the ways real links are, and provides the recovery machinery the
imperfections force into existence.

Fault taxonomy (all decisions drawn from one seeded generator, so a
given ``(FaultModel, workload)`` pair always misbehaves identically):

* **drop** — a histogram transmission is lost in flight.  The Monitor
  still spent the bytes (the channel charges every wire transmission),
  the Control Center just never sees it.
* **duplicate** — the network delivers a second copy of a histogram.
  Both copies are wire transmissions and both are charged; the Control
  Center deduplicates by ``(monitor, window_index, function_version)``.
* **delay** — a delivered copy arrives ``k`` windows late (``k``
  uniform in ``1..max_delay_windows``).  The decode watermark is one
  window, so late copies are counted and discarded, never decoded.
* **reorder** — a delivered copy is shuffled to a random position in
  its arrival window.  Histogram merging is commutative, so this only
  perturbs floating-point summation order.
* **crash** — a Monitor crash-and-restarts at a window boundary,
  losing its volatile state (the installed partitioning function) and
  that window's report.  It rejoins once the Control Center's install
  scheduler gets a function back onto it.
* **install_drop** — a downstream function install is lost in flight
  (defaults to the upstream ``drop`` probability).  Installs are
  version-stamped and idempotent; the :class:`InstallScheduler`
  retries with capped exponential backoff until the Monitor acks.

See ``docs/fault-model.md`` for the delivery guarantees each path ends
up with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import emit, lifecycle_on
from .monitor import HistogramMessage

__all__ = ["Delivery", "FaultModel", "InstallScheduler"]


@dataclass(frozen=True, eq=False)
class Delivery:
    """One surviving wire copy of a histogram message.

    ``delay`` is in whole windows (0 = arrives in the window it was
    sent); ``reorder`` marks the copy for shuffling within its arrival
    window; ``copy`` numbers this wire transmission within its send
    (the lifecycle trace id's last component — surviving copies are
    numbered first, so copy indices at/above the survivor count name
    the dropped transmissions).  Identity (not value) equality: two
    copies of the same message are distinct deliveries.
    """

    message: HistogramMessage
    delay: int = 0
    reorder: bool = False
    copy: int = 0


#: Keys accepted by :meth:`FaultModel.parse`, mapped to field names.
_SPEC_ALIASES = {
    "drop": "drop",
    "dup": "duplicate",
    "duplicate": "duplicate",
    "reorder": "reorder",
    "delay": "delay",
    "max_delay": "max_delay_windows",
    "max_delay_windows": "max_delay_windows",
    "crash": "crash",
    "install_drop": "install_drop",
    "seed": "seed",
}
_INT_FIELDS = {"max_delay_windows", "seed"}


@dataclass
class FaultModel:
    """Seeded, deterministic per-message fault decisions.

    All probabilities are per-event: ``drop`` per wire transmission,
    ``duplicate`` per histogram send, ``delay``/``reorder`` per
    delivered copy, ``crash`` per (monitor, window).  A model with all
    probabilities at zero is behaviourally identical to no model at
    all — the zero-fault property tests lock this.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    max_delay_windows: int = 2
    crash: float = 0.0
    install_drop: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "delay", "crash"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.install_drop is not None and not 0.0 <= self.install_drop <= 1.0:
            raise ValueError(
                f"install_drop must be in [0, 1], got {self.install_drop}"
            )
        if self.max_delay_windows < 1:
            raise ValueError(
                f"max_delay_windows must be >= 1, got {self.max_delay_windows}"
            )
        self.reset()

    @classmethod
    def parse(cls, spec: str) -> "FaultModel":
        """Build a model from a CLI spec like ``drop=0.1,dup=0.05,seed=7``.

        Accepted keys: ``drop``, ``dup``/``duplicate``, ``reorder``,
        ``delay``, ``max_delay``/``max_delay_windows``, ``crash``,
        ``install_drop``, ``seed``.
        """
        kwargs: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad fault spec item {item!r}: expected key=value"
                )
            key, _, value = item.partition("=")
            name = _SPEC_ALIASES.get(key.strip())
            if name is None:
                raise ValueError(
                    f"unknown fault spec key {key.strip()!r} "
                    f"(accepted: {', '.join(sorted(_SPEC_ALIASES))})"
                )
            kwargs[name] = (
                int(value) if name in _INT_FIELDS else float(value)
            )
        return cls(**kwargs)

    def reset(self) -> None:
        """Rewind the generator so the same workload misbehaves the
        same way again (called at the start of every run)."""
        self._rng = np.random.default_rng(self.seed)

    @property
    def is_null(self) -> bool:
        """True when every fault probability is zero."""
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.reorder == 0.0
            and self.delay == 0.0
            and self.crash == 0.0
            and not self.install_drop
        )

    # -- per-message decisions ---------------------------------------------
    def plan_decisions(self) -> Tuple[int, List[Tuple[int, bool]]]:
        """Draw one upstream send's fault decisions: ``(transmissions,
        [(delay, reorder), ...])`` for the surviving copies.

        The decisions depend only on the generator state — never on the
        message — so a caller may draw them *before* the histogram is
        computed and apply them afterwards
        (:meth:`~.channel.Channel.send_histogram` accepts the pre-drawn
        plan).  The window loop draws every plan in monitor order before
        partitioning, so prefetched messages (the sharded serving layer)
        consume the RNG exactly as inline builds do.
        """
        rng = self._rng
        transmissions = 1
        if self.duplicate and rng.random() < self.duplicate:
            transmissions += 1
        fates: List[Tuple[int, bool]] = []
        for _ in range(transmissions):
            if self.drop and rng.random() < self.drop:
                continue
            delay = 0
            if self.delay and rng.random() < self.delay:
                delay = int(rng.integers(1, self.max_delay_windows + 1))
            reorder = bool(self.reorder and rng.random() < self.reorder)
            fates.append((delay, reorder))
        return transmissions, fates

    def plan_histogram(
        self, message: HistogramMessage
    ) -> Tuple[int, List[Delivery]]:
        """Fault plan for one upstream send: ``(transmissions,
        deliveries)``.

        Every copy put on the wire counts as a transmission (and is
        charged by the channel) whether or not it survives; each copy
        is independently dropped, delayed, and reorder-flagged.
        """
        transmissions, fates = self.plan_decisions()
        return transmissions, [
            Delivery(message, delay=delay, reorder=reorder, copy=i)
            for i, (delay, reorder) in enumerate(fates)
        ]

    def deliver_install(self) -> bool:
        """Whether one downstream function install survives the wire."""
        p = self.drop if self.install_drop is None else self.install_drop
        return not (p and self._rng.random() < p)

    def crashes(self, monitor: str, window: int) -> bool:
        """Whether ``monitor`` crash-and-restarts at window ``window``."""
        return bool(self.crash and self._rng.random() < self.crash)

    def apply_reorder(self, arrivals: List[Delivery]) -> List[Delivery]:
        """Shuffle reorder-flagged deliveries to random positions within
        one arrival window (in place; returns the list)."""
        flagged = [d for d in arrivals if d.reorder]
        lifecycle = lifecycle_on()
        for delivery in flagged:
            arrivals.remove(delivery)  # identity equality: exact copy out
            pos = int(self._rng.integers(0, len(arrivals) + 1))
            arrivals.insert(pos, delivery)
            if lifecycle:
                m = delivery.message
                emit(
                    "trace.reordered", monitor=m.monitor,
                    window=m.window_index, version=m.function_version,
                    copy=delivery.copy,
                )
        return arrivals


@dataclass
class _InstallState:
    """Backoff bookkeeping for one Monitor awaiting a function."""

    next_attempt: int
    backoff: int
    attempts: int = 0


class InstallScheduler:
    """Version-stamped install retry loop with capped exponential
    backoff (the Control Center side of function distribution).

    Each window tick the scheduler compares every Monitor's acked
    function version (its heartbeat — heartbeats are assumed tiny and
    reliable) against the Control Center's current version.  Lagging
    Monitors get a retransmission once their backoff expires; every
    attempt goes over the (possibly faulty) channel and is charged as
    downstream bytes.  A delivered install is acked immediately and
    clears the Monitor's backoff state; a lost one doubles the backoff
    up to ``backoff_cap`` windows.
    """

    def __init__(self, backoff_base: int = 1, backoff_cap: int = 8) -> None:
        if backoff_base < 1 or backoff_cap < backoff_base:
            raise ValueError(
                f"need 1 <= backoff_base <= backoff_cap, got "
                f"{backoff_base}/{backoff_cap}"
            )
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._state: Dict[str, _InstallState] = {}
        self.attempts = 0
        self.retries = 0

    def tick(self, window: int, control_center, monitors, channel) -> int:
        """Run one retry round; returns the number of installs
        delivered this tick."""
        target = control_center.function_version
        function = control_center.function
        if function is None:
            return 0
        delivered_count = 0
        for monitor in monitors:
            if (
                monitor.function is not None
                and monitor.function_version == target
            ):
                self._state.pop(monitor.name, None)
                continue
            state = self._state.get(monitor.name)
            if state is None:
                state = _InstallState(
                    next_attempt=window, backoff=self.backoff_base
                )
                self._state[monitor.name] = state
            if window < state.next_attempt:
                continue
            self.attempts += 1
            retry = state.attempts > 0
            if retry:
                self.retries += 1
            state.attempts += 1
            acked = channel.send_function(function, version=target)
            emit(
                "install",
                window=window,
                monitor=monitor.name,
                version=target,
                attempt=state.attempts,
                retry=retry,
                acked=acked,
            )
            if acked:
                monitor.install_function(function, target)
                self._state.pop(monitor.name, None)
                delivered_count += 1
            else:
                state.backoff = min(state.backoff * 2, self.backoff_cap)
                state.next_attempt = window + state.backoff
        return delivered_count

    @property
    def pending(self) -> int:
        """Monitors currently awaiting a (re)install."""
        return len(self._state)
