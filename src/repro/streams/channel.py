"""The Monitor-to-Control-Center communication channel.

The whole point of the paper is reducing what flows over this link, so
the simulated channel does byte accounting for every message: histogram
updates upstream, partitioning-function installs downstream, and the
raw-stream baseline (shipping every identifier) for comparison.

The link is not assumed perfect: an optional :class:`~.faults.FaultModel`
is applied to both directions.  Byte accounting is *per wire
transmission* — a dropped histogram still cost its bytes, a duplicated
one cost them twice, and every install retransmission is charged again
— so ``compression_ratio`` always reflects real link cost, not just
what happened to arrive.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.domain import UIDDomain
from ..core.partition import PartitioningFunction
from ..obs import emit, get_registry, lifecycle_on
from .faults import Delivery, FaultModel
from .monitor import HistogramMessage

__all__ = ["Channel"]


class Channel:
    """Byte-accounting transport between Monitors and the Control
    Center, optionally lossy in both directions."""

    def __init__(
        self, domain: UIDDomain, *, faults: Optional[FaultModel] = None
    ) -> None:
        self.domain = domain
        self.faults = faults
        #: Every wire transmission, delivered or not.
        self.messages: List[HistogramMessage] = []
        #: Every surviving upstream copy (what the Control Center sees).
        self.delivered: List[Delivery] = []
        self.upstream_bytes = 0
        self.downstream_bytes = 0

    def send_histogram(
        self, message: HistogramMessage, plan=None
    ) -> List[Delivery]:
        """Monitor -> Control Center.

        Returns the copies that survive the link (empty when dropped;
        two entries when duplicated).  Each copy carries its arrival
        delay in windows.  Without a fault model this is always exactly
        one immediate delivery.  ``plan`` applies fault decisions drawn
        earlier with :meth:`~.faults.FaultModel.plan_decisions` instead
        of drawing fresh ones (the window loop draws every plan in
        monitor order before partitioning, which fixes the draw order).
        """
        faults = self.faults
        if plan is not None:
            transmissions, fates = plan
            deliveries = [
                Delivery(message, delay=delay, reorder=reorder, copy=i)
                for i, (delay, reorder) in enumerate(fates)
            ]
        elif faults is None:
            transmissions = 1
            deliveries = [Delivery(message)]
        else:
            transmissions, deliveries = faults.plan_histogram(message)
        size = message.size_bytes()
        registry = get_registry()
        for _ in range(transmissions):
            self.messages.append(message)
            self.upstream_bytes += size
            if registry.enabled:
                registry.counter("channel.upstream.bytes").inc(size)
                registry.counter("channel.upstream.messages").inc()
                registry.histogram("channel.message.bytes").observe(size)
        self.delivered.extend(deliveries)
        monitor = message.monitor
        window = message.window_index
        version = message.function_version
        lifecycle = lifecycle_on()

        def copy_event(event: str, copy: int, **fields) -> None:
            # Under lifecycle capture the event names its copy.
            if lifecycle:
                fields.update(version=version, copy=copy)
            emit(event, monitor=monitor, window=window, **fields)

        if lifecycle:
            for copy in range(transmissions):
                copy_event("trace.sent", copy)
        # Surviving copies are numbered 0..len(deliveries)-1, the
        # dropped transmissions take the remaining indices.
        for copy in range(1, transmissions):
            copy_event("fault.duplicate", copy)
        for copy in range(len(deliveries), transmissions):
            copy_event("fault.drop", copy)
        for d in deliveries:
            if d.delay:
                copy_event("fault.delay", d.copy, delay=d.delay)
        return deliveries

    def send_function(
        self, function: PartitioningFunction, version: Optional[int] = None
    ) -> bool:
        """Control Center -> Monitor (version-stamped function install).

        Returns whether the install survived the link; the transmission
        is charged either way.
        """
        size = (function.size_bits() + 7) // 8
        self.downstream_bytes += size
        delivered = self.faults.deliver_install() if self.faults else True
        registry = get_registry()
        registry.counter("channel.downstream.bytes").inc(size)
        registry.counter("channel.downstream.installs").inc()
        if not delivered:
            registry.counter("channel.faults.install_dropped").inc()
        return delivered

    @property
    def total_bytes(self) -> int:
        return self.upstream_bytes + self.downstream_bytes

    def raw_stream_bytes(self, num_tuples: int) -> int:
        """What shipping the raw identifiers would have cost."""
        return num_tuples * ((self.domain.height + 7) // 8)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Channel(up={self.upstream_bytes}B, "
            f"down={self.downstream_bytes}B, "
            f"{len(self.messages)} messages)"
        )
