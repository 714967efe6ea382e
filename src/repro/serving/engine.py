"""Multi-tenant serving: admission control, byte budgets, shared caches.

A *tenant* is one grouped-aggregation deployment — a budget, an
algorithm, and optionally a declared wire-byte budget — served over a
(shared) group table.  :class:`ServingEngine` runs a fleet of tenants
through the sharded pipeline with:

* **admission control** — under a ``capacity_bytes`` ceiling a tenant
  must declare a byte budget and the sum of admitted budgets may not
  exceed the ceiling; rejected tenants never build a system
  (``tenant.admitted`` / ``tenant.rejected`` journal events);
* **byte-budget enforcement** — after a run, a tenant whose actual
  upstream + downstream bytes exceeded its declared budget is flagged
  ``over_budget`` (``tenant.over_budget`` journal event and
  ``serving.tenant.over_budget`` counter);
* **cross-tenant reuse** — all tenants share one
  :class:`~.cache.SharedServingCache`: equal tables collapse to one
  canonical instance (compiled partitioners/estimators shared via the
  identity-keyed caches) and equal rebuild inputs reuse the finished
  function or incremental memo instead of re-running the DP;
* **labelled observability** — every ``serving.tenant.*`` metric and
  tenant journal event carries a ``tenant=`` label; shard metrics from
  the prefetch pass carry ``shard=`` (and ``tenant=``) labels.

Tenant specs parse from a compact CLI string::

    alpha:budget=100,bytes=65536;beta:algorithm=nonoverlapping,budget=64

(see :meth:`TenantSpec.parse_many`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import PenaltyMetric
from ..core.groups import GroupTable
from ..obs import (
    emit,
    export_resources,
    get_registry,
    sample_resources,
    telemetry_on,
)
from ..streams.system import MonitoringSystem, SystemReport
from ..streams.tuples import Trace
from .cache import SharedServingCache
from .sharded import ShardedMonitoringSystem

__all__ = ["ServingEngine", "TenantReport", "TenantSpec"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's configuration."""

    name: str
    algorithm: str = "lpm_greedy"
    budget: int = 100
    #: Declared wire-byte budget (upstream histograms + downstream
    #: installs) — required for admission under a capacity ceiling,
    #: enforced post-run as an ``over_budget`` flag.
    byte_budget: Optional[int] = None
    #: Split seed for the tenant's live run.
    seed: int = 0

    _KEYS = ("algorithm", "budget", "bytes", "byte_budget", "seed")

    @classmethod
    def parse(cls, text: str) -> "TenantSpec":
        """Parse ``name[:key=value,...]`` — keys ``algorithm``,
        ``budget``, ``bytes`` (alias ``byte_budget``), ``seed``."""
        name, _, options = text.strip().partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"tenant spec {text!r} has no name")
        kwargs: Dict[str, object] = {}
        if options.strip():
            for item in options.split(","):
                key, sep, value = item.partition("=")
                key, value = key.strip().lower(), value.strip()
                if not sep or not key or not value:
                    raise ValueError(
                        f"tenant option {item.strip()!r} is not key=value "
                        f"(tenant {name!r})"
                    )
                if key == "algorithm":
                    kwargs["algorithm"] = value
                elif key in ("budget", "bytes", "byte_budget", "seed"):
                    try:
                        number = int(value)
                    except ValueError:
                        raise ValueError(
                            f"tenant option {key}={value!r} is not an "
                            f"integer (tenant {name!r})"
                        ) from None
                    if key == "budget":
                        kwargs["budget"] = number
                    elif key == "seed":
                        kwargs["seed"] = number
                    else:
                        kwargs["byte_budget"] = number
                else:
                    raise ValueError(
                        f"unknown tenant option {key!r} (tenant {name!r}); "
                        f"known keys: {', '.join(cls._KEYS)}"
                    )
        return cls(name=name, **kwargs)

    @classmethod
    def parse_many(cls, spec: str) -> List["TenantSpec"]:
        """Parse a ``;``-separated list of tenant specs."""
        specs = [cls.parse(part) for part in spec.split(";") if part.strip()]
        if not specs:
            raise ValueError(f"no tenants in spec {spec!r}")
        seen = set()
        for s in specs:
            if s.name in seen:
                raise ValueError(f"duplicate tenant name {s.name!r}")
            seen.add(s.name)
        return specs


@dataclass
class TenantReport:
    """Outcome of one tenant's run (or rejection)."""

    spec: TenantSpec
    admitted: bool
    #: Why admission rejected the tenant (empty when admitted).
    reason: str = ""
    report: Optional[SystemReport] = None
    #: Actual wire bytes: upstream histograms + downstream installs.
    bytes_used: int = 0
    over_budget: bool = False


class ServingEngine:
    """Admission-controlled multi-tenant serving over shared caches.

    Parameters
    ----------
    table, metric:
        The grouped-aggregation deployment every tenant serves.  The
        table is canonicalized through the shared cache, so passing
        equal-content table instances for different engines sharing one
        ``cache`` still collapses compiled state.
    tenants:
        :class:`TenantSpec` sequence, or a spec string for
        :meth:`TenantSpec.parse_many`.
    shards:
        ``> 1`` serves every tenant through
        :class:`~.sharded.ShardedMonitoringSystem`; ``1`` uses the
        serial :class:`~repro.streams.MonitoringSystem` (reports are
        bit-identical either way).
    capacity_bytes:
        Optional admission ceiling on the sum of declared tenant byte
        budgets.
    cache:
        A :class:`~.cache.SharedServingCache` to share with other
        engines; a private one is created by default.
    system_options:
        Passed through to every tenant's system (``num_monitors``,
        ``faults``, ``incremental``, ``cache_size``, ...).
    """

    def __init__(
        self,
        table: GroupTable,
        metric: PenaltyMetric,
        tenants: Union[str, Sequence[TenantSpec]],
        shards: int = 1,
        capacity_bytes: Optional[int] = None,
        cache: Optional[SharedServingCache] = None,
        **system_options,
    ) -> None:
        if isinstance(tenants, str):
            tenants = TenantSpec.parse_many(tenants)
        tenants = list(tenants)
        if not tenants:
            raise ValueError("need at least one tenant")
        if len({t.name for t in tenants}) != len(tenants):
            raise ValueError("tenant names must be unique")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.cache = cache if cache is not None else SharedServingCache()
        self.table = self.cache.canonical_table(table)
        self.metric = metric
        self.shards = shards
        self.capacity_bytes = capacity_bytes
        self.tenants = tenants
        self.admitted: List[TenantSpec] = []
        self.rejected: List[Tuple[TenantSpec, str]] = []
        committed = 0
        for spec in tenants:
            reason = ""
            if capacity_bytes is not None:
                if spec.byte_budget is None:
                    reason = (
                        "no byte budget declared under capacity control"
                    )
                elif committed + spec.byte_budget > capacity_bytes:
                    reason = (
                        f"capacity exceeded: {committed} committed + "
                        f"{spec.byte_budget} declared > {capacity_bytes}"
                    )
            if reason:
                self.rejected.append((spec, reason))
                emit("tenant.rejected", tenant=spec.name, reason=reason)
                continue
            if spec.byte_budget is not None:
                committed += spec.byte_budget
            self.admitted.append(spec)
            emit(
                "tenant.admitted",
                tenant=spec.name,
                byte_budget=spec.byte_budget,
                committed_bytes=committed,
            )
        self.systems: Dict[str, MonitoringSystem] = {}
        for spec in self.admitted:
            if shards > 1:
                self.systems[spec.name] = ShardedMonitoringSystem(
                    self.table,
                    metric,
                    shards=shards,
                    tenant=spec.name,
                    algorithm=spec.algorithm,
                    budget=spec.budget,
                    shared_cache=self.cache,
                    **system_options,
                )
            else:
                self.systems[spec.name] = MonitoringSystem(
                    self.table,
                    metric,
                    algorithm=spec.algorithm,
                    budget=spec.budget,
                    shared_cache=self.cache,
                    **system_options,
                )

    def run(
        self,
        history: Trace,
        live: Trace,
        window_width: float,
    ) -> Dict[str, TenantReport]:
        """Train and run every admitted tenant; returns per-tenant
        reports keyed by tenant name (rejected tenants included with
        ``admitted=False``)."""
        results: Dict[str, TenantReport] = {}
        for spec in self.admitted:
            system = self.systems[spec.name]
            system.train(history)
            report = system.run(live, window_width, split_seed=spec.seed)
            bytes_used = report.upstream_bytes + report.function_bytes
            over = (
                spec.byte_budget is not None
                and bytes_used > spec.byte_budget
            )
            results[spec.name] = TenantReport(
                spec=spec,
                admitted=True,
                report=report,
                bytes_used=bytes_used,
                over_budget=over,
            )
            if not telemetry_on():
                continue
            if over:
                emit(
                    "tenant.over_budget",
                    tenant=spec.name,
                    bytes_used=bytes_used,
                    byte_budget=spec.byte_budget,
                )
            emit(
                "tenant.report",
                tenant=spec.name,
                windows=len(report.windows),
                bytes_used=bytes_used,
                byte_budget=spec.byte_budget,
                mean_error=report.mean_error,
                over_budget=over,
            )
        for spec, reason in self.rejected:
            results[spec.name] = TenantReport(
                spec=spec, admitted=False, reason=reason
            )
        # Fleet-level telemetry: cross-tenant cache effectiveness as
        # serving.cache.* counters (delta-published, so multi-run
        # engines stay monotonic) and the control plane's own resource
        # usage next to the shard workers' proc.* series.
        registry = get_registry()
        self.cache.publish_metrics(registry)
        export_resources(registry, sample_resources(), shard="parent")
        return results

    def close(self) -> None:
        """Shut down every tenant system's shard worker pool."""
        for system in self.systems.values():
            close = getattr(system, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
