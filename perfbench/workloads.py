"""Seeded generation of the benchmark's four workloads.

Every input is derived from the ``--seed`` argument before any timing
starts; the system under test only ever receives the generated
:class:`~repro.streams.Trace` objects.  The group table is the
``bench_serving`` table (h=16, seed 7) at full size, and the traffic
model (which subnets are active, their Zipf ranks, the drift schedule)
is fixed per workload.  The seed draws the tuples, their timestamps,
the monitor split and the fault decisions.  Keeping the model fixed
keeps the deterministic metrics (``link_bytes_per_window``,
``mean_error``) within about 1% across seeds, so their bounds can be
tight.

Workloads
---------
``thin_windows``
    Serial :class:`~repro.streams.MonitoringSystem`, ``lpm_greedy``,
    clean channel, telemetry off.  ~400k live tuples in ~2045 windows
    of ~200 tuples: the fixed per-window cost dominates.
``fat_windows``
    Serial, ``algorithm="overlapping"``, clean channel, telemetry off.
    ~3M live tuples in ~64 windows: per-tuple work dominates.
``drift_faults``
    :class:`~repro.streams.AdaptiveMonitoringSystem`,
    ``nonoverlapping``, incremental rebuilds, ``quarantine`` stale
    policy, the ``bench_serving`` fault mix, registry and journal live.
    The live trace has 32 traffic phases, each replacing 30% of the
    active subnets, so the drift detector fires ~25-30 times per run
    and rebuilds/installs interleave with decodes.
``sharded_telemetry``
    :class:`~repro.serving.ShardedMonitoringSystem` with two shards on
    ``thin_windows``' inputs, registry and journal live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.domain import UIDDomain
from repro.core.groups import GroupTable
from repro.data import generate_subnet_table
from repro.streams import Trace

__all__ = ["WORKLOADS", "Workload", "generate"]

WORKLOADS = ("thin_windows", "fat_windows", "drift_faults", "sharded_telemetry")

#: The ``bench_serving`` fault mix; its seed is replaced per workload seed.
FAULTS = dict(
    drop=0.05, duplicate=0.03, delay=0.04, max_delay_windows=3,
    reorder=0.1, crash=0.002, install_drop=0.1,
)

#: Per size: (height, table seed).
_TABLE = {"full": (16, 7), "smoke": (12, 7)}
#: Trace duration in seconds.
_DURATION = 1024.0
#: Seed of the traffic model (active subnets, ranks, drift schedule).
_MODEL_SEED = 11

#: Per size and workload: (total tuples, window width).  Half of each
#: trace is training history, half is live.
_SHAPE = {
    "full": {
        "thin_windows": (800_000, 0.25),
        "fat_windows": (6_000_000, 8.0),
        "drift_faults": (640_000, 0.5),
    },
    "smoke": {
        "thin_windows": (20_000, 8.0),
        "fat_windows": (60_000, 64.0),
        "drift_faults": (40_000, 4.0),
    },
}

#: Drift schedule for ``drift_faults``: the live half is cut into
#: ``_PHASES`` equal phases, and each phase swaps ``_PHASE_SWAP`` of the
#: active subnets for previously idle ones (keeping their Zipf ranks).
#: Phases are short (32 windows at full size) so rebuild windows are
#: several percent of all windows on every seed: ``window_p99_ms`` then
#: always lands among rebuild windows instead of flipping between
#: rebuild and plain windows with the seed.
_PHASES = 32
_PHASE_SWAP = 0.3


@dataclass
class Workload:
    """One generated workload: the system configuration plus its inputs."""

    name: str
    #: ``"serial"``, ``"adaptive"`` or ``"sharded"``.
    kind: str
    table: GroupTable
    history: Trace
    live: Trace
    window_width: float
    algorithm: str
    #: Extra constructor keyword arguments for the system.
    options: Dict[str, object] = field(default_factory=dict)
    #: :class:`~repro.streams.FaultModel` keyword arguments, or None.
    faults: Optional[Dict[str, object]] = None
    #: Whether a metrics registry and an in-memory journal are live.
    telemetry: bool = False
    #: Seed of the monitor split (``run(split_seed=...)``).
    split_seed: int = 0
    #: Drift-detector settings (adaptive systems only).
    detector: Optional[Dict[str, float]] = None


def _zipf_active(rng, groups: int, active_fraction=0.5, exponent=1.1):
    n_active = max(1, int(round(groups * active_fraction)))
    active = rng.choice(groups, size=n_active, replace=False)
    ranks = rng.permutation(n_active) + 1
    return active, ranks ** (-exponent)


def _weights(groups: int, active, rank_weights) -> np.ndarray:
    w = np.zeros(groups, dtype=np.float64)
    w[active] = rank_weights
    return w / w.sum()


def _sample(rng, table: GroupTable, weights, n: int, t0: float, t1: float):
    picked = rng.choice(len(table), size=n, p=weights)
    starts = table.starts[picked]
    sizes = table.ends[picked] - starts
    uids = starts + np.floor(rng.random(n) * sizes).astype(np.int64)
    ts = t0 + rng.random(n) * (t1 - t0)
    order = np.argsort(ts, kind="stable")
    return ts[order], uids[order]


def _stationary(model, rng, table, tuples):
    active, ranks = _zipf_active(model, len(table))
    weights = _weights(len(table), active, ranks)
    half = tuples // 2
    hts, huids = _sample(rng, table, weights, half, 0.0, _DURATION / 2)
    lts, luids = _sample(
        rng, table, weights, tuples - half, _DURATION / 2, _DURATION
    )
    return Trace(hts, huids), Trace(lts, luids)


def _drifting(model, rng, table, tuples):
    groups = len(table)
    active, ranks = _zipf_active(model, groups)
    half = tuples // 2
    hts, huids = _sample(
        rng, table, _weights(groups, active, ranks), half, 0.0, _DURATION / 2
    )
    per_phase = (tuples - half) // _PHASES
    span = (_DURATION / 2) / _PHASES
    ts_parts, uid_parts = [], []
    for phase in range(_PHASES):
        if phase:
            idle = np.setdiff1d(np.arange(groups), active)
            swap = int(round(_PHASE_SWAP * active.size))
            out = model.choice(active.size, size=swap, replace=False)
            active = active.copy()
            active[out] = model.choice(idle, size=swap, replace=False)
        t0 = _DURATION / 2 + phase * span
        ts, uids = _sample(
            rng, table, _weights(groups, active, ranks), per_phase,
            t0, t0 + span,
        )
        ts_parts.append(ts)
        uid_parts.append(uids)
    live = Trace(np.concatenate(ts_parts), np.concatenate(uid_parts))
    return Trace(hts, huids), live


def generate(name: str, seed: int, size: str = "full") -> Workload:
    """Build workload ``name`` from ``seed`` (deterministic)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if size not in _SHAPE:
        raise ValueError(f"unknown size {size!r}; choose from {tuple(_SHAPE)}")
    height, table_seed = _TABLE[size]
    table = generate_subnet_table(
        UIDDomain(height), seed=table_seed, base_stop=0.05, depth_ramp=0.02
    )
    # sharded_telemetry runs thin_windows' inputs, so both draw from
    # the same stream.
    shape_name = "thin_windows" if name == "sharded_telemetry" else name
    tuples, width = _SHAPE[size][shape_name]
    stream = WORKLOADS.index(shape_name)
    model = np.random.default_rng([_MODEL_SEED, stream])
    rng = np.random.default_rng([int(seed), stream])
    split_seed = int(rng.integers(0, 2**31))
    if name == "drift_faults":
        history, live = _drifting(model, rng, table, tuples)
        fault_seed = int(rng.integers(0, 2**31))
        return Workload(
            name, "adaptive", table, history, live, width, "nonoverlapping",
            # The rebuild LRU is off: the benchmark replays the same
            # live trace every run, so from the second run on every
            # rebuild would be an exact-fingerprint hit and no DP would
            # run in the timed region.  Real drifting traffic does not
            # repeat exactly.
            options=dict(
                incremental=True, stale_policy="quarantine", cache_size=0
            ),
            faults=dict(FAULTS, seed=fault_seed),
            telemetry=True,
            split_seed=split_seed,
            detector=dict(threshold=0.25, patience=2),
        )
    history, live = _stationary(model, rng, table, tuples)
    if name == "thin_windows":
        return Workload(
            name, "serial", table, history, live, width, "lpm_greedy",
            split_seed=split_seed,
        )
    if name == "fat_windows":
        return Workload(
            name, "serial", table, history, live, width, "overlapping",
            split_seed=split_seed,
        )
    return Workload(
        name, "sharded", table, history, live, width, "lpm_greedy",
        options=dict(shards=2), telemetry=True, split_seed=split_seed,
    )
