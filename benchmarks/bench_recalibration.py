"""Recalibration perf harness: incremental-rebuild speedups vs drift.

Times a from-scratch DP construction against a subtree-memoized
incremental rebuild (``repro.algorithms.incremental``) for both exact
semantics across a drift-locality sweep: the fraction of the nonzero
support whose counts move between builds ranges from 1% to 100%.  The
incremental path must be *bit-identical* to the full build — every
point asserts curve-byte equality — so the only thing measured is how
much of the previous build's DP state the memo lets the rebuild skip.

One more point per workload changes the *support*: it empties 1% of
the nonzero groups and fills as many empty ones, so the nonzero mask
(and the pruned structure) moves.  Such a rebuild runs cold — the full
sweep plus a fresh memo — and the point times that path and asserts
the same bit-identity (``support_changed: true``; every other point
keeps the mask).

Timings are construction-only: every rep builds its ``PrunedHierarchy``
outside the timed region, and that build — the flat structure arrays
both legs read included — is reported once per workload as
``hierarchy_seconds``, the minimum of ``REPS`` builds of the base
counts.  The full leg times ``build()`` alone; the incremental leg
times session creation + build + memo finish.  The legs alternate rep
by rep, every incremental rep rebuilds from the same baseline memo (a
rebuild patches a copy of the memo's state, never the memo), and each
leg reports the minimum.

Usage::

    python benchmarks/bench_recalibration.py               # full grid
    python benchmarks/bench_recalibration.py --grid tiny   # CI smoke
    python benchmarks/bench_recalibration.py --out /tmp/recal.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import PrunedHierarchy, UIDDomain, get_metric
from repro.algorithms import incremental as incmod
from repro.algorithms.construct import build
from repro.data import TrafficModel, generate_subnet_table, generate_trace

SCHEMA = "repro.bench_recalibration.v1"

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_recalibration.json",
)

#: (algorithm, height, packets, budget) workload rows.  The traffic
#: model matches bench_kernel.py's dense zipf mix — high active
#: fraction keeps the pruned hierarchy deep, which is the regime where
#: construction (and therefore recalibration) is expensive.
FULL_GRID: List[Tuple[str, int, int, int]] = [
    ("nonoverlapping", 18, 800_000, 400),
    ("overlapping", 15, 600_000, 96),
]
TINY_GRID: List[Tuple[str, int, int, int]] = [
    ("nonoverlapping", 10, 30_000, 16),
    ("overlapping", 10, 30_000, 10),
]

#: Fraction of the nonzero support drifted between builds.
DRIFT_FRACTIONS = [0.01, 0.10, 0.50, 1.00]

#: Fraction of the nonzero support emptied (and refilled elsewhere) by
#: the support-changing point.
SUPPORT_FRACTION = 0.01

REPS = 5


def _workload(height: int, packets: int):
    table = generate_subnet_table(UIDDomain(height), seed=7)
    model = TrafficModel(
        mode="zipf", active_fraction=0.95, zipf_exponent=1.1
    )
    uids = generate_trace(table, packets, seed=11, model=model)
    return table, table.counts_from_uids(uids)


def _drift(counts: np.ndarray, fraction: float) -> np.ndarray:
    """Scale a contiguous ``fraction`` of the nonzero support.

    The support is carved into 64 equal blocks and the first
    ``round(fraction * 64)`` of them are doubled — localized drift that
    preserves the nonzero mask, so the pruned structure (and therefore
    the memo's same-structure fast path) survives every point.
    """
    out = counts.copy()
    nz = np.nonzero(out)[0]
    k = max(1, round(fraction * 64))
    per = len(nz) // 64
    out[nz[: k * per]] *= 2.0
    return out


def _support_change(counts: np.ndarray, fraction: float) -> np.ndarray:
    """Empty the first ``fraction`` of the nonzero support and give as
    many empty groups one tuple each: the nonzero mask changes, so the
    rebuild cannot reuse the memo's structure."""
    out = counts.copy()
    nz = np.nonzero(out)[0]
    empty = np.nonzero(out == 0)[0]
    k = min(max(1, round(fraction * len(nz))), len(empty))
    out[nz[:k]] = 0.0
    out[empty[:k]] = 1.0
    return out


def _build_with_memo(table, counts, algorithm, metric, budget, memo):
    """One incremental build; returns (result, next_memo, stats)."""
    h = PrunedHierarchy(table, counts)
    session = incmod.new_session(algorithm, h, metric, budget, memo)
    result = build(algorithm, h, metric, budget, memo=session)
    return result, session.finish(), session.stats()


def _time_point(table, counts, drifted, algorithm, metric, budget):
    """Time full builds of ``drifted`` against incremental rebuilds
    from a ``counts`` memo; raise unless the curves are bit-identical.

    The memo is seeded from a baseline build (untimed) and seeds every
    incremental rep (a rebuild leaves its memo intact).  The two legs
    alternate rep by rep, so both see the same host conditions; each
    rep times construction only.
    """
    _, memo, _ = _build_with_memo(
        table, counts, algorithm, metric, budget, None
    )
    full_times = []
    inc_times = []
    full_result = inc_result = None
    stats: Dict[str, float] = {}
    for _ in range(REPS):
        h = PrunedHierarchy(table, drifted)
        t0 = time.perf_counter()
        full_result = build(algorithm, h, metric, budget)
        full_times.append(time.perf_counter() - t0)
        h = PrunedHierarchy(table, drifted)
        t0 = time.perf_counter()
        session = incmod.new_session(algorithm, h, metric, budget, memo)
        inc_result = build(algorithm, h, metric, budget, memo=session)
        session.finish()
        inc_times.append(time.perf_counter() - t0)
        stats = session.stats()
    identical = full_result.curve.tobytes() == inc_result.curve.tobytes()
    if not identical:
        raise AssertionError(
            f"incremental curve diverged: {algorithm} "
            f"reused={stats['reused_fraction']:.3f}"
        )
    full_s = min(full_times)
    inc_s = min(inc_times)
    return {
        "full_seconds": round(full_s, 6),
        "incremental_seconds": round(inc_s, 6),
        "speedup": round(full_s / inc_s, 3),
        "identical": identical,
        "dirty_subtrees": stats["dirty_subtrees"],
        "reused_subtrees": stats["reused_subtrees"],
        "reused_fraction": round(stats["reused_fraction"], 4),
    }


def run_grid(grid: str) -> Dict[str, object]:
    rows = TINY_GRID if grid == "tiny" else FULL_GRID
    metric = get_metric("rms")
    points: List[Dict[str, object]] = []
    for algorithm, height, packets, budget in rows:
        table, counts = _workload(height, packets)
        builds = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            hierarchy = PrunedHierarchy(table, counts)
            builds.append(time.perf_counter() - t0)
        hierarchy_seconds = min(builds)
        workload = {
            "algorithm": algorithm,
            "height": height,
            "packets": packets,
            "budget": budget,
            "groups": table.num_groups,
            "pruned_nodes": len(hierarchy),
            "nonzero_groups": int(np.count_nonzero(counts)),
            "traffic": "zipf(active=0.95, s=1.1)",
            "hierarchy_seconds": round(hierarchy_seconds, 6),
        }
        print(
            f"{algorithm} h={height} B={budget} "
            f"nodes={workload['pruned_nodes']} "
            f"(hierarchy {hierarchy_seconds * 1e3:.1f} ms)"
        )
        legs = [(f, _drift(counts, f), False) for f in DRIFT_FRACTIONS]
        legs.append((
            SUPPORT_FRACTION,
            _support_change(counts, SUPPORT_FRACTION),
            True,
        ))
        for fraction, drifted, support_changed in legs:
            point = _time_point(
                table, counts, drifted, algorithm, metric, budget
            )
            point = {
                "workload": workload,
                "drift_fraction": fraction,
                "support_changed": support_changed,
                **point,
            }
            points.append(point)
            print(
                f"  {'support' if support_changed else 'drift'}="
                f"{fraction:.2f}: full={point['full_seconds'] * 1e3:.1f}ms "
                f"inc={point['incremental_seconds'] * 1e3:.1f}ms "
                f"({point['speedup']}x, "
                f"reused={point['reused_fraction']:.3f}, "
                f"identical={point['identical']})"
            )
    low_drift = {}
    for p in points:
        if p["support_changed"]:
            continue
        if p["drift_fraction"] <= 0.10:
            alg = p["workload"]["algorithm"]
            key = f"{alg}@{p['drift_fraction']}"
            low_drift[key] = p["speedup"]
    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_recalibration.py",
        "grid": grid,
        "drift_fractions": DRIFT_FRACTIONS,
        "reps": REPS,
        "points": points,
        "low_drift_speedups": low_drift,
        "support_change_speedups": {
            p["workload"]["algorithm"]: p["speedup"]
            for p in points
            if p["support_changed"]
        },
    }


def write_report(doc: Dict[str, object], out: str) -> str:
    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--grid", choices=("tiny", "full"), default="full",
        help="workload grid: 'tiny' is the CI smoke grid",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="output JSON path (default: repo-root "
             "BENCH_recalibration.json)",
    )
    args = parser.parse_args(argv)
    doc = run_grid(args.grid)
    path = write_report(doc, args.out)
    print(f"wrote {os.path.abspath(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
