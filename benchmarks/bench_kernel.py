"""Construction perf harness: kernel-mode speedups over a size grid.

Times nonoverlapping, overlapping and greedy longest-prefix-match
construction in both kernel modes (``naive`` — the seed implementation,
``fast`` — the vectorized kernels and, for the greedy heuristic, the
compiled error curve) across an |G| × budget grid, verifies that the
fast curves are identical to the naive reference (zero tolerance on
finite entries), and writes the measurements to
``BENCH_construction.json`` at the repo root so perf PRs have a
recorded trajectory.  The exit status is
non-zero when any point's fast curve is not identical, so the tiny
grid doubles as an identity smoke test.

Every (point, mode) is built ``REPS`` times and reports the minimum,
so the recorded trajectory does not move with one noisy build.  Each
height runs in its own process, so a point's timing does not depend on
the points before it.

Usage::

    python benchmarks/bench_kernel.py               # full grid
    python benchmarks/bench_kernel.py --grid tiny   # CI smoke grid
    python benchmarks/bench_kernel.py --out /tmp/bench.json

The figure benches add their own per-series build timings to the same
file via :func:`figlib.merge_construction_timings`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import PrunedHierarchy, UIDDomain, get_metric
from repro.algorithms import (
    build_lpm_greedy,
    build_nonoverlapping,
    build_overlapping,
    use_kernel_mode,
)
from repro.data import TrafficModel, generate_subnet_table, generate_trace

SCHEMA = "repro.bench_construction.v1"

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_construction.json",
)

#: (height, packets, base_stop, depth_ramp) rows of the workload grid.
#: The traffic model is a dense zipf mix — high active fraction keeps
#: the pruned hierarchy deep, which is the regime the DP kernels are
#: built for (sparse workloads spend their time elsewhere).
FULL_SIZES: List[Tuple[int, int, float, float]] = [
    (14, 1_000_000, 0.03, 0.01),
    (16, 2_000_000, 0.03, 0.01),
    (18, 5_000_000, 0.03, 0.01),
]
FULL_BUDGETS = [100, 400]

TINY_SIZES: List[Tuple[int, int, float, float]] = [(10, 30_000, 0.05, 0.02)]
TINY_BUDGETS = [20]

MODES = ["naive", "fast"]

#: Timed builds per (point, mode); each reports the minimum.
REPS = 5

ALGORITHMS = {
    "nonoverlapping": build_nonoverlapping,
    "overlapping": build_overlapping,
    "lpm_greedy": build_lpm_greedy,
}


def _workload(height: int, packets: int, base_stop: float, depth_ramp: float):
    table = generate_subnet_table(
        UIDDomain(height), seed=7, base_stop=base_stop, depth_ramp=depth_ramp
    )
    model = TrafficModel(
        mode="zipf", active_fraction=0.95, zipf_exponent=1.1
    )
    uids = generate_trace(table, packets, seed=11, model=model)
    counts = table.counts_from_uids(uids)
    return table, counts, PrunedHierarchy(table, counts)


def _curves_identical(ref: np.ndarray, got: np.ndarray) -> bool:
    """Zero-tolerance identity on finite entries, same infeasible set."""
    ref_fin = np.isfinite(ref)
    return bool(
        np.array_equal(ref_fin, np.isfinite(got))
        and np.array_equal(ref[ref_fin], got[ref_fin])
    )


def _row_points(
    row: Tuple[int, int, float, float], budgets: List[int]
) -> List[Dict[str, object]]:
    """Time every (budget, algorithm) point of one grid row."""
    height, packets, base_stop, depth_ramp = row
    metric = get_metric("rms")
    table, counts, hierarchy = _workload(
        height, packets, base_stop, depth_ramp
    )
    workload = {
        "height": height,
        "packets": packets,
        "groups": table.num_groups,
        "pruned_nodes": len(hierarchy),
        "nonzero_groups": int(np.count_nonzero(counts)),
        "traffic": "zipf(active=0.95, s=1.1)",
    }
    points: List[Dict[str, object]] = []
    for budget in budgets:
        for name, builder in ALGORITHMS.items():
            # Untimed warmup: one-time costs of a first build (first
            # numpy calls, lazily built caches) so mode order doesn't
            # bias the timings.
            with use_kernel_mode("fast"):
                builder(hierarchy, metric, budget)
            seconds: Dict[str, float] = {}
            curves: Dict[str, np.ndarray] = {}
            for mode in MODES:
                times = []
                with use_kernel_mode(mode):
                    for _ in range(REPS):
                        t0 = time.perf_counter()
                        result = builder(hierarchy, metric, budget)
                        times.append(time.perf_counter() - t0)
                seconds[mode] = min(times)
                curves[mode] = np.asarray(result.curve, dtype=np.float64)
                # Drop the build (and the naive oracle's per-node
                # tables) before the next mode's reps.
                del result
            point = {
                "workload": workload,
                "budget": budget,
                "algorithm": name,
                "metric": metric.name,
                "seconds": {m: round(s, 6) for m, s in seconds.items()},
                "speedup_fast": round(seconds["naive"] / seconds["fast"], 3),
                "fast_identical": _curves_identical(
                    curves["naive"], curves["fast"]
                ),
            }
            points.append(point)
            print(
                f"h={height} |G|={workload['groups']} B={budget} "
                f"{name}: naive={seconds['naive']:.3f}s "
                f"fast={seconds['fast']:.3f}s "
                f"({point['speedup_fast']}x, "
                f"identical={point['fast_identical']})",
                flush=True,
            )
    return points


def run_grid(grid: str) -> Dict[str, object]:
    sizes, budgets = (
        (TINY_SIZES, TINY_BUDGETS) if grid == "tiny"
        else (FULL_SIZES, FULL_BUDGETS)
    )
    points: List[Dict[str, object]] = []
    spawn = multiprocessing.get_context("spawn")
    for row in sizes:
        # Each row runs in a fresh process: in one long process the
        # later rows read slower than they do alone (allocator state
        # the earlier rows' naive builds leave behind).
        with spawn.Pool(1) as pool:
            points.extend(pool.apply(_row_points, (row, budgets)))
    largest = max(
        points,
        key=lambda p: (p["workload"]["groups"], p["budget"]),
    )
    summary = {
        p["algorithm"]: p["speedup_fast"]
        for p in points
        if p["workload"] == largest["workload"]
        and p["budget"] == largest["budget"]
    }
    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_kernel.py",
        "grid": grid,
        "modes": MODES,
        "reps": REPS,
        "points": points,
        "largest_point": {
            "groups": largest["workload"]["groups"],
            "budget": largest["budget"],
            "speedup_fast": summary,
        },
    }


def write_report(doc: Dict[str, object], out: str) -> str:
    """Write the grid results, preserving any figure-series timings a
    previous :func:`figlib.merge_construction_timings` call stored."""
    existing: Dict[str, object] = {}
    if os.path.exists(out):
        try:
            with open(out) as f:
                existing = json.load(f)
        except (OSError, ValueError):
            existing = {}
    if isinstance(existing.get("figure_series"), dict):
        doc = dict(doc, figure_series=existing["figure_series"])
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
        help="output JSON path (default: repo-root BENCH_construction.json)",
    )
    args = parser.parse_args(argv)
    doc = run_grid(args.grid)
    path = write_report(doc, args.out)
    print(f"wrote {os.path.abspath(path)}")
    broken = [p for p in doc["points"] if not p["fast_identical"]]
    for p in broken:
        print(
            f"NOT IDENTICAL: |G|={p['workload']['groups']} "
            f"B={p['budget']} {p['algorithm']}"
        )
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
