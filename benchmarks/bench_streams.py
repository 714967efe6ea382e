"""Streaming perf harness: serving-path speedups, naive vs fast.

Times the steady-state window lifecycle in both stream kernel modes —
Monitor-side ingest (histogram construction per window, plus the
batched multi-window path), the histogram codec (scalar and batched
encode, payload parse), Control-Center decode (per-group estimate
reconstruction), the exact ground-truth join every window is scored
against, and the end-to-end serial :class:`MonitoringSystem` run —
across all three semantics classes, verifies the fast-path histograms,
estimates and join results are **bit-identical** to the naive
reference, and writes the measurements to ``BENCH_streams.json`` at
the repo root so perf PRs have a recorded trajectory.  Exits nonzero
when the join is not bit-identical or the batched encoder's bytes
differ from the scalar encoder's.

Usage::

    python benchmarks/bench_streams.py               # full grid
    python benchmarks/bench_streams.py --grid tiny   # CI smoke grid
    python benchmarks/bench_streams.py --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro import (
    CompiledEstimator,
    CompiledPartitioner,
    PrunedHierarchy,
    UIDDomain,
    get_metric,
    reconstruct_estimates,
)
from repro.algorithms import (
    build_lpm_greedy,
    build_nonoverlapping,
    build_overlapping,
)
from repro.core.wire import (
    WireHistogram,
    encode_histogram_v2,
    encode_histograms_v2,
)
from repro.data import TrafficModel, generate_subnet_table, generate_trace
from repro.streams import MonitoringSystem, Trace, use_stream_kernel_mode
from repro.streams.query import exact_group_counts

SCHEMA = "repro.bench_streams.v4"

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_streams.json",
)

#: (height, tuples, windows, budget) rows of the workload grid.
FULL_SIZES = [
    (12, 400_000, 16, 60),
    (16, 2_000_000, 32, 100),
]
TINY_SIZES = [(10, 40_000, 8, 20)]

ALGORITHMS = {
    "nonoverlapping": build_nonoverlapping,
    "overlapping": build_overlapping,
    "lpm": build_lpm_greedy,
}


def _workload(height: int, tuples: int):
    table = generate_subnet_table(
        UIDDomain(height), seed=7, base_stop=0.05, depth_ramp=0.02
    )
    model = TrafficModel(
        mode="zipf", active_fraction=0.5, zipf_exponent=1.1
    )
    uids = generate_trace(table, tuples, seed=11, model=model)
    counts = table.counts_from_uids(uids)
    return table, counts, uids


def _histograms_identical(a, b) -> bool:
    return bool(
        np.array_equal(a.nodes, b.nodes)
        and np.array_equal(a.values, b.values)
        and a.unmatched == b.unmatched
        and a.total == b.total
    )


def _bench_ingest(fn, windows: List[np.ndarray]) -> Dict[str, object]:
    """Per-window histogram construction: naive loop vs compiled vs
    compiled-batched, with bit-identity verification."""
    tuples = sum(int(w.size) for w in windows)
    compiled = CompiledPartitioner.for_function(fn)  # untimed compile+warmup
    compiled.build_histogram(windows[0])

    t0 = time.perf_counter()
    naive = [fn.build_histogram(w) for w in windows]
    naive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = [compiled.build_histogram(w) for w in windows]
    fast_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = compiled.build_histograms(windows)
    batched_s = time.perf_counter() - t0

    identical = all(
        _histograms_identical(n, f) and _histograms_identical(n, b)
        for n, f, b in zip(naive, fast, batched)
    )
    return {
        "tuples": tuples,
        "windows": len(windows),
        "seconds": {
            "naive": round(naive_s, 6),
            "fast": round(fast_s, 6),
            "fast_batched": round(batched_s, 6),
        },
        "tuples_per_sec": {
            "naive": round(tuples / naive_s, 1),
            "fast": round(tuples / fast_s, 1),
            "fast_batched": round(tuples / batched_s, 1),
        },
        "speedup_fast": round(naive_s / fast_s, 3),
        "speedup_fast_batched": round(naive_s / batched_s, 3),
        "bit_identical": identical,
        "histograms": naive,
        "fast_histograms": fast,
    }


#: Passes per codec measurement; the fastest is recorded.
CODEC_REPEATS = 5


def _best_of(run) -> float:
    best = float("inf")
    for _ in range(CODEC_REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_codec(fn, histograms) -> Dict[str, object]:
    """Per-payload cost of the histogram codec over one point's window
    histograms: one scalar encode per histogram, one batched encode of
    them all, and one ``WireHistogram`` parse per payload (fastest of
    ``CODEC_REPEATS`` passes each).  The batched bytes must equal the
    scalar bytes."""
    domain, semantics = fn.domain, fn.semantics
    scalar = [encode_histogram_v2(h, domain, semantics) for h in histograms]
    batched = encode_histograms_v2(histograms, domain, semantics)
    seconds = {
        "scalar_encode": _best_of(lambda: [
            encode_histogram_v2(h, domain, semantics) for h in histograms
        ]),
        "batched_encode": _best_of(
            lambda: encode_histograms_v2(histograms, domain, semantics)
        ),
        "parse": _best_of(lambda: [WireHistogram(p) for p in scalar]),
    }
    n = len(histograms)
    return {
        "payloads": n,
        "buckets_mean": round(sum(len(h) for h in histograms) / n, 1),
        "bytes_mean": round(sum(len(p) for p in scalar) / n, 1),
        "repeats": CODEC_REPEATS,
        "us_per_payload": {
            k: round(v / n * 1e6, 2) for k, v in seconds.items()
        },
        "bytes_identical": batched == scalar,
    }


def _bench_decode(table, fn, histograms) -> Dict[str, object]:
    """Per-window estimate reconstruction: dict-walk reference vs the
    compiled gather/divide, with bit-identity verification."""
    estimator = CompiledEstimator.for_pair(table, fn)  # untimed compile
    estimator.estimate(histograms[0])

    t0 = time.perf_counter()
    naive = [reconstruct_estimates(table, fn, h) for h in histograms]
    naive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = [estimator.estimate(h) for h in histograms]
    fast_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(n, f) for n, f in zip(naive, fast)
    )
    return {
        "windows": len(histograms),
        "seconds": {
            "naive": round(naive_s, 6), "fast": round(fast_s, 6),
        },
        "windows_per_sec": {
            "naive": round(len(histograms) / naive_s, 1),
            "fast": round(len(histograms) / fast_s, 1),
        },
        "speedup_fast": round(naive_s / fast_s, 3),
        "bit_identical": identical,
    }


def _bench_truth(table, windows: List[np.ndarray]) -> Dict[str, object]:
    """Per-window exact ground-truth join (``exact_group_counts``):
    the naive ``GroupTable`` join vs the compiled one, with bit-identity
    verification."""
    tuples = sum(int(w.size) for w in windows)
    results = {}
    seconds = {}
    for mode in ("naive", "fast"):
        with use_stream_kernel_mode(mode):
            exact_group_counts(table, windows[0])  # untimed compile+warmup
            t0 = time.perf_counter()
            results[mode] = [exact_group_counts(table, w) for w in windows]
            seconds[mode] = time.perf_counter() - t0
    identical = all(
        n.tobytes() == f.tobytes()
        for n, f in zip(results["naive"], results["fast"])
    )
    return {
        "tuples": tuples,
        "windows": len(windows),
        "seconds": {m: round(t, 6) for m, t in seconds.items()},
        "tuples_per_sec": {
            m: round(tuples / t, 1) for m, t in seconds.items()
        },
        "speedup_fast": round(seconds["naive"] / seconds["fast"], 3),
        "bit_identical": identical,
    }


def _bench_system(
    table, uids: np.ndarray, windows: int, budget: int
) -> Dict[str, object]:
    """End-to-end serial run (fast mode): live tuples per second."""
    trace = Trace.untimed(uids)
    half = trace.duration / 2
    width = max(half / windows, 1e-9)
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=4,
        algorithm="lpm_greedy", budget=budget,
    )
    with use_stream_kernel_mode("fast"):
        system.train(trace.slice_time(0, half))
        t0 = time.perf_counter()
        report = system.run(trace.slice_time(half, trace.duration + 1),
                            window_width=width)
        seconds = time.perf_counter() - t0
    live_tuples = sum(w.tuples for w in report.windows)
    return {
        "windows": len(report.windows),
        "tuples": live_tuples,
        "seconds": round(seconds, 6),
        "tuples_per_sec": round(live_tuples / seconds, 1),
    }


def run_grid(grid: str) -> Dict[str, object]:
    sizes = TINY_SIZES if grid == "tiny" else FULL_SIZES
    metric = get_metric("rms")
    points: List[Dict[str, object]] = []
    for height, tuples, n_windows, budget in sizes:
        table, counts, uids = _workload(height, tuples)
        hierarchy = PrunedHierarchy(table, counts)
        windows = [
            np.ascontiguousarray(w) for w in np.array_split(uids, n_windows)
        ]
        workload = {
            "height": height,
            "tuples": tuples,
            "windows": n_windows,
            "groups": table.num_groups,
            "budget": budget,
            "traffic": "zipf(active=0.5, s=1.1)",
        }
        for name, builder in ALGORITHMS.items():
            fn = builder(hierarchy, metric, budget).function_at(budget)
            ingest = _bench_ingest(fn, windows)
            histograms = ingest.pop("histograms")
            codec = _bench_codec(fn, ingest.pop("fast_histograms"))
            decode = _bench_decode(table, fn, histograms)
            point = {
                "workload": workload,
                "algorithm": name,
                "semantics": fn.semantics,
                "buckets": fn.num_buckets,
                "ingest": ingest,
                "codec": codec,
                "decode": decode,
            }
            points.append(point)
            print(
                f"h={height} n={tuples} {name}: ingest "
                f"{ingest['speedup_fast']}x "
                f"(batched {ingest['speedup_fast_batched']}x, "
                f"identical={ingest['bit_identical']}) decode "
                f"{decode['speedup_fast']}x "
                f"(identical={decode['bit_identical']}) codec us/payload "
                f"{codec['us_per_payload']} "
                f"(identical={codec['bytes_identical']})"
            )
        truth = _bench_truth(table, windows)
        points.append(
            {"workload": workload, "algorithm": "truth", "truth": truth}
        )
        print(
            f"h={height} n={tuples} truth: {truth['speedup_fast']}x "
            f"({truth['tuples_per_sec']['fast']} tps, "
            f"identical={truth['bit_identical']})"
        )
        system = _bench_system(table, uids, n_windows, budget)
        points.append(
            {"workload": workload, "algorithm": "system", "system": system}
        )
        print(
            f"h={height} n={tuples} system: "
            f"{system['tuples_per_sec']} tps over "
            f"{system['windows']} windows"
        )
    largest = max(p["workload"]["tuples"] for p in points)
    summary = {
        p["algorithm"]: p["ingest"]["speedup_fast"]
        for p in points
        if p["workload"]["tuples"] == largest and "ingest" in p
    }
    (truth,) = [
        p["truth"]
        for p in points
        if p["workload"]["tuples"] == largest and "truth" in p
    ]
    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_streams.py",
        "grid": grid,
        "modes": ["naive", "fast"],
        "points": points,
        "largest_point": {
            "tuples": largest,
            "ingest_speedup_fast": summary,
            "min_ingest_speedup_fast": min(summary.values()),
            "truth_speedup_fast": truth["speedup_fast"],
        },
        "truth_bit_identical": all(
            p["truth"]["bit_identical"] for p in points if "truth" in p
        ),
        "codec_bytes_identical": all(
            p["codec"]["bytes_identical"] for p in points if "codec" in p
        ),
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
        help="output JSON path (default: repo-root BENCH_streams.json)",
    )
    args = parser.parse_args(argv)
    doc = run_grid(args.grid)
    path = write_report(doc, args.out)
    print(f"wrote {os.path.abspath(path)}")
    if not doc["truth_bit_identical"]:
        print("FAIL: the compiled ground-truth join differs from naive")
        return 1
    if not doc["codec_bytes_identical"]:
        print("FAIL: the batched encoder's bytes differ from the scalar's")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
