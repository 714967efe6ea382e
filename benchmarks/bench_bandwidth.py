"""Ablation A5: bandwidth vs accuracy, v2 wire vs the v1 size model.

Runs the full monitoring pipeline — train a partitioning function on
history, stream live windows through Monitors, reconstruct at the
Control Center — once per grid point, and records accuracy against
bytes shipped, compared with shipping raw identifiers.  Monitors
transmit the v2 wire format; v1 is the paper's Section 4.3 size model,
priced over the same transmissions as ``8 + Histogram.size_bytes`` per
message (window/version header plus fixed-width (node, 32-bit counter)
pairs).  The histograms it prices are rebuilt independently of the run:
the same split and segmentation, partitioned by the naive
``function.build_histogram``.  Checked at every grid point, not just
reported:

* every v2 payload decodes to exactly that rebuilt histogram, field by
  field, so the estimates are the ones a v1 transmission of the same
  histograms would give (the format changes the bytes on the link,
  never the answer);
* the v2 payloads (delta-encoded node ids, self-describing narrow
  counters) are never larger than the v1 model;
* the histograms compress the raw stream (ratio above 1).

Results land in ``BENCH_bandwidth.json`` at the repo root so wire PRs
have a recorded size trajectory.

Usage::

    python benchmarks/bench_bandwidth.py               # full grid
    python benchmarks/bench_bandwidth.py --grid tiny   # CI smoke grid
    python benchmarks/bench_bandwidth.py --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional

from repro import UIDDomain, get_metric
from repro.core.wire import decode_histogram_v2
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.streams import MonitoringSystem, Trace, TumblingWindows

SCHEMA = "repro.bench_bandwidth.v2"

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_bandwidth.json",
)

#: (height, packets, duration_s, window_width_s, budgets) grid rows.
FULL_SIZES = [
    (12, 200_000, 40.0, 5.0, [10, 50, 200]),
    (16, 600_000, 60.0, 10.0, [10, 50, 200]),
]
TINY_SIZES = [(10, 40_000, 20.0, 5.0, [10, 40])]

#: v1 is priced as a size model; v2 is what crosses the link.
WIRE_FORMATS = ("v1", "v2")


def _traces(height: int, packets: int, duration: float):
    dom = UIDDomain(height)
    table = generate_subnet_table(dom, seed=61)
    ts, uids = generate_timestamped_trace(
        table, packets, duration=duration, seed=62, model=TrafficModel()
    )
    trace = Trace(ts, uids)
    half = duration / 2
    return table, trace.slice_time(0, half), trace.slice_time(half, duration)


def _run(table, history, live, budget: int, width: float):
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=4,
        algorithm="lpm_greedy", budget=budget,
    )
    system.train(history)
    t0 = time.perf_counter()
    report = system.run(live, window_width=width)
    return system, report, time.perf_counter() - t0


def _rebuilt(system, live, width: float):
    """(monitor, window) -> the histogram the naive partitioner builds
    from the run's split (seed 0) and segmentation."""
    function = system.control_center.function
    shares = live.split(len(system.monitors), seed=0)
    return {
        (monitor.name, win.index): function.build_histogram(win.uids)
        for monitor, share in zip(system.monitors, shares)
        for win in TumblingWindows(width).segment(share)
    }


def _lossless(message, h) -> bool:
    """The payload decodes to exactly the histogram ``h``."""
    decoded = decode_histogram_v2(message.payload)
    return (
        decoded.nodes.tolist() == h.nodes.tolist()
        and decoded.values.tolist() == h.values.tolist()
        and (decoded.unmatched, decoded.total) == (h.unmatched, h.total)
    )


def run_grid(grid: str) -> Dict[str, object]:
    sizes = TINY_SIZES if grid == "tiny" else FULL_SIZES
    points: List[Dict[str, object]] = []
    for height, packets, duration, width, budgets in sizes:
        table, history, live = _traces(height, packets, duration)
        for budget in budgets:
            system, report, seconds = _run(
                table, history, live, budget, width
            )
            messages = system.channel.messages
            rebuilt = _rebuilt(system, live, width)
            assert len(messages) == len(rebuilt)
            histograms = [
                rebuilt[(m.monitor, m.window_index)] for m in messages
            ]
            v2_bytes = report.upstream_bytes
            # What the v1 channel charged for the same transmissions.
            v1_bytes = sum(
                8 + h.size_bytes(table.domain, 32) for h in histograms
            )
            lossless = all(
                _lossless(m, h) for m, h in zip(messages, histograms)
            )
            # Hard checks, not just recorded numbers: identical answers,
            # never-larger payloads, real compression.
            assert lossless, (
                f"a v2 payload changed its histogram at h={height} "
                f"budget={budget}"
            )
            assert v2_bytes <= v1_bytes, (
                f"v2 payloads larger than the v1 model at h={height} "
                f"budget={budget}: {v2_bytes} > {v1_bytes}"
            )
            v1_ratio = report.raw_bytes / (v1_bytes + report.function_bytes)
            assert v1_ratio > 1.0
            saving = v2_bytes / v1_bytes if v1_bytes else 1.0
            point = {
                "workload": {
                    "height": height,
                    "packets": packets,
                    "duration_s": duration,
                    "window_width_s": width,
                    "monitors": 4,
                    "algorithm": "lpm_greedy",
                },
                "budget": budget,
                "windows": len(report.windows),
                "mean_error": report.mean_error,
                "errors_bit_identical": lossless,
                "raw_bytes": report.raw_bytes,
                "function_bytes": report.function_bytes,
                "upstream_bytes": {"v1": v1_bytes, "v2": v2_bytes},
                "v2_over_v1_bytes": round(saving, 4),
                "compression_ratio": {
                    "v1": round(v1_ratio, 2),
                    "v2": round(report.compression_ratio, 2),
                },
                "seconds": {"v2": round(seconds, 6)},
            }
            points.append(point)
            print(
                f"h={height} budget={budget}: "
                f"error={report.mean_error:.4f} "
                f"v1 model={v1_bytes}B v2={v2_bytes}B "
                f"({(1 - saving) * 100:.1f}% smaller, "
                f"compression {point['compression_ratio']['v1']}x -> "
                f"{point['compression_ratio']['v2']}x)"
            )
    ratios = [p["v2_over_v1_bytes"] for p in points]
    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_bandwidth.py",
        "grid": grid,
        "wire_formats": list(WIRE_FORMATS),
        "points": points,
        "summary": {
            "grid_points": len(points),
            "all_errors_bit_identical": all(
                p["errors_bit_identical"] for p in points
            ),
            "v2_never_larger": all(r <= 1.0 for r in ratios),
            "best_v2_over_v1_bytes": min(ratios),
            "worst_v2_over_v1_bytes": max(ratios),
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
        help="output JSON path (default: repo-root BENCH_bandwidth.json)",
    )
    args = parser.parse_args(argv)
    doc = run_grid(args.grid)
    path = write_report(doc, args.out)
    print(f"wrote {os.path.abspath(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
