"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload thin_windows --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` also runs
the traced sequence and prints every per-layer metric instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a
traced run are written to ``perfbench/out/``.  ``--size smoke`` runs a
small version of each workload in seconds (for the benchmark's own
tests).  The exit code is nonzero when any run fails its reference
check or a workload stops exercising its layer.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    main_pid = os.getpid()

    def on_term(signum, _frame):
        # Forked pool workers inherit this handler; only the parent
        # unwinds (so that the ``finally`` below reaps its children).
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return _bench(args)
    finally:
        harness.stop_children()


def _bench(args) -> int:
    from perfbench import harness, layers, metrics
    from perfbench.workloads import generate

    t0 = time.perf_counter()
    w = generate(args.workload, args.seed, args.size)
    t1 = time.perf_counter()
    ref = harness.reference(w)
    t2 = time.perf_counter()
    m = harness.measure(w, ref, args.seconds, args.size)
    e2e = harness.end_to_end(m)
    raw = harness.end_to_end(m, adjusted=False)
    # As-measured over adjusted run time: the host slowdown, plus the
    # time the host took the processor away.
    factors = [
        sum(r.intervals_ms(False)) / sum(r.intervals_ms()) for r in m.runs
    ]
    print(
        f"{w.name}: seed={args.seed} runs={len(m.runs)} "
        f"windows/run={len(ref.windows)} gaps={len(m.gaps_ms())} "
        f"setups={len(m.setups)} failed={m.failed}/{m.attempted}; "
        f"generate {t1 - t0:.1f}s, reference {t2 - t1:.1f}s, "
        f"measure {m.wall_s:.1f}s; as measured/adjusted "
        f"{min(factors):.2f}-{max(factors):.2f}"
    )
    print(f"  {'metric':24s} {'adjusted':>14s} {'as measured':>14s}")
    for name, value in e2e.items():
        print(
            f"  {name:24s} {value:14.6g} {raw[name]:14.6g} "
            f"{metrics.END_TO_END[name][0]}"
        )
    for error in m.errors:
        print(f"  failed run: {error}")
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(
            out_dir, f"spans-{w.name}-{args.seed}.jsonl"
        )
        values = layers.traced_metrics(w, ref, m, spans_path)
        for name, value in values.items():
            print(f"  {name:36s} {value:14.6g} {metrics.PER_LAYER[name][0]}")
        units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        values = e2e
        units = {k: v[0] for k, v in metrics.END_TO_END.items()}
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
