"""Command-line interface.

Everything needed to drive the system from a shell, working on small
portable artifact files:

* a *workload* file (``.npz``) holding a subnet table and a window of
  per-group counts;
* a *function* file (``.bin``) holding a partitioning function in its
  compact wire format (``.json`` also accepted).

Subcommands::

    python -m repro generate  --height 16 --packets 500000 -o work.npz
    python -m repro build     work.npz --algorithm lpm_greedy \\
                              --metric rms --budget 100 -o fn.bin
    python -m repro evaluate  work.npz fn.bin
    python -m repro inspect   fn.bin
    python -m repro simulate  --height 14 --algorithm overlapping \\
                              --budget 60 --monitors 4 \\
                              --faults drop=0.1,dup=0.05,seed=7 \\
                              --journal run.journal \\
                              --serve-metrics :9100
    python -m repro stats     run.jsonl [--watch]
    python -m repro replay    run.journal
    python -m repro trace     run.journal -o run.trace.json
    python -m repro top       run.journal | http://127.0.0.1:9100

Every subcommand accepts ``--metrics PATH`` (and ``--metrics-format
{json,csv,prom}``) to capture construction/pipeline instrumentation to
a file; ``repro stats`` pretty-prints a captured JSON-lines file
(``--watch`` re-renders as the file grows).  ``simulate`` additionally
exposes the live surfaces: ``--journal`` records every pipeline event
(replayable with ``repro replay``), ``--trace`` follows every
histogram copy's lifecycle end to end (``repro trace`` exports the
result as a Perfetto-loadable Chrome trace), ``--slo`` /
``--slo-file`` fire per-window alerts (served at ``/alerts.json``),
``--serve-metrics`` serves Prometheus text at ``/metrics`` mid-run,
``--metrics-interval`` re-writes the metrics file periodically, and
``repro top`` renders an in-terminal dashboard over either surface.

Run ``python -m repro <subcommand> --help`` for the full flag set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack
from typing import List, Optional

import numpy as np

from . import __version__
from .algorithms.construct import available_algorithms, build
from .core import (
    GroupTable,
    PrunedHierarchy,
    UIDDomain,
    available_metrics,
    decode_function,
    encode_function,
    evaluate_function,
    function_from_json,
    function_to_json,
    get_metric,
    histogram_from_group_counts,
)
from .data import TrafficModel, generate_subnet_table, generate_trace
from .data.traffic import generate_timestamped_trace
from .obs import (
    EXPORT_FORMATS,
    BufferJournal,
    EventJournal,
    MetricsRegistry,
    MetricsServer,
    PeriodicMetricsWriter,
    SLOEngine,
    TopSource,
    chrome_trace,
    fold_lifecycle,
    get_registry,
    load_jsonl,
    load_slo_file,
    parse_serve_spec,
    parse_slo_spec,
    read_journal,
    render_summary,
    render_top,
    unpaired_flows,
    use_journal,
    use_lifecycle,
    use_registry,
    use_slo_engine,
    write_metrics,
)
from .serving import ServingEngine, ShardedMonitoringSystem, TenantSpec
from .streams import (
    STALE_POLICIES,
    STREAM_KERNEL_MODES,
    FaultModel,
    MonitoringSystem,
    Trace,
    replay_system_report,
    use_stream_kernel_mode,
)

__all__ = ["main"]


def _save_workload(path: str, table: GroupTable, counts: np.ndarray) -> None:
    np.savez_compressed(
        path,
        height=np.asarray([table.domain.height]),
        nodes=table.nodes,
        group_ids=np.asarray([str(g) for g in table.group_ids]),
        counts=counts,
    )


def _load_workload(path: str):
    data = np.load(path, allow_pickle=False)
    domain = UIDDomain(int(data["height"][0]))
    table = GroupTable(
        domain, data["nodes"].tolist(), [str(g) for g in data["group_ids"]]
    )
    return table, data["counts"].astype(np.float64)


def _load_function(path: str):
    if path.endswith(".json"):
        with open(path) as f:
            return function_from_json(f.read())
    with open(path, "rb") as f:
        return decode_function(f.read())


def _cmd_generate(args: argparse.Namespace) -> int:
    domain = UIDDomain(args.height)
    table = generate_subnet_table(domain, seed=args.seed)
    uids = generate_trace(
        table, args.packets, seed=args.seed + 1, model=TrafficModel()
    )
    counts = table.counts_from_uids(uids)
    _save_workload(args.output, table, counts)
    print(
        f"wrote {args.output}: {len(table)} groups over 2^{args.height} "
        f"identifiers, {args.packets} packets, "
        f"{int((counts > 0).sum())} active groups"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    table, counts = _load_workload(args.workload)
    hierarchy = PrunedHierarchy(table, counts)
    metric = get_metric(args.metric)
    result = build(args.algorithm, hierarchy, metric, args.budget)
    fn = result.function_at(args.budget)
    if args.output.endswith(".json"):
        with open(args.output, "w") as f:
            f.write(function_to_json(fn))
    else:
        with open(args.output, "wb") as f:
            f.write(encode_function(fn))
    print(
        f"wrote {args.output}: {fn.semantics} function, "
        f"{fn.num_buckets} buckets, {fn.size_bits()} bits; "
        f"{args.metric} error {result.error_at(args.budget):.4g}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    table, counts = _load_workload(args.workload)
    fn = _load_function(args.function)
    hist = histogram_from_group_counts(table, counts, fn)
    print(f"function : {fn.semantics}, {fn.num_buckets} buckets, "
          f"{fn.size_bits()} bits")
    print(f"histogram: {len(hist)} nonzero buckets, "
          f"{hist.size_bytes(table.domain)} bytes/window")
    for name in sorted(available_metrics()):
        metric = get_metric(name)
        err = evaluate_function(table, counts, fn, metric, histogram=hist)
        print(f"{name:>16}: {err:.6g}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    fn = _load_function(args.function)
    domain = fn.domain
    print(f"{fn.semantics} partitioning function over 2^{domain.height} "
          f"identifiers; {fn.num_buckets} buckets, {fn.size_bits()} bits")
    for b in fn.buckets:
        line = f"  {domain.node_prefix_str(b.node)}"
        if b.is_sparse:
            line += (
                "  [sparse; group at "
                f"{domain.node_prefix_str(b.sparse_group_node)}]"
            )
        print(line)
    return 0


def _print_report(
    report,
    metric_name: str,
    monitors: Optional[int],
    degraded: bool,
) -> None:
    """The run summary, shared by ``simulate`` and ``replay``."""
    print(f"windows decoded   : {len(report.windows)}")
    print(f"mean {metric_name} error: {report.mean_error:.4g}")
    print(f"histogram bytes   : {report.upstream_bytes}")
    print(f"function bytes    : {report.function_bytes}")
    print(f"raw-stream bytes  : {report.raw_bytes}")
    print(f"compression ratio : {report.compression_ratio:.1f}x")
    if degraded:
        reporting = [w.monitors_reporting for w in report.windows]
        of = monitors if monitors is not None else "?"
        print(f"monitors reporting: min {min(reporting, default=0)} / "
              f"mean {float(np.mean(reporting)) if reporting else 0.0:.2f} "
              f"of {of}")
        print("duplicates dropped: "
              f"{sum(w.duplicates_dropped for w in report.windows)}")
        print("stale messages    : "
              f"{sum(w.stale_messages for w in report.windows)}")
        print("late messages     : "
              f"{sum(w.late_messages for w in report.windows)}")
        print(f"monitor crashes   : {report.monitor_crashes}")
        print(f"expired in flight : {report.expired_messages}")
    alerts = getattr(report, "alerts", [])
    if alerts:
        firing = [a for a in alerts if a.resolved_window is None]
        print(f"slo alerts        : {len(alerts)} fired, "
              f"{len(firing)} still firing")
        for a in alerts:
            status = (
                "firing"
                if a.resolved_window is None
                else f"resolved w{a.resolved_window}"
            )
            print(f"  {a.rule}: fired w{a.fired_window} "
                  f"value {a.value:.6g} [{status}]")


def _print_tenant_reports(
    results, metric_name: str, cache_stats=None
) -> None:
    """Per-tenant summaries for ``simulate --tenants`` runs."""
    admitted = [r for r in results.values() if r.admitted]
    rejected = [r for r in results.values() if not r.admitted]
    print(f"tenants admitted  : {len(admitted)} of {len(results)}")
    if cache_stats:
        s = cache_stats
        print(
            "shared cache      : "
            f"tables {s['table_hits']}/{s['table_hits'] + s['table_misses']} hit, "
            f"functions {s['function_hits']}/"
            f"{s['function_hits'] + s['function_misses']} hit, "
            f"memos {s['memo_hits']}/{s['memo_hits'] + s['memo_misses']} hit"
        )
    for tr in results.values():
        if not tr.admitted:
            continue
        report = tr.report
        budget = (
            f"{tr.bytes_used} of {tr.spec.byte_budget} budgeted"
            if tr.spec.byte_budget is not None
            else f"{tr.bytes_used}"
        )
        flag = "  [OVER BUDGET]" if tr.over_budget else ""
        print(
            f"tenant {tr.spec.name}: {len(report.windows)} windows, "
            f"mean {metric_name} error {report.mean_error:.4g}, "
            f"bytes {budget}{flag}"
        )
    for tr in rejected:
        print(f"tenant {tr.spec.name}: rejected ({tr.reason})")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.metrics_interval is not None and not args.metrics:
        print(
            "error: --metrics-interval needs --metrics PATH to write to",
            file=sys.stderr,
        )
        return 2
    serve_addr = None
    if args.serve_metrics:
        try:
            serve_addr = parse_serve_spec(args.serve_metrics)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.capacity_bytes is not None and args.tenants is None:
        print("error: --capacity-bytes needs --tenants", file=sys.stderr)
        return 2
    tenants: Optional[List[TenantSpec]] = None
    if args.tenants is not None:
        try:
            tenants = TenantSpec.parse_many(args.tenants)
        except ValueError as exc:
            print(f"error: --tenants: {exc}", file=sys.stderr)
            return 2
    domain = UIDDomain(args.height)
    table = generate_subnet_table(domain, seed=args.seed)
    ts, uids = generate_timestamped_trace(
        table, args.packets, duration=args.duration,
        seed=args.seed + 1, model=TrafficModel(),
    )
    trace = Trace(ts, uids)
    half = args.duration / 2
    faults = None
    if args.faults:
        try:
            faults = FaultModel.parse(args.faults)
        except ValueError as exc:
            print(f"error: --faults: {exc}", file=sys.stderr)
            return 2
    slo_rules = []
    if args.slo:
        try:
            slo_rules.extend(parse_slo_spec(args.slo))
        except ValueError as exc:
            print(f"error: --slo: {exc}", file=sys.stderr)
            return 2
    if args.slo_file:
        try:
            slo_rules.extend(load_slo_file(args.slo_file))
        except (OSError, ValueError) as exc:
            print(f"error: --slo-file: {exc}", file=sys.stderr)
            return 2
    metric = get_metric(args.metric)
    system_options = dict(
        num_monitors=args.monitors,
        stale_policy=args.stale_policy,
        incremental=args.incremental_rebuilds,
        faults=faults,
    )
    with ExitStack() as stack:
        if args.journal:
            stack.enter_context(use_journal(EventJournal(args.journal)))
        if args.trace:
            # The lifecycle books fold from the journal's events; without
            # --journal they are kept in memory.
            if not args.journal:
                memory = stack.enter_context(use_journal(BufferJournal()))
            stack.enter_context(use_lifecycle())
        engine = None
        if slo_rules:
            engine = stack.enter_context(
                use_slo_engine(SLOEngine(slo_rules))
            )
        if serve_addr is not None:
            server = stack.enter_context(
                MetricsServer(get_registry(), *serve_addr, slo=engine)
            )
            print(
                f"serving metrics at {server.url}/metrics",
                file=sys.stderr,
            )
        if args.metrics_interval is not None:
            stack.enter_context(
                PeriodicMetricsWriter(
                    get_registry(), args.metrics,
                    fmt=args.metrics_format,
                    interval=args.metrics_interval,
                )
            )
        with use_stream_kernel_mode(args.stream_kernels):
            if tenants is not None:
                # Multi-tenant serving: admission + per-tenant runs over
                # one shared cache (tenant specs carry their own
                # algorithm/budget; --algorithm/--budget are ignored).
                serving = stack.enter_context(
                    ServingEngine(
                        table, metric, tenants,
                        shards=args.shards,
                        capacity_bytes=args.capacity_bytes,
                        **system_options,
                    )
                )
                results = serving.run(
                    trace.slice_time(0, half),
                    trace.slice_time(half, args.duration),
                    window_width=half / max(1, args.windows),
                )
                _print_tenant_reports(
                    results, args.metric, serving.cache.stats()
                )
            else:
                if args.shards > 1:
                    system = stack.enter_context(
                        ShardedMonitoringSystem(
                            table, metric, shards=args.shards,
                            algorithm=args.algorithm,
                            budget=args.budget, **system_options,
                        )
                    )
                else:
                    system = MonitoringSystem(
                        table, metric, algorithm=args.algorithm,
                        budget=args.budget, **system_options,
                    )
                system.train(trace.slice_time(0, half))
                report = system.run(
                    trace.slice_time(half, args.duration),
                    window_width=half / max(1, args.windows),
                )
                _print_report(
                    report, args.metric, args.monitors, faults is not None
                )
        if args.trace:
            # Diagnostics go to stderr: replay reconstructs stdout from
            # the journal alone.
            events = (
                read_journal(args.journal) if args.journal else memory.events
            )
            print(_conservation_line(fold_lifecycle(events)),
                  file=sys.stderr)
        if serve_addr is not None and args.serve_linger > 0:
            # Keep /metrics scrapeable after the run (CI smoke, manual
            # inspection of a short run).
            sys.stdout.flush()
            time.sleep(args.serve_linger)
    return 0


def _conservation_line(books) -> str:
    verdict = "ok" if books.conservation_ok else "VIOLATED"
    return (
        f"lifecycle conservation {verdict}: sent={books.sent} "
        f"delivered={books.delivered} dropped={books.outcomes['dropped']} "
        f"expired={books.outcomes['expired']}"
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        events = read_journal(args.journal)
        report = replay_system_report(events)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_start = next(
        (e for e in events if e.get("event") == "run_start"), None
    )
    metric_name = (run_start or {}).get("metric") or "?"
    monitors = (run_start or {}).get("monitors")
    degraded = bool((run_start or {}).get("faults"))
    _print_report(report, metric_name, monitors, degraded)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        events = read_journal(args.journal)
        books = fold_lifecycle(events)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = chrome_trace(events)
    text = json.dumps(doc, sort_keys=True) + "\n"
    out = args.output or args.journal + ".trace.json"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)
        flows = sum(
            1 for e in doc["traceEvents"] if e.get("ph") == "s"
        )
        print(
            f"wrote {out}: {len(doc['traceEvents'])} trace events, "
            f"{flows} delivery flows, from {len(events)} journal events "
            f"(load it at https://ui.perfetto.dev)"
        )
    if books.sent and not books.conservation_ok:
        print(f"warning: {_conservation_line(books)}", file=sys.stderr)
    bad = unpaired_flows(doc)
    if bad:
        shown = ", ".join(bad[:5]) + ("..." if len(bad) > 5 else "")
        print(
            f"warning: {len(bad)} unpaired delivery flow(s): {shown} "
            f"(journal from a run without --trace, or truncated?)",
            file=sys.stderr,
        )
    return 0


_CLEAR_SCREEN = "\x1b[2J\x1b[H"


def _cmd_top(args: argparse.Namespace) -> int:
    refreshes = 0
    source = TopSource(args.source)
    try:
        while True:
            try:
                state = source.poll()
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if refreshes and sys.stdout.isatty():
                sys.stdout.write(_CLEAR_SCREEN)
            sys.stdout.write(render_top(state, max_rows=args.rows))
            sys.stdout.flush()
            refreshes += 1
            if args.once or state.finished:
                return 0
            if args.max_refreshes and refreshes >= args.max_refreshes:
                return 0
            time.sleep(args.refresh)
    except KeyboardInterrupt:
        return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if not args.watch:
        try:
            records = load_jsonl(args.metrics_file)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(render_summary(records))
        return 0
    renders = 0
    last_size = -1
    try:
        while True:
            try:
                size = os.path.getsize(args.metrics_file)
            except OSError:
                size = -1  # not written yet; keep waiting
            if size >= 0 and size != last_size:
                try:
                    records = load_jsonl(args.metrics_file)
                except (OSError, ValueError):
                    records = None  # mid-write; retry next tick
                if records is not None:
                    last_size = size
                    if renders and sys.stdout.isatty():
                        sys.stdout.write(_CLEAR_SCREEN)
                    sys.stdout.write(render_summary(records))
                    sys.stdout.flush()
                    renders += 1
            if args.watch_max and renders >= args.watch_max:
                return 0
            time.sleep(args.watch_interval)
    except KeyboardInterrupt:
        return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compact histograms for hierarchical identifiers "
        "(Reiss, Garofalakis & Hellerstein, VLDB 2006).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # Observability flags, shared by every subcommand.
    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="capture instrumentation (timings, counters, spans) to PATH",
    )
    metrics.add_argument(
        "--metrics-format", choices=EXPORT_FORMATS, default="json",
        help="metrics file format (default json = JSON-lines, readable "
        "by 'repro stats')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic workload",
                       parents=[metrics])
    g.add_argument("--height", type=int, default=16,
                   help="identifier domain height (default 16)")
    g.add_argument("--packets", type=int, default=500_000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True, help="output .npz path")
    g.set_defaults(func=_cmd_generate)

    b = sub.add_parser("build", help="construct a partitioning function",
                       parents=[metrics])
    b.add_argument("workload", help="workload .npz from 'generate'")
    b.add_argument("--algorithm", default="lpm_greedy",
                   choices=sorted(available_algorithms()))
    b.add_argument("--metric", default="rms",
                   choices=sorted(available_metrics()))
    b.add_argument("--budget", type=int, default=100)
    b.add_argument("-o", "--output", required=True,
                   help="output .bin (wire format) or .json path")
    b.set_defaults(func=_cmd_build)

    e = sub.add_parser("evaluate",
                       help="score a function against a workload",
                       parents=[metrics])
    e.add_argument("workload")
    e.add_argument("function")
    e.set_defaults(func=_cmd_evaluate)

    i = sub.add_parser("inspect", help="print a function's buckets",
                       parents=[metrics])
    i.add_argument("function")
    i.set_defaults(func=_cmd_inspect)

    s = sub.add_parser("simulate",
                       help="run the end-to-end monitoring pipeline",
                       parents=[metrics])
    s.add_argument("--height", type=int, default=14)
    s.add_argument("--packets", type=int, default=200_000)
    s.add_argument("--duration", type=float, default=60.0)
    s.add_argument("--windows", type=int, default=4,
                   help="live windows to decode (default 4)")
    s.add_argument("--monitors", type=int, default=4)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--algorithm", default="lpm_greedy",
                   choices=sorted(available_algorithms()))
    s.add_argument("--metric", default="rms",
                   choices=sorted(available_metrics()))
    s.add_argument("--budget", type=int, default=80)
    s.add_argument("--faults", metavar="SPEC", default=None,
                   help="inject channel faults, e.g. "
                   "'drop=0.1,dup=0.05,delay=0.1,crash=0.01,seed=7' "
                   "(keys: drop, dup, reorder, delay, max_delay, crash, "
                   "install_drop, seed)")
    s.add_argument("--stale-policy", choices=STALE_POLICIES,
                   default="strict",
                   help="how decode treats stale-version histograms "
                   "(default strict)")
    s.add_argument("--incremental-rebuilds", action="store_true",
                   help="subtree-memoized DP rebuilds: recalibrations "
                   "re-solve only drifted subtrees (nonoverlapping/"
                   "overlapping only; results are bit-identical)")
    s.add_argument("--stream-kernels", choices=STREAM_KERNEL_MODES,
                   default="fast",
                   help="serving-path kernels: compiled 'fast' (default) "
                   "or the 'naive' reference loops; results are "
                   "bit-identical (also REPRO_STREAM_KERNELS)")
    s.add_argument("--shards", type=int, default=1, metavar="K",
                   help="hash-shard UIDs across K worker processes with "
                   "wire-level fan-in (default 1 = serial; reports are "
                   "bit-identical)")
    s.add_argument("--tenants", metavar="SPEC", default=None,
                   help="serve a multi-tenant fleet instead of one "
                   "system, e.g. 'alpha:budget=100,bytes=65536;"
                   "beta:algorithm=nonoverlapping' (keys: algorithm, "
                   "budget, bytes, seed); combines with --shards")
    s.add_argument("--capacity-bytes", type=int, default=None,
                   metavar="N",
                   help="admission-control ceiling on the sum of "
                   "declared tenant byte budgets (needs --tenants)")
    s.add_argument("--journal", metavar="PATH", default=None,
                   help="record every pipeline event (installs, faults, "
                   "decodes) as JSON lines; replay with 'repro replay'")
    s.add_argument("--trace", action="store_true",
                   help="capture every histogram copy's lifecycle "
                   "(trace.sent/delivered/closed events; fault.* events "
                   "gain version/copy) and print the conservation "
                   "verdict; with --journal they feed 'repro trace'")
    s.add_argument("--slo", metavar="SPEC", default=None,
                   help="per-window SLO rules, e.g. "
                   "'coverage>=0.9,delivery_p99_windows<=2,"
                   "drift_score<=0.5' (delivery_* quantiles need "
                   "--trace); breaches fire alerts")
    s.add_argument("--slo-file", metavar="PATH", default=None,
                   help="load SLO rules from a JSON (or, on 3.11+, TOML) "
                   "file; combined with --slo rules")
    s.add_argument("--serve-metrics", metavar="[HOST]:PORT", default=None,
                   help="serve live Prometheus text at /metrics (and the "
                   "per-window series at /series.json) while the run "
                   "executes, e.g. ':9100'")
    s.add_argument("--serve-linger", type=float, default=0.0,
                   metavar="SECONDS",
                   help="keep the metrics endpoint up this long after "
                   "the run finishes (default 0)")
    s.add_argument("--metrics-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="re-write the --metrics file every SECONDS while "
                   "the run executes (final state is always written)")
    s.set_defaults(func=_cmd_simulate)

    st = sub.add_parser("stats",
                        help="pretty-print a captured metrics file")
    st.add_argument("metrics_file",
                    help="JSON-lines file written by --metrics")
    st.add_argument("--watch", action="store_true",
                    help="keep re-rendering as the file grows (for "
                    "'simulate --metrics-interval' runs); Ctrl-C to stop")
    st.add_argument("--watch-interval", type=float, default=0.5,
                    metavar="SECONDS",
                    help="polling interval for --watch (default 0.5)")
    st.add_argument("--watch-max", type=int, default=0, metavar="N",
                    help="stop --watch after N renders (0 = run until "
                    "interrupted)")
    st.set_defaults(func=_cmd_stats)

    r = sub.add_parser("replay",
                       help="reconstruct and print a run summary from an "
                       "event journal (no re-simulation)")
    r.add_argument("journal", help="journal written by simulate --journal")
    r.set_defaults(func=_cmd_replay)

    tr = sub.add_parser("trace",
                        help="export a journal as Chrome Trace Event JSON "
                        "(loadable in Perfetto / chrome://tracing)")
    tr.add_argument("journal",
                    help="journal written by simulate --journal --trace")
    tr.add_argument("-o", "--output", metavar="PATH", default=None,
                    help="output path (default <journal>.trace.json; "
                    "'-' writes the JSON to stdout)")
    tr.set_defaults(func=_cmd_trace)

    t = sub.add_parser("top",
                       help="in-terminal dashboard over a live run "
                       "(journal file or metrics-server URL)")
    t.add_argument("source",
                   help="journal path, or metrics-server base URL like "
                   "http://127.0.0.1:9100")
    t.add_argument("--refresh", type=float, default=2.0, metavar="SECONDS",
                   help="refresh interval (default 2)")
    t.add_argument("--once", action="store_true",
                   help="render one frame and exit")
    t.add_argument("--rows", type=int, default=12, metavar="N",
                   help="window rows to show (default 12, most recent)")
    t.add_argument("--max-refreshes", type=int, default=0, metavar="N",
                   help="exit after N frames (0 = until run_end/Ctrl-C)")
    t.set_defaults(func=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    metrics_path = getattr(args, "metrics", None)
    serving = getattr(args, "serve_metrics", None)
    if not metrics_path and not serving:
        return args.func(args)
    # A live registry is needed both to capture to a file and to serve
    # /metrics; the file is only written when a path was given.
    registry = MetricsRegistry()
    with use_registry(registry):
        rc = args.func(args)
    if metrics_path:
        write_metrics(registry, metrics_path, args.metrics_format)
    return rc


if __name__ == "__main__":
    sys.exit(main())
