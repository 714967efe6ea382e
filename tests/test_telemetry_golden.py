"""Golden telemetry: three fixed-seed runs whose Prometheus exposition,
journal event stream and per-window ``registry.window_series`` are
pinned in ``tests/data/telemetry_golden_*.json``.

The scenarios cover every instrumented layer:

* ``serial`` — a faulty, incremental, adaptive run with lifecycle
  capture and an SLO engine live (faults, installs, traces, drift,
  recalibrations, alerts);
* ``sharded`` — a faulty 2-shard run (worker snapshot fan-in,
  ``shard.*`` events, prefetch counters);
* ``serving`` — a 2-tenant :class:`~repro.serving.ServingEngine` run
  (admission, per-tenant reports, shared-cache counters).

Only wall-clock-derived values are masked: ``ts``, ``wall_start``,
``duration_us`` and ``worker_ts`` fields; timer sums, bucket tallies
and quantiles (timer counts stay); and process resource samples
(``proc.*``, the per-shard CPU/RSS summaries).  Everything else must
match exactly.

Regenerate the data files (only when a change to the telemetry is
intended) with::

    PYTHONPATH=src python tests/test_telemetry_golden.py --record
"""

import io
import json
import os
import re
import sys

from repro import UIDDomain, get_metric
from repro.algorithms.kernels import use_kernel_mode
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    SLOEngine,
    parse_slo_spec,
    to_prometheus,
    use_journal,
    use_lifecycle,
    use_registry,
    use_slo_engine,
)
from repro.serving import ServingEngine, ShardedMonitoringSystem
from repro.streams import (
    AdaptiveMonitoringSystem,
    BucketDriftDetector,
    FaultModel,
    Trace,
)
from repro.streams.kernels import use_stream_kernel_mode

DATA = os.path.join(os.path.dirname(__file__), "data")
FAULTS = "drop=0.15,dup=0.1,delay=0.2,reorder=0.1,crash=0.05,seed=7"
SLO = "coverage>=0.9,occupancy_entropy<0.5,delivery_p99_windows<=1"
MASK = "<masked>"

#: Timers whose observations are window counts, not clock readings.
_COUNT_TIMERS = {"delivery.age_windows"}
#: Journal fields read off a clock or the process's resource usage.
_CLOCK_FIELDS = {"ts", "wall_start", "duration_us", "worker_ts"}
_RESOURCE_FIELDS = {
    "cpu_user_s", "cpu_system_s", "max_rss_kb", "gc_collections",
    "gc_collected", "gc_uncollectable", "cpu_s", "pid",
}
#: Gauge families that sample process resources.
_RESOURCE_GAUGE = re.compile(
    r"^(proc\.|serving\.shard\.(cpu_seconds|max_rss_kb))"
)


def _workload():
    table = generate_subnet_table(UIDDomain(10), seed=2)
    ts, uids = generate_timestamped_trace(
        table, 8000, duration=40.0, seed=4,
        model=TrafficModel(active_fraction=0.15, zipf_exponent=1.2),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 20), trace.slice_time(20, 40)


def _serial(table, history, live):
    system = AdaptiveMonitoringSystem(
        table, get_metric("rms"), num_monitors=3,
        algorithm="lpm_greedy", budget=40, stale_policy="rescale",
        incremental=True, faults=FaultModel.parse(FAULTS),
        detector=BucketDriftDetector(threshold=0.01, patience=1),
    )
    with use_lifecycle(), use_slo_engine(SLOEngine(parse_slo_spec(SLO))):
        system.train(history)
        system.run(live, window_width=1.0)


def _sharded(table, history, live):
    with ShardedMonitoringSystem(
        table, get_metric("rms"), num_monitors=3, shards=2,
        algorithm="lpm_greedy", budget=40, stale_policy="rescale",
        faults=FaultModel.parse(FAULTS),
    ) as system:
        system.train(history)
        system.run(live, window_width=1.0)


def _serving(table, history, live):
    with ServingEngine(
        table, get_metric("rms"),
        "alpha:budget=30,bytes=2000,seed=1;beta:budget=60,bytes=90000;gamma",
        capacity_bytes=100000, num_monitors=2,
    ) as engine:
        engine.run(history, live, window_width=4.0)


SCENARIOS = {"serial": _serial, "sharded": _sharded, "serving": _serving}


def _timer_names(registry):
    return {
        inst.name for kind, inst in registry.instruments()
        if kind == "timer" and inst.name not in _COUNT_TIMERS
    }


def _mask_prometheus(text, registry):
    """Exposition lines, with clock timers' bucket/sum samples and
    resource gauges masked."""
    clock = {
        re.sub(r"[^a-zA-Z0-9_:]", "_", name)
        for name in _timer_names(registry)
    }
    resources = {
        re.sub(r"[^a-zA-Z0-9_:]", "_", inst.name)
        for kind, inst in registry.instruments()
        if kind == "gauge" and _RESOURCE_GAUGE.match(inst.name)
    }
    lines = []
    for line in text.splitlines():
        if not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            metric = re.split(r"[{ ]", series, maxsplit=1)[0]
            for family in clock:
                if metric in (family + "_bucket", family + "_sum"):
                    value = MASK
            if metric in resources:
                value = MASK
            line = f"{series} {value}"
        lines.append(line)
    return lines


def _mask_event(event):
    out = {}
    for key, value in event.items():
        if key in _CLOCK_FIELDS or (
            key in _RESOURCE_FIELDS
            and event["event"] in (
                "shard.worker.resources", "shard.summary",
            )
        ):
            value = MASK
        out[key] = value
    return out


def _mask_record(record, clock):
    out = dict(record)
    out["ts"] = MASK
    out["gauges"] = {
        key: MASK if _RESOURCE_GAUGE.match(key) else value
        for key, value in record["gauges"].items()
    }
    out["timers"] = {
        key: (
            entry if key.partition("{")[0] not in clock
            else {"count": entry["count"]}
        )
        for key, entry in record["timers"].items()
    }
    return out


def capture(name):
    """Run one scenario under a fresh registry and journal; returns the
    masked ``{"prometheus", "journal", "window_series"}`` document."""
    table, history, live = _workload()
    sink = io.StringIO()
    registry = MetricsRegistry()
    with use_kernel_mode("fast"), use_stream_kernel_mode("fast"), \
            use_registry(registry), use_journal(EventJournal(sink)):
        SCENARIOS[name](table, history, live)
    clock = _timer_names(registry)
    return {
        "prometheus": _mask_prometheus(to_prometheus(registry), registry),
        "journal": [
            _mask_event(json.loads(line))
            for line in sink.getvalue().splitlines()
        ],
        "window_series": [
            _mask_record(record, clock) for record in registry.window_series
        ],
    }


def _path(name):
    return os.path.join(DATA, f"telemetry_golden_{name}.json")


def _check(name):
    with open(_path(name)) as f:
        expected = json.load(f)
    observed = json.loads(json.dumps(capture(name)))
    for part in ("prometheus", "journal", "window_series"):
        assert len(observed[part]) == len(expected[part]), part
        for i, (got, want) in enumerate(zip(observed[part], expected[part])):
            # Dumped without sort_keys: key order is part of the record
            # shape.
            assert json.dumps(got) == json.dumps(want), (part, i)


def test_serial_golden():
    _check("serial")


def test_sharded_golden():
    _check("sharded")


def test_serving_golden():
    _check("serving")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_telemetry_golden.py --record")
    for scenario in SCENARIOS:
        with open(_path(scenario), "w") as f:
            json.dump(capture(scenario), f, indent=1)
            f.write("\n")
        print("wrote", _path(scenario))
