"""The per-window record is built from what changed.

The window loop must never take a full registry snapshot:
:func:`~repro.obs.take_snapshot` is only for shipping a shard worker's
registry to the parent.  These runs patch it to raise in this process
(worker processes keep the real one) and must still complete, with
every record carrying exactly the deltas the registry saw — including
the ones :func:`~repro.obs.merge_worker_snapshots` folds in.
"""

import os
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    emit_window_record,
    merge_snapshot,
    parse_instrument_key,
    snapshot_from_wire,
    snapshot_to_wire,
    use_journal,
    use_lifecycle,
    use_registry,
)
from repro.obs import crossproc, snapshots
from repro.obs.registry import DEFAULT_BUCKETS
from repro.obs.snapshots import (
    WINDOW_QUANTILES,
    _window_quantiles,
    bucket_quantile,
)
from repro.serving import ShardedMonitoringSystem
from repro.streams import FaultModel, MonitoringSystem, Trace


@pytest.fixture(scope="module")
def workload():
    table = generate_subnet_table(UIDDomain(10), seed=2)
    ts, uids = generate_timestamped_trace(
        table, 6000, duration=30.0, seed=4,
        model=TrafficModel(active_fraction=0.15, zipf_exponent=1.2),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 15), trace.slice_time(15, 30)


@pytest.fixture
def no_snapshots(monkeypatch):
    """``take_snapshot`` raises in this process (and only here)."""
    parent = os.getpid()
    real = snapshots.take_snapshot

    def guarded(registry):
        if os.getpid() == parent:
            raise AssertionError("the window loop took a full snapshot")
        return real(registry)

    monkeypatch.setattr(snapshots, "take_snapshot", guarded)
    monkeypatch.setattr(crossproc, "take_snapshot", guarded)


def _counter_totals(registry):
    return {
        key: sum(r["counters"].get(key, 0.0) for r in registry.window_series)
        for key in {
            k for r in registry.window_series for k in r["counters"]
        }
    }


def test_serial_run_without_snapshots(workload, no_snapshots, tmp_path):
    table, history, live = workload
    registry = MetricsRegistry()
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=3, budget=30,
        stale_policy="rescale",
        faults=FaultModel.parse("drop=0.2,dup=0.1,delay=0.2,seed=3"),
    )
    with use_registry(registry), use_lifecycle(), \
            use_journal(EventJournal(str(tmp_path / "run.journal"))):
        system.train(history)
        report = system.run(live, window_width=1.5)
    series = registry.window_series
    assert [r["window"] for r in series] == [
        w.window_index for w in report.windows
    ]
    totals = _counter_totals(registry)
    assert totals["system.windows"] == len(report.windows)
    assert totals["system.tuples"] == sum(w.tuples for w in report.windows)
    assert totals["channel.upstream.bytes"] == report.upstream_bytes
    # Each distribution's per-window counts add up to its total.
    for section, kind in (("timers", "timer"), ("histograms", "histogram")):
        counts = {}
        for r in series:
            for key, entry in r[section].items():
                counts[key] = counts.get(key, 0) + entry["count"]
        for key, count in counts.items():
            name, labels = parse_instrument_key(key)
            assert count == registry.get(kind, name, **labels).count, key
    assert counts["system.window.error"] == len(report.windows)
    # Every record carries every gauge's level.
    assert all(
        "quality.coverage" in r["gauges"] and "control.function.buckets"
        in r["gauges"] for r in series
    )


def test_sharded_merge_lands_in_the_next_record(workload, no_snapshots):
    """Counters that only ``merge_worker_snapshots`` touches appear in
    the first record after each prefetch with the parent's delta."""
    table, history, live = workload
    registry = MetricsRegistry()
    key = "monitor.tuples{monitor=monitor-0,shard=0}"
    hist = "monitor.window.nonzero_buckets{shard=0}"
    with ShardedMonitoringSystem(
        table, get_metric("rms"), num_monitors=3, shards=2, budget=30,
    ) as system, use_registry(registry):
        system.train(history)
        firsts, totals = [], []
        for _ in range(2):
            start = len(registry.window_series)
            system.run(live, window_width=1.5)
            firsts.append(registry.window_series[start])
            totals.append((
                registry.get("counter", "monitor.tuples",
                             monitor="monitor-0", shard="0").value,
                registry.get("histogram", "monitor.window.nonzero_buckets",
                             shard="0").count,
            ))
    (value1, count1), (value2, count2) = totals
    assert value1 > 0
    assert firsts[0]["counters"][key] == value1
    assert firsts[1]["counters"][key] == value2 - value1
    assert firsts[0]["histograms"][hist]["count"] == count1
    assert firsts[1]["histograms"][hist]["count"] == count2 - count1
    # Nothing merges mid-run, so later records never repeat it.
    assert all(
        key not in r["counters"] for r in registry.window_series
        if r not in firsts
    )


def test_merge_snapshot_marks_pooled_children():
    worker = MetricsRegistry()
    worker.counter("c").inc(3)
    worker.timer("t").observe(0.5)
    worker.gauge("g").set(2.0)
    wire = snapshot_to_wire(snapshots.take_snapshot(worker))
    parent = MetricsRegistry()
    emit_window_record(parent, 0)
    merge_snapshot(parent, snapshot_from_wire(wire), {"shard": "1"})
    record = emit_window_record(parent, 1)
    assert record["counters"] == {"c{shard=1}": 3.0}
    assert record["timers"]["t{shard=1}"]["count"] == 1
    assert record["gauges"] == {"g{shard=1}": 2.0}
    assert emit_window_record(parent, 2)["counters"] == {}


# -- sparse window quantiles -------------------------------------------------
def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_NAN = float("nan")
_INF = float("inf")

#: Observations: any float (NaN and ±inf included), bucket bounds
#: exactly, their negatives, and zero.
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(DEFAULT_BUCKETS),
    st.sampled_from(DEFAULT_BUCKETS).map(lambda b: -b),
    st.just(0.0),
)
#: One window: a few local observation batches and worker pools.
WINDOW = st.lists(
    st.tuples(
        st.sampled_from(["local", "pool"]),
        st.lists(VALUES, max_size=6),
    ),
    max_size=4,
)


def _window_ops(registry, ops):
    for how, values in ops:
        if how == "local":
            child = registry.timer("t", shard="0")
            for value in values:
                child.observe(value)
        else:
            worker = MetricsRegistry()
            timer = worker.timer("t")
            for value in values:
                timer.observe(value)
            merge_snapshot(
                registry, snapshots.take_snapshot(worker), {"shard": "0"}
            )


@settings(max_examples=300, deadline=None)
@given(st.lists(WINDOW, min_size=1, max_size=5))
@example([[("local", [_NAN, _INF, -_INF, -3.0, DEFAULT_BUCKETS[4]])]])
@example([[("local", [1e-4, 2e-4, 5e-3, 5e-3, 7.0])]])
@example([[("local", [1e-4]), ("pool", [2e-4, _NAN, 1e9])]])
@example([[("pool", [0.5, 0.25])], [("local", [0.5]), ("pool", [3.0])]])
def test_window_quantiles_match_dense_deltas(windows):
    """Every record's p50/p90/p99 equal :func:`bucket_quantile` over the
    dense per-bucket deltas, bit for bit — local observations, pooled
    worker snapshots and both in one window alike, including a child
    whose first change is a pool."""
    registry = MetricsRegistry()
    before = [0] * (len(DEFAULT_BUCKETS) + 1)
    for w, ops in enumerate(windows):
        _window_ops(registry, ops)
        record = emit_window_record(registry, w)
        child = registry.get("timer", "t", shard="0")
        after = list(child.bucket_counts) if child is not None else before
        delta = [a - b for a, b in zip(after, before)]
        entry = record["timers"].get("t{shard=0}")
        if sum(delta) == 0:
            assert entry is None
        else:
            assert entry["count"] == sum(delta)
            for label, q in WINDOW_QUANTILES:
                want = bucket_quantile(DEFAULT_BUCKETS, delta, q)
                assert _bits(entry[label]) == _bits(want), (label, delta)
        before = after


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.integers(0, len(DEFAULT_BUCKETS)),
    st.integers(1, 10**9),
    min_size=1,
    max_size=len(DEFAULT_BUCKETS) + 1,
))
def test_sparse_quantiles_match_bucket_quantile(increments):
    """The one-pass walk over nonzero buckets, for any counts."""
    dense = [increments.get(i, 0) for i in range(len(DEFAULT_BUCKETS) + 1)]
    got: dict = {}
    _window_quantiles(DEFAULT_BUCKETS, increments, got)
    for label, q in WINDOW_QUANTILES:
        want = bucket_quantile(DEFAULT_BUCKETS, dense, q)
        assert _bits(got[label]) == _bits(want), label
