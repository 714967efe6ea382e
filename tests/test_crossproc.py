"""Cross-process telemetry: codec round trips, merge laws, shard views.

The contract under test (see :mod:`repro.obs.crossproc`): a worker
snapshot survives the wire exactly; merging obeys the algebra the
parent relies on (counters commute and associate, gauges are
last-write-by-seq, pooled distribution buckets equal the buckets of
the pooled observations — so ``bucket_quantile`` over a merged timer
is exactly the pooled-observation quantile); re-sequenced worker
events keep ``repro replay`` byte-identical; and the derived serving
surfaces (``/shards.json``, ``repro top`` panes, Chrome trace shard
tracks) render the merged registry/journal faithfully.
"""

import io
import json
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import (
    BufferJournal,
    EventJournal,
    MetricsRegistry,
    MetricsServer,
    NullRegistry,
    bucket_quantile,
    capture_worker_snapshot,
    chrome_trace,
    load_state,
    merge_snapshot,
    merge_worker_snapshots,
    parse_instrument_key,
    render_top,
    replay_worker_events,
    sample_resources,
    resource_delta,
    shard_tenant_summary,
    snapshot_from_wire,
    snapshot_to_wire,
    take_snapshot,
    unpaired_flows,
    use_journal,
    use_registry,
    worker_resource_events,
)
from repro.obs.snapshots import instrument_key
from repro.obs.top import state_from_journal
from repro.serving import ShardedMonitoringSystem
from repro.streams import MonitoringSystem, Trace
from repro.streams.replay import replay_system_report


@pytest.fixture(scope="module")
def workload():
    table = generate_subnet_table(UIDDomain(10), seed=2)
    ts, uids = generate_timestamped_trace(
        table, 6000, duration=40.0, seed=4,
        model=TrafficModel(active_fraction=0.15, zipf_exponent=1.2),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 20), trace.slice_time(20, 40)


def _sample_registry():
    reg = MetricsRegistry()
    reg.counter("monitor.tuples", monitor="m-0").inc(42)
    reg.counter("monitor.windows").inc(3)
    reg.gauge("quality.coverage", monitor="m-0").set(0.75)
    reg.timer("monitor.partition.duration", monitor="m-0").observe(0.004)
    reg.histogram("monitor.window.nonzero_buckets").observe(17)
    return reg


# -- series-key and snapshot codec ---------------------------------------


class TestCodec:
    def test_parse_inverts_instrument_key(self):
        labels = (("monitor", "m-1"), ("shard", "2"))
        key = instrument_key("monitor.tuples", labels)
        name, parsed = parse_instrument_key(key)
        assert name == "monitor.tuples"
        assert tuple(sorted(parsed.items())) == labels

    def test_parse_plain_name(self):
        assert parse_instrument_key("system.tuples") == (
            "system.tuples", {}
        )

    @pytest.mark.parametrize(
        "bad", ["name{unterminated", "name{noequals}", "name{=v}"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_instrument_key(bad)

    def test_snapshot_round_trip(self):
        snap = take_snapshot(_sample_registry())
        wire = snapshot_to_wire(snap)
        # Strictly JSON-safe: survives dumps/loads unchanged.
        decoded = snapshot_from_wire(json.loads(json.dumps(wire)))
        assert decoded.counters == snap.counters
        assert decoded.gauges == snap.gauges
        assert decoded.timer_keys == snap.timer_keys
        assert decoded.histograms == snap.histograms

    def test_empty_distribution_extrema_survive(self):
        reg = MetricsRegistry()
        reg.histogram("empty")  # registered, never observed
        snap = take_snapshot(reg)
        wire = snapshot_to_wire(snap)
        assert wire["histograms"]["empty"]["min"] is None
        decoded = snapshot_from_wire(wire)
        state = decoded.histograms["empty"]
        assert state.min == float("inf")
        assert state.max == float("-inf")

    def test_malformed_wire_rejected(self):
        with pytest.raises(ValueError):
            snapshot_from_wire({"counters": {}})
        with pytest.raises(ValueError):
            merge_worker_snapshots(
                MetricsRegistry(), BufferJournal(), [{"v": 99}]
            )

    def test_capture_is_json_safe(self):
        reg = _sample_registry()
        buf = BufferJournal()
        buf.emit("batch", monitor="m-0", windows=4)
        doc = capture_worker_snapshot(reg, buf, shard=1, seq=7)
        assert doc == json.loads(json.dumps(doc))
        assert doc["v"] == 1 and doc["shard"] == 1 and doc["seq"] == 7
        assert len(doc["events"]) == 1


# -- merge algebra --------------------------------------------------------

_counter_maps = st.dictionaries(
    st.sampled_from(
        ["a", "a{monitor=m-0}", "a{monitor=m-1}", "b", "b{tenant=t}"]
    ),
    st.integers(min_value=0, max_value=10**6).map(float),
    max_size=5,
)


def _merge_counters(maps, labels=None):
    reg = MetricsRegistry()
    for counters in maps:
        merge_snapshot(
            reg,
            snapshot_from_wire({
                "ts": 0.0, "counters": counters, "gauges": {},
                "histograms": {}, "timers": [],
            }),
            extra_labels=labels,
        )
    return {
        instrument_key(inst.name, inst.labels): inst.value
        for kind, inst in reg.instruments()
        if kind == "counter"
    }


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(_counter_maps, _counter_maps)
    def test_counter_merge_commutative(self, m1, m2):
        assert _merge_counters([m1, m2]) == _merge_counters([m2, m1])

    @settings(max_examples=60, deadline=None)
    @given(_counter_maps, _counter_maps, _counter_maps)
    def test_counter_merge_associative(self, m1, m2, m3):
        one_by_one = _merge_counters([m1, m2, m3])
        pre = _merge_counters([m1, m2])
        combined = _merge_counters([pre, m3])
        assert combined == one_by_one

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # shard
                st.floats(
                    min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_gauge_merge_last_write_by_seq(self, writes):
        reg = MetricsRegistry()
        docs = [
            {
                "v": 1, "shard": shard, "seq": seq,
                "snapshot": {
                    "ts": 0.0, "counters": {}, "gauges": {"g": value},
                    "histograms": {}, "timers": [],
                },
                "events": [],
            }
            for seq, (shard, value) in enumerate(writes)
        ]
        # Shuffle-resistant: merge sorts by (shard, seq), so per shard
        # the highest-seq write must win regardless of input order.
        merge_worker_snapshots(reg, BufferJournal(), reversed(docs))
        last = {}
        for seq, (shard, value) in enumerate(writes):
            last[shard] = value
        for shard, value in last.items():
            child = reg.get("gauge", "g", shard=str(shard))
            assert child is not None and child.value == value

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(
                    min_value=0.0, max_value=50.0,
                    allow_nan=False, allow_infinity=False,
                ),
                max_size=20,
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_merged_timer_quantiles_equal_pooled(self, worker_obs, q):
        """bucket_quantile over the merged instrument must be *exactly*
        the quantile over one instrument fed every observation."""
        parent = MetricsRegistry()
        pooled = MetricsRegistry()
        pooled_timer = pooled.timer("t")
        for observations in worker_obs:
            worker = MetricsRegistry()
            timer = worker.timer("t")
            for value in observations:
                timer.observe(value)
                pooled_timer.observe(value)
            merge_snapshot(parent, take_snapshot(worker))
        merged = parent.get("timer", "t")
        assert merged is not None
        assert tuple(merged.bucket_counts) == tuple(
            pooled_timer.bucket_counts
        )
        assert merged.count == pooled_timer.count
        assert merged.sum == pytest.approx(pooled_timer.sum)
        assert merged.min == pooled_timer.min
        assert merged.max == pooled_timer.max
        assert bucket_quantile(
            tuple(merged.bounds), tuple(merged.bucket_counts), q
        ) == bucket_quantile(
            tuple(pooled_timer.bounds),
            tuple(pooled_timer.bucket_counts),
            q,
        )

    def test_bounds_mismatch_raises(self):
        # Every registry child uses DEFAULT_BUCKETS, so a mismatch can
        # only arrive over the wire (e.g. from a different build);
        # pooling incomparable buckets must refuse, not guess.
        parent = MetricsRegistry()
        parent.histogram("h").observe(1.5)
        foreign = snapshot_from_wire({
            "ts": 0.0, "counters": {}, "gauges": {},
            "histograms": {
                "h": {
                    "count": 1, "sum": 3.0, "bounds": [1.0, 2.0],
                    "buckets": [0, 0, 1], "min": 3.0, "max": 3.0,
                },
            },
            "timers": [],
        })
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_snapshot(parent, foreign)

    def test_disabled_registry_is_noop(self):
        null = NullRegistry()
        merge_snapshot(null, take_snapshot(_sample_registry()))
        assert list(null.instruments()) == []

    def test_shard_label_added(self):
        parent = MetricsRegistry()
        merge_snapshot(
            parent,
            take_snapshot(_sample_registry()),
            extra_labels={"shard": "3"},
        )
        child = parent.get(
            "counter", "monitor.tuples", monitor="m-0", shard="3"
        )
        assert child is not None and child.value == 42


# -- event re-sequencing --------------------------------------------------


class TestEventResequencing:
    def test_buffer_journal_contract(self):
        buf = BufferJournal()
        assert buf.enabled and buf.path is None
        s0 = buf.emit("batch", monitor="m-0")
        s1 = buf.emit("resources", cpu_user_s=0.1)
        assert (s0, s1) == (0, 1)
        assert buf.events_written == 2
        assert [e["seq"] for e in buf.events] == [0, 1]
        assert buf.events[1]["ts"] >= buf.events[0]["ts"]

    def test_replay_worker_events_namespaced_and_gapless(self):
        sink = io.StringIO()
        journal = EventJournal(sink)
        journal.emit("run_start", monitors=[])
        docs = []
        for shard in (1, 0):
            buf = BufferJournal()
            buf.emit("batch", monitor=f"m-{shard}", windows=2)
            buf.emit("resources", cpu_user_s=0.5)
            docs.append(
                capture_worker_snapshot(
                    NullRegistry(), buf, shard=shard, seq=1
                )
            )
        merge_worker_snapshots(NullRegistry(), journal, docs)
        journal.close()
        events = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert [e["seq"] for e in events] == list(range(len(events)))
        worker = [
            e for e in events if e["event"].startswith("shard.worker.")
        ]
        # Deterministic (shard, seq) order: shard 0 before shard 1.
        assert [e["shard"] for e in worker] == [0, 0, 1, 1]
        assert worker[0]["event"] == "shard.worker.batch"
        assert worker[0]["worker_seq"] == 0
        assert "worker_ts" in worker[0]

    def test_worker_resource_events_filter(self):
        buf = BufferJournal()
        buf.emit("batch", monitor="m-0")
        buf.emit("resources", cpu_user_s=0.25, max_rss_kb=1000.0)
        doc = capture_worker_snapshot(NullRegistry(), buf, 0, 1)
        records = worker_resource_events(doc)
        assert len(records) == 1
        assert records[0]["cpu_user_s"] == 0.25

    def test_disabled_journal_is_noop(self):
        buf = BufferJournal()
        buf.emit("batch", monitor="m-0")
        doc = capture_worker_snapshot(NullRegistry(), buf, 0, 1)
        from repro.obs import NULL_JOURNAL

        replay_worker_events(NULL_JOURNAL, doc)  # must not raise


# -- resource profiler ----------------------------------------------------


class TestResources:
    def test_sample_and_delta_sane(self):
        before = sample_resources()
        sum(i * i for i in range(200_000))  # burn some CPU
        after = sample_resources()
        delta = resource_delta(after, before)
        assert delta.cpu_user_s >= 0.0
        assert delta.cpu_system_s >= 0.0
        assert delta.max_rss_kb == after.max_rss_kb > 0
        assert delta.gc_collections >= 0
        assert delta.pid == before.pid

    def test_as_fields_json_safe(self):
        fields = sample_resources().as_fields()
        assert json.loads(json.dumps(fields)) == fields

    def test_export_resources_gauges(self):
        from repro.obs import PROC_GAUGES, export_resources

        reg = MetricsRegistry()
        export_resources(reg, sample_resources(), shard="parent")
        for name in PROC_GAUGES:
            assert reg.get("gauge", name, shard="parent") is not None


# -- end-to-end sharded telemetry ----------------------------------------


def _run_with_obs(system, live):
    reg = MetricsRegistry()
    sink = io.StringIO()
    journal = EventJournal(sink)
    with use_registry(reg), use_journal(journal):
        report = system.run(live, window_width=4.0)
        if hasattr(system, "close"):
            system.close()
    journal.close()
    return report, reg, sink.getvalue()


def _counter_totals(reg, prefix, ignore=("shard",)):
    totals = {}
    for kind, inst in reg.instruments():
        if kind != "counter" or not inst.name.startswith(prefix):
            continue
        labels = tuple(
            sorted((k, v) for k, v in inst.labels if k not in ignore)
        )
        key = (inst.name, labels)
        totals[key] = totals.get(key, 0.0) + inst.value
    return totals


class TestShardedTelemetry:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_merged_counters_equal_serial_exactly(self, workload, shards):
        """The acceptance invariant: at any shards=K the parent's
        merged monitor.* counter totals (ignoring shard labels) equal
        the serial run's exactly, and the report stays identical."""
        table, history, live = workload
        serial = MonitoringSystem(
            table, get_metric("rms"), num_monitors=3, budget=40
        )
        serial.train(history)
        expected_report, serial_reg, _ = _run_with_obs(serial, live)

        sharded = ShardedMonitoringSystem(
            table, get_metric("rms"), num_monitors=3, shards=shards,
            budget=40,
        )
        sharded.train(history)
        report, reg, journal_text = _run_with_obs(sharded, live)

        assert report == expected_report
        assert sharded.prefetch_misses == 0
        assert _counter_totals(reg, "monitor.") == _counter_totals(
            serial_reg, "monitor."
        )
        # Worker metrics actually landed under shard labels.
        shard_labels = {
            dict(inst.labels).get("shard")
            for kind, inst in reg.instruments()
            if inst.name.startswith("monitor.")
            and any(k == "shard" for k, _v in inst.labels)
        }
        assert shard_labels  # at least one shard-labeled series
        # proc.* series exist for workers and the parent.
        proc_shards = {
            dict(inst.labels).get("shard")
            for kind, inst in reg.instruments()
            if inst.name.startswith("proc.")
        }
        assert "parent" in proc_shards
        assert proc_shards - {"parent"}

        # Replay of the merged journal reconstructs the same report —
        # shard.worker.* / shard.* events are replay-transparent.
        events = [
            json.loads(line)
            for line in journal_text.splitlines()
            if line
        ]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert replay_system_report(events) == report

    def test_telemetry_off_is_byte_identical(self, workload):
        """Without obs sinks the worker runs fully nulled: the report
        matches the serial system's exactly."""
        table, history, live = workload
        kwargs = dict(num_monitors=3, budget=40)
        serial = MonitoringSystem(table, get_metric("rms"), **kwargs)
        sharded = ShardedMonitoringSystem(
            table, get_metric("rms"), shards=2, **kwargs
        )
        serial.train(history)
        sharded.train(history)
        with sharded:
            actual = sharded.run(live, window_width=4.0)
        assert actual == serial.run(live, window_width=4.0)

    def test_shard_summary_and_signals(self, workload):
        table, history, live = workload
        system = ShardedMonitoringSystem(
            table, get_metric("rms"), num_monitors=3, shards=2,
            budget=40,
        )
        system.train(history)
        report, reg, journal_text = _run_with_obs(system, live)
        assert "shard.summary" in journal_text
        for shard in ("0", "1"):
            assert (
                reg.get("gauge", "serving.shard.cpu_seconds", shard=shard)
                is not None
            )
        # Hit-only run: miss rate gauge pinned at 0, imbalance >= 1.
        assert reg.get("gauge", "serving.prefetch.miss_rate").value == 0.0
        hits = reg.get("counter", "serving.prefetch.hits")
        assert hits is not None and hits.value == len(report.windows) * 3
        assert reg.get("counter", "serving.prefetch.misses") is None
        imbalance = reg.get("gauge", "serving.shard.imbalance")
        assert imbalance is not None and imbalance.value >= 1.0

    def test_shards_json_and_top_panes(self, workload):
        table, history, live = workload
        system = ShardedMonitoringSystem(
            table, get_metric("rms"), num_monitors=3, shards=2,
            budget=40,
        )
        system.train(history)
        report, reg, journal_text = _run_with_obs(system, live)

        summary = shard_tenant_summary(reg)
        assert {"0", "1", "parent"} <= set(summary["shards"])
        assert summary["shards"]["0"]["serving.shard.windows"] > 0
        assert summary["shards"]["parent"]["proc.cpu.user_seconds"] >= 0

        with MetricsServer(reg, port=0) as server:
            with urllib.request.urlopen(
                f"{server.url}/shards.json", timeout=5
            ) as resp:
                doc = json.loads(resp.read().decode("utf-8"))
            assert doc == json.loads(
                json.dumps(summary, sort_keys=True)
            )
            state = load_state(server.url)
            assert {"0", "1", "parent"} <= set(state.shards)
            assert state.shards["0"]["windows"] > 0
            assert state.shards["parent"]["cpu_s"] >= 0

        events = [
            json.loads(line)
            for line in journal_text.splitlines()
            if line
        ]
        journal_state = state_from_journal(events, "test")
        assert set(journal_state.shards) == {"0", "1"}
        assert journal_state.shards["0"]["cpu_s"] >= 0.0
        rendered = render_top(journal_state)
        assert "shards:" in rendered

    def test_chrome_trace_shard_tracks(self, workload):
        table, history, live = workload
        system = ShardedMonitoringSystem(
            table, get_metric("rms"), num_monitors=3, shards=2,
            budget=40,
        )
        system.train(history)
        report, _reg, journal_text = _run_with_obs(system, live)
        events = [
            json.loads(line)
            for line in journal_text.splitlines()
            if line
        ]
        doc = chrome_trace(events)
        assert unpaired_flows(doc) == []
        assert doc["otherData"]["shards"] == [0, 1]
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "thread_name"
        }
        assert {"shard-0", "shard-1"} <= names
        prefetch = [
            ev for ev in doc["traceEvents"]
            if ev.get("cat") == "serving"
            and str(ev.get("name", "")).startswith("prefetch ")
        ]
        assert prefetch and all(
            ev["ph"] == "X" and ev["dur"] > 0 and ev["ts"] >= 0
            for ev in prefetch
        )
        fanin = [
            ev for ev in doc["traceEvents"]
            if str(ev.get("name", "")).startswith("fan-in w")
        ]
        assert fanin and all(ev["tid"] == 0 for ev in fanin)

    def test_multi_process_stress_totals(self, workload):
        """N-process stress: a second run on the same (reused) pool
        still merges to exact serial totals — per-batch worker deltas
        never leak across runs."""
        table, history, live = workload
        serial = MonitoringSystem(
            table, get_metric("rms"), num_monitors=4, budget=40
        )
        serial.train(history)
        _, serial_reg, _ = _run_with_obs(serial, live)
        serial_totals = _counter_totals(serial_reg, "monitor.")

        system = ShardedMonitoringSystem(
            table, get_metric("rms"), num_monitors=4, shards=3,
            budget=40,
        )
        system.train(history)
        with system:
            for _ in range(2):
                reg = MetricsRegistry()
                sink = io.StringIO()
                journal = EventJournal(sink)
                with use_registry(reg), use_journal(journal):
                    system.run(live, window_width=4.0)
                journal.close()
                assert system.prefetch_misses == 0
                assert (
                    _counter_totals(reg, "monitor.") == serial_totals
                )
