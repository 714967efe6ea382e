"""The sharded serving layer: report identity, fan-in, caches, tenants.

The load-bearing contract is **bit-identity**: a
:class:`ShardedMonitoringSystem` run must produce a ``SystemReport``
that compares dataclass-equal to the serial
:class:`~repro.streams.MonitoringSystem` for the same seeds — clean,
under a seeded fault mix, weighted, and in both stream kernel modes —
because the shard prefetch only relocates pure per-monitor work and
the fan-in decoder only removes wire-format glue.  Everything else
(shared caches, tenant admission, spec parsing, observability labels)
is tested around that invariant.
"""

import dataclasses
import io
import json
import threading

import numpy as np
import pytest

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import EventJournal, MetricsRegistry, use_journal, use_registry
from repro.serving import (
    FanInControlCenter,
    ServingEngine,
    SharedServingCache,
    ShardedMonitoringSystem,
    TenantSpec,
)
from repro.serving.sharded import _pack_messages, _unpack_messages
from repro.streams import FaultModel, MonitoringSystem, Trace
from repro.streams.kernels import use_stream_kernel_mode
from repro.streams.monitor import Monitor
from repro.streams.query import exact_group_counts, exact_group_counts_batched

FAULTS = dict(
    drop=0.05, duplicate=0.03, delay=0.04, max_delay_windows=3,
    reorder=0.1, crash=0.002, install_drop=0.1, seed=23,
)


@pytest.fixture(scope="module")
def workload():
    table = generate_subnet_table(UIDDomain(10), seed=2)
    ts, uids = generate_timestamped_trace(
        table, 8000, duration=40.0, seed=4,
        model=TrafficModel(active_fraction=0.15, zipf_exponent=1.2),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 20), trace.slice_time(20, 40)


def _systems(table, history, shards, **kwargs):
    serial = MonitoringSystem(
        table, get_metric("rms"), num_monitors=3, budget=40, **kwargs
    )
    sharded = ShardedMonitoringSystem(
        table, get_metric("rms"), num_monitors=3, shards=shards,
        budget=40, **kwargs,
    )
    serial.train(history)
    sharded.train(history)
    return serial, sharded


# -- report identity ------------------------------------------------------

class TestReportIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_clean_run_identical(self, workload, shards):
        table, history, live = workload
        serial, sharded = _systems(table, history, shards)
        with sharded:
            expected = serial.run(live, window_width=4.0)
            actual = sharded.run(live, window_width=4.0)
        assert actual == expected
        assert sharded.prefetch_misses == 0
        assert sharded.prefetch_hits > 0

    @pytest.mark.parametrize("shards", [2, 4])
    def test_faulty_run_identical(self, workload, shards):
        table, history, live = workload
        serial, sharded = _systems(table, history, shards)
        with sharded:
            expected = serial.run(
                live, window_width=4.0, faults=FaultModel(**FAULTS)
            )
            actual = sharded.run(
                live, window_width=4.0, faults=FaultModel(**FAULTS)
            )
        assert actual == expected
        # Crashes must replay identically too, not just average out.
        assert actual.monitor_crashes == expected.monitor_crashes

    def test_weighted_run_identical(self, workload):
        table, history, live = workload
        rng = np.random.default_rng(9)
        history = Trace(
            history.timestamps, history.uids,
            rng.uniform(1.0, 8.0, size=history.uids.size),
        )
        live = Trace(
            live.timestamps, live.uids,
            rng.uniform(1.0, 8.0, size=live.uids.size),
        )
        serial, sharded = _systems(table, history, 2)
        with sharded:
            expected = serial.run(live, window_width=4.0)
            actual = sharded.run(live, window_width=4.0)
        assert actual == expected
        assert sharded.prefetch_misses == 0

    def test_naive_kernel_mode_identical(self, workload):
        table, history, live = workload
        with use_stream_kernel_mode("naive"):
            serial, sharded = _systems(table, history, 2)
            with sharded:
                expected = serial.run(live, window_width=4.0)
                actual = sharded.run(live, window_width=4.0)
        assert actual == expected

    def test_split_seed_respected(self, workload):
        table, history, live = workload
        serial, sharded = _systems(table, history, 2)
        with sharded:
            expected = serial.run(live, window_width=4.0, split_seed=7)
            actual = sharded.run(live, window_width=4.0, split_seed=7)
        assert actual == expected

    def test_pool_reused_across_runs(self, workload):
        """Consecutive runs reuse one forked worker pool and stay
        identical to the serial system run-for-run (channel byte
        totals are lifetime-cumulative on both sides)."""
        table, history, live = workload
        serial, sharded = _systems(table, history, 2)
        with sharded:
            first = sharded.run(live, window_width=4.0)
            pool = sharded._pool
            second = sharded.run(live, window_width=4.0)
            assert sharded._pool is pool
        assert first == serial.run(live, window_width=4.0)
        assert second == serial.run(live, window_width=4.0)
        assert sharded._pool is None  # closed by the context manager

    def test_poisoned_prefetch_falls_back_inline(self, workload):
        """Stale prefetched messages (wrong function version) must be
        rebuilt inline — correctness never depends on the prefetch."""
        table, history, live = workload
        serial, sharded = _systems(table, history, 2)
        expected = serial.run(live, window_width=4.0)
        original = sharded._prefetch

        def poisoned(live, width, seed):
            original(live, width, seed)
            for key in list(sharded._prefetched)[:7]:
                message = sharded._prefetched[key]
                sharded._prefetched[key] = dataclasses.replace(
                    message, function_version=message.function_version - 1
                )

        sharded._prefetch = poisoned
        with sharded:
            actual = sharded.run(live, window_width=4.0)
        assert actual == expected
        assert sharded.prefetch_misses == 7

    def test_constructor_validation(self, workload):
        table, _history, _live = workload
        with pytest.raises(ValueError, match="shards"):
            ShardedMonitoringSystem(table, get_metric("rms"), shards=0)
        with pytest.raises(ValueError, match="wire_format"):
            ShardedMonitoringSystem(
                table, get_metric("rms"), shards=2, wire_format="v1"
            )


# -- fan-in decode --------------------------------------------------------

class TestFanIn:
    def test_merge_matches_serial_wire_path(self, workload):
        """The fan-in (merge over the message histograms, no parse)
        must produce the same merged histogram and the same estimates as
        the serial path, which parses every payload first."""
        table, history, live = workload
        serial, sharded = _systems(table, history, 2)
        cc_serial = serial.control_center
        cc_fanin = sharded.control_center
        assert isinstance(cc_fanin, FanInControlCenter)
        monitor = Monitor("m0", wire_format="v2")
        monitor.install_function(
            cc_fanin.function, cc_fanin.function_version
        )
        shares = live.split(3, seed=0)
        usable = [
            monitor.process_window(0, share.uids) for share in shares
        ]
        merged_fast, est_fast = cc_fanin._merge_and_estimate(usable)
        merged_ref, est_ref = cc_serial._merge_and_estimate(usable)
        assert np.array_equal(merged_fast.nodes, merged_ref.nodes)
        assert np.array_equal(merged_fast.values, merged_ref.values)
        assert merged_fast.unmatched == merged_ref.unmatched
        assert merged_fast.total == merged_ref.total
        assert np.array_equal(est_fast, est_ref)

    def test_empty_usable_defers_to_base(self, workload):
        table, history, _live = workload
        _serial, sharded = _systems(table, history, 2)
        merged, estimates = sharded.control_center._merge_and_estimate([])
        assert len(merged) == 0
        assert estimates is None or np.all(estimates == 0)

    def test_pack_unpack_round_trip(self, workload):
        table, history, live = workload
        _serial, sharded = _systems(table, history, 2)
        cc = sharded.control_center
        monitor = Monitor("m0", wire_format="v2")
        monitor.install_function(cc.function, cc.function_version)
        shares = live.split(4, seed=1)
        messages = monitor.process_windows(
            list(range(4)), [s.uids for s in shares]
        )
        packed = _pack_messages("m0", messages)
        name, out = _unpack_messages(packed, cc.function_version)
        assert name == "m0"
        assert len(out) == len(messages)
        for original, restored in zip(messages, out):
            assert restored.monitor == original.monitor
            assert restored.window_index == original.window_index
            assert restored.function_version == original.function_version
            assert restored.payload == original.payload
            assert np.array_equal(
                restored.histogram.nodes, original.histogram.nodes
            )
            assert np.array_equal(
                restored.histogram.values, original.histogram.values
            )
            assert restored.histogram.unmatched == original.histogram.unmatched
            assert restored.histogram.total == original.histogram.total
            # Reconstructed histograms must behave as full objects.
            assert restored.histogram.counts == original.histogram.counts

    def test_pack_unpack_empty(self):
        packed = _pack_messages("m0", [])
        name, out = _unpack_messages(packed, 3)
        assert name == "m0"
        assert out == []


# -- batched ground truth -------------------------------------------------

class TestBatchedTruth:
    def test_matches_per_window_counts(self, workload):
        table, _history, live = workload
        windows = [s.uids for s in live.split(5, seed=3)]
        batched = exact_group_counts_batched(table, windows)
        for row, uids in zip(batched, windows):
            assert np.array_equal(row, exact_group_counts(table, uids))

    def test_matches_per_window_weighted(self, workload):
        table, _history, live = workload
        rng = np.random.default_rng(11)
        windows = [s.uids for s in live.split(4, seed=5)]
        values = [rng.uniform(0.5, 4.0, size=w.size) for w in windows]
        batched = exact_group_counts_batched(table, windows, values)
        for row, uids, vals in zip(batched, windows, values):
            assert np.array_equal(
                row, exact_group_counts(table, uids, values=vals)
            )


# -- shared cache ---------------------------------------------------------

class TestSharedServingCache:
    def test_canonical_table_collapses_equal_tables(self):
        a = generate_subnet_table(UIDDomain(8), seed=2)
        b = generate_subnet_table(UIDDomain(8), seed=2)
        c = generate_subnet_table(UIDDomain(8), seed=3)
        cache = SharedServingCache()
        assert cache.canonical_table(a) is a
        assert cache.canonical_table(b) is a
        assert cache.canonical_table(c) is c

    def test_function_cache_lru(self):
        cache = SharedServingCache(max_functions=2)
        cache.put_function("t", "r1", "f1")
        cache.put_function("t", "r2", "f2")
        assert cache.get_function("t", "r1") == "f1"
        cache.put_function("t", "r3", "f3")  # evicts r2 (LRU)
        assert cache.get_function("t", "r2") is None
        assert cache.get_function("t", "r1") == "f1"
        assert cache.get_function("t", "r3") == "f3"
        stats = cache.stats()
        assert stats["function_hits"] == 3
        assert stats["function_misses"] == 1
        assert stats["functions"] == 2

    def test_cross_tenant_function_reuse(self, workload):
        """The second tenant over the same table and rebuild inputs
        must reuse the first tenant's finished function."""
        table, history, live = workload
        cache = SharedServingCache()
        with ServingEngine(
            table, get_metric("rms"), "alpha;beta", shards=2, cache=cache,
            num_monitors=2,
        ) as engine:
            engine.run(history, live, window_width=5.0)
        assert cache.stats()["function_hits"] >= 1
        assert cache.stats()["functions"] == 1


# -- tenant specs ---------------------------------------------------------

class TestTenantSpec:
    def test_parse_full(self):
        spec = TenantSpec.parse(
            "acme:algorithm=nonoverlapping,budget=64,bytes=4096,seed=3"
        )
        assert spec == TenantSpec(
            name="acme", algorithm="nonoverlapping", budget=64,
            byte_budget=4096, seed=3,
        )

    def test_parse_defaults(self):
        spec = TenantSpec.parse("acme")
        assert spec.name == "acme"
        assert spec.byte_budget is None

    def test_parse_many(self):
        specs = TenantSpec.parse_many("a:budget=10; b ;c:bytes=64")
        assert [s.name for s in specs] == ["a", "b", "c"]

    @pytest.mark.parametrize("bad", [
        "", ":budget=10", "a:frob=1", "a:budget=x", "a:budget", "a;a",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            TenantSpec.parse_many(bad)


# -- the serving engine ---------------------------------------------------

class TestServingEngine:
    def test_admission_under_capacity(self, workload):
        table, history, live = workload
        sink = io.StringIO()
        registry = MetricsRegistry()
        with use_registry(registry), use_journal(EventJournal(sink)):
            with ServingEngine(
                table, get_metric("rms"),
                "a:bytes=600;b:bytes=500;c:bytes=600;d",
                capacity_bytes=1200, num_monitors=2,
            ) as engine:
                results = engine.run(history, live, window_width=5.0)
        assert [s.name for s in engine.admitted] == ["a", "b"]
        assert results["a"].admitted and results["b"].admitted
        assert not results["c"].admitted
        assert "capacity exceeded" in results["c"].reason
        assert not results["d"].admitted
        assert "no byte budget" in results["d"].reason
        assert results["c"].report is None
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds.count("tenant.admitted") == 2
        assert kinds.count("tenant.rejected") == 2
        assert kinds.count("tenant.report") == 2
        # Metric samples carry the tenant label.
        windows_a = registry.get(
            "counter", "serving.tenant.windows", tenant="a"
        )
        assert windows_a is not None and windows_a.value > 0
        assert registry.get(
            "counter", "serving.tenant.windows", tenant="c"
        ) is None

    def test_over_budget_flagged(self, workload):
        table, history, live = workload
        with ServingEngine(
            table, get_metric("rms"), "tiny:bytes=10",
            capacity_bytes=100, num_monitors=2,
        ) as engine:
            results = engine.run(history, live, window_width=5.0)
        report = results["tiny"]
        assert report.admitted
        assert report.bytes_used > 10
        assert report.over_budget

    def test_sharded_tenants_match_serial_tenants(self, workload):
        table, history, live = workload
        with ServingEngine(
            table, get_metric("rms"), "a;b", shards=2, num_monitors=2,
        ) as sharded_engine:
            sharded_results = sharded_engine.run(
                history, live, window_width=5.0
            )
        serial_engine = ServingEngine(
            table, get_metric("rms"), "a;b", shards=1, num_monitors=2,
        )
        serial_results = serial_engine.run(history, live, window_width=5.0)
        for name in ("a", "b"):
            assert (
                sharded_results[name].report == serial_results[name].report
            )

    def test_shard_metrics_and_journal_labels(self, workload):
        table, history, live = workload
        sink = io.StringIO()
        registry = MetricsRegistry()
        with use_registry(registry), use_journal(EventJournal(sink)):
            with ServingEngine(
                table, get_metric("rms"), "solo", shards=2, num_monitors=2,
            ) as engine:
                engine.run(history, live, window_width=5.0)
        for shard in ("0", "1"):
            windows = registry.get(
                "counter", "serving.shard.windows",
                shard=shard, tenant="solo",
            )
            assert windows is not None and windows.value > 0
            payload = registry.get(
                "counter", "serving.shard.payload_bytes",
                shard=shard, tenant="solo",
            )
            assert payload is not None and payload.value > 0
        prefetches = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
            if json.loads(line)["event"] == "shard.prefetch"
        ]
        assert {e["shard"] for e in prefetches} == {0, 1}
        assert all(e["tenant"] == "solo" for e in prefetches)
        assert all(e["payload_bytes"] > 0 for e in prefetches)

    def test_validation(self, workload):
        table, _history, _live = workload
        with pytest.raises(ValueError):
            ServingEngine(table, get_metric("rms"), [])
        with pytest.raises(ValueError):
            ServingEngine(table, get_metric("rms"), "a", shards=0)


def test_no_worker_processes_leak(workload):
    """close() must reap the shard pool's worker processes."""
    import multiprocessing

    table, history, live = workload
    _serial, sharded = _systems(table, history, 2)
    sharded.run(live, window_width=4.0)
    assert len(multiprocessing.active_children()) >= 1
    sharded.close()
    assert multiprocessing.active_children() == []


# -- cross-process telemetry satellites -----------------------------------

class TestServingTelemetry:
    def test_prefetch_miss_counter_fires_slo_mid_run(self, workload):
        """Forced function-version mismatches must surface as
        per-window serving.prefetch.misses deltas and fire a
        prefetch_miss_rate SLO rule *during* the run."""
        from repro.obs import SLOEngine, parse_slo_spec, use_slo_engine

        table, history, live = workload
        serial, sharded = _systems(table, history, 2)
        expected = serial.run(live, window_width=4.0)
        original = sharded._prefetch

        def poisoned(live, width, seed):
            original(live, width, seed)
            for key in list(sharded._prefetched)[:3]:
                message = sharded._prefetched[key]
                sharded._prefetched[key] = dataclasses.replace(
                    message, function_version=message.function_version - 1
                )

        sharded._prefetch = poisoned
        registry = MetricsRegistry()
        engine = SLOEngine(parse_slo_spec("prefetch_miss_rate<=0"))
        with use_registry(registry), use_slo_engine(engine), sharded:
            actual = sharded.run(live, window_width=4.0)
        # Quality-gauge fields only populate with a live registry, so
        # compare the registry-independent accounting.
        assert [
            (w.window_index, w.tuples, w.error, w.histogram_bytes)
            for w in actual.windows
        ] == [
            (w.window_index, w.tuples, w.error, w.histogram_bytes)
            for w in expected.windows
        ]
        assert sharded.prefetch_misses == 3
        misses = registry.get("counter", "serving.prefetch.misses")
        assert misses is not None and misses.value == 3
        # The counter moved inside specific windows: the per-window
        # snapshot-delta series carries the deltas.
        per_window = [
            rec["counters"].get("serving.prefetch.misses", 0)
            for rec in registry.window_series
        ]
        assert sum(per_window) == 3
        assert any(delta == 0 for delta in per_window)
        # ... and the SLO rule fired mid-run on the miss-rate signal.
        assert actual.alerts
        assert all(
            a.rule.startswith("prefetch_miss_rate") for a in actual.alerts
        )
        fired = {a.fired_window for a in actual.alerts}
        assert fired <= {
            w for w, delta in enumerate(per_window) if delta > 0
        }

    def test_cache_counters_exported(self, workload):
        """serving.cache.* counters must reflect SharedServingCache
        hits/misses, including the new canonical-table tracking."""
        table, history, live = workload
        registry = MetricsRegistry()
        with use_registry(registry):
            cache = SharedServingCache()
            with ServingEngine(
                table, get_metric("rms"),
                "alpha:budget=40;beta:budget=40",
                cache=cache, num_monitors=2,
            ) as engine:
                engine.run(history, live, window_width=4.0)
        stats = cache.stats()
        # Identical tenants: the second shares the first one's table
        # and finished function.
        assert stats["table_misses"] == 1
        assert stats["function_hits"] >= 1
        for name, key in [
            ("serving.cache.table.misses", "table_misses"),
            ("serving.cache.function.hits", "function_hits"),
            ("serving.cache.function.misses", "function_misses"),
        ]:
            child = registry.get("counter", name)
            assert child is not None and child.value == stats[key], name
        # publish_metrics is delta-idempotent: republishing with no new
        # traffic must not inflate the counters.
        cache.publish_metrics(registry)
        child = registry.get("counter", "serving.cache.function.hits")
        assert child.value == stats["function_hits"]

    def test_engine_run_report_identity_with_telemetry(self, workload):
        """Reports coming out of a telemetry-on engine run must equal
        the plain serial system's (the acceptance off/on invariant at
        the engine level)."""
        table, history, live = workload
        plain = MonitoringSystem(
            table, get_metric("rms"), num_monitors=3, budget=40
        )
        plain.train(history)
        # Scope a registry on the reference run too: quality-gauge
        # window fields only populate with one attached.
        with use_registry(MetricsRegistry()):
            expected = plain.run(live, window_width=4.0, split_seed=0)

        registry = MetricsRegistry()
        journal = EventJournal(io.StringIO())
        with use_registry(registry), use_journal(journal):
            with ServingEngine(
                table, get_metric("rms"), "alpha:budget=40",
                shards=2, num_monitors=3,
            ) as engine:
                results = engine.run(history, live, window_width=4.0)
        assert results["alpha"].report == expected
        # Tenant-labelled shard series + parent proc series landed.
        child = registry.get(
            "counter", "serving.shard.windows", shard="0", tenant="alpha"
        )
        assert child is not None and child.value > 0
        assert (
            registry.get("gauge", "proc.cpu.user_seconds", shard="parent")
            is not None
        )
