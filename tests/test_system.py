"""End-to-end tests of the monitoring system (Figure 1 pipeline)."""

import numpy as np
import pytest

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import MetricsRegistry, use_registry
from repro.streams import FaultModel, MonitoringSystem, Trace

from helpers import naive_window_histograms


@pytest.fixture(scope="module")
def workload():
    dom = UIDDomain(10)
    table = generate_subnet_table(dom, seed=2)
    ts, uids = generate_timestamped_trace(
        table, 8000, duration=40.0, seed=4,
        model=TrafficModel(active_fraction=0.15, zipf_exponent=1.2),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 20), trace.slice_time(20, 40)


@pytest.mark.parametrize("algorithm", ["nonoverlapping", "overlapping",
                                       "lpm_greedy"])
def test_pipeline_runs_for_every_algorithm(workload, algorithm):
    table, history, live = workload
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=2,
        algorithm=algorithm, budget=40,
    )
    system.train(history)
    report = system.run(live, window_width=5.0)
    assert len(report.windows) >= 3
    assert np.isfinite(report.mean_error)
    assert report.upstream_bytes > 0


def test_histograms_beat_raw_stream(workload):
    table, history, live = workload
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=3,
        algorithm="lpm_greedy", budget=50,
    )
    system.train(history)
    report = system.run(live, window_width=5.0)
    assert report.compression_ratio > 2.0
    assert report.raw_bytes == sum(w.raw_bytes for w in report.windows)


def test_more_budget_decreases_error(workload):
    table, history, live = workload
    errors = {}
    for budget in (5, 80):
        system = MonitoringSystem(
            table, get_metric("average"), num_monitors=2,
            algorithm="overlapping", budget=budget,
        )
        system.train(history)
        errors[budget] = system.run(live, window_width=10.0).mean_error
    assert errors[80] <= errors[5] + 1e-9


def test_run_before_train_rejected(workload):
    table, _history, live = workload
    system = MonitoringSystem(table, get_metric("rms"))
    with pytest.raises(RuntimeError):
        system.run(live, window_width=5.0)


def test_monitor_count_validated(workload):
    table, _h, _l = workload
    with pytest.raises(ValueError):
        MonitoringSystem(table, get_metric("rms"), num_monitors=0)


def test_single_monitor_equals_exact_bucket_counts(workload):
    """With one monitor, merged histograms must equal the histogram of
    the whole window: splitting traffic across monitors is lossless."""
    table, history, live = workload
    sys1 = MonitoringSystem(table, get_metric("rms"), num_monitors=1,
                            algorithm="overlapping", budget=30)
    sys3 = MonitoringSystem(table, get_metric("rms"), num_monitors=3,
                            algorithm="overlapping", budget=30)
    sys1.train(history)
    sys3.train(history)
    r1 = sys1.run(live, window_width=20.0)
    r3 = sys3.run(live, window_width=20.0)
    assert r1.windows[0].error == pytest.approx(r3.windows[0].error, rel=1e-9)


def test_zero_tuple_window_keeps_uid_dtype(workload):
    """Regression: a tumbling window with no tuples must decode cleanly,
    with the merged UID array staying integer-typed (an implicit
    ``np.empty(0)`` is float64 and breaks downstream lookups)."""
    table, history, _live = workload
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=1,
        algorithm="lpm_greedy", budget=30,
    )
    system.train(history)
    # Two bursts separated by a silent gap: the middle window is empty.
    uids = history.uids[:40]
    ts = np.concatenate([
        np.linspace(0.0, 0.9, 20),     # window 0
        np.linspace(2.0, 2.9, 20),     # window 2; window 1 is silent
    ])
    report = system.run(Trace(ts, uids), window_width=1.0)
    assert len(report.windows) == 3
    empty = report.windows[1]
    assert empty.tuples == 0
    assert empty.error == 0.0
    assert np.isfinite(report.mean_error)


class TestFaultyPipeline:
    def test_zero_fault_model_is_golden_identical(self, workload):
        """With every fault probability at zero, a run with a
        FaultModel must be byte-identical to a run without one — the
        fault machinery adds no observable behavior until a fault
        actually fires."""
        table, history, live = workload
        reports = {}
        systems = {}
        for key, faults in (("clean", None), ("zero", FaultModel(seed=7))):
            system = MonitoringSystem(
                table, get_metric("rms"), num_monitors=3,
                algorithm="lpm_greedy", budget=40,
            )
            system.train(history)
            systems[key] = system
            reports[key] = system.run(live, window_width=5.0, faults=faults)
        clean, zero = reports["clean"], reports["zero"]
        # WindowReport is a frozen dataclass: == is exact, field by
        # field, floats included.
        assert zero.windows == clean.windows
        assert zero.upstream_bytes == clean.upstream_bytes
        assert zero.function_bytes == clean.function_bytes
        assert zero.raw_bytes == clean.raw_bytes
        assert zero.mean_error == clean.mean_error
        assert zero.compression_ratio == clean.compression_ratio
        def wire(channel):
            return [
                (m.monitor, m.window_index, m.function_version, m.payload)
                for m in channel.messages
            ]

        assert wire(systems["zero"].channel) == wire(systems["clean"].channel)

    def test_total_message_loss_reports_degraded_windows(self, workload):
        """Losing every histogram must *report* each window as fully
        degraded (zero estimates, finite error), never skip it: the
        pre-fault code's silent ``continue`` on an empty message list
        is now an explicit, tested policy."""
        table, history, live = workload
        clean = MonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
        )
        clean.train(history)
        baseline = clean.run(live, window_width=5.0)
        lossy = MonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
        )
        lossy.train(history)
        report = lossy.run(
            live, window_width=5.0, faults=FaultModel(drop=1.0)
        )
        assert len(report.windows) == len(baseline.windows)
        for w in report.windows:
            assert w.monitors_reporting == 0
            assert np.isfinite(w.error)
        # Transmissions still happened and were still charged.
        assert report.upstream_bytes == baseline.upstream_bytes
        assert not lossy.channel.delivered

    def test_faulty_end_to_end_accounting_and_counters(self, workload):
        """The acceptance scenario: drop=0.2, dup=0.1, seed=42 over 4
        monitors completes with finite errors, per-window accounting
        that matches what actually crossed the wire, and repro.obs
        counters that agree with the report."""
        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=4,
            algorithm="lpm_greedy", budget=40,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            system.train(history)
            report = system.run(
                live, window_width=5.0,
                faults=FaultModel(drop=0.2, duplicate=0.1, seed=42),
            )
        assert report.windows
        for w in report.windows:
            assert np.isfinite(w.error)
        # monitors_reporting mirrors the surviving deliveries.
        survivors = {}
        for d in system.channel.delivered:
            survivors.setdefault(d.message.window_index, set()).add(
                d.message.monitor
            )
        for w in report.windows:
            assert w.monitors_reporting == len(
                survivors.get(w.window_index, set())
            )
        # Per-window duplicates: surviving copies minus unique keys.
        arrived = {}
        for d in system.channel.delivered:
            key = (d.message.monitor, d.message.window_index)
            arrived[key] = arrived.get(key, 0) + 1
        for w in report.windows:
            expected_dupes = sum(
                n - 1
                for (_, wi), n in arrived.items()
                if wi == w.window_index
            )
            assert w.duplicates_dropped == expected_dupes
        # obs counters agree with both the channel and the report.
        dropped = registry.get("counter", "channel.faults.dropped")
        assert dropped is not None
        assert dropped.value == len(system.channel.messages) - len(
            system.channel.delivered
        )
        dup_counter = registry.get("counter", "control.decode.duplicates")
        total_dupes = sum(w.duplicates_dropped for w in report.windows)
        assert total_dupes > 0
        assert dup_counter is not None and dup_counter.value == total_dupes
        up = registry.get("counter", "channel.upstream.bytes")
        assert up.value == report.upstream_bytes

    def test_crash_and_reinstall_recovers(self, workload):
        """A crashed Monitor misses windows until the install
        scheduler reaches it, then reports again; reinstalls are
        charged downstream."""
        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=3,
            algorithm="lpm_greedy", budget=40,
        )
        system.train(history)
        baseline_function_bytes = system.channel.downstream_bytes
        report = system.run(
            live, window_width=5.0,
            faults=FaultModel(crash=0.35, seed=9),
        )
        assert report.monitor_crashes > 0
        assert report.function_bytes > baseline_function_bytes
        assert any(
            w.monitors_reporting < len(system.monitors)
            for w in report.windows
        )
        # Recovery happened: some later window is back to full strength.
        assert any(
            w.monitors_reporting == len(system.monitors)
            for w in report.windows
        )
        for w in report.windows:
            assert np.isfinite(w.error)

    def test_delayed_messages_are_late_not_decoded(self, workload):
        """Every delivery delayed by >= 1 window misses its decode
        watermark: it shows up as a late (or expired) message, never in
        monitors_reporting."""
        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
        )
        system.train(history)
        report = system.run(
            live, window_width=5.0,
            faults=FaultModel(delay=1.0, max_delay_windows=2, seed=1),
        )
        assert all(w.monitors_reporting == 0 for w in report.windows)
        late_or_expired = (
            sum(w.late_messages for w in report.windows)
            + report.expired_messages
        )
        assert late_or_expired == len(system.channel.delivered)
        assert late_or_expired > 0


class TestCompressionRatio:
    def test_nothing_sent_is_zero(self):
        from repro.streams.system import SystemReport

        assert SystemReport().compression_ratio == 0.0

    def test_ratio_when_traffic_flowed(self):
        from repro.streams.system import SystemReport

        report = SystemReport(
            function_bytes=100, upstream_bytes=400, raw_bytes=10_000
        )
        assert report.compression_ratio == pytest.approx(20.0)


class TestWireFormatV2:
    """The v2 wire format through the whole pipeline: lossless payloads,
    never more bytes than the paper's v1 size model."""

    @pytest.mark.parametrize("algorithm", ["nonoverlapping", "overlapping",
                                           "lpm_greedy"])
    def test_v2_estimates_bit_identical_to_v1(self, workload, algorithm):
        """Within one run: every payload decodes to exactly the
        histogram the naive partitioner rebuilds for its (monitor,
        window) from the same split and segmentation (the object a v1
        transmission would carry, so estimates are identical), and the
        link costs no more than the v1 model of the same
        transmissions."""
        from repro.core.wire import decode_histogram_v2

        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=3,
            algorithm=algorithm, budget=40,
        )
        system.train(history)
        report = system.run(live, window_width=5.0)
        messages = system.channel.messages
        rebuilt = naive_window_histograms(system, live, 5.0)
        assert messages
        assert len(messages) == len(rebuilt)
        for m in messages:
            decoded = decode_histogram_v2(m.payload)
            expected = rebuilt[(m.monitor, m.window_index)]
            assert np.array_equal(decoded.nodes, expected.nodes)
            assert np.array_equal(decoded.values, expected.values)
            assert decoded.unmatched == expected.unmatched
            assert decoded.total == expected.total
        v1_model = sum(
            8 + rebuilt[(m.monitor, m.window_index)].size_bytes(table.domain)
            for m in messages
        )
        assert report.upstream_bytes <= v1_model

    def test_v2_naive_and_fast_kernels_bit_identical(self, workload):
        from repro.streams import use_stream_kernel_mode

        table, history, live = workload
        errors = {}
        for mode in ("fast", "naive"):
            with use_stream_kernel_mode(mode):
                system = MonitoringSystem(
                    table, get_metric("rms"), num_monitors=3,
                    algorithm="lpm_greedy", budget=40,
                )
                system.train(history)
                errors[mode] = [
                    w.error for w in system.run(live, window_width=5.0).windows
                ]
        assert errors["fast"] == errors["naive"]

    def test_v2_messages_carry_real_payload_bytes(self, workload):
        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
        )
        system.train(history)
        system.run(live, window_width=5.0)
        assert system.channel.messages
        charged = sum(
            8 + len(m.payload) for m in system.channel.messages
        )
        assert charged == system.channel.upstream_bytes

    def test_unknown_wire_format_rejected(self, workload):
        """There is no wire selector: any ``wire_format`` is an unknown
        option, rejected at construction."""
        table, _history, _live = workload
        with pytest.raises(TypeError, match="'wire_format'"):
            MonitoringSystem(table, get_metric("rms"), wire_format="v3")


class TestConstructorOptions:
    """A keyword the selected builder does not take fails at
    construction, not at the first rebuild."""

    def test_unknown_options_raise_at_construction(self, workload):
        from repro.serving import ShardedMonitoringSystem

        table, _history, _live = workload
        rms = get_metric("rms")
        with pytest.raises(TypeError, match="'parallel'"):
            MonitoringSystem(table, rms, parallel=2)
        with pytest.raises(TypeError, match="'wire_format'"):
            ShardedMonitoringSystem(table, rms, shards=2, wire_format="v1")
        with pytest.raises(TypeError, match="'bogus_knob'"):
            MonitoringSystem(table, rms, bogus_knob=3)
        with pytest.raises(TypeError, match="'k'"):
            MonitoringSystem(table, rms, algorithm="lpm_greedy", k=3)

    def test_builder_options_accepted(self, workload):
        table, history, _live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), algorithm="nonoverlapping", budget=20,
            low_memory=True,
        )
        system.train(history)
        assert system.control_center.builder_options == {"low_memory": True}


class TestMidRunFailure:
    def test_mid_run_exception_raises_and_next_run_recovers(self, workload):
        """A poisoned window must propagate its exception and leave the
        system usable: the next run equals the reference report."""
        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
        )
        system.train(history)
        reference = system.run(live, window_width=5.0)

        victim = system.monitors[0]
        original_build = victim._build
        calls = {"n": 0}

        def poisoned_build(uids, values):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("poisoned window")
            return original_build(uids, values)

        victim._build = poisoned_build
        with pytest.raises(RuntimeError, match="poisoned window"):
            system.run(live, window_width=5.0)

        victim._build = original_build
        recovered = system.run(live, window_width=5.0)
        assert recovered.windows == reference.windows
        assert recovered.mean_error == reference.mean_error
