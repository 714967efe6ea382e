"""Property-based tests for the fault-injection layer.

The contract under test, for random seeded traces and fault configs:

(a) a zero-probability :class:`FaultModel` is byte- and
    report-identical to a run with no fault model at all;
(b) duplicate-only faults never change decoded estimates (the Control
    Center dedups by ``(monitor, window_index, function_version)``);
(c) drop-only faults keep every per-window error finite and report
    ``monitors_reporting`` exactly.

Each property is exercised for both the count(*) pipeline and the
weighted ``sum(value)`` pipeline (traces carrying a per-tuple value
column) — bucket aggregation, merging, decode and ground truth must all
honour the weights under faults, not just on the clean path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.core.wire import decode_histogram_v2
from repro.streams import FaultModel, MonitoringSystem, Trace


@pytest.fixture(scope="module")
def workload():
    dom = UIDDomain(8)
    table = generate_subnet_table(dom, seed=11)
    ts, uids = generate_timestamped_trace(
        table, 4000, duration=24.0, seed=12,
        model=TrafficModel(active_fraction=0.2, zipf_exponent=1.1),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 12), trace.slice_time(12, 24)


def _system(table, **kwargs):
    return MonitoringSystem(
        table, get_metric("rms"), num_monitors=3,
        algorithm="lpm_greedy", budget=25, **kwargs,
    )


def _run(table, history, live, faults):
    system = _system(table)
    system.train(history)
    report = system.run(live, window_width=3.0, faults=faults)
    return system, report


class TestZeroFaultIdentity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_report_and_bytes_identical(self, workload, seed):
        table, history, live = workload
        _clean_sys, clean = _run(table, history, live, faults=None)
        faulty_sys, faulty = _run(
            table, history, live, faults=FaultModel(seed=seed)
        )
        assert faulty.windows == clean.windows
        assert faulty.upstream_bytes == clean.upstream_bytes
        assert faulty.function_bytes == clean.function_bytes
        assert faulty.raw_bytes == clean.raw_bytes
        assert faulty.monitor_crashes == 0
        assert faulty.expired_messages == 0
        assert faulty.mean_error == clean.mean_error
        assert len(faulty_sys.channel.messages) == len(
            _clean_sys.channel.messages
        )

    def test_null_model_is_null(self):
        assert FaultModel(seed=3).is_null
        assert not FaultModel(drop=0.1).is_null
        assert not FaultModel(install_drop=0.5).is_null


class TestDuplicateOnly:
    @settings(max_examples=10, deadline=None)
    @given(
        dup=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_estimates_unchanged_and_dupes_accounted(
        self, workload, dup, seed
    ):
        table, history, live = workload
        _clean_sys, clean = _run(table, history, live, faults=None)
        faulty_sys, faulty = _run(
            table, history, live, faults=FaultModel(duplicate=dup, seed=seed)
        )
        # Dedup keeps the first copy, so merge order — and therefore
        # every float in the decode — is untouched.
        assert [w.error for w in faulty.windows] == [
            w.error for w in clean.windows
        ]
        assert [w.monitors_reporting for w in faulty.windows] == [
            w.monitors_reporting for w in clean.windows
        ]
        # Every duplicate wire copy was charged and then dropped by
        # decode, one for one.
        extra = len(faulty_sys.channel.messages) - len(
            _clean_sys.channel.messages
        )
        assert sum(w.duplicates_dropped for w in faulty.windows) == extra
        assert faulty.upstream_bytes >= clean.upstream_bytes
        if extra:
            assert faulty.upstream_bytes > clean.upstream_bytes


class TestDropOnly:
    @settings(max_examples=10, deadline=None)
    @given(
        drop=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_errors_finite_and_reporting_correct(self, workload, drop, seed):
        table, history, live = workload
        system, report = _run(
            table, history, live, faults=FaultModel(drop=drop, seed=seed)
        )
        assert report.windows  # total loss is reported, never skipped
        for w in report.windows:
            assert np.isfinite(w.error)
            assert 0 <= w.monitors_reporting <= len(system.monitors)
        # monitors_reporting must match what actually survived the wire.
        survivors = {}
        for delivery in system.channel.delivered:
            survivors.setdefault(delivery.message.window_index, set()).add(
                delivery.message.monitor
            )
        for w in report.windows:
            assert w.monitors_reporting == len(
                survivors.get(w.window_index, set())
            )


@pytest.fixture(scope="module")
def weighted_workload():
    dom = UIDDomain(8)
    table = generate_subnet_table(dom, seed=21)
    ts, uids = generate_timestamped_trace(
        table, 4000, duration=24.0, seed=22,
        model=TrafficModel(active_fraction=0.2, zipf_exponent=1.1),
    )
    values = np.random.default_rng(23).lognormal(
        mean=2.0, sigma=1.0, size=uids.size
    )
    trace = Trace(ts, uids, values)
    return table, trace.slice_time(0, 12), trace.slice_time(12, 24)


class TestWeightedValuesUnderFaults:
    """The satellite contract: sum(value) aggregation end-to-end —
    Monitor weighting, merge, decode and weighted ground truth — holds
    under the same fault properties as count(*)."""

    def test_weights_reach_histograms(self, weighted_workload):
        table, history, live = weighted_workload
        system, report = _run(table, history, live, faults=None)
        # Histogram totals are sums of tuple values, not tuple counts —
        # for a lognormal value column the two cannot coincide.
        totals = sum(
            decode_histogram_v2(m.payload).total
            for m in system.channel.messages
        )
        tuples = sum(w.tuples for w in report.windows)
        assert totals == pytest.approx(float(np.sum(live.values)))
        assert abs(totals - tuples) > 1.0

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_zero_fault_identity(self, weighted_workload, seed):
        table, history, live = weighted_workload
        _clean_sys, clean = _run(table, history, live, faults=None)
        _faulty_sys, faulty = _run(
            table, history, live, faults=FaultModel(seed=seed)
        )
        assert faulty.windows == clean.windows
        assert faulty.upstream_bytes == clean.upstream_bytes

    @settings(max_examples=6, deadline=None)
    @given(
        dup=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_duplicates_never_double_weights(
        self, weighted_workload, dup, seed
    ):
        table, history, live = weighted_workload
        _clean_sys, clean = _run(table, history, live, faults=None)
        _faulty_sys, faulty = _run(
            table, history, live, faults=FaultModel(duplicate=dup, seed=seed)
        )
        assert [w.error for w in faulty.windows] == [
            w.error for w in clean.windows
        ]

    @settings(max_examples=6, deadline=None)
    @given(
        drop=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_drops_keep_weighted_errors_finite(
        self, weighted_workload, drop, seed
    ):
        table, history, live = weighted_workload
        system, report = _run(
            table, history, live, faults=FaultModel(drop=drop, seed=seed)
        )
        assert report.windows
        for w in report.windows:
            assert np.isfinite(w.error)
            assert 0 <= w.monitors_reporting <= len(system.monitors)


class TestFaultModelUnit:
    def test_parse_round_trip(self):
        fm = FaultModel.parse("drop=0.1, dup=0.05, max_delay=3, seed=7")
        assert fm.drop == 0.1
        assert fm.duplicate == 0.05
        assert fm.max_delay_windows == 3
        assert fm.seed == 7

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultModel.parse("dorp=0.1")

    def test_parse_rejects_bare_token(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultModel.parse("drop")

    def test_probability_ranges_validated(self):
        with pytest.raises(ValueError):
            FaultModel(drop=1.5)
        with pytest.raises(ValueError):
            FaultModel(install_drop=-0.1)
        with pytest.raises(ValueError):
            FaultModel(max_delay_windows=0)

    def test_plans_deterministic_after_reset(self):
        from repro.core.wire import encode_histogram_v2
        from repro.streams.monitor import HistogramMessage
        from repro import Histogram, UIDDomain

        hist = Histogram({1: 2.0})
        msg = HistogramMessage(
            "m0", 0, 0, payload=encode_histogram_v2(hist, UIDDomain(4))
        )
        fm = FaultModel(drop=0.4, duplicate=0.4, delay=0.3, seed=99)
        first = [fm.plan_histogram(msg) for _ in range(50)]
        fm.reset()
        second = [fm.plan_histogram(msg) for _ in range(50)]
        assert [
            (t, [(d.delay, d.reorder) for d in ds]) for t, ds in first
        ] == [(t, [(d.delay, d.reorder) for d in ds]) for t, ds in second]
