"""SLO rules, the alerting engine, and its live surfaces.

Covers: spec/file parsing (including the Python-version gate on TOML),
the per-rule fire/resolve state machine with its journal events and
gauges, end-to-end runs whose alert history replays bit-identically,
and the ``/alerts.json`` + ``?since=`` metrics-server endpoints the
dashboard polls.
"""

import json
import sys
import urllib.request

import pytest

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import (
    Alert,
    EventJournal,
    MetricsRegistry,
    MetricsServer,
    NULL_SLO_ENGINE,
    SLOEngine,
    SLORule,
    TopSource,
    get_slo_engine,
    load_slo_file,
    parse_slo_rule,
    parse_slo_spec,
    read_journal,
    render_top,
    use_journal,
    use_lifecycle,
    use_registry,
    use_slo_engine,
)
from repro.obs.slo import quantile
from repro.obs.top import state_from_journal
from repro.streams import FaultModel, MonitoringSystem, Trace
from repro.streams.replay import replay_system_report


class TestRuleParsing:
    @pytest.mark.parametrize("spec,signal,op,threshold", [
        ("coverage>=0.9", "coverage", ">=", 0.9),
        ("delivery_p99_windows<=2", "delivery_p99_windows", "<=", 2.0),
        ("drift_score<0.5", "drift_score", "<", 0.5),
        ("late_messages==0", "late_messages", "==", 0.0),
        (" error > 1e-3 ", "error", ">", 1e-3),
    ])
    def test_accepted(self, spec, signal, op, threshold):
        rule = parse_slo_rule(spec)
        assert (rule.signal, rule.op, rule.threshold) == (
            signal, op, threshold
        )

    def test_canonical_spec_roundtrips(self):
        rule = parse_slo_rule("coverage>=0.9")
        assert rule.spec == "coverage>=0.9"
        assert parse_slo_rule(rule.spec) == rule
        assert parse_slo_rule("late_messages<=2").spec == "late_messages<=2"

    @pytest.mark.parametrize("bad", [
        "coverage", "coverage>=", ">=0.9", "coverage>=high",
        "cov erage>=0.9", "",
    ])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_slo_rule(bad)

    def test_spec_list(self):
        rules = parse_slo_spec("coverage>=0.9, drift_score<=0.5")
        assert [r.spec for r in rules] == [
            "coverage>=0.9", "drift_score<=0.5",
        ]
        with pytest.raises(ValueError, match="no rules"):
            parse_slo_spec(" , ")

    def test_rule_evaluation(self):
        rule = SLORule("coverage", ">=", 0.9)
        assert rule.ok(0.9) and rule.ok(1.0) and not rule.ok(0.89)
        with pytest.raises(ValueError, match="unknown SLO operator"):
            SLORule("coverage", "=>", 0.9)


class TestRuleFiles:
    def test_json_bare_list(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(["coverage>=0.9", "error<=1.5"]))
        assert [r.spec for r in load_slo_file(str(path))] == [
            "coverage>=0.9", "error<=1.5",
        ]

    def test_json_rules_object(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": ["drift_score<=0.5"]}))
        assert [r.spec for r in load_slo_file(str(path))] == [
            "drift_score<=0.5",
        ]

    def test_json_bad_shape(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"slos": ["coverage>=0.9"]}))
        with pytest.raises(ValueError, match="list of rule strings"):
            load_slo_file(str(path))

    def test_toml_gated_by_python_version(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text('rules = ["coverage>=0.9"]\n')
        if sys.version_info >= (3, 11):
            assert [r.spec for r in load_slo_file(str(path))] == [
                "coverage>=0.9",
            ]
        else:
            with pytest.raises(ValueError, match="3.11"):
                load_slo_file(str(path))


class TestQuantile:
    def test_exact_order_statistics(self):
        values = [3.0, 1.0, 2.0, 4.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0
        assert quantile(values, 0.5) == 2.5  # interpolated midpoint

    def test_empty_and_singleton(self):
        assert quantile([], 0.99) == 0.0
        assert quantile([7.0], 0.5) == 7.0

    def test_validated(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestEngine:
    def test_fire_and_resolve_transitions(self, tmp_path):
        path = str(tmp_path / "slo.journal")
        registry = MetricsRegistry()
        engine = SLOEngine(parse_slo_spec("coverage>=0.9"))
        with use_journal(EventJournal(path)), use_registry(registry):
            engine.observe(0, {"coverage": 1.0})   # in bounds
            engine.observe(1, {"coverage": 0.5})   # fires
            engine.observe(2, {"coverage": 0.4})   # still firing: no-op
            engine.observe(3, {"coverage": 1.0})   # resolves
            engine.observe(4, {"coverage": 0.2})   # fires again
        assert engine.alerts == [
            Alert("coverage>=0.9", 1, 0.5, 0.9, resolved_window=3),
            Alert("coverage>=0.9", 4, 0.2, 0.9),
        ]
        assert engine.active_alerts == [engine.alerts[1]]
        events = read_journal(path)
        assert [
            (e["event"], e["window"])
            for e in events
            if e["event"].startswith("alert.")
        ] == [("alert.fired", 1), ("alert.resolved", 3), ("alert.fired", 4)]
        assert registry.counter("slo.alerts.fired").value == 2
        assert registry.counter("slo.alerts.resolved").value == 1
        assert registry.gauge(
            "slo.breached", rule="coverage>=0.9"
        ).value == 1.0
        assert registry.gauge(
            "slo.value", rule="coverage>=0.9"
        ).value == 0.2

    def test_missing_signal_skipped(self):
        engine = SLOEngine(parse_slo_spec("delivery_p99_windows<=2"))
        engine.observe(0, {"coverage": 0.5})
        assert engine.alerts == []
        assert engine.windows_evaluated == 1

    def test_needs_rules(self):
        with pytest.raises(ValueError, match="at least one rule"):
            SLOEngine([])

    def test_default_engine_is_null(self):
        assert get_slo_engine() is NULL_SLO_ENGINE
        assert not NULL_SLO_ENGINE.enabled
        assert NULL_SLO_ENGINE.observe(0, {"coverage": 0.0}) == []
        assert NULL_SLO_ENGINE.as_json()["rules"] == []

    def test_as_json_shape(self):
        engine = SLOEngine(parse_slo_spec("coverage>=0.9"))
        engine.observe(0, {"coverage": 0.1})
        doc = engine.as_json()
        assert doc["rules"] == ["coverage>=0.9"]
        assert doc["windows_evaluated"] == 1
        assert doc["active"] == ["coverage>=0.9"]
        assert doc["alerts"][0]["fired_window"] == 0
        json.dumps(doc)  # must be wire-serializable


@pytest.fixture(scope="module")
def workload():
    dom = UIDDomain(8)
    table = generate_subnet_table(dom, seed=31)
    ts, uids = generate_timestamped_trace(
        table, 4000, duration=24.0, seed=32,
        model=TrafficModel(active_fraction=0.2, zipf_exponent=1.1),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 12), trace.slice_time(12, 24)


@pytest.fixture(scope="module")
def slo_run(workload, tmp_path_factory):
    """A faulty run with tracing + an SLO engine that demonstrably
    fires, journalled for the replay/top/trace assertions."""
    table, history, live = workload
    path = str(tmp_path_factory.mktemp("slo") / "run.journal")
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=3, budget=25,
        stale_policy="rescale",
        faults=FaultModel(drop=0.4, delay=0.4, max_delay_windows=2, seed=5),
    )
    engine = SLOEngine(
        parse_slo_spec("coverage>=0.99,delivery_p99_windows<=0")
    )
    with use_journal(EventJournal(path)), use_lifecycle(), \
            use_slo_engine(engine):
        system.train(history)
        report = system.run(live, window_width=3.0)
    return path, report, engine


class TestEndToEnd:
    def test_alerts_land_on_the_report(self, slo_run):
        _path, report, engine = slo_run
        assert report.alerts  # the chosen rules must actually fire
        assert report.alerts == engine.finish()
        assert all(isinstance(a, Alert) for a in report.alerts)

    def test_replay_rebuilds_alerts_bit_identically(self, slo_run):
        path, report, _engine = slo_run
        replayed = replay_system_report(read_journal(path))
        assert replayed.alerts == report.alerts
        assert replayed.windows == report.windows

    def test_replay_rejects_inconsistent_alert_stream(self, slo_run):
        path, _report, _engine = slo_run
        events = read_journal(path)
        fired = next(e for e in events if e["event"] == "alert.fired")
        double = dict(fired)
        double["seq"] = len(events)
        with pytest.raises(ValueError, match="already firing"):
            replay_system_report(events + [double])
        orphan = {
            "seq": len(events), "ts": 0.0, "event": "alert.resolved",
            "rule": "nosuch>=1", "window": 0, "value": 0.0,
        }
        with pytest.raises(ValueError, match="not firing"):
            replay_system_report(events + [orphan])

    def test_quality_rule_fires_without_metrics_or_journal(
        self, workload, tmp_path
    ):
        """A quality-signal rule must see real values under an SLO
        engine alone, and the report must not depend on which other
        telemetry sinks are live."""
        table, history, live = workload

        def run(journal=None):
            system = MonitoringSystem(
                table, get_metric("rms"), num_monitors=2, budget=25,
            )
            engine = SLOEngine(parse_slo_spec("occupancy_entropy<0.001"))
            with use_journal(journal), use_slo_engine(engine):
                system.train(history)
                return system.run(live, window_width=3.0)

        alone = run()
        journaled = run(EventJournal(str(tmp_path / "run.journal")))
        assert alone.alerts, "the quality rule never fired"
        assert alone.alerts[0].value > 0.001
        assert alone == journaled

    def test_top_folds_alert_events(self, slo_run):
        path, report, _engine = slo_run
        state = state_from_journal(read_journal(path), path)
        assert len(state.alerts) == len(report.alerts)
        assert len(state.active_alerts) == len(
            [a for a in report.alerts if a.resolved_window is None]
        )
        rendered = render_top(state)
        assert "alerts:" in rendered
        assert "coverage>=0.99" in rendered


def _get_json(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestServerSurfaces:
    def test_alerts_json_serves_engine_state(self):
        registry = MetricsRegistry()
        engine = SLOEngine(parse_slo_spec("coverage>=0.9"))
        engine.observe(0, {"coverage": 0.3})
        with MetricsServer(registry, port=0, slo=engine) as server:
            status, doc = _get_json(server.url + "/alerts.json")
        assert status == 200
        assert doc == engine.as_json()
        assert doc["active"] == ["coverage>=0.9"]

    def test_alerts_json_without_engine_is_empty(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            status, doc = _get_json(server.url + "/alerts.json")
        assert status == 200
        assert doc == NULL_SLO_ENGINE.as_json()

    def test_unknown_path_gets_json_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            try:
                urllib.request.urlopen(server.url + "/nope", timeout=5)
            except urllib.error.HTTPError as err:
                assert err.code == 404
                doc = json.loads(err.read().decode("utf-8"))
            else:  # pragma: no cover - the request must fail
                pytest.fail("expected a 404")
        assert doc["error"] == "not found"
        assert doc["path"] == "/nope"
        assert "/alerts.json" in doc["endpoints"]

    def test_series_since_incremental_fetch(self):
        registry = MetricsRegistry()
        registry.window_series.extend(
            [{"window": i} for i in range(4)]
        )
        with MetricsServer(registry, port=0) as server:
            _, full = _get_json(server.url + "/series.json")
            _, tail = _get_json(server.url + "/series.json?since=2")
            _, beyond = _get_json(server.url + "/series.json?since=99")
            try:
                urllib.request.urlopen(
                    server.url + "/series.json?since=x", timeout=5
                )
            except urllib.error.HTTPError as err:
                assert err.code == 400
            else:  # pragma: no cover - the request must fail
                pytest.fail("expected a 400")
        assert full == [{"window": i} for i in range(4)]
        assert tail == [{"window": 2}, {"window": 3}]
        assert beyond == []

    def test_top_source_polls_incrementally(self):
        registry = MetricsRegistry()
        registry.window_series.append({"window": 0, "counters": {}})
        engine = SLOEngine(parse_slo_spec("coverage>=0.9"))
        engine.observe(0, {"coverage": 0.1})
        with MetricsServer(registry, port=0, slo=engine) as server:
            source = TopSource(server.url)
            first = source.poll()
            registry.window_series.append({"window": 1, "counters": {}})
            second = source.poll()
        assert len(first.rows) == 1
        assert len(second.rows) == 2
        assert len(source._records) == 2  # each record fetched once
        assert second.alerts and second.alerts[0]["rule"] == "coverage>=0.9"
        assert second.active_alerts
