"""Tests for the observability layer (repro.obs) and its wiring."""

import csv
import io
import json
import threading

import numpy as np
import pytest

from repro import GroupTable, PrunedHierarchy, UIDDomain, get_metric
from repro.algorithms.construct import available_algorithms, build
from repro.cli import main
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    load_jsonl,
    registry_records,
    render_summary,
    set_registry,
    span,
    to_csv,
    to_jsonl,
    to_prometheus,
    use_registry,
    write_metrics,
)
from repro.obs.registry import _NULL_CONTEXT, _NULL_INSTRUMENT, _label_items
from repro.obs.spans import _NULL_SPAN


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    with use_registry(reg):
        yield reg


class TestRegistry:
    def test_counter_monotonic(self, registry):
        c = registry.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 5

    def test_gauge_moves_both_ways(self, registry):
        g = registry.gauge("level")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert g.value == 8

    def test_histogram_stats(self, registry):
        h = registry.histogram("sizes")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0
        assert sum(h.bucket_counts) == 3

    def test_timer_records_duration(self, registry):
        t = registry.timer("work")
        with t.time():
            pass
        assert t.count == 1
        assert t.sum >= 0

    def test_label_identity(self, registry):
        a = registry.counter("x", algorithm="greedy", budget="10")
        b = registry.counter("x", budget="10", algorithm="greedy")
        c = registry.counter("x", algorithm="other", budget="10")
        assert a is b
        assert a is not c

    def test_label_cardinality(self, registry):
        for i in range(10):
            registry.counter("fam", shard=i).inc()
        children = [
            inst for kind, inst in registry.instruments()
            if kind == "counter" and inst.name == "fam"
        ]
        assert len(children) == 10

    def test_get_never_creates(self, registry):
        assert registry.get("counter", "nope") is None
        registry.counter("yes", a="1").inc(2)
        assert registry.get("counter", "yes", a="1").value == 2

    def test_timer_observes_a_raising_body(self, registry):
        t = registry.timer("work")
        with pytest.raises(RuntimeError):
            with t.time():
                raise RuntimeError("boom")
        assert t.count == 1
        with t.time() as value:
            pass
        assert value is None
        assert t.count == 2

    def test_observe_buckets(self, registry):
        """``value <= bound`` picks the bucket; NaN and +inf overflow."""
        h = registry.histogram("edges")
        bounds = h.bounds
        for value in (bounds[0], bounds[3], -1.0, float("-inf"), 0.0,
                      bounds[-1], float("inf"), float("nan")):
            h.observe(value)
        expected = [0] * (len(bounds) + 1)
        expected[0] = 4  # bounds[0], -1, -inf, 0
        expected[3] = 1
        expected[len(bounds) - 1] = 1
        expected[-1] = 2  # +inf, NaN
        assert h.bucket_counts == expected

    def test_thread_safety(self, registry):
        c = registry.counter("shared")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestHandles:
    """Repeat lookups answer from the handle dict, with the same child
    the sorted, stringified label path resolves."""

    @staticmethod
    def _by_items(registry, kind, name, **labels):
        return registry._metrics[(kind, name)][_label_items(labels)]

    def test_permuted_kwargs_share_a_child(self, registry):
        first = registry.counter("x", a="1", b="2")
        for _ in range(2):
            assert registry.counter("x", b="2", a="1") is first
            assert registry.counter("x", a="1", b="2") is first
        assert first is self._by_items(registry, "counter", "x", a="1", b="2")

    def test_stringified_values_share_a_child(self, registry):
        text = registry.counter("x", monitor="1")
        for _ in range(2):
            assert registry.counter("x", monitor=1) is text
            assert registry.counter("x", monitor="1") is text
        # 1 == True == 1.0, but they stringify apart: no handle may
        # conflate them.
        assert registry.counter("x", monitor=True).labels == (
            ("monitor", "True"),
        )
        assert registry.counter("x", monitor=1.0).labels == (
            ("monitor", "1.0"),
        )
        assert registry.counter("x", monitor=1) is text

    def test_unhashable_label_value(self, registry):
        child = registry.counter("x", tags=["a", "b"])
        child.inc()
        assert registry.counter("x", tags=["a", "b"]) is child
        assert child.labels == (("tags", "['a', 'b']"),)
        assert child.value == 1

    def test_kinds_stay_distinct(self, registry):
        counter = registry.counter("same")
        histogram = registry.histogram("same")
        assert counter is not histogram
        for _ in range(2):
            assert registry.counter("same") is counter
            assert registry.histogram("same") is histogram
        assert registry.timer("same") is not histogram

    def test_null_registry_keeps_the_shared_instrument(self):
        for _ in range(2):
            assert NULL_REGISTRY.counter("x", a="1") is _NULL_INSTRUMENT
            assert NULL_REGISTRY.timer("t", monitor=1) is _NULL_INSTRUMENT
        assert NULL_REGISTRY._handles == {}
        assert NULL_REGISTRY.timer("t").time() is _NULL_CONTEXT

    def test_steady_state_window_skips_label_sorting(self, monkeypatch):
        from repro.data import generate_subnet_table
        from repro.data.traffic import generate_timestamped_trace
        from repro.obs import EventJournal, use_journal, use_lifecycle
        from repro.obs import registry as registry_module
        from repro.streams import FaultModel, MonitoringSystem, Trace

        table = generate_subnet_table(UIDDomain(10), seed=2)
        ts, uids = generate_timestamped_trace(
            table, 3000, duration=20.0, seed=4
        )
        trace = Trace(ts, uids)
        history, live = trace.slice_time(0, 10), trace.slice_time(10, 20)
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=3, budget=30,
            faults=FaultModel.parse("drop=0.2,dup=0.1,delay=0.2,seed=3"),
        )
        reg = MetricsRegistry()
        calls = []
        real = registry_module._label_items

        def counted(labels):
            calls.append(dict(labels))
            return real(labels)

        with use_registry(reg), use_lifecycle(), \
                use_journal(EventJournal(io.StringIO())):
            system.train(history)
            system.run(live, window_width=2.0)
            windows = len(reg.window_series)
            monkeypatch.setattr(registry_module, "_label_items", counted)
            system.run(live, window_width=2.0)
        assert len(reg.window_series) == 2 * windows > 0
        assert calls == []


class TestNullRegistry:
    def test_disabled_by_default(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_noop_instruments_are_shared(self):
        a = NULL_REGISTRY.counter("a", x="1")
        b = NULL_REGISTRY.timer("b")
        assert a is b  # one inert object, no allocation per lookup
        a.inc()
        a.observe(3.0)
        with b.time():
            pass
        assert list(NULL_REGISTRY.instruments()) == []

    def test_span_is_inert_when_disabled(self):
        with span("phase", detail=1) as sp:
            sp.annotate(more=2)
        assert sp is _NULL_SPAN
        assert NULL_REGISTRY.spans == []

    def test_instrumented_code_leaves_no_trace(self, small_hierarchy):
        # The no-op path of the acceptance criteria: building with no
        # registry installed must record nothing anywhere.
        build("nonoverlapping", small_hierarchy, get_metric("rms"), 4)
        assert list(NULL_REGISTRY.instruments()) == []
        assert NULL_REGISTRY.spans == []

    def test_set_registry_restores(self):
        reg = MetricsRegistry()
        previous = set_registry(reg)
        try:
            assert get_registry() is reg
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestSpans:
    def test_nesting_records_parent(self, registry):
        with span("outer"):
            with span("inner"):
                pass
        spans = {s.name: s for s in registry.spans}
        assert spans["inner"].parent == "outer"
        assert spans["outer"].parent is None
        # Inner finishes first; both carry nonnegative durations.
        assert spans["outer"].duration >= spans["inner"].duration >= 0

    def test_payload_and_annotate(self, registry):
        with span("phase", budget=7) as sp:
            sp.annotate(cells=12)
        record = registry.spans[0]
        assert record.payload == {"budget": 7, "cells": 12}

    def test_span_feeds_duration_timer(self, registry):
        with span("phase"):
            pass
        timer = registry.get("timer", "phase.duration")
        assert timer is not None and timer.count == 1

    def test_exception_still_records(self, registry):
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        assert registry.spans[0].name == "doomed"


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c", a="1").inc(3)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(4.0)
        with use_registry(reg):
            with span("s", k="v"):
                pass
        return reg

    def test_jsonl_roundtrip(self, tmp_path):
        reg = self._populated()
        path = str(tmp_path / "m.jsonl")
        write_metrics(reg, path, "json")
        records = load_jsonl(path)
        assert records == registry_records(reg)
        by_type = {r["type"] for r in records}
        assert {"counter", "gauge", "histogram", "timer", "span"} <= by_type

    def test_csv_parses(self):
        reg = self._populated()
        rows = list(csv.reader(io.StringIO(to_csv(reg))))
        header, body = rows[0], rows[1:]
        assert header[:3] == ["type", "name", "labels"]
        assert len(body) == len(registry_records(reg))

    def test_prometheus_format(self):
        reg = self._populated()
        text = to_prometheus(reg)
        assert '# TYPE c counter' in text
        assert 'c{a="1"} 3.0' in text
        assert "# TYPE h histogram" in text
        assert "h_count 1" in text
        assert 'h_bucket{le="+Inf"} 1' in text
        # Span names never reach Prometheus directly — their timers do.
        assert "s_duration_count" in text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_metrics(MetricsRegistry(), str(tmp_path / "x"), "xml")

    def test_load_rejects_non_jsonl(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("definitely,not,json\n")
        with pytest.raises(ValueError):
            load_jsonl(str(path))

    def test_summary_renders_all_sections(self):
        reg = self._populated()
        text = render_summary(registry_records(reg))
        for section in ("counters", "gauges", "distributions", "spans"):
            assert section in text

    def test_summary_of_nothing(self):
        assert render_summary([]) == "no metrics recorded\n"


@pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
def test_every_builder_emits_span_and_size_counter(
    small_hierarchy, algorithm
):
    """Acceptance: each construction algorithm records at least one
    timing span and one size counter."""
    reg = MetricsRegistry()
    with use_registry(reg):
        build(algorithm, small_hierarchy, get_metric("rms"), 5)
    build_spans = [s for s in reg.spans if s.name == "build"]
    assert len(build_spans) == 1
    assert build_spans[0].payload["algorithm"] == algorithm
    assert build_spans[0].duration > 0
    # Beyond the generic build span, every builder traces its own phase.
    assert any(s.name != "build" for s in reg.spans)
    timer = reg.get("timer", "build.duration", algorithm=algorithm)
    assert timer is not None and timer.count == 1
    nodes = reg.get("counter", "build.size.nodes", algorithm=algorithm)
    assert nodes is not None and nodes.value > 0


class TestCLIMetrics:
    SIMULATE = [
        "simulate", "--height", "8", "--packets", "4000",
        "--windows", "2", "--monitors", "2", "--budget", "20",
    ]

    def test_simulate_metrics_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "run.jsonl")
        assert main(self.SIMULATE + ["--metrics", out]) == 0
        records = load_jsonl(out)
        assert any(r["type"] == "span" and r["name"] == "build"
                   for r in records)
        assert any(r["type"] == "counter" and r["name"] == "system.windows"
                   for r in records)
        capsys.readouterr()
        assert main(["stats", out]) == 0
        text = capsys.readouterr().out
        assert "system.windows" in text
        assert "build.duration" in text

    def test_metrics_formats(self, tmp_path):
        for fmt, name in (("csv", "run.csv"), ("prom", "run.prom")):
            out = str(tmp_path / name)
            assert main(
                self.SIMULATE + ["--metrics", out, "--metrics-format", fmt]
            ) == 0
            with open(out) as f:
                assert f.read().strip()

    def test_no_metrics_flag_stays_disabled(self, tmp_path):
        assert main(self.SIMULATE) == 0
        assert get_registry() is NULL_REGISTRY
        assert list(NULL_REGISTRY.instruments()) == []

    def test_stats_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("type,name\ncounter,x\n")
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
