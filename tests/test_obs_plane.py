"""Tests for the live observability plane: windowed snapshots, online
quality signals, the event journal + replay, and the live surfaces
(/metrics endpoint, periodic writer, repro top)."""

import io
import json
import re
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import (
    NULL_REGISTRY,
    EventJournal,
    MetricsRegistry,
    MetricsServer,
    NullJournal,
    PeriodicMetricsWriter,
    QualityTracker,
    bucket_quantile,
    emit_window_record,
    get_journal,
    load_jsonl,
    parse_serve_spec,
    read_journal,
    registry_records,
    render_summary,
    render_top,
    set_journal,
    span,
    take_snapshot,
    to_jsonl,
    to_prometheus,
    use_journal,
    use_registry,
)
from repro.obs.top import state_from_journal, state_from_series
from repro.streams import (
    AdaptiveMonitoringSystem,
    BucketDriftDetector,
    FaultModel,
    MonitoringSystem,
    Trace,
    replay_system_report,
)
from repro.streams.recalibrate import AdaptiveReport


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    with use_registry(reg):
        yield reg


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


FAULTS = "drop=0.15,dup=0.1,delay=0.1,crash=0.05,seed=7"


def _faulty_system(table):
    return MonitoringSystem(
        table, get_metric("rms"), num_monitors=3,
        algorithm="lpm_greedy", budget=40,
        stale_policy="rescale", faults=FaultModel.parse(FAULTS),
    )


@pytest.fixture(scope="module")
def journaled_run(workload, tmp_path_factory):
    """One seeded faulty run with the journal live; returns (report,
    journal path, parsed events)."""
    table, history, live = workload
    path = str(tmp_path_factory.mktemp("journal") / "run.journal")
    system = _faulty_system(table)
    with use_journal(EventJournal(path)):
        system.train(history)
        report = system.run(live, window_width=4.0)
    return report, path, read_journal(path)


# ---------------------------------------------------------------------------
# Windowed snapshots
# ---------------------------------------------------------------------------
class TestSnapshots:
    def test_counter_deltas_gauge_levels(self, registry):
        registry.counter("reqs").inc(5)
        registry.gauge("depth").set(2.0)
        first = emit_window_record(registry, 0)
        assert first["counters"]["reqs"] == 5.0
        assert first["gauges"]["depth"] == 2.0
        registry.counter("reqs").inc(3)
        registry.gauge("depth").set(7.0)
        second = emit_window_record(registry, 1)
        assert second["counters"]["reqs"] == 3.0  # delta, not cumulative
        assert second["gauges"]["depth"] == 7.0   # level, not delta
        assert [r["window"] for r in registry.window_series] == [0, 1]

    def test_unchanged_counter_omitted(self, registry):
        registry.counter("once").inc()
        emit_window_record(registry, 0)
        rec = emit_window_record(registry, 1)
        assert "once" not in rec["counters"]

    def test_distribution_delta_quantiles(self, registry):
        h = registry.histogram("sizes")
        for v in (0.5, 0.5, 50.0):
            h.observe(v)
        rec = emit_window_record(registry, 0)
        entry = rec["histograms"]["sizes"]
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(51.0)
        assert entry["mean"] == pytest.approx(17.0)
        assert 0.0 < entry["p50"] <= 1.0
        assert entry["p99"] > entry["p50"]
        # Nothing new next window: the family disappears from the record.
        rec2 = emit_window_record(registry, 1)
        assert "sizes" not in rec2["histograms"]

    def test_timers_reported_separately(self, registry):
        with registry.timer("work").time():
            pass
        registry.histogram("plain").observe(1.0)
        rec = emit_window_record(registry, 0)
        assert "work" in rec["timers"]
        assert "plain" in rec["histograms"]
        assert "work" not in rec["histograms"]

    def test_labeled_instruments_keyed(self, registry):
        registry.counter("hits", shard="a").inc(1)
        registry.counter("hits", shard="b").inc(2)
        rec = emit_window_record(registry, 0)
        assert rec["counters"]["hits{shard=a}"] == 1.0
        assert rec["counters"]["hits{shard=b}"] == 2.0

    def test_null_registry_is_noop(self):
        assert emit_window_record(NULL_REGISTRY, 0) is None

    def test_snapshot_is_frozen_copy(self, registry):
        registry.counter("c").inc(1)
        snap = take_snapshot(registry)
        registry.counter("c").inc(10)
        assert snap.counters["c"] == 1.0

    def test_record_is_json_serializable(self, registry):
        registry.counter("c", label="x").inc()
        registry.histogram("h").observe(3.5)
        rec = emit_window_record(registry, 0)
        assert json.loads(json.dumps(rec)) is not None


class TestBucketQuantile:
    BOUNDS = (1.0, 2.0, 4.0)

    def test_interpolates_within_bucket(self):
        # 4 observations: 2 in (1,2], 2 in (2,4].
        counts = (0, 2, 2, 0)
        assert bucket_quantile(self.BOUNDS, counts, 0.5) == pytest.approx(2.0)
        assert bucket_quantile(self.BOUNDS, counts, 0.25) == pytest.approx(1.5)
        assert bucket_quantile(self.BOUNDS, counts, 1.0) == pytest.approx(4.0)

    def test_overflow_clamped_to_last_bound(self):
        counts = (0, 0, 0, 3)  # everything past the last finite bound
        assert bucket_quantile(self.BOUNDS, counts, 0.5) == pytest.approx(4.0)

    def test_empty_distribution(self):
        assert bucket_quantile(self.BOUNDS, (0, 0, 0, 0), 0.9) == 0.0

    def test_quantile_validated(self):
        with pytest.raises(ValueError):
            bucket_quantile(self.BOUNDS, (1, 0, 0, 0), 1.5)


# ---------------------------------------------------------------------------
# Online quality signals
# ---------------------------------------------------------------------------
def _quality(tracker, slots, unmatched=0.0, num_buckets=4, version=0,
             coverage=1.0, messages=2, duplicates=0, stale=0):
    return tracker.observe(
        np.asarray(slots, dtype=np.float64), unmatched,
        num_buckets=num_buckets, version=version, coverage=coverage,
        messages=messages, duplicates=duplicates, stale=stale,
    )


class TestQualitySignals:
    def test_spill_fraction(self):
        q = _quality(QualityTracker(), [30.0, 30.0, 0.0, 0.0], unmatched=40.0)
        assert q.spill_fraction == pytest.approx(0.4)

    def test_entropy_and_skew_extremes(self):
        def signals(slots):
            q = _quality(QualityTracker(), slots)
            return q.occupancy_entropy, q.occupancy_skew

        assert signals([10.0, 10.0, 10.0, 10.0]) == pytest.approx((1.0, 1.0))
        entropy, skew = signals([40.0, 0.0, 0.0, 0.0])
        # exactly +0.0: one occupied bucket must not read -0.0
        assert str(entropy) == "0.0"
        assert skew == pytest.approx(4.0)
        assert signals([0.0, 0.0, 0.0, 0.0]) == (0.0, 0.0)
        assert signals([]) == (0.0, 0.0)

    def test_first_window_anchors_reference(self):
        tracker = QualityTracker()
        first = _quality(tracker, [10.0, 0.0, 0.0, 0.0])
        assert first.drift_score == 0.0
        shifted = _quality(tracker, [0.0, 10.0, 0.0, 0.0])
        assert shifted.drift_score == pytest.approx(1.0)  # disjoint mass

    def test_version_change_reanchors(self):
        tracker = QualityTracker()
        _quality(tracker, [10.0, 0.0, 0.0, 0.0], version=0)
        q = _quality(tracker, [0.0, 10.0, 0.0, 0.0], version=1)
        assert q.drift_score == 0.0  # new function, new reference

    def test_duplicate_and_stale_rates(self):
        q = _quality(
            QualityTracker(), [5.0, 0.0], num_buckets=2, coverage=0.5,
            messages=8, duplicates=2, stale=4,
        )
        assert q.duplicate_rate == pytest.approx(0.25)
        assert q.stale_rate == pytest.approx(0.5)
        assert q.coverage == pytest.approx(0.5)

    def test_drift_detector_reads_tracker_score(self, workload, registry):
        """The recalibration trigger, the ``drift`` event, the report's
        ``drift_scores`` and each window's ``drift_score`` are one
        number: the quality tracker's."""
        table, history, live = workload
        sink = io.StringIO()
        system = AdaptiveMonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
            detector=BucketDriftDetector(threshold=0.01, patience=1),
        )
        with use_journal(EventJournal(sink)):
            system.train(history)
            report = system.run(live, window_width=4.0)
        assert report.rebuilds
        drift_events = [
            e["score"] for e in map(json.loads, sink.getvalue().splitlines())
            if e["event"] == "drift"
        ]
        per_window = [w.drift_score for w in report.windows]
        assert report.drift_scores == per_window == drift_events
        assert registry.get("gauge", "quality.drift_score").value == (
            per_window[-1]
        )

    def test_window_reports_carry_quality(self, workload, registry):
        table, history, live = workload
        system = _faulty_system(table)
        system.train(history)
        report = system.run(live, window_width=4.0)
        assert any(w.coverage > 0 for w in report.windows)
        assert all(0.0 <= w.occupancy_entropy <= 1.0 for w in report.windows)
        # ... and the gauges were exported.
        assert registry.get("gauge", "quality.spill_fraction") is not None
        assert registry.get("gauge", "quality.drift_score") is not None


# ---------------------------------------------------------------------------
# Event journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_sequence_ids_and_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with EventJournal(path) as journal:
            assert journal.emit("run_start", windows=2) == 0
            assert journal.emit("decode", window_index=0) == 1
            assert journal.events_written == 2
        events = read_journal(path)
        assert [e["seq"] for e in events] == [0, 1]
        assert events[0]["event"] == "run_start"
        assert events[1]["window_index"] == 0
        assert all(e["ts"] >= 0 for e in events)

    def test_gap_detected(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        path.write_text(
            '{"seq": 0, "event": "run_start"}\n'
            '{"seq": 2, "event": "decode"}\n'
        )
        with pytest.raises(ValueError, match="sequence gap"):
            read_journal(str(path))
        # Lenient mode returns the valid prefix instead.
        assert len(read_journal(str(path), strict=False)) == 1

    def test_partial_last_line_lenient(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"seq": 0, "event": "run_start"}\n'
            '{"seq": 1, "event": "dec'  # mid-flush
        )
        with pytest.raises(ValueError):
            read_journal(str(path))
        assert len(read_journal(str(path), strict=False)) == 1

    def test_use_journal_scopes_and_closes(self, tmp_path):
        path = str(tmp_path / "scoped.jsonl")
        journal = EventJournal(path)
        assert isinstance(get_journal(), NullJournal)
        with use_journal(journal):
            assert get_journal() is journal
            get_journal().emit("run_start")
        assert isinstance(get_journal(), NullJournal)
        assert journal._file.closed
        assert get_journal().emit("decode") == -1  # null sink swallows

    def test_set_journal_returns_previous(self):
        previous = set_journal(None)
        assert isinstance(previous, NullJournal)

    def test_concurrent_emit_stays_gapless(self, tmp_path):
        path = str(tmp_path / "threads.jsonl")
        journal = EventJournal(path)

        def work():
            for _ in range(200):
                journal.emit("decode")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        journal.close()
        events = read_journal(path)  # strict: raises on any gap
        assert len(events) == 800


# ---------------------------------------------------------------------------
# Replay (acceptance: bit-identical reconstruction)
# ---------------------------------------------------------------------------
class TestReplay:
    def test_replay_is_bit_identical(self, journaled_run):
        report, _path, events = journaled_run
        replayed = replay_system_report(events)
        assert replayed == report  # dataclass equality: every field, bit-exact
        assert replayed.mean_error == report.mean_error
        assert replayed.compression_ratio == report.compression_ratio

    def test_journal_records_the_faults(self, journaled_run):
        report, _path, events = journaled_run
        kinds = {e["event"] for e in events}
        assert {"run_start", "rebuild", "install", "decode",
                "run_end"} <= kinds
        crashes = sum(1 for e in events if e["event"] == "fault.crash")
        assert crashes == report.monitor_crashes > 0
        run_start = next(e for e in events if e["event"] == "run_start")
        assert run_start["faults"]["drop"] == pytest.approx(0.15)
        assert run_start["monitors"] == 3

    def test_replay_rejects_truncation(self, journaled_run):
        _report, _path, events = journaled_run
        with pytest.raises(ValueError, match="no run_end"):
            replay_system_report(
                [e for e in events if e["event"] != "run_end"]
            )
        with pytest.raises(ValueError, match="decode events"):
            without_decode = [
                e for e in events if e["event"] != "decode"
            ]
            replay_system_report(without_decode)

    def test_replay_rejects_crash_mismatch(self, journaled_run):
        _report, _path, events = journaled_run
        tampered = [e for e in events if e["event"] != "fault.crash"]
        with pytest.raises(ValueError, match="crash"):
            replay_system_report(tampered)

    def test_adaptive_run_replays_drift_and_rebuilds(
        self, workload, tmp_path
    ):
        table, history, live = workload
        path = str(tmp_path / "adaptive.journal")
        system = AdaptiveMonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
            detector=BucketDriftDetector(threshold=0.01, patience=1),
        )
        with use_journal(EventJournal(path)):
            system.train(history)
            report = system.run(live, window_width=4.0)
        replayed = replay_system_report(read_journal(path))
        assert isinstance(replayed, AdaptiveReport)
        assert replayed == report
        assert replayed.drift_scores == report.drift_scores
        assert replayed.rebuilds == report.rebuilds
        assert report.rebuilds  # the aggressive detector actually fired


# ---------------------------------------------------------------------------
# Live surfaces: HTTP endpoint, periodic writer
# ---------------------------------------------------------------------------
class TestServeSpec:
    @pytest.mark.parametrize("spec,expected", [
        (":9100", ("127.0.0.1", 9100)),
        ("9100", ("127.0.0.1", 9100)),
        ("0.0.0.0:80", ("0.0.0.0", 80)),
        (" :0 ", ("127.0.0.1", 0)),
    ])
    def test_accepted(self, spec, expected):
        assert parse_serve_spec(spec) == expected

    @pytest.mark.parametrize("spec", ["", "x", ":bad", ":70000", "host:"])
    def test_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_serve_spec(spec)


def _http_get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


class TestMetricsServer:
    def test_serves_prometheus_and_series(self, registry):
        registry.counter("hits", route="/a").inc(3)
        emit_window_record(registry, 0)
        with MetricsServer(registry, port=0) as server:
            status, ctype, body = _http_get(f"{server.url}/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert "0.0.4" in ctype
            text = body.decode("utf-8")
            assert '# TYPE hits counter' in text
            assert 'hits{route="/a"} 3.0' in text

            status, ctype, body = _http_get(f"{server.url}/series.json")
            assert status == 200
            assert ctype == "application/json"
            series = json.loads(body)
            assert len(series) == 1
            assert series[0]["counters"]["hits{route=/a}"] == 3.0

            status, _ctype, body = _http_get(f"{server.url}/healthz")
            assert status == 200 and body == b"ok\n"

    def test_unknown_path_404(self, registry):
        with MetricsServer(registry, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _http_get(f"{server.url}/nope")
            assert err.value.code == 404

    def test_live_updates_visible_mid_run(self, registry):
        with MetricsServer(registry, port=0) as server:
            registry.counter("ticks").inc()
            _s, _c, first = _http_get(f"{server.url}/metrics")
            registry.counter("ticks").inc()
            _s, _c, second = _http_get(f"{server.url}/metrics")
        assert b"ticks 1.0" in first
        assert b"ticks 2.0" in second


class TestPeriodicWriter:
    def test_rewrites_file(self, registry, tmp_path):
        path = str(tmp_path / "live.jsonl")
        registry.counter("c").inc()
        writer = PeriodicMetricsWriter(
            registry, path, fmt="json", interval=0.05
        )
        writer.start()
        deadline = time.time() + 5.0
        while writer.writes < 2 and time.time() < deadline:
            time.sleep(0.01)
        registry.counter("c").inc(41)
        writer.stop()
        assert writer.writes >= 3  # periodic writes plus the final one
        records = load_jsonl(path)
        by_name = {r["name"]: r for r in records}
        assert by_name["c"]["value"] == 42.0  # final state on stop

    def test_interval_validated(self, registry, tmp_path):
        with pytest.raises(ValueError):
            PeriodicMetricsWriter(registry, str(tmp_path / "x"), interval=0)


# ---------------------------------------------------------------------------
# repro top state + rendering
# ---------------------------------------------------------------------------
class TestTop:
    def test_state_from_journal(self, journaled_run):
        report, _path, events = journaled_run
        state = state_from_journal(events, "run.journal")
        assert state.finished
        assert len(state.rows) == len(report.windows)
        assert [r.window for r in state.rows] == [
            w.window_index for w in report.windows
        ]
        assert state.total_tuples == sum(w.tuples for w in report.windows)
        assert state.mean_error == pytest.approx(report.mean_error)
        assert state.counters.get("crash") == report.monitor_crashes
        assert state.counters.get("installs", 0) > 0

    def test_state_from_series(self, workload):
        table, history, live = workload
        reg = MetricsRegistry()
        with use_registry(reg):
            system = MonitoringSystem(
                table, get_metric("rms"), num_monitors=2,
                algorithm="lpm_greedy", budget=40,
            )
            system.train(history)
            report = system.run(live, window_width=4.0)
        state = state_from_series(reg.window_series, "http://x")
        assert len(state.rows) == len(report.windows)
        assert state.total_tuples == sum(w.tuples for w in report.windows)
        row = state.rows[0]
        assert row.coverage == pytest.approx(1.0)
        assert row.error is not None and row.bytes is not None

    def test_journal_and_series_counters_agree(self, workload, tmp_path):
        """One faulty adaptive run read both ways: journal mode folds
        its events through the reducer table, so it shows the series
        mode's counters (training installs are not live installs)."""
        table, history, live = workload
        registry = MetricsRegistry()
        path = str(tmp_path / "both.journal")
        system = AdaptiveMonitoringSystem(
            table, get_metric("rms"), num_monitors=3,
            algorithm="lpm_greedy", budget=40, stale_policy="rescale",
            faults=FaultModel.parse(FAULTS),
            detector=BucketDriftDetector(threshold=0.01, patience=1),
        )
        with use_registry(registry), use_journal(EventJournal(path)):
            system.train(history)
            system.run(live, window_width=1.0)
        journal = state_from_journal(read_journal(path), "run.journal")
        series = state_from_series(registry.window_series, "http://x")
        assert journal.counters == series.counters
        for key in ("drop", "installs", "recalibrations"):
            assert journal.counters.get(key, 0) > 0

    def test_render_mentions_everything(self, journaled_run):
        _report, _path, events = journaled_run
        state = state_from_journal(events, "run.journal")
        text = render_top(state, max_rows=4)
        assert "[finished]" in text
        assert "faults/installs:" in text
        assert "error bar" in text
        # max_rows bounds the table, not the totals.
        lines = [l for l in text.splitlines() if re.match(r"\s+\d+ ", l)]
        assert len(lines) <= 4

    def test_render_empty_state(self):
        from repro.obs import TopState
        text = render_top(TopState(source="nothing"))
        assert "no decoded windows yet" in text


# ---------------------------------------------------------------------------
# Satellite: concurrency — per-instrument locks
# ---------------------------------------------------------------------------
class TestConcurrentIngest:
    def test_no_lost_increments_across_instruments(self, registry):
        """Hammer several families from many threads; every update must
        land (this fails with lost increments if instruments share
        unlocked state)."""
        n_threads, n_iter = 8, 2000

        def work(idx):
            c = registry.counter("shared")
            mine = registry.counter("per_thread", thread=str(idx))
            h = registry.histogram("values")
            for i in range(n_iter):
                c.inc()
                mine.inc(2)
                h.observe(float(i % 7))

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("shared").value == n_threads * n_iter
        for i in range(n_threads):
            assert registry.counter(
                "per_thread", thread=str(i)
            ).value == 2 * n_iter
        h = registry.histogram("values")
        assert h.count == n_threads * n_iter
        assert sum(h.bucket_counts) == h.count
        expected_sum = n_threads * sum(i % 7 for i in range(n_iter))
        assert h.sum == pytest.approx(expected_sum)

    def test_per_instrument_locks_are_distinct(self, registry):
        a = registry.counter("a")
        b = registry.counter("b")
        assert a._lock is not b._lock
        assert a._lock is not registry._lock

    def test_spans_interleave_per_thread(self, registry):
        """Nested spans from concurrent threads must keep their own
        parent chains (thread-local stacks)."""
        def work(idx):
            with span("outer", thread=idx):
                with span("inner", thread=idx):
                    time.sleep(0.001)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        inners = [s for s in registry.spans if s.name == "inner"]
        assert len(inners) == 6
        assert all(s.parent == "outer" for s in inners)


# ---------------------------------------------------------------------------
# Satellite: Prometheus exposition — headers once, escaping round-trip
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r' (?P<value>\S+)$'
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:\\.|[^"\\])*)"')


def _prom_unescape(value):
    out, i = [], 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


def _parse_exposition(text):
    """A minimal Prometheus text-format scraper: returns
    ({(name, labelitems): value}, {name: type}, {name: help_count})."""
    samples, types, headers = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in types, f"duplicate # TYPE for {name}"
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            headers[name] = headers.get(name, 0) + 1
            continue
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        labels = tuple(
            (lm.group("key"), _prom_unescape(lm.group("val")))
            for lm in _LABEL_RE.finditer(m.group("labels") or "")
        )
        samples[(m.group("name"), labels)] = float(m.group("value"))
    return samples, types, headers


class TestPrometheusExposition:
    def test_headers_once_per_family(self):
        reg = MetricsRegistry()
        for shard in ("a", "b", "c"):
            reg.counter("hits", shard=shard).inc()
        reg.histogram("sizes", kind="x").observe(1.0)
        reg.histogram("sizes", kind="y").observe(2.0)
        text = to_prometheus(reg)
        assert text.count("# TYPE hits counter") == 1
        assert text.count("# HELP hits ") == 1
        assert text.count("# TYPE sizes histogram") == 1
        # Headers precede their family's first sample.
        assert text.index("# TYPE hits counter") < text.index("hits{")

    def test_label_values_escaped_and_recoverable(self):
        reg = MetricsRegistry()
        nasty = 'quo"te\\slash\nnewline'
        reg.counter("evil", path=nasty).inc(7)
        reg.gauge("ok", plain="x").set(1.5)
        text = to_prometheus(reg)
        assert "\n\n" not in text  # raw newline never leaks into a line
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        samples, types, headers = _parse_exposition(text)
        assert samples[("evil", (("path", nasty),))] == 7.0
        assert samples[("ok", (("plain", "x"),))] == 1.5
        assert types == {"evil": "counter", "ok": "gauge"}
        assert headers == {"evil": 1, "ok": 1}

    def test_full_run_scrape_parses(self, registry, workload):
        """Scrape-parse round-trip over a real run's registry: every
        line must parse and cumulative bucket counts must be sane."""
        table, history, live = workload
        system = _faulty_system(table)
        system.train(history)
        system.run(live, window_width=4.0)
        text = to_prometheus(registry)
        samples, types, _headers = _parse_exposition(text)
        for name in ("quality_coverage", "quality_spill_fraction",
                     "quality_drift_score"):
            assert types[name] == "gauge"
            assert any(key[0] == name for key in samples)
        count = samples[("system_windows", ())]
        assert count > 0
        # histogram invariants: _count equals the +Inf bucket.
        inf_bucket = samples[
            ("system_window_error_bucket", (("le", "+Inf"),))
        ]
        assert samples[("system_window_error_count", ())] == inf_bucket


# ---------------------------------------------------------------------------
# Satellite: JSONL round-trip fidelity
# ---------------------------------------------------------------------------
class TestJsonlRoundtrip:
    def test_zero_observation_timer_roundtrips(self, tmp_path):
        reg = MetricsRegistry()
        reg.timer("never.fired")  # created, never observed
        reg.counter("c").inc()
        path = tmp_path / "m.jsonl"
        path.write_text(to_jsonl(reg))
        records = load_jsonl(str(path))
        assert records == registry_records(reg)
        timer = next(r for r in records if r["name"] == "never.fired")
        assert timer["count"] == 0
        assert timer["min"] == 0.0 and timer["max"] == 0.0  # not ±inf
        summary = render_summary(records)
        assert "never.fired" in summary

    def test_unicode_labels_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("requêtes", ruta="café/β", emoji="🦉").inc(3)
        reg.gauge("température", unité="°C").set(-12.5)
        path = tmp_path / "uni.jsonl"
        path.write_text(to_jsonl(reg))
        records = load_jsonl(str(path))
        assert records == registry_records(reg)
        counter = next(r for r in records if r["type"] == "counter")
        assert counter["labels"] == {"ruta": "café/β", "emoji": "🦉"}
        summary = render_summary(records)
        assert "requêtes" in summary and "°C" in summary

    def test_exact_value_fidelity(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("pi").set(0.1 + 0.2)  # classic non-representable sum
        reg.histogram("h").observe(1e-17)
        path = tmp_path / "exact.jsonl"
        path.write_text(to_jsonl(reg))
        records = load_jsonl(str(path))
        assert records == registry_records(reg)  # bit-exact floats


# ---------------------------------------------------------------------------
# Satellite: span tree rendering
# ---------------------------------------------------------------------------
class TestSpanTree:
    def test_summary_indents_children(self, registry):
        with span("system.run"):
            with span("control.decode"):
                pass
            with span("monitor.window"):
                pass
        spans = [
            r for r in registry_records(registry) if r["type"] == "span"
        ]
        from repro.obs import render_span_tree
        lines = render_span_tree(spans)
        run_line = next(l for l in lines if "system.run" in l)
        child_line = next(l for l in lines if "control.decode" in l)
        run_indent = len(run_line) - len(run_line.lstrip())
        child_indent = len(child_line) - len(child_line.lstrip())
        assert child_indent > run_indent
        # ... and the tree reaches the rendered stats summary.
        assert render_summary(registry_records(registry)).count(
            "  " * 1 + "system.run"
        )

    def test_repeated_spans_rolled_up(self, registry):
        for _ in range(3):
            with span("outer"):
                with span("inner"):
                    pass
        from repro.obs import render_span_tree
        spans = [
            r for r in registry_records(registry) if r["type"] == "span"
        ]
        lines = render_span_tree(spans)
        inner_lines = [l for l in lines if "inner" in l]
        assert len(inner_lines) == 1
        assert "count=3" in inner_lines[0]

    def test_cycle_guard(self):
        from repro.obs import render_span_tree
        spans = [
            {"name": "a", "parent": "b", "duration": 0.1},
            {"name": "b", "parent": "a", "duration": 0.2},
        ]
        lines = render_span_tree(spans)
        assert len(lines) == 2  # both emitted exactly once, no hang


# ---------------------------------------------------------------------------
# Satellite: orphaned span parents render as roots
# ---------------------------------------------------------------------------
class TestSpanTreeOrphans:
    def test_orphaned_parent_renders_as_root(self):
        from repro.obs import render_span_tree
        spans = [
            # Parent name never recorded as a span itself (e.g. the
            # root span was captured by a different registry).
            {"name": "child.a", "parent": "ghost.run", "duration": 0.1},
            {"name": "child.b", "parent": "ghost.run", "duration": 0.2},
            {"name": "real.root", "parent": None, "duration": 0.3},
        ]
        lines = render_span_tree(spans)
        assert len(lines) == 3  # nothing silently dropped
        for name in ("child.a", "child.b", "real.root"):
            line = next(l for l in lines if name in l)
            indent = len(line) - len(line.lstrip())
            assert indent == 2  # all roots: no phantom indentation

    def test_self_parent_is_a_root(self):
        from repro.obs import render_span_tree
        lines = render_span_tree(
            [{"name": "loop", "parent": "loop", "duration": 0.1}]
        )
        assert len(lines) == 1 and "count=1" in lines[0]


# ---------------------------------------------------------------------------
# Satellite: timer quantiles over empty window records
# ---------------------------------------------------------------------------
class TestEmptyWindowTimers:
    def test_idle_window_omits_the_timer(self, registry):
        registry.timer("decode.duration").observe(0.5)
        first = emit_window_record(registry, 0)
        assert "decode.duration" in first["timers"]
        # No observations land in window 1: the family is omitted,
        # not reported as a zero/NaN quantile row.
        second = emit_window_record(registry, 1)
        assert second["timers"] == {}
        assert second["histograms"] == {}

    def test_never_observed_timer_absent_from_first_window(self, registry):
        registry.timer("never.fired")  # family exists, count == 0
        record = emit_window_record(registry, 0)
        assert record["timers"] == {}

    def test_bucket_quantile_of_empty_delta_is_zero(self):
        bounds = (1.0, 2.0, 4.0)
        assert bucket_quantile(bounds, (0, 0, 0, 0), 0.99) == 0.0


# ---------------------------------------------------------------------------
# Satellite: atomic metrics writes
# ---------------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_leaves_no_temp_file(self, registry, tmp_path):
        from repro.obs import write_metrics
        registry.counter("c").inc(3)
        path = tmp_path / "metrics.jsonl"
        write_metrics(registry, str(path), "json")
        write_metrics(registry, str(path), "json")  # overwrite in place
        leftovers = [
            p for p in tmp_path.iterdir() if p.name != "metrics.jsonl"
        ]
        assert leftovers == []
        records = load_jsonl(str(path))
        assert any(
            r["name"] == "c" and r["value"] == 3 for r in records
        )

    def test_failed_render_cleans_up(self, registry, tmp_path):
        from repro.obs import write_metrics
        path = tmp_path / "metrics.jsonl"
        with pytest.raises(ValueError, match="unknown metrics format"):
            write_metrics(registry, str(path), "xml")
        assert list(tmp_path.iterdir()) == []

    def test_periodic_writer_final_state_is_atomic(self, registry, tmp_path):
        registry.counter("writes").inc()
        path = tmp_path / "live.jsonl"
        with PeriodicMetricsWriter(
            registry, str(path), fmt="json", interval=30.0
        ):
            pass  # stop() always writes the final state
        assert [p.name for p in tmp_path.iterdir()] == ["live.jsonl"]
        assert load_jsonl(str(path))


# ---------------------------------------------------------------------------
# Satellite: wall-clock anchor on run_start
# ---------------------------------------------------------------------------
class TestWallStart:
    def test_run_start_carries_iso_wall_start(self, journaled_run):
        from datetime import datetime
        _report, _path, events = journaled_run
        run_start = next(
            e for e in events if e["event"] == "run_start"
        )
        anchor = run_start["wall_start"]
        parsed = datetime.fromisoformat(anchor)
        assert parsed.tzinfo is not None  # UTC-anchored, not naive
        # The journal's own wall_start is what got stamped.
        assert isinstance(anchor, str) and "T" in anchor

    def test_null_journal_has_no_anchor(self):
        assert NullJournal().wall_start is None

    def test_replay_unaffected_by_wall_start(self, journaled_run):
        # Byte-identity of the replayed report over a journal carrying
        # the new field (replay treats it as envelope, not state).
        report, path, _events = journaled_run
        assert replay_system_report(read_journal(path)) == report
