"""Message-lifecycle capture: conservation, attribution, export.

The tentpole invariant, locked exactly under arbitrary seeded fault
configurations::

    sent copies == delivered + dropped + expired
    delivered   == decoded + rescaled + deduped + quarantined + late

over the books :func:`~repro.obs.fold_lifecycle` folds from the
journal; plus: capture is strictly opt-in (a run without it journals
no lifecycle fields), every copy-level fact is one event, the copy a
decode outcome goes to is pinned, a journal cut mid-line still folds,
a sharded run journals the same lifecycle as the serial one, the
events reconstruct into a valid Chrome Trace Event document with every
delivery flow paired, and replay stays bit-identical on traced
journals.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import (
    DELIVERED_OUTCOMES,
    OUTCOMES,
    BufferJournal,
    MetricsRegistry,
    chrome_trace,
    fold_lifecycle,
    lifecycle_on,
    read_journal,
    unpaired_flows,
    use_journal,
    use_lifecycle,
    use_registry,
)
from repro.obs.journal import EventJournal
from repro.serving import ShardedMonitoringSystem
from repro.streams import FaultModel, MonitoringSystem, Trace
from repro.streams.replay import replay_system_report

#: Fault events that carry the copy id under capture.
_COPY_FAULTS = ("fault.drop", "fault.duplicate", "fault.delay")


@pytest.fixture(scope="module")
def workload():
    dom = UIDDomain(8)
    table = generate_subnet_table(dom, seed=21)
    ts, uids = generate_timestamped_trace(
        table, 4000, duration=24.0, seed=22,
        model=TrafficModel(active_fraction=0.2, zipf_exponent=1.1),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 12), trace.slice_time(12, 24)


def _traced_run(workload, faults, stale_policy="rescale", journal=None):
    """One captured run; returns ``(system, report, events)``."""
    table, history, live = workload
    system = MonitoringSystem(
        table, get_metric("rms"), num_monitors=3,
        algorithm="lpm_greedy", budget=25, stale_policy=stale_policy,
        faults=faults,
    )
    journal = BufferJournal() if journal is None else journal
    with use_journal(journal), use_lifecycle():
        system.train(history)
        report = system.run(live, window_width=3.0)
    events = (
        journal.events if isinstance(journal, BufferJournal)
        else read_journal(journal.path)
    )
    return system, report, events


class TestConservation:
    @settings(max_examples=15, deadline=None)
    @given(
        drop=st.floats(min_value=0.0, max_value=0.5),
        duplicate=st.floats(min_value=0.0, max_value=0.5),
        delay=st.floats(min_value=0.0, max_value=0.5),
        reorder=st.floats(min_value=0.0, max_value=1.0),
        max_delay=st.integers(min_value=1, max_value=4),
        crash=st.floats(min_value=0.0, max_value=0.1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_copy_attributed_exactly_once(
        self, workload, drop, duplicate, delay, reorder, max_delay,
        crash, seed,
    ):
        faults = FaultModel(
            drop=drop, duplicate=duplicate, delay=delay,
            reorder=reorder, max_delay_windows=max_delay,
            crash=crash, seed=seed,
        )
        _system, report, events = _traced_run(workload, faults)
        books = fold_lifecycle(events)
        c = books.outcomes
        assert books.conservation_ok, books
        assert books.open == ()
        assert books.sent == books.delivered + c["dropped"] + c["expired"]
        assert books.delivered == sum(c[o] for o in DELIVERED_OUTCOMES)
        # The books must agree with the report's accounting.
        assert c["expired"] == report.expired_messages
        assert c["late"] == sum(w.late_messages for w in report.windows)
        assert c["deduped"] == sum(
            w.duplicates_dropped for w in report.windows
        )

    def test_delay_reorder_at_watermark_boundary(self, workload):
        """Every surviving copy delayed exactly one window (the decode
        watermark) and reorder-flagged: all deliveries that land before
        the run ends must close as late, never decoded."""
        faults = FaultModel(
            delay=1.0, max_delay_windows=1, reorder=1.0, seed=3,
        )
        _system, report, events = _traced_run(workload, faults)
        books = fold_lifecycle(events)
        c = books.outcomes
        assert books.conservation_ok, books
        assert c["decoded"] == 0 and c["rescaled"] == 0
        assert books.delivered == c["late"]
        assert c["late"] + c["expired"] == books.sent
        assert c["late"] > 0  # the boundary case actually exercised

    def test_zero_faults_all_decoded_at_age_zero(self, workload):
        registry = MetricsRegistry()
        with use_registry(registry):
            _system, report, events = _traced_run(
                workload, faults=None, stale_policy="strict",
            )
        books = fold_lifecycle(events)
        c = books.outcomes
        assert books.conservation_ok
        assert books.sent == c["decoded"] == len(report.windows) * 3
        assert all(c[o] == 0 for o in OUTCOMES if o != "decoded")
        timer = registry.timer("delivery.age_windows")
        assert timer.count == c["decoded"]
        assert timer.max == 0.0  # clean link: same-window delivery


class TestOptIn:
    def test_capture_off_by_default(self):
        assert not lifecycle_on()
        with use_lifecycle():
            assert lifecycle_on()
        assert not lifecycle_on()

    def test_untraced_run_records_nothing(self, workload):
        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=3, budget=25,
            faults=FaultModel(drop=0.2, duplicate=0.2, delay=0.2, seed=1),
        )
        journal = BufferJournal()
        with use_journal(journal):
            system.train(history)
            system.run(live, window_width=3.0)
        events = journal.events
        assert not any(e["event"].startswith("trace.") for e in events)
        faults = [e for e in events if e["event"] in _COPY_FAULTS]
        assert {e["event"] for e in faults} == set(_COPY_FAULTS)
        assert not any("copy" in e or "version" in e for e in faults)
        books = fold_lifecycle(events)
        assert books.sent == 0 and books.open == ()
        assert not any(books.outcomes.values())

    def test_unknown_outcome_rejected(self):
        events = [
            {"event": "trace.sent", "monitor": "m", "window": 0,
             "version": 0, "copy": 0},
            {"event": "trace.closed", "monitor": "m", "window": 0,
             "version": 0, "copy": 0, "outcome": "vanished"},
        ]
        with pytest.raises(ValueError, match="unknown lifecycle outcome"):
            fold_lifecycle(events)

    def test_closing_unknown_key_is_noop(self):
        books = fold_lifecycle([
            {"event": "trace.closed", "monitor": "never-sent",
             "window": 0, "version": 0, "copy": 0, "outcome": "decoded"},
            {"event": "fault.drop", "monitor": "never-sent", "window": 1,
             "version": 0, "copy": 1},
        ])
        assert books.sent == 0
        assert not any(books.outcomes.values())
        assert books.conservation_ok


class TestJournalAndTrace:
    @pytest.fixture(scope="class")
    def traced_journal(self, workload, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("lifecycle") / "run.journal")
        faults = FaultModel(
            drop=0.2, duplicate=0.2, delay=0.3, max_delay_windows=2,
            reorder=0.5, seed=9,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            _system, report, events = _traced_run(
                workload, faults, journal=EventJournal(path),
            )
        return path, report, fold_lifecycle(events), registry

    def test_trace_events_journalled(self, traced_journal):
        path, _report, books, _registry = traced_journal
        events = read_journal(path)
        kinds = {e["event"] for e in events}
        assert {"trace.sent", "trace.closed"} <= kinds
        sent = [e for e in events if e["event"] == "trace.sent"]
        closes = [
            e for e in events
            if e["event"] == "trace.closed"
            or (e["event"] == "fault.drop" and "copy" in e)
        ]
        assert len(sent) == books.sent
        assert len(closes) == len(sent)  # every copy closed exactly once
        for e in sent:
            assert {"monitor", "window", "version", "copy"} <= set(e)
        for e in closes:
            if e["event"] == "trace.closed":
                assert e["outcome"] in OUTCOMES
                assert e["age_windows"] == e["at_window"] - e["window"]

    def test_one_event_per_fact(self, traced_journal):
        path, _report, books, registry = traced_journal
        events = read_journal(path)
        kinds = {e["event"] for e in events}
        assert not kinds & {"trace.duplicated", "trace.delayed"}
        assert not any(
            e["event"] == "trace.closed" and e["outcome"] == "dropped"
            for e in events
        )
        for e in events:
            if e["event"] in _COPY_FAULTS:
                assert {"version", "copy"} <= set(e), e
        drops = sum(e["event"] == "fault.drop" for e in events)
        assert drops > 0
        assert drops == books.outcomes["dropped"]
        assert drops == registry.counter("channel.faults.dropped").value
        assert drops == registry.counter("lifecycle.outcome.dropped").value

    def test_copy_attribution_is_pinned(self, workload):
        """Several copies of one key on time in one window: outcomes go
        in arrival order, copies in ascending copy index."""
        faults = FaultModel(duplicate=0.9, reorder=1.0, seed=4)
        _system, _report, events = _traced_run(workload, faults)
        arrived = {}
        closed = {}
        for e in events:
            key = (e.get("monitor"), e.get("window"), e.get("version"))
            if e["event"] == "trace.delivered" and e["at_window"] == e[
                "window"
            ]:
                arrived.setdefault(key, []).append(e["copy"])
            elif e["event"] == "trace.closed" and e["outcome"] in (
                "decoded", "rescaled", "deduped", "quarantined",
            ):
                closed.setdefault(key, []).append(
                    (e["copy"], e["outcome"])
                )
        multi = {k: v for k, v in arrived.items() if len(v) > 1}
        assert multi
        # The pin matters: some copies arrive out of copy order.
        assert any(v != sorted(v) for v in multi.values())
        for key, copies in multi.items():
            got = closed[key]
            assert [c for c, _ in got] == sorted(copies)
            outcomes = [o for _, o in got]
            assert outcomes[0] != "deduped"
            assert outcomes[1:] == ["deduped"] * (len(copies) - 1)

    def test_journal_cut_mid_line(self, traced_journal, tmp_path):
        path, _report, _books, _registry = traced_journal
        with open(path) as f:
            lines = f.readlines()
        closed = {
            (e["monitor"], e["window"], e["version"], e["copy"])
            for e in map(json.loads, lines)
            if e["event"] == "trace.closed"
        }
        # Cut halfway into the line after a send whose copy closes
        # later.
        cut = next(
            i + 1 for i, line in enumerate(lines)
            if i > len(lines) // 2 and json.loads(line)["event"]
            == "trace.sent"
        )
        cut_path = str(tmp_path / "cut.journal")
        with open(cut_path, "w") as f:
            f.writelines(lines[:cut])
            f.write(lines[cut][: len(lines[cut]) // 2])
        prefix = read_journal(cut_path, strict=False)
        assert [json.dumps(e, sort_keys=True) for e in prefix] == [
            json.dumps(json.loads(line), sort_keys=True)
            for line in lines[:cut]
        ]
        books = fold_lifecycle(prefix)
        assert books.open
        assert not books.conservation_ok
        last_sent = json.loads(lines[cut - 1])
        assert (
            last_sent["monitor"], last_sent["window"],
            last_sent["version"], last_sent["copy"],
        ) in set(books.open) & closed
        with pytest.raises(ValueError, match=f"cut.journal:{cut + 1}:"):
            read_journal(cut_path, strict=True)

    def test_replay_bit_identical_with_tracing(self, traced_journal):
        path, report, _books, _registry = traced_journal
        replayed = replay_system_report(read_journal(path))
        assert replayed.windows == report.windows
        assert replayed.expired_messages == report.expired_messages
        assert replayed.alerts == report.alerts == []

    def test_chrome_trace_valid_and_paired(self, traced_journal):
        path, _report, books, _registry = traced_journal
        doc = chrome_trace(read_journal(path))
        # Round-trips as JSON (what `repro trace` writes to disk).
        doc = json.loads(json.dumps(doc))
        assert unpaired_flows(doc) == []
        events = doc["traceEvents"]
        tails = [e for e in events if e.get("ph") == "s"]
        heads = [e for e in events if e.get("ph") == "f"]
        assert len(tails) == len(heads) == books.sent
        # Dropped copies close on their monitor's track.
        dropped = [e for e in heads if e["tid"] != 0]
        assert len(dropped) == books.outcomes["dropped"] > 0
        # One named track per monitor plus the control center.
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert names == {
            "control-center", "monitor-0", "monitor-1", "monitor-2",
        }
        tids = {e["tid"] for e in events}
        assert tids == {0, 1, 2, 3}

    def test_flow_ids_are_deterministic_trace_ids(self, traced_journal):
        path, _report, _books, _registry = traced_journal
        doc = chrome_trace(read_journal(path))
        for e in doc["traceEvents"]:
            if e.get("ph") in ("s", "t", "f"):
                monitor, window, version, copy = e["id"].split("/")
                assert monitor.startswith("monitor-")
                assert window.startswith("w")
                assert version.startswith("v")
                assert copy.startswith("c")

    def test_chrome_trace_of_untraced_journal_has_no_flows(
        self, workload, tmp_path
    ):
        path = str(tmp_path / "plain.journal")
        table, history, live = workload
        system = MonitoringSystem(
            table, get_metric("rms"), num_monitors=3, budget=25,
        )
        with use_journal(EventJournal(path)):
            system.train(history)
            system.run(live, window_width=3.0)
        doc = chrome_trace(read_journal(path))
        assert unpaired_flows(doc) == []
        assert not any(
            e.get("ph") in ("s", "t", "f") for e in doc["traceEvents"]
        )
        # Decode slices still render on the center track.
        assert any(
            e.get("cat") == "decode" for e in doc["traceEvents"]
        )


class TestSharded:
    def test_sharded_run_journals_the_serial_lifecycle(self, workload):
        table, history, live = workload
        spec = "drop=0.2,dup=0.3,delay=0.3,max_delay=2,reorder=0.5,seed=5"

        def lifecycle_events(system):
            journal = BufferJournal()
            with use_journal(journal), use_lifecycle():
                system.train(history)
                report = system.run(live, window_width=3.0)
            facts = [
                {k: v for k, v in e.items() if k not in ("seq", "ts")}
                for e in journal.events
                if e["event"].startswith(("trace.", "fault."))
            ]
            return report, facts, fold_lifecycle(journal.events)

        options = dict(
            num_monitors=3, algorithm="lpm_greedy", budget=25,
            stale_policy="rescale", faults=FaultModel.parse(spec),
        )
        serial = MonitoringSystem(table, get_metric("rms"), **options)
        report, facts, books = lifecycle_events(serial)
        with ShardedMonitoringSystem(
            table, get_metric("rms"), shards=2, **options,
        ) as sharded:
            sh_report, sh_facts, sh_books = lifecycle_events(sharded)
        assert sh_report.windows == report.windows
        assert books.outcomes["dropped"] > 0 and books.outcomes["late"] > 0
        assert sh_facts == facts
        assert sh_books == books
        assert sh_books.conservation_ok
