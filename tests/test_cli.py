"""Tests for the command-line interface."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.core import decode_function, function_from_json


@pytest.fixture
def workload(tmp_path):
    path = str(tmp_path / "w.npz")
    assert main(["generate", "--height", "10", "--packets", "20000",
                 "--seed", "3", "-o", path]) == 0
    return path


class TestGenerate:
    def test_creates_file(self, workload):
        assert os.path.exists(workload)
        data = np.load(workload)
        assert int(data["height"][0]) == 10
        assert data["counts"].sum() == 20000

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        main(["generate", "--height", "8", "--packets", "1000",
              "--seed", "5", "-o", a])
        main(["generate", "--height", "8", "--packets", "1000",
              "--seed", "5", "-o", b])
        da, db = np.load(a), np.load(b)
        assert np.array_equal(da["counts"], db["counts"])


class TestBuild:
    @pytest.mark.parametrize("algorithm", ["nonoverlapping", "overlapping",
                                           "lpm_greedy"])
    def test_build_binary(self, workload, tmp_path, algorithm):
        out = str(tmp_path / "fn.bin")
        assert main(["build", workload, "--algorithm", algorithm,
                     "--budget", "12", "-o", out]) == 0
        with open(out, "rb") as f:
            fn = decode_function(f.read())
        assert fn.num_buckets <= 12

    def test_build_json(self, workload, tmp_path):
        out = str(tmp_path / "fn.json")
        main(["build", workload, "--budget", "8", "-o", out])
        with open(out) as f:
            fn = function_from_json(f.read())
        assert fn.num_buckets <= 8

    def test_metric_choices_enforced(self, workload, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", workload, "--metric", "nope",
                  "-o", str(tmp_path / "x.bin")])


class TestEvaluateInspect:
    def test_evaluate_prints_all_metrics(self, workload, tmp_path, capsys):
        out = str(tmp_path / "fn.bin")
        main(["build", workload, "--budget", "10", "-o", out])
        assert main(["evaluate", workload, out]) == 0
        text = capsys.readouterr().out
        for name in ("rms", "average", "avg_relative", "max_relative"):
            assert name in text

    def test_inspect_lists_buckets(self, workload, tmp_path, capsys):
        out = str(tmp_path / "fn.json")
        main(["build", workload, "--budget", "6", "-o", out])
        assert main(["inspect", out]) == 0
        text = capsys.readouterr().out
        assert "buckets" in text
        assert "*" in text


class TestSimulate:
    def test_simulate_reports(self, capsys):
        assert main(["simulate", "--height", "10", "--packets", "20000",
                     "--budget", "20", "--monitors", "2"]) == 0
        text = capsys.readouterr().out
        assert "compression ratio" in text
        assert "mean rms error" in text
        # No fault model -> no degradation section.
        assert "monitors reporting" not in text

    def test_simulate_with_faults_prints_degradation(self, capsys):
        assert main(["simulate", "--height", "10", "--packets", "20000",
                     "--budget", "20", "--monitors", "4",
                     "--faults", "drop=0.2,dup=0.1,seed=42",
                     "--stale-policy", "rescale"]) == 0
        text = capsys.readouterr().out
        assert "monitors reporting" in text
        assert "duplicates dropped" in text
        assert "stale messages" in text

    @pytest.mark.parametrize("flag", [["--parallel", "2"],
                                      ["--wire-format", "v1"]])
    def test_simulate_rejects_removed_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--height", "10", "--packets", "5000"] + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_simulate_bad_fault_spec_rejected(self, capsys):
        assert main(["simulate", "--height", "10", "--packets", "5000",
                     "--faults", "dorp=0.2"]) == 2
        assert "unknown fault spec key" in capsys.readouterr().err


SERVING_SMALL = ["simulate", "--height", "10", "--packets", "20000",
                 "--budget", "20", "--monitors", "2", "--windows", "3"]


class TestSimulateServing:
    def test_sharded_run_matches_serial_output(self, capsys):
        assert main(SERVING_SMALL) == 0
        serial = capsys.readouterr().out
        assert main(SERVING_SMALL + ["--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == serial

    def test_shards_must_be_positive(self, capsys):
        assert main(SERVING_SMALL + ["--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_tenants_print_admission_and_budgets(self, capsys):
        assert main(SERVING_SMALL + [
            "--shards", "2",
            "--tenants",
            "alpha:budget=20,bytes=4000;beta:budget=20,bytes=150;gamma",
            "--capacity-bytes", "5000",
        ]) == 0
        text = capsys.readouterr().out
        assert "tenants admitted  : 2 of 3" in text
        assert "tenant alpha:" in text
        assert "of 4000 budgeted" in text
        assert "[OVER BUDGET]" in text  # beta's 150-byte budget is tiny
        assert ("tenant gamma: rejected (no byte budget declared "
                "under capacity control)") in text

    def test_capacity_bytes_requires_tenants(self, capsys):
        assert main(SERVING_SMALL + ["--capacity-bytes", "100"]) == 2
        assert "--capacity-bytes needs --tenants" in capsys.readouterr().err

    def test_bad_tenant_spec_rejected(self, capsys):
        assert main(SERVING_SMALL + ["--tenants", "bad:frob=1"]) == 2
        assert "unknown tenant option" in capsys.readouterr().err


SIMULATE_SMALL = ["simulate", "--height", "10", "--packets", "20000",
                  "--budget", "20", "--monitors", "2", "--windows", "3"]


class TestLiveSurfaces:
    def test_journal_then_replay_matches(self, tmp_path, capsys):
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + [
            "--faults", "drop=0.2,dup=0.1,crash=0.05,seed=11",
            "--stale-policy", "rescale", "--journal", journal,
        ]) == 0
        simulated = capsys.readouterr().out
        assert main(["replay", journal]) == 0
        replayed = capsys.readouterr().out
        assert replayed == simulated  # same summary, no re-simulation
        assert "monitors reporting" in replayed

    def test_replay_rejects_truncated_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + ["--journal", journal]) == 0
        capsys.readouterr()
        lines = open(journal).read().splitlines()
        with open(journal, "w") as f:
            f.write("\n".join(lines[:-1]) + "\n")  # drop run_end
        assert main(["replay", journal]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_metrics_scrapeable_mid_run(self, capsys):
        import json
        import urllib.request
        assert main(SIMULATE_SMALL + [
            "--serve-metrics", "127.0.0.1:0", "--serve-linger", "0",
        ]) == 0
        # Port 0 => ephemeral; the bound URL is announced on stderr.
        err = capsys.readouterr().err
        assert "serving metrics at http://127.0.0.1:" in err

    def test_metrics_interval_requires_metrics(self, capsys):
        assert main(SIMULATE_SMALL + ["--metrics-interval", "1"]) == 2
        assert "--metrics-interval" in capsys.readouterr().err

    def test_metrics_interval_writes_file(self, tmp_path):
        out = str(tmp_path / "live.jsonl")
        assert main(SIMULATE_SMALL + [
            "--metrics", out, "--metrics-interval", "0.05",
        ]) == 0
        from repro.obs import load_jsonl
        records = load_jsonl(out)
        assert any(r["name"] == "system.windows" for r in records)

    def test_top_once_renders_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + [
            "--faults", "drop=0.2,seed=3", "--journal", journal,
        ]) == 0
        capsys.readouterr()
        assert main(["top", journal, "--once"]) == 0
        text = capsys.readouterr().out
        assert "[finished]" in text
        assert "error bar" in text
        assert "drop" in text

    def test_top_missing_source_errors(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.journal"), "--once"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_watch_rerenders_on_growth(self, tmp_path, capsys):
        import threading
        import time
        out = str(tmp_path / "run.jsonl")
        assert main(SIMULATE_SMALL + ["--metrics", out]) == 0
        capsys.readouterr()

        def grow():
            time.sleep(0.3)
            with open(out, "a") as f:
                f.write('{"type": "counter", "name": "extra.counter", '
                        '"labels": {}, "value": 1.0}\n')

        appender = threading.Thread(target=grow)
        appender.start()
        # --watch-max 2: one render of the initial file, then one more
        # once the appender grows it.
        assert main(["stats", out, "--watch", "--watch-max", "2",
                     "--watch-interval", "0.05"]) == 0
        appender.join()
        text = capsys.readouterr().out
        assert text.count("counters") == 2
        assert "extra.counter" in text

    def test_stats_plain_still_works(self, tmp_path, capsys):
        out = str(tmp_path / "run.jsonl")
        assert main(SIMULATE_SMALL + ["--metrics", out]) == 0
        capsys.readouterr()
        assert main(["stats", out]) == 0
        text = capsys.readouterr().out
        assert "system.run" in text  # span tree section


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_missing_command():
    with pytest.raises(SystemExit):
        main([])


class TestTracingAndSLOs:
    FAULTY = [
        "--faults", "drop=0.3,dup=0.2,delay=0.3,seed=11",
        "--stale-policy", "rescale",
    ]

    def test_traced_slo_run_replays_identically(self, tmp_path, capsys):
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + self.FAULTY + [
            "--journal", journal, "--trace",
            "--slo", "coverage>=0.99,delivery_p99_windows<=0",
        ]) == 0
        captured = capsys.readouterr()
        # Alert history prints on stdout (replay-reconstructable);
        # lifecycle conservation is a live-only diagnostic on stderr.
        assert "slo alerts" in captured.out
        assert "lifecycle conservation ok" in captured.err
        assert main(["replay", journal]) == 0
        replayed = capsys.readouterr()
        assert replayed.out == captured.out
        assert "lifecycle conservation" not in replayed.err

    def test_conservation_line_same_without_journal(self, tmp_path, capsys):
        # The books are folded from the journal file, or from memory
        # when no journal is written: same line either way.
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + self.FAULTY + [
            "--journal", journal, "--trace",
        ]) == 0
        with_journal = capsys.readouterr()
        assert main(SIMULATE_SMALL + self.FAULTY + ["--trace"]) == 0
        without = capsys.readouterr()
        assert "lifecycle conservation ok: sent=" in with_journal.err
        assert without.err == with_journal.err
        assert without.out == with_journal.out

    def test_trace_subcommand_writes_chrome_trace(self, tmp_path, capsys):
        import json as _json
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + self.FAULTY + [
            "--journal", journal, "--trace",
        ]) == 0
        capsys.readouterr()
        out = str(tmp_path / "run.trace.json")
        assert main(["trace", journal, "-o", out]) == 0
        captured = capsys.readouterr()
        assert "delivery flows" in captured.out
        assert "unpaired" not in captured.err
        with open(out) as f:
            doc = _json.load(f)
        from repro.obs import unpaired_flows
        assert doc["traceEvents"] and unpaired_flows(doc) == []

    def test_trace_default_output_and_stdout(self, tmp_path, capsys):
        import json as _json
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + [
            "--journal", journal, "--trace",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", journal]) == 0
        assert "wrote " + journal + ".trace.json" in capsys.readouterr().out
        assert os.path.exists(journal + ".trace.json")
        assert main(["trace", journal, "-o", "-"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert "traceEvents" in doc

    def test_trace_missing_journal_errors(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.journal")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_slo_spec_rejected(self, capsys):
        assert main(SIMULATE_SMALL + ["--slo", "coverage>>0.9"]) == 2
        assert "--slo:" in capsys.readouterr().err

    def test_slo_file_loaded(self, tmp_path, capsys):
        import json as _json
        rules = tmp_path / "rules.json"
        rules.write_text(_json.dumps(["coverage>=0.99"]))
        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + self.FAULTY + [
            "--journal", journal, "--slo-file", str(rules),
        ]) == 0
        assert "slo alerts" in capsys.readouterr().out


class TestIncrementalRebuilds:
    def test_flag_accepted_and_output_unchanged(self, capsys):
        args = SIMULATE_SMALL + ["--algorithm", "nonoverlapping"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--incremental-rebuilds"]) == 0
        incremental = capsys.readouterr().out
        # Incremental rebuilds are bit-identical, so the report is too.
        assert incremental == plain

    def test_flag_off_by_default_journal_has_no_memo_fields(
        self, tmp_path, capsys
    ):
        import json

        journal = str(tmp_path / "run.journal")
        assert main(SIMULATE_SMALL + ["--algorithm", "nonoverlapping",
                                      "--journal", journal]) == 0
        capsys.readouterr()
        with open(journal) as f:
            events = [json.loads(line) for line in f]
        rebuilds = [e for e in events if e["event"] == "rebuild"]
        assert rebuilds
        for event in rebuilds:
            assert "dirty_subtrees" not in event
            assert "reused_fraction" not in event
