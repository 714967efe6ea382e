"""The benchmark's own tests: every workload at smoke size, traced and
untraced, plus the output and exit-code contract of ``run.py``.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness, metrics, run  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_metric_definitions():
    doc = _bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == metrics.PER_LAYER
    assert set(metrics.MOVES) == set(metrics.PER_LAYER)


def _main(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload(workload, trace):
    code, lines = _main(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", trace, "--size", "smoke",
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert set(result["metrics"]) == set(wanted)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == wanted[name][0]
        if trace == "0":
            assert entry["value"] > 0, name


def test_same_seed_same_inputs():
    a = generate("drift_faults", 5, "smoke")
    b = generate("drift_faults", 5, "smoke")
    assert (a.live.uids == b.live.uids).all()
    assert a.faults == b.faults and a.split_seed == b.split_seed
    c = generate("drift_faults", 6, "smoke")
    assert not (
        a.live.uids.size == c.live.uids.size
        and (a.live.uids == c.live.uids).all()
    )


def test_mismatching_report_counts_as_failed_run():
    w = generate("thin_windows", 3, "smoke")
    ref = harness.reference(w)
    wrong = dataclasses.replace(ref, windows=ref.windows[:-1])
    m = harness.measure(w, wrong, 0.0, "smoke")
    assert m.failed >= 1 and not m.runs


def test_interval_slowdowns_average_the_calibrations_around_each():
    # Calibrated at the start of intervals 0 and 2 and after interval 3.
    cals = [(0, 1.0, 0), (2, 2.0, 0), (4, 3.0, 0)]
    assert harness._interval_slowdowns(cals, 4) == [1.5, 1.5, 2.5, 2.5]


def test_calibrated_run_leaves_calibration_out_of_its_times(monkeypatch):
    pause = 0.005

    def slow_calibration():
        time.sleep(pause)
        return 2.0

    monkeypatch.setattr(harness, "CALIBRATION_EVERY_S", 0.0)
    monkeypatch.setattr(harness, "host_slowdown", slow_calibration)
    w = generate("thin_windows", 3, "smoke")
    system, _ = harness.setup_system(w)
    t0 = time.perf_counter()
    r = harness.timed_run(system, w, calibrate=True)
    elapsed = time.perf_counter() - t0
    windows = len(r.marks_ns)
    assert len(r.adjusted_ms) == windows + 1
    # One calibration after every window, none of it in the run's time.
    assert r.wall_s < elapsed - windows * pause
    # A host twice as slow as nominal halves every interval.
    assert sum(r.adjusted_ms) <= r.wall_s * 1e3 / 2 * 1.001


def _session_members(sid: int):
    """``(pid, state)`` of every process in session ``sid``, zombies too."""
    members = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session.
        if int(fields[3]) == sid:
            members.append((int(pid), fields[0]))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_leaves_no_process_behind():
    # The sharded workload starts pool workers and, through shared
    # memory, a resource-tracker process; all must be gone (and reaped)
    # when run.py exits.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "sharded_telemetry",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, start_new_session=True, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert _session_members(proc.pid) == []


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thin_windows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
