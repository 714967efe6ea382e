#!/usr/bin/env python
"""CI smoke for the live observability plane.

Launches ``repro simulate`` as a subprocess with the metrics endpoint,
the event journal and the periodic metrics writer all enabled, then:

1. polls ``/metrics`` **while the run executes** until the per-window
   quality gauges appear, and validates the scrape as Prometheus
   exposition text (every line parses; ``# TYPE``/``# HELP`` exactly
   once per family, before its first sample);
2. fetches ``/series.json`` and checks the per-window records, and
   ``/alerts.json`` for the live SLO rule state;
3. waits for the run to finish, requires ``lifecycle conservation ok``
   on its stderr and one journal event per fact (no
   ``trace.duplicated`` / ``trace.delayed`` event, no ``dropped``
   close: the ``fault.*`` events carry those copies), then replays the
   journal with ``repro replay``, requiring the replayed summary to
   match the live run's summary byte for byte;
4. exports the journal with ``repro trace`` and validates the Chrome
   Trace Event document (JSON parses, every delivery flow is paired).

A second leg reruns the pipeline with ``--shards 2`` to smoke the
cross-process telemetry fan-in: it polls ``/metrics`` until
``shard=``-labelled families appear (worker registries merged back
into the parent), requires ``/shards.json`` to parse with per-shard
rollups for both workers and the parent, replays the journal for
byte-identity, and validates that the Chrome trace grew ``shard-N``
worker tracks with duration-sized prefetch slices.

Exits nonzero (with a diagnostic) on any failure; CI uploads the
journals and traces as artifacts in that case.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

PORT = 9105
URL = f"http://127.0.0.1:{PORT}"
JOURNAL = "ci_smoke.journal"
METRICS = "ci_smoke.jsonl"
TRACE = "ci_smoke.trace.json"
SLO = "coverage>=0.5,delivery_p99_windows<=4,drift_score<=2"

SHARD_PORT = 9106
SHARD_URL = f"http://127.0.0.1:{SHARD_PORT}"
SHARD_JOURNAL = "ci_smoke_shards.journal"
SHARD_TRACE = "ci_smoke_shards.trace.json"

SIMULATE_SHARDED = [
    sys.executable, "-m", "repro", "simulate",
    "--height", "10", "--packets", "120000", "--windows", "6",
    "--monitors", "4", "--budget", "60",
    "--shards", "2",
    "--journal", SHARD_JOURNAL,
    "--serve-metrics", f"127.0.0.1:{SHARD_PORT}",
    "--serve-linger", "10",
]

#: Families the sharded leg must see carrying a ``shard=`` label —
#: per-monitor build accounting merged back from the workers plus the
#: worker resource profile.
SHARD_FAMILIES = ("monitor_windows", "monitor_tuples", "proc_cpu_user_seconds")

SIMULATE = [
    sys.executable, "-m", "repro", "simulate",
    "--height", "12", "--packets", "400000", "--windows", "8",
    "--monitors", "4", "--budget", "60",
    "--faults", "drop=0.1,dup=0.05,delay=0.1,crash=0.02,seed=7",
    "--stale-policy", "rescale",
    "--journal", JOURNAL,
    "--metrics", METRICS, "--metrics-interval", "0.2",
    "--serve-metrics", f"127.0.0.1:{PORT}",
    "--serve-linger", "10",
    "--trace", "--slo", SLO,
]

QUALITY_GAUGES = (
    "quality_coverage",
    "quality_spill_fraction",
    "quality_drift_score",
    "quality_occupancy_entropy",
)

SAMPLE_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z0-9_]+="(?:\\.|[^"\\])*"'
    r'(,[a-zA-Z0-9_]+="(?:\\.|[^"\\])*")*\})? -?\S+$'
)


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_exposition(text: str) -> None:
    """Every line must be a comment or a well-formed sample; headers
    exactly once per family, before the family's samples."""
    typed = {}
    sampled = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            fail(f"metrics line {lineno}: empty line in exposition")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            name, kind = parts[2], parts[3]
            if name in typed:
                fail(f"metrics line {lineno}: duplicate # TYPE {name}")
            if name in sampled:
                fail(f"metrics line {lineno}: # TYPE {name} after samples")
            if kind not in ("counter", "gauge", "histogram"):
                fail(f"metrics line {lineno}: bad TYPE kind {kind!r}")
            typed[name] = kind
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            fail(f"metrics line {lineno}: unknown comment {line!r}")
            continue
        if not SAMPLE_RE.match(line):
            fail(f"metrics line {lineno}: unparseable sample {line!r}")
        sampled.add(line.split("{", 1)[0].split(" ", 1)[0])
    for name in QUALITY_GAUGES:
        if typed.get(name) != "gauge":
            fail(f"quality gauge {name} missing or not a gauge")


def get(path: str, timeout: float = 2.0, base: str = URL) -> str:
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def main() -> int:
    proc = subprocess.Popen(
        SIMULATE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    scraped = None
    series_len = 0
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            if proc.poll() is not None:
                early_out, early_err = proc.communicate()
                print(
                    "FAIL: simulate exited before /metrics showed "
                    f"quality gauges (rc={proc.returncode})\n"
                    f"--- stdout\n{early_out}\n--- stderr\n{early_err}",
                    file=sys.stderr,
                )
                return 1
            try:
                text = get("/metrics")
            except (urllib.error.URLError, OSError):
                time.sleep(0.05)
                continue
            if all(f"# TYPE {g} gauge" in text for g in QUALITY_GAUGES):
                scraped = text
                break
            time.sleep(0.05)
        if scraped is None:
            fail("timed out waiting for quality gauges on /metrics")
        validate_exposition(scraped)
        print(
            f"scraped /metrics mid-run: {len(scraped.splitlines())} lines, "
            "exposition valid, quality gauges present"
        )
        series = json.loads(get("/series.json"))
        series_len = len(series)
        if not series:
            fail("/series.json empty while windows were decoding")
        rec = series[-1]
        for key in ("window", "ts", "counters", "gauges"):
            if key not in rec:
                fail(f"series record missing {key!r}: {rec}")
        print(f"/series.json: {series_len} per-window records")
        alerts = json.loads(get("/alerts.json"))
        for key in ("rules", "active", "alerts", "windows_evaluated"):
            if key not in alerts:
                fail(f"/alerts.json missing {key!r}: {alerts}")
        if alerts["rules"] != SLO.split(","):
            fail(f"/alerts.json rules do not match --slo: {alerts['rules']}")
        print(
            f"/alerts.json: {len(alerts['rules'])} rules, "
            f"{len(alerts['active'])} firing mid-run"
        )
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("simulate did not exit in time")
    except BaseException:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        raise
    if proc.returncode != 0:
        fail(f"simulate failed (rc={proc.returncode})\n{err}")
    if "lifecycle conservation ok" not in err:
        fail(f"simulate --trace did not report balanced books\n{err}")
    with open(JOURNAL) as f:
        repeats = [
            e for e in map(json.loads, f)
            if e["event"] in ("trace.duplicated", "trace.delayed")
            or (e["event"] == "trace.closed" and e["outcome"] == "dropped")
        ]
    if repeats:
        fail(
            f"journal repeats {len(repeats)} fault fact(s) as lifecycle "
            f"events, e.g. {repeats[0]}"
        )
    print("lifecycle conservation ok, one journal event per fact")
    live_summary = out

    replay = subprocess.run(
        [sys.executable, "-m", "repro", "replay", JOURNAL],
        capture_output=True, text=True,
    )
    if replay.returncode != 0:
        fail(f"replay failed (rc={replay.returncode})\n{replay.stderr}")
    if replay.stdout != live_summary:
        fail(
            "replayed summary differs from the live run\n"
            f"--- live\n{live_summary}\n--- replayed\n{replay.stdout}"
        )
    print("replay reproduced the live run summary byte-for-byte")

    trace = subprocess.run(
        [sys.executable, "-m", "repro", "trace", JOURNAL, "-o", TRACE],
        capture_output=True, text=True,
    )
    if trace.returncode != 0:
        fail(f"trace export failed (rc={trace.returncode})\n{trace.stderr}")
    if trace.stderr:
        fail(f"trace export warned:\n{trace.stderr}")
    with open(TRACE) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace document has no traceEvents")
    tails = [e["id"] for e in events if e.get("ph") == "s"]
    heads = [e["id"] for e in events if e.get("ph") == "f"]
    if not tails:
        fail("trace document has no delivery flows despite --trace")
    if sorted(tails) != sorted(heads):
        fail(
            f"unpaired delivery flows: {len(tails)} starts vs "
            f"{len(heads)} finishes"
        )
    print(
        f"trace export valid: {len(events)} events, "
        f"{len(tails)} delivery flows all paired"
    )
    rc = sharded_leg()
    if rc != 0:
        return rc
    print("metrics smoke OK")
    return 0


def sharded_leg() -> int:
    """Smoke the cross-process telemetry fan-in with ``--shards 2``."""
    proc = subprocess.Popen(
        SIMULATE_SHARDED,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    scraped = None
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            if proc.poll() is not None:
                early_out, early_err = proc.communicate()
                print(
                    "FAIL: sharded simulate exited before /metrics showed "
                    f"shard-labelled families (rc={proc.returncode})\n"
                    f"--- stdout\n{early_out}\n--- stderr\n{early_err}",
                    file=sys.stderr,
                )
                return 1
            try:
                text = get("/metrics", base=SHARD_URL)
            except (urllib.error.URLError, OSError):
                time.sleep(0.05)
                continue
            if all(
                f'{family}{{' in text and 'shard="' in text
                for family in SHARD_FAMILIES
            ) and all(
                'shard="' in line
                for line in text.splitlines()
                if line.startswith(SHARD_FAMILIES[0] + "{")
            ) and all(
                f"# TYPE {g} gauge" in text for g in QUALITY_GAUGES
            ):
                scraped = text
                break
            time.sleep(0.05)
        if scraped is None:
            fail("timed out waiting for shard-labelled families on /metrics")
        validate_exposition(scraped)
        shard_lines = [ln for ln in scraped.splitlines() if 'shard="' in ln]
        print(
            f"sharded /metrics mid-run: {len(shard_lines)} shard-labelled "
            "samples, exposition valid"
        )
        shards_doc = json.loads(get("/shards.json", base=SHARD_URL))
        for key in ("shards", "tenants"):
            if key not in shards_doc:
                fail(f"/shards.json missing {key!r}: {shards_doc}")
        shard_ids = set(shards_doc["shards"])
        for wanted in ("0", "1"):
            if wanted not in shard_ids:
                fail(
                    f"/shards.json missing worker shard {wanted!r}: "
                    f"{sorted(shard_ids)}"
                )
        for shard, rollup in shards_doc["shards"].items():
            if not isinstance(rollup, dict) or not rollup:
                fail(f"/shards.json shard {shard!r} rollup empty: {rollup}")
        print(f"/shards.json: per-shard rollups for {sorted(shard_ids)}")
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("sharded simulate did not exit in time")
    except BaseException:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        raise
    if proc.returncode != 0:
        fail(f"sharded simulate failed (rc={proc.returncode})\n{err}")

    replay = subprocess.run(
        [sys.executable, "-m", "repro", "replay", SHARD_JOURNAL],
        capture_output=True, text=True,
    )
    if replay.returncode != 0:
        fail(
            f"sharded replay failed (rc={replay.returncode})\n"
            f"{replay.stderr}"
        )
    if replay.stdout != out:
        fail(
            "sharded replay differs from the live run\n"
            f"--- live\n{out}\n--- replayed\n{replay.stdout}"
        )
    print("sharded replay reproduced the live run summary byte-for-byte")

    trace = subprocess.run(
        [sys.executable, "-m", "repro", "trace", SHARD_JOURNAL,
         "-o", SHARD_TRACE],
        capture_output=True, text=True,
    )
    if trace.returncode != 0:
        fail(f"sharded trace export failed (rc={trace.returncode})\n"
             f"{trace.stderr}")
    if trace.stderr:
        fail(f"sharded trace export warned:\n{trace.stderr}")
    with open(SHARD_TRACE) as f:
        doc = json.load(f)
    if doc.get("otherData", {}).get("shards") != [0, 1]:
        fail(f"trace otherData.shards != [0, 1]: {doc.get('otherData')}")
    thread_names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    for wanted in ("shard-0", "shard-1"):
        if wanted not in thread_names:
            fail(f"trace missing worker track {wanted!r}: {thread_names}")
    prefetch = [
        e for e in doc["traceEvents"]
        if e.get("ph") == "X"
        and str(e.get("name", "")).startswith("prefetch ")
    ]
    if not prefetch:
        fail("trace has no worker prefetch slices on the shard tracks")
    if any(e.get("dur", 0) <= 0 for e in prefetch):
        fail("worker prefetch slice with non-positive duration")
    tails = [e["id"] for e in doc["traceEvents"] if e.get("ph") == "s"]
    heads = [e["id"] for e in doc["traceEvents"] if e.get("ph") == "f"]
    if sorted(tails) != sorted(heads):
        fail(
            f"sharded trace unpaired delivery flows: {len(tails)} starts "
            f"vs {len(heads)} finishes"
        )
    print(
        f"sharded trace valid: tracks for shards 0/1, "
        f"{len(prefetch)} prefetch slices with measured durations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
