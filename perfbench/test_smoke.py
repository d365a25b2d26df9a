"""Smoke test of the benchmark's quick mode.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once on its tiny job list, untraced and traced, and
checks that every metric named in BENCHMARK.json is printed with its unit,
that every output matched its reference, and that fail_share counts only
the known envelope limits.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from jobs import KNOWN_LIMITS  # noqa: E402


def test_quick_run_prints_every_metric_and_counts_only_known_limits():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    printed = {
        tuple(line.split()[1::2]) for line in proc.stdout.splitlines() if line.startswith("metric ")
    }
    results = [json.loads(line[len("quick "):]) for line in proc.stdout.splitlines() if line.startswith("quick ")]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w["name"], t) for w in spec["workloads"] for t in (0, 1)
    }
    for r in results:
        names = spec["per_layer"] if r["trace"] else spec["end_to_end"]
        for m in names:
            assert (f"{r['workload']}.{m['name']}", m["unit"]) in printed
            assert r["metrics"][m["name"]]["unit"] == m["unit"]
        assert r["correct"] and r["failed"] == 0, r
        assert set(r["refused"]) <= set(KNOWN_LIMITS), r["refused"]
        if not r["trace"]:
            share = r["metrics"]["fail_share"]["value"]
            assert share == len(r["refused"]) / r["attempted"], (share, r["refused"])
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
