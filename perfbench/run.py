#!/usr/bin/env python3
"""The rklab benchmark: seeded batches of fresh-process jobs, checked and timed.

    python3 perfbench/run.py --workload limits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

One client runs the workload's job list in a closed loop, one job after
another, each in a fresh process as users run rklab.  Every job's stdout
is checked against its reference (see ``jobs.py``).  Passes over the list
repeat until ``--seconds`` have gone by; the last pass is completed.  With ``--trace 0``
the last line is a JSON object with the end-to-end metrics; with
``--trace 1`` the run makes one untraced pass and one traced pass (see
``tracing.py``) and reports the per-layer metrics and the tracing overhead.
``--quick`` runs every workload once on a tiny job list, untraced and
traced, for the smoke test.  Before the JSON line, one row per job gives
its median wall time and largest RSS: diagnostics, not metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests")]

import tracing  # noqa: E402
from jobs import WORKLOADS, Job  # noqa: E402

REQUIRED = ("src/rklab/cli.py", "scripts/limit_census.py", "tests/oracles.py")
JOB_TIMEOUT_S = 120
SETUP_EVERY = 4

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("fail_share", "share"),
)


@dataclass
class Run:
    job: Job
    wall_s: float
    rss_mb: float
    outcome: str  # "ok" | "refused" | "failed: <why>"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], work: Path, env: dict, out, err) -> tuple[float, float, int]:
    """Run one process to completion; its own wall time, max RSS and exit code."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def command(job: Job, spans: Path | None) -> list[str]:
    py = sys.executable
    if spans is not None:
        return [py, str(HERE / "tracing.py"), str(spans), job.kind, *job.argv]
    if job.kind == "cli":
        return [py, "-m", "rklab", *job.argv]
    if job.kind == "script":
        return [py, str(ROOT / "scripts" / job.argv[0]), *job.argv[1:]]
    return [py, str(HERE / "libjob.py"), *job.argv]


def execute(job: Job, work: Path, env: dict, spans: Path | None = None) -> Run:
    out_path, err_path = work / "job.stdout", work / "job.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, rss, code = spawn(command(job, spans), work, env, out, err)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if code == 0:
        bad = job.check(stdout, work)
        outcome = "ok" if bad is None else f"failed: {bad}"
    elif job.limit and job.limit in stderr and not stdout.strip():
        outcome = "refused"
    else:
        outcome = f"failed: exit {code}: {stderr.strip()[-200:]}"
    return Run(job, wall, rss, outcome)


def setup_s(work: Path, env: dict) -> float:
    """Wall time of a fresh ``python -m rklab --help``."""
    wall, _, code = spawn([sys.executable, "-m", "rklab", "--help"], work, env,
                          subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError("python -m rklab --help failed")
    return wall


def timed_pass(jobs: list[Job], work: Path, env: dict, setup: list[float]) -> list[Run]:
    """One pass over the jobs, with a set-up sample after every
    SETUP_EVERY jobs so that set-up is sampled across the whole run."""
    runs = []
    for k, job in enumerate(jobs):
        if k % SETUP_EVERY == 0:
            setup.append(setup_s(work, env))
        runs.append(execute(job, work, env))
    return runs


def end_to_end(passes: list[list[Run]], setup: list[float]) -> dict[str, float]:
    runs = [r for p in passes for r in p]
    bad = sum(r.outcome != "ok" for r in runs)
    per_job: dict[str, list[float]] = {}
    for r in runs:
        per_job.setdefault(r.job.name, []).append(r.wall_s)
    return {
        "wall_s": sum(statistics.median(ws) for ws in per_job.values()),
        "job_p50_ms": statistics.median(r.wall_s for r in runs) * 1000.0,
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup),
        "fail_share": bad / len(runs),
    }


def print_jobs(runs: list[Run], label: str = "job") -> None:
    by_name: dict[str, list[Run]] = {}
    for r in runs:
        by_name.setdefault(r.job.name, []).append(r)
    for name, rs in by_name.items():
        outcomes = sorted({r.outcome for r in rs})
        print(
            f"{label} {name:<30} median_ms={statistics.median(r.wall_s for r in rs) * 1000:9.1f} "
            f"rss_mb={max(r.rss_mb for r in rs):6.1f} runs={len(rs)} outcome={'|'.join(outcomes)}"
        )


def per_layer(jobs: list[Job], work: Path, env: dict) -> tuple[list[Run], list[Run], dict[str, float]]:
    """One untraced and one traced pass; the per-layer metrics of the latter."""
    plain = [execute(job, work, env) for job in jobs]
    totals = tracing.Totals()
    traced = []
    spans = work / "spans.bin"
    for job in jobs:
        run = execute(job, work, env, spans)
        totals.add(*tracing.load(spans), run.wall_s)
        spans.unlink()
        traced.append(run)
    metrics = totals.metrics()
    metrics["cli.import_ms"] = statistics.median(tracing.import_ms(sys.executable, env, work) for _ in range(5))
    metrics["trace.overhead_s"] = sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)
    layers = {k[: -len(".self_ms")]: v for k, v in metrics.items() if k.endswith(".self_ms")}
    print("dominant layers (self ms): " + ", ".join(
        f"{k}={v:.0f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])[:4]
    ) + f"; outside rklab {metrics['outside.ms']:.0f}")
    return plain, traced, metrics


def run_workload(name: str, seed: int, seconds: float, trace_on: bool, work: Path, quick: bool = False):
    env = child_env()
    rng = random.Random(seed)
    jobs = WORKLOADS[name](rng, work, quick)
    rng.shuffle(jobs)
    setup_s(work, env)  # compiles the package's bytecode cache, as any earlier run would
    if trace_on:
        plain, traced, metrics = per_layer(jobs, work, env)
        print_jobs(plain)
        print_jobs(traced, "traced")
        runs = plain + traced
        units = dict(tracing.METRICS)
    else:
        setup: list[float] = []
        passes: list[list[Run]] = []
        start = time.perf_counter()
        while not passes or (not quick and time.perf_counter() - start < seconds):
            passes.append(timed_pass(jobs, work, env, setup))
        runs = [r for p in passes for r in p]
        print_jobs(runs)
        metrics = end_to_end(passes, setup)
        units = dict(END_TO_END)
    failed = [r for r in runs if r.outcome.startswith("failed")]
    for r in failed:
        print(f"FAILED {r.job.name}: {r.outcome}", file=sys.stderr)
    refused = sorted({r.job.name for r in runs if r.outcome == "refused"})
    print(f"# workload={name} seed={seed} jobs={len(jobs)} attempted={len(runs)} refused(known limits)={refused}")
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, refused


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="every workload once on a tiny job list")
    args = ap.parse_args(argv)
    if not args.quick and args.workload is None:
        ap.error("--workload is required unless --quick is given")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an rklab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # a terminated run still kills its running job and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if not args.quick:
            result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
            for name, m in result["metrics"].items():
                print(f"metric {name} {m['value']:.6g} {m['unit']}")
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace_on in (False, True):
                result, refused = run_workload(name, args.seed, 0, trace_on, work, quick=True)
                print("quick " + json.dumps({"workload": name, "trace": int(trace_on), "refused": refused, **result}))
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    print(f"metric {name}.{metric} {m['value']:.6g} {m['unit']}")
                    combined["metrics"][f"{name}.{metric}"] = m
        print(json.dumps(combined))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
