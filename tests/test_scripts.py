"""The README's script examples run end to end in fresh processes, so a
script that imports a removed name fails the suite."""
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ("limit_census.py", "--alphabets", "2,3,4", "--max-len", "5"),
            "lmt n=1      A=2     1      1=     1=     1=     1=   target=1  reps: 0",
        ),
        (
            ("triple_atlas.py", "--max-fin", "5"),
            "accepted tc triples failing the continuum decomposition: 0",
        ),
        (
            ("blueprint_demo.py", "--seed", "3", "--elements", "5"),
            "isomorphic to the drawn preorder: True",
        ),
    ],
    ids=["census", "atlas", "demo"],
)
def test_readme_script(argv, line):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_census_one_letter_long_bound_is_quick():
    # each length's count and the last length's first representatives are
    # read off one stabilization report, without decoding every class
    start = time.perf_counter()
    proc = run_script("limit_census.py", "--alphabets", "1", "--max-len", "300")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lms_w = next(line for line in proc.stdout.splitlines() if line.startswith("lms w"))
    assert lms_w.endswith("   300    target=w  reps: 0 0.0 0.0.0 0.0.0.0 0.0.0.0.0 0.0.0.0.0.0")
    assert elapsed < 1.5, f"took {elapsed:.2f}s"
