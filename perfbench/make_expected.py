#!/usr/bin/env python3
"""Write ``expected.py``: the reference outputs of the fixed-argument jobs.

Runs every job marked ``ref="digest"`` once with the program in this
checkout and records a digest of its stdout, and asks the library for
the class count at L=8 of the over-budget ``lms`` job.  Run it only at a
commit whose outputs are the reference (the benchmark was defined at such
a commit); a change that claims the same outputs must pass against the
stored digests, not regenerate them.

    python3 perfbench/make_expected.py > perfbench/expected.py
"""
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402


def main() -> None:
    work = HERE / "_work" / f"expected-{os.getpid()}"
    work.mkdir(parents=True)
    env = run.child_env()
    digests = {}
    try:
        for make in jobs.WORKLOADS.values():
            for quick in (False, True):
                for job in make(random.Random(0), work, quick):
                    if job.ref != "digest" or job.name in digests:
                        continue
                    proc = subprocess.run(run.command(job, None), cwd=work, env=env,
                                          capture_output=True, text=True, check=True)
                    digests[job.name] = jobs.digest(proc.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    from rklab.cardinal import OMEGA
    from rklab.limitcount import count_classes, render_word
    from rklab.operators import lms

    count, reps = count_classes(lms(3, OMEGA), 4, 8)
    print('"""Reference outputs at the commit that defined the benchmark (make_expected.py)."""')
    print("DIGESTS = {")
    for name, d in sorted(digests.items()):
        print(f"    {name!r}: {d!r},")
    print("}")
    print("LMS_W_A4_L8 = {")
    print(f"    'classes': {str(count)!r},")
    print(f"    'representatives': {';'.join(render_word(w) for w in reps[:20])!r},")
    print("}")


if __name__ == "__main__":
    main()
