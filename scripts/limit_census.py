#!/usr/bin/env python3
"""Sweep the limit-model identity systems and tabulate class counts.

For each system the table shows the bounded congruence-class count per
length bound, with a stabilization mark once consecutive bounds agree;
the symbolic target attached to the system is shown for comparison but
is never asserted at finite length.
"""
import argparse

from rklab.cardinal import OMEGA, fin, render
from rklab.limitcount import count_classes, render_word
from rklab.operators import lmt, lms


def row(system, label, alphabet, lengths):
    counts = [count_classes(system, alphabet, L)[0] for L in lengths]
    marks = [
        "=" if i and counts[i] == counts[i - 1] else " " for i in range(len(counts))
    ]
    cells = "  ".join(f"{c:>4}{m}" for c, m in zip(counts, marks))
    reps = count_classes(system, alphabet, lengths[-1])[1][:6]
    reps_s = " ".join(render_word(w) for w in reps)
    print(f"{label:<12} A={alphabet}  {cells}   target={render(system.target)}  reps: {reps_s}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabets", default="2,3,4")
    ap.add_argument("--max-len", type=int, default=5)
    args = ap.parse_args()
    alphabets = [int(a) for a in args.alphabets.split(",")]
    lengths = list(range(1, args.max_len + 1))
    header = "  ".join(f"L={L:>3}" for L in lengths)
    print(f"{'system':<12} {'':>4}  {header}")
    for alphabet in alphabets:
        for n in (1, 2, 3):
            row(lmt(fin(n)), f"lmt n={n}", alphabet, lengths)
        row(lmt(OMEGA), "lmt w", alphabet, lengths)
        for n in (1, 2, 3):
            row(lms(3, fin(n)), f"lms n={n}", alphabet, lengths)
        row(lms(3, OMEGA), "lms w", alphabet, lengths)
        print()


if __name__ == "__main__":
    main()
