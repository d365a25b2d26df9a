#!/usr/bin/env python3
"""Sweep the limit-model identity systems and tabulate class counts.

For each system the table shows the bounded congruence-class count per
length bound, with a stabilization mark once consecutive bounds agree;
the symbolic target attached to the system is shown for comparison but
is never asserted at finite length.
"""
import argparse

from rklab.cardinal import OMEGA, fin, natural, render
from rklab.limitcount import lmt, lms, render_word, stabilization


def row(system, label, alphabet, lengths):
    # stabilization decodes only the first representatives, not every class
    infos = [stabilization(system, alphabet, L) for L in lengths]
    counts = [info["count"] for info in infos]
    marks = [
        "=" if i and counts[i] == counts[i - 1] else " " for i in range(len(counts))
    ]
    cells = "  ".join(f"{c:>4}{m}" for c, m in zip(counts, marks))
    reps = infos[-1]["representatives"][:6]
    reps_s = " ".join(render_word(w) for w in reps)
    print(f"{label:<12} A={alphabet}  {cells}   target={render(system.target)}  reps: {reps_s}")


def naturals(text: str) -> list[int]:
    return [natural(a) for a in text.split(",")]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabets", type=naturals, default="2,3,4")
    ap.add_argument("--max-len", type=natural, default=5)
    args = ap.parse_args()
    lengths = list(range(1, args.max_len + 1))
    header = "  ".join(f"L={L:>3}" for L in lengths)
    print(f"{'system':<12} {'':>4}  {header}")
    for alphabet in args.alphabets:
        for n in (1, 2, 3):
            row(lmt(fin(n)), f"lmt n={n}", alphabet, lengths)
        row(lmt(OMEGA), "lmt w", alphabet, lengths)
        for n in (1, 2, 3):
            row(lms(fin(n)), f"lms n={n}", alphabet, lengths)
        row(lms(OMEGA), "lms w", alphabet, lengths)
        print()


if __name__ == "__main__":
    main()
