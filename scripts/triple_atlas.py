#!/usr/bin/env python3
"""Enumerate distribution triples over a grid and tabulate their verdicts.

Prints how many triples land in each admissible family and each
rejection reason, for both theory classes, with the CH flag on.
"""
import argparse
import collections
import itertools

from rklab.cardinal import CONTINUUM, OMEGA, OMEGA1, fin, natural
from rklab.distribution import Cm3Triple, classify_triple, decompose_tc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-fin", type=natural, default=5)
    args = ap.parse_args()
    grid = [fin(k) for k in range(args.max_fin + 1)] + [OMEGA, OMEGA1, CONTINUUM]
    tallies: dict[str, collections.Counter] = {
        "tc": collections.Counter(),
        "small": collections.Counter(),
    }
    bad_decompose = 0
    for p, l, npl in itertools.product(grid, repeat=3):
        t = Cm3Triple(p, l, npl)
        for cls in ("tc", "small"):
            v = classify_triple(t, cls)
            key = (
                f"family {v.case}" if v.status == "admissible-tc"
                else f"case {v.case}" if v.status == "admissible-small"
                else v.reason
            )
            tallies[cls][key] += 1
            if cls == "tc" and v.admissible:
                _, ok = decompose_tc(t.p, [t.l], t.npl)
                bad_decompose += 0 if ok else 1
    total = len(grid) ** 3
    for cls in ("tc", "small"):
        print(f"[{cls}] over {total} triples")
        for key, count in tallies[cls].most_common():
            print(f"  {count:>5}  {key}")
        print()
    print(f"accepted tc triples failing the continuum decomposition: {bad_decompose}")


if __name__ == "__main__":
    main()
