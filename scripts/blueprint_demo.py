#!/usr/bin/env python3
"""Build a random admissible distribution spec, replay it, and compare.

Shows the drawn preorder, the operator plan, the replayed structure's
prime-type preorder, and the limit-target readback against f.
"""
import argparse
import random

from rklab.cardinal import CONTINUUM, OMEGA, ZERO, fin, natural, render
from rklab.distribution import (
    BuildConfig,
    build_blueprint,
    finite_spec,
    key_label,
    replay_blueprint,
    replayed_il,
    replayed_prime_preorder,
)
from rklab.formats import quotient_dot, serialize_preorder
from rklab.preorder import random_preorder


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=natural, default=0)
    ap.add_argument("--elements", type=natural, default=5)
    ap.add_argument("--dot", default=None, help="write the replayed quotient here")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    order = random_preorder(rng, args.elements, 0.3)
    values = {}
    for members in order.classes:
        choices = [fin(1), fin(2), OMEGA, CONTINUUM]
        values[frozenset(members)] = (
            rng.choice(choices) if len(members) > 1 else rng.choice([ZERO] + choices)
        )
    spec = finite_spec(order, values)
    print("drawn preorder:")
    print(serialize_preorder(order))
    for key, value in sorted(values.items(), key=lambda kv: sorted(kv[0])):
        print(f"f{key_label(key)} = {render(value)}")
    cfg = BuildConfig(colors=1, per_color=1, depth=1, fan_out=1)
    bp = build_blueprint(spec, "t77", cfg)
    print("\nplan:", " -> ".join(step.op for step in bp.operator_plan))
    struct = replay_blueprint(bp, cfg)
    print(f"replayed universe: {len(struct.universe)} elements")
    po = replayed_prime_preorder(struct, bp.predicates)
    # replay keeps the labels (P_i is element i), so equality is the check
    print("isomorphic to the drawn preorder:", po == order)
    for key, value in sorted(replayed_il(struct, spec).items(), key=lambda kv: sorted(kv[0])):
        print(f"IL{key_label(key)} = {render(value)}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(quotient_dot(po))
        print(f"quotient diagram written to {args.dot}")


if __name__ == "__main__":
    main()
