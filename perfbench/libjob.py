#!/usr/bin/env python3
"""Checked replay of a distribution spec through the library, in one process.

Builds the t77 blueprint, replays it with ``check=True`` (every step
re-verifies the ground schemes), then runs the round-trip checks:
labelled equality of the replayed preorder with the spec's order, the
limit targets read back against f, and the scheme reports of every
recorded operator.  Usage: ``python libjob.py SPEC``.
"""
import sys

from rklab.cardinal import card_eq
from rklab.distribution import (
    BuildConfig,
    build_blueprint,
    replay_blueprint,
    replayed_il,
    replayed_prime_preorder,
)
from rklab.formats import parse_distribution
from rklab.operators import verify_schemes


def main(argv: list[str] | None = None) -> None:
    path = (sys.argv[1:] if argv is None else argv)[0]
    with open(path, encoding="utf-8") as fh:
        spec = parse_distribution(fh.read(), path)
    cfg = BuildConfig(colors=1, per_color=1, depth=1, fan_out=1)
    bp = build_blueprint(spec, "t77", cfg)
    struct = replay_blueprint(bp, cfg, check=True)
    po = replayed_prime_preorder(struct, bp.predicates)
    il = replayed_il(struct, spec)
    il_ok = all(card_eq(il[k], v, ch=False) for k, v in spec.class_map().items())
    tags = sorted({rec.op for rec in struct.history if rec.op in ("icp", "css", "bu")})
    schemes_ok = all(verify_schemes(struct, tag).ok for tag in tags)
    print(f"steps={len(bp.operator_plan)}")
    print(f"universe={len(struct.universe)}")
    print(f"labelled_equal={str(po == spec.order).lower()}")
    print(f"il_equal={str(il_ok).lower()}")
    print(f"schemes_ok={str(schemes_ok).lower()}")


if __name__ == "__main__":
    main()
