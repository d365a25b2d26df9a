"""``rklab build``: blueprint a distribution spec, and replay it."""
import argparse

from . import _emit, _read, _write


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True)
    p.add_argument("--variant", choices=("t77", "t84", "t91", "t92"), default="t77")
    p.add_argument("--replay", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--colors", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--fan-out", type=int, default=2)


def run(args: argparse.Namespace) -> int:
    from ..cardinal import render
    from ..distribution import (
        BuildConfig,
        build_blueprint,
        key_label,
        replay_blueprint,
        replayed_il,
        replayed_prime_preorder,
        target_triple,
    )
    from ..formats import parse_distribution, serialize_pipeline
    from ..preorder import sim_quotient

    spec = parse_distribution(_read(args.spec), args.spec)
    config = BuildConfig(
        colors=args.colors, per_color=1, depth=args.depth, fan_out=args.fan_out
    )
    bp = build_blueprint(spec, args.variant, config)
    mk = args.machine
    out: list[str] = []
    out.append(f"predicates={len(bp.predicates)}" if mk else f"predicates: {len(bp.predicates)}")
    plan = ";".join(step.op for step in bp.operator_plan)
    out.append(f"plan={plan}" if mk else f"plan: {plan}")
    trip = target_triple(spec).render()
    out.append(f"triple={trip}" if mk else f"target triple: {trip}")
    if args.out:
        _write(args.out, serialize_pipeline(bp.pipeline))
        out.append(f"out={args.out}" if mk else f"pipeline written to {args.out}")
    if args.replay:
        struct = replay_blueprint(bp, config)
        out.append(
            f"universe={len(struct.universe)}"
            if mk
            else f"replayed universe: {len(struct.universe)} elements"
        )
        po = replayed_prime_preorder(struct, bp.predicates)
        q = sim_quotient(po)
        out.append(f"rk_classes={q.size}" if mk else f"rk quotient classes: {q.size}")
        for key, value in sorted(replayed_il(struct, spec).items(), key=lambda kv: sorted(kv[0])):
            label = key_label(key)
            out.append(f"il.{label}={render(value)}" if mk else f"IL{label} = {render(value)}")
    _emit(out)
    return 0
