"""``rklab build``: blueprint a distribution spec, and replay it."""
import argparse

from . import Natural, _emit, _read, _write


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True)
    p.add_argument("--variant", choices=("t77", "t84", "t91", "t92"), default="t77")
    p.add_argument("--replay", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--colors", action=Natural, default=1)
    p.add_argument("--depth", action=Natural, default=1)
    p.add_argument("--fan-out", action=Natural, default=2)


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

    spec = parse_distribution(_read(args.spec), args.spec)
    config = BuildConfig(
        colors=args.colors, per_color=1, depth=args.depth, fan_out=args.fan_out
    )
    bp = build_blueprint(spec, args.variant, config)
    plan = ";".join(step.op for step in bp.operator_plan)
    trip = target_triple(spec).render()
    out = [
        ("predicates", len(bp.predicates), f"predicates: {len(bp.predicates)}"),
        ("plan", plan, f"plan: {plan}"),
        ("triple", trip, f"target triple: {trip}"),
    ]
    if args.out:
        _write(args.out, serialize_pipeline(bp.pipeline))
        out.append(("out", args.out, f"pipeline written to {args.out}"))
    if args.replay:
        struct = replay_blueprint(bp, config)
        out.append(("universe", len(struct.universe), f"replayed universe: {len(struct.universe)} elements"))
        q = replayed_prime_preorder(struct, bp.predicates)
        out.append(("rk_classes", q.size, f"rk quotient classes: {q.size}"))
        for key, value in sorted(replayed_il(struct, spec).items(), key=lambda kv: sorted(kv[0])):
            label, il = key_label(key), render(value)
            out.append((f"il.{label}", il, f"IL{label} = {il}"))
    _emit(args, out)
    return 0
