"""``rklab apply``: run an operator pipeline and verify its schemes."""
import argparse

from . import _emit, _read, _write


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pipeline", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true")


def run(args: argparse.Namespace) -> int:
    from ..formats import cite_step, parse_pipeline, serialize_struct
    from ..operators import run_pipeline, verify_schemes

    text = _read(args.pipeline)
    steps = parse_pipeline(text, args.pipeline)
    try:
        spec = run_pipeline(steps)
    except ValueError as exc:
        cite_step(args.pipeline, text, exc)
        raise
    out = [("universe", len(spec.universe), f"universe: {len(spec.universe)} elements")]
    if args.verify:
        for tag in sorted({rec.op for rec in spec.history} & {"icp", "css", "bu"}):
            out += verify_schemes(spec, tag).records()
    if args.out:
        _write(args.out, serialize_struct(spec))
        out.append(("out", args.out, f"structure written to {args.out}"))
    _emit(args, out)
    return 0
