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
    out: list[str] = []
    mk = args.machine
    out.append(f"universe={len(spec.universe)}" if mk else f"universe: {len(spec.universe)} elements")
    if args.verify:
        for tag in sorted({rec.op for rec in spec.history} & {"icp", "css", "bu"}):
            report = verify_schemes(spec, tag)
            out.extend(report.machine() if mk else [report.render()])
    if args.out:
        _write(args.out, serialize_struct(spec))
        out.append(f"out={args.out}" if mk else f"structure written to {args.out}")
    _emit(out)
    return 0
