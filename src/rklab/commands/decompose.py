"""``rklab decompose``: fold a decomposition sum."""
import argparse

from . import _emit


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rk", required=True)
    p.add_argument("--il", default="")
    p.add_argument("--npl", required=True)
    p.add_argument("--tc", action="store_true")
    p.add_argument("--no-ch", action="store_true")


def run(args: argparse.Namespace) -> int:
    from ..cardinal import parse_card, render
    from ..distribution import decompose, decompose_tc

    rk = parse_card(args.rk)
    il = [parse_card(tok) for tok in args.il.split(",")] if args.il else []
    npl = parse_card(args.npl)
    total, ok = decompose_tc(rk, il, npl, ch=not args.no_ch) if args.tc else (decompose(rk, il, npl), None)
    out = [("total", render(total), f"total: {render(total)}")]
    if args.tc:
        out.append(("continuum_check", ok, f"continuum check: {'pass' if ok else 'FAIL'}"))
    _emit(args, out)
    return 0
