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
    mk = args.machine
    if args.tc:
        total, ok = decompose_tc(rk, il, npl, ch=not args.no_ch)
        if mk:
            out = [f"total={render(total)}", f"continuum_check={str(ok).lower()}"]
        else:
            out = [
                f"total: {render(total)}",
                f"continuum check: {'pass' if ok else 'FAIL'}",
            ]
    else:
        total = decompose(rk, il, npl)
        out = [f"total={render(total)}"] if mk else [f"total: {render(total)}"]
    _emit(out)
    return 0
