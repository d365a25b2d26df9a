"""``rklab types``: cells, formula classes, prime models and density of a type space."""
from __future__ import annotations

import argparse

from . import _emit, _read


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--family", choices=("iup", "sdup", "colored"), default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--prime", action="store_true")
    p.add_argument("--classify", default=None, metavar="LITERALS")
    p.add_argument("--dense", default=None, metavar="CELLS", help="semicolon-separated cell addresses")


def _space_from_args(args: argparse.Namespace) -> TypeSpace:
    if args.infile:
        from ..formats import parse_typespace

        return parse_typespace(_read(args.infile), args.infile)
    if not args.family or not args.depth:
        raise ValueError("need --in or both --family and --depth")
    from ..typespace import TypeSpace

    return TypeSpace(args.family, args.depth, args.m)


def run(args: argparse.Namespace) -> int:
    from ..typespace import classify_formula, enumerate_types, has_prime_model, is_dense
    from ..typespace import is_principal, parse_cell, parse_formula, render_cell

    ts = _space_from_args(args)
    mk = args.machine
    out: list[str] = []
    cells = enumerate_types(ts)
    out.append(f"cells={len(cells)}" if mk else f"cells: {len(cells)}")
    if args.enumerate:
        for cell in cells:
            tag = "principal" if is_principal(ts, cell) else "non-principal"
            name = render_cell(cell)
            out.append(f"cell.{name}={tag}" if mk else f"  {name}  [{tag}]")
    if args.classify:
        phi = parse_formula(ts, args.classify)
        verdict = classify_formula(ts, phi).value
        out.append(f"formula={verdict}" if mk else f"formula class: {verdict}")
    if args.prime:
        hp = has_prime_model(ts)
        out.append(f"prime_model={str(hp).lower()}" if mk else f"prime model: {hp}")
    if args.dense is not None:
        members = [parse_cell(ts, tok) for tok in args.dense.split(";") if tok]
        d = is_dense(ts, members)
        out.append(f"dense={str(d).lower()}" if mk else f"dense: {d}")
    _emit(out)
    return 0
