"""``rklab types``: cells, formula classes, prime models and density of a type space."""
from __future__ import annotations

import argparse

from . import Natural, _emit, _read


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--family", choices=("iup", "sdup", "colored"), default=None)
    p.add_argument("--depth", action=Natural, default=None)
    p.add_argument("--m", action=Natural, default=None)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--prime", action="store_true")
    p.add_argument("--classify", default=None, metavar="LITERALS")
    p.add_argument("--dense", default=None, metavar="CELLS", help="semicolon-separated cell addresses")


def _space_from_args(args: argparse.Namespace) -> TypeSpace:
    if args.infile:
        from ..formats import parse_typespace

        return parse_typespace(_read(args.infile), args.infile)
    if not args.family or args.depth is None:
        raise ValueError("need --in or both --family and --depth")
    from ..typespace import TypeSpace

    return TypeSpace(args.family, args.depth, args.m)


def run(args: argparse.Namespace) -> int:
    from ..typespace import cell_count, classify_formula, enumerate_types, has_prime_model
    from ..typespace import is_dense, is_principal, parse_cell, parse_formula, render_cell

    ts = _space_from_args(args)
    count = cell_count(ts)
    out = [("cells", count, f"cells: {count}")]
    if args.enumerate:
        for cell in enumerate_types(ts):
            tag = "principal" if is_principal(ts, cell) else "non-principal"
            name = render_cell(cell)
            out.append((f"cell.{name}", tag, f"  {name}  [{tag}]"))
    if args.classify is not None:
        verdict = classify_formula(ts, parse_formula(ts, args.classify)).value
        out.append(("formula", verdict, f"formula class: {verdict}"))
    if args.prime:
        hp = has_prime_model(ts)
        out.append(("prime_model", hp, f"prime model: {hp}"))
    if args.dense is not None:
        d = is_dense(ts, [parse_cell(ts, tok) for tok in args.dense.split(";") if tok])
        out.append(("dense", d, f"dense: {d}"))
    _emit(args, out)
    return 0
