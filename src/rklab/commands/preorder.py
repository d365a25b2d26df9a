"""``rklab preorder``: quotient, height, width, directedness and cones."""
import argparse

from . import _emit, _read, _write


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--quotient", action="store_true")
    p.add_argument("--height", action="store_true")
    p.add_argument("--width", action="store_true")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--cone", type=int, default=None)
    p.add_argument("--dot", default=None)


def run(args: argparse.Namespace) -> int:
    from ..formats import parse_preorder, quotient_dot
    from ..preorder import cones, height, is_upward_directed, sim_quotient, width

    p = parse_preorder(_read(args.infile), args.infile)
    out: list[str] = []
    mk = args.machine
    out.append(f"elements={p.n}" if mk else f"elements: {p.n}")
    if args.quotient or args.dot or args.height or args.width or args.directed:
        q = sim_quotient(p)
    if args.quotient:
        for ci, members in enumerate(q.classes):
            body = ",".join(str(m) for m in members)
            out.append(f"class.{ci}={body}" if mk else f"class {ci}: {{{body}}}")
        edges = ";".join(f"{a}<{b}" for a, b in q.covers())
        out.append(f"covers={edges}" if mk else f"covers: {edges or '(none)'}")
    if args.dot:
        _write(args.dot, quotient_dot(q))
        out.append(f"dot={args.dot}" if mk else f"dot written to {args.dot}")
    if args.height:
        out.append(f"height={height(q)}" if mk else f"height: {height(q)}")
    if args.width:
        out.append(f"width={width(q)}" if mk else f"width: {width(q)}")
    if args.directed:
        d = is_upward_directed(q)
        out.append(f"directed={str(d).lower()}" if mk else f"upward directed: {d}")
    if args.cone is not None:
        lower, upper = cones(p, args.cone)
        ls = ",".join(str(x) for x in sorted(lower))
        us = ",".join(str(x) for x in sorted(upper))
        out.append(f"lower={ls}" if mk else f"lower cone of {args.cone}: {{{ls}}}")
        out.append(f"upper={us}" if mk else f"upper cone of {args.cone}: {{{us}}}")
    _emit(out)
    return 0
