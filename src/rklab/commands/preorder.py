"""``rklab preorder``: quotient, height, width, directedness and cones."""
import argparse
import itertools

from . import Natural, _emit, _read, _write


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--quotient", action="store_true")
    p.add_argument("--height", action="store_true")
    p.add_argument("--width", action="store_true")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--cone", action=Natural, default=None)
    p.add_argument("--dot", default=None)


def run(args: argparse.Namespace) -> int:
    from ..formats import parse_preorder, quotient_dot
    from ..preorder import cones, height, is_upward_directed, width

    p = parse_preorder(_read(args.infile), args.infile)
    out, classes = [("elements", p.n, f"elements: {p.n}")], ()
    if args.quotient:  # the class records are made as they are printed
        bodies = (",".join(map(str, members)) for members in p.classes)
        classes = ((f"class.{ci}", body, f"class {ci}: {{{body}}}") for ci, body in enumerate(bodies))
        edges = ";".join(f"{a}<{b}" for a, b in p.covers())
        out.append(("covers", edges, f"covers: {edges or '(none)'}"))
    if args.dot:
        _write(args.dot, quotient_dot(p))
        out.append(("dot", args.dot, f"dot written to {args.dot}"))
    if args.height:
        h = height(p)
        out.append(("height", h, f"height: {h}"))
    if args.width:
        w = width(p)
        out.append(("width", w, f"width: {w}"))
    if args.directed:
        d = is_upward_directed(p)
        out.append(("directed", d, f"upward directed: {d}"))
    if args.cone is not None:
        for side, cone in zip(("lower", "upper"), cones(p, args.cone)):
            body = ",".join(str(x) for x in sorted(cone))
            out.append((side, body, f"{side} cone of {args.cone}: {{{body}}}"))
    _emit(args, itertools.chain(out[:1], classes, out[1:]))
    return 0
