"""``rklab dominate``: the Rudin-Keisler structure of a domination graph."""
import argparse

from . import _emit, _read, _write


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rkt", action="store_true", help="full preorder on all types")
    p.add_argument("--dot", default=None)


def run(args: argparse.Namespace) -> int:
    from ..domination import iso_classes, prime_node_order, rk_preorder, rk_structure
    from ..formats import parse_domination, quotient_dot
    from ..preorder import sim_quotient

    g = parse_domination(_read(args.infile), args.infile)
    mk = args.machine
    out: list[str] = []
    if args.rkt:
        p = rk_preorder(g)
        names = g.names()
        pairs = ";".join(
            f"{names[i]}<={names[j]}" for i, j in p.pairs() if i != j
        )
        out.append(f"rkt={pairs}" if mk else f"rkt preorder: {pairs or '(discrete)'}")
        q = sim_quotient(p)
        minima = ",".join(str(m) for m in q.minima())
        out.append(f"minima={minima}" if mk else f"minimal classes: {minima}")
    else:
        q = rk_structure(g)
        prime = prime_node_order(g)
        out.append(f"prime_nodes={len(prime)}" if mk else f"prime nodes: {len(prime)}")
        iso = iso_classes(g)
        out.append(f"iso_types={len(iso)}" if mk else f"isomorphism types: {len(iso)}")
        for ci, members in enumerate(q.classes):
            body = ",".join(prime[m] for m in sorted(members))
            out.append(f"class.{ci}={body}" if mk else f"class {ci}: {{{body}}}")
        covers = ";".join(f"{a}<{b}" for a, b in q.covers())
        out.append(f"covers={covers}" if mk else f"covers: {covers or '(none)'}")
        if args.dot:
            _write(args.dot, quotient_dot(q, prime))
            out.append(f"dot={args.dot}" if mk else f"dot written to {args.dot}")
    _emit(out)
    return 0
