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

    g = parse_domination(_read(args.infile), args.infile)
    if args.rkt:
        labels = g.names()
        q = rk_preorder(g)
        pairs = ";".join(f"{labels[i]}<={labels[j]}" for i, j in q.pairs() if i != j)
        minima = ",".join(str(m) for m in q.minima())
        out = [("rkt", pairs, f"rkt preorder: {pairs or '(discrete)'}"),
               ("minima", minima, f"minimal classes: {minima}")]
    else:
        q = rk_structure(g)
        prime = prime_node_order(g)
        iso = iso_classes(g)
        out = [("prime_nodes", len(prime), f"prime nodes: {len(prime)}"),
               ("iso_types", len(iso), f"isomorphism types: {len(iso)}")]
        for ci, members in enumerate(q.classes):
            body = ",".join(prime[m] for m in sorted(members))
            out.append((f"class.{ci}", body, f"class {ci}: {{{body}}}"))
        covers = ";".join(f"{a}<{b}" for a, b in q.covers())
        out.append(("covers", covers, f"covers: {covers or '(none)'}"))
        labels = prime
    if args.dot:
        _write(args.dot, quotient_dot(q, labels))
        out.append(("dot", args.dot, f"dot written to {args.dot}"))
    _emit(args, out)
    return 0
