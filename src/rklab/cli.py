"""Command-line frontend with bit-stable text output.

Every subcommand reads the module file formats, prints a human-readable
report by default and line-oriented ``key=value`` records under
``--machine``.  Exit status 0 means the analysis completed (violations
are report content); 2 means an input failed to parse or validate; 3
means the analysis needs more than one of its budgets allows.
"""
from __future__ import annotations

import argparse
import sys

from .report import BudgetError  # each command imports the layers it runs


def _emit(lines: list[str]) -> None:
    for line in lines:
        print(line)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- subcommands ----------------------------------------------------------

def cmd_preorder(args: argparse.Namespace) -> int:
    from .formats import parse_preorder, quotient_dot
    from .preorder import cones, height, is_upward_directed, sim_quotient, width

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


def _space_from_args(args: argparse.Namespace) -> TypeSpace:
    if args.infile:
        from .formats import parse_typespace

        return parse_typespace(_read(args.infile), args.infile)
    if not args.family or not args.depth:
        raise ValueError("need --in or both --family and --depth")
    from .typespace import TypeSpace

    return TypeSpace(args.family, args.depth, args.m)


def _parse_literals(ts: TypeSpace, text: str) -> FormulaLit:
    from .typespace import FormulaLit

    lits = {}
    for chunk in text.split(","):
        tok = chunk.strip()
        sign = not tok.startswith("!")
        tok = tok.lstrip("!")
        if ts.family == "iup" and tok.startswith("P"):
            atom = ("P", int(tok[1:]))
        elif ts.family == "sdup" and tok.startswith("S"):
            path = tok[1:]
            atom = ("S", "" if path == "e" else path)
        elif ts.family == "colored" and tok.startswith("P"):
            atom = ("P", int(tok[1:]))
        elif ts.family == "colored" and tok.startswith("C"):
            atom = ("C", int(tok[1:]))
        else:
            raise ValueError(f"bad literal {chunk!r} for family {ts.family}")
        lits[atom] = sign
    return FormulaLit.of(lits)


def cmd_types(args: argparse.Namespace) -> int:
    from .typespace import (
        classify_formula,
        enumerate_types,
        has_prime_model,
        is_dense,
        is_principal,
        parse_cell,
        render_cell,
    )

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
        phi = _parse_literals(ts, args.classify)
        verdict = classify_formula(ts, phi).value
        out.append(f"formula={verdict}" if mk else f"formula class: {verdict}")
    if args.prime:
        hp = has_prime_model(ts)
        out.append(f"prime_model={str(hp).lower()}" if mk else f"prime model: {hp}")
    if args.dense is not None:
        members = [parse_cell(ts, tok) for tok in args.dense.split(";") if tok]
        d = is_dense(ts, members, ts.depth)
        out.append(f"dense={str(d).lower()}" if mk else f"dense: {d}")
    _emit(out)
    return 0


def cmd_dominate(args: argparse.Namespace) -> int:
    from .domination import iso_classes, prime_node_order, rk_preorder, rk_structure
    from .formats import parse_domination, quotient_dot
    from .preorder import sim_quotient

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


def cmd_apply(args: argparse.Namespace) -> int:
    from .formats import parse_pipeline, serialize_struct
    from .operators import run_pipeline, verify_schemes

    spec = run_pipeline(parse_pipeline(_read(args.pipeline), args.pipeline))
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


def cmd_limits(args: argparse.Namespace) -> int:
    from .cardinal import parse_card, render
    from .limitcount import lmt, lms, render_word, stabilization

    lam = parse_card(args.lam or str(args.n))
    system = lmt(lam) if args.system == "lmt" else lms(args.seq_len, lam, args.reading)
    info = stabilization(system, args.alphabet, args.length)
    known = info["count_next"] is not None
    mk = args.machine
    out: list[str] = []
    if mk:
        out.append(f"system={system.kind}")
        out.append(f"target={render(system.target)}")
        if system.kind == "lms" and system.n is None:
            out.append(f"reading={system.reading}")
        out.append(f"L={info['L']}")
        out.append(f"classes={info['count']}")
        out.append(f"classes_next={info['count_next'] if known else 'unknown'}")
        out.append(f"stable={str(info['stable']).lower() if known else 'unknown'}")
        out.append("representatives=" + ";".join(render_word(w) for w in info["representatives"]))
    else:
        out.append(f"system: {system.describe()}")
        if system.kind == "lms" and system.n is None:
            out.append(f"side-condition reading: {system.reading}")
        out.append(f"L={info['L']}: {info['count']} classes")
        over = f"over the word budget ({info['words_next']} > {info['budget']})"
        out.append(f"L={info['L'] + 1}: " + (f"{info['count_next']} classes" if known else over))
        out.append(f"stable: {info['stable'] if known else 'unknown'}")
        reps = ", ".join(render_word(w) for w in info["representatives"])
        out.append(f"representatives: {reps}")
        out.append(f"target (displayed, not asserted at finite L): {render(system.target)}")
    _emit(out)
    return 0


def _parse_triple(text: str) -> Cm3Triple:
    from .cardinal import parse_card
    from .distribution import Cm3Triple

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"triple must have three components, got {text!r}")
    return Cm3Triple(*(parse_card(p) for p in parts))


def cmd_classify(args: argparse.Namespace) -> int:
    from .distribution import classify_triple

    triple = _parse_triple(args.triple)
    theory_class = "small" if args.small else "tc"
    verdict = classify_triple(triple, theory_class, ch=not args.no_ch)
    if args.machine:
        out = [
            f"triple={triple.render()}",
            f"status={verdict.status}",
            f"case={verdict.case if verdict.case is not None else '-'}",
            f"reason={verdict.reason or '-'}",
            f"flags={','.join(verdict.flags) or '-'}",
        ]
    else:
        out = [f"{triple.render()}: {verdict.render()}"]
    _emit(out)
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from .cardinal import render
    from .distribution import (
        BuildConfig,
        build_blueprint,
        replay_blueprint,
        replayed_il,
        replayed_prime_preorder,
        target_triple,
    )
    from .formats import parse_distribution, serialize_pipeline
    from .preorder import sim_quotient

    spec = parse_distribution(_read(args.spec), args.spec)
    config = BuildConfig(
        colors=args.colors, per_color=1, depth=args.depth, fan_out=args.fan_out
    )
    bp = build_blueprint(spec, args.variant, config)
    mk = args.machine
    out: list[str] = []
    out.append(f"predicates={len(bp.predicates)}" if mk else f"predicates: {len(bp.predicates)}")
    plan = ";".join(step.op for step in bp.operator_plan)
    out.append(f"plan={plan}" if mk else f"plan: {plan}")
    trip = target_triple(spec).render()
    out.append(f"triple={trip}" if mk else f"target triple: {trip}")
    if args.out:
        _write(args.out, serialize_pipeline(bp.pipeline))
        out.append(f"out={args.out}" if mk else f"pipeline written to {args.out}")
    if args.replay:
        struct = replay_blueprint(bp, config)
        out.append(
            f"universe={len(struct.universe)}"
            if mk
            else f"replayed universe: {len(struct.universe)} elements"
        )
        po = replayed_prime_preorder(struct, bp.predicates)
        q = sim_quotient(po)
        out.append(f"rk_classes={q.size}" if mk else f"rk quotient classes: {q.size}")
        for key, value in sorted(replayed_il(struct, spec).items(), key=lambda kv: sorted(kv[0])):
            label = "{" + ",".join(str(x) for x in sorted(key)) + "}"
            out.append(f"il.{label}={render(value)}" if mk else f"IL{label} = {render(value)}")
    _emit(out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    from .cardinal import parse_card, render
    from .distribution import decompose, decompose_tc

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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rklab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preorder", help="analyse a preorder file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--quotient", action="store_true")
    p.add_argument("--height", action="store_true")
    p.add_argument("--width", action="store_true")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--cone", type=int, default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_preorder)

    p = sub.add_parser("types", help="inspect a truncated type space")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--family", choices=("iup", "sdup", "colored"), default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--prime", action="store_true")
    p.add_argument("--classify", default=None, metavar="LITERALS")
    p.add_argument("--dense", default=None, metavar="CELLS", help="semicolon-separated cell addresses")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_types)

    p = sub.add_parser("dominate", help="analyse a domination graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rkt", action="store_true", help="full preorder on all types")
    p.add_argument("--dot", default=None)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_dominate)

    p = sub.add_parser("apply", help="run an operator pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("limits", help="count limit-model classes")
    p.add_argument("--system", choices=("lmt", "lms"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lam", default=None, help="cardinal token, e.g. w")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--len", dest="length", type=int, required=True)
    p.add_argument("--seq-len", type=int, default=3)
    p.add_argument("--reading", choices=("gt", "geq"), default="gt")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("classify", help="classify a distribution triple")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--small", action="store_true")
    group.add_argument("--tc", action="store_true")
    p.add_argument("--triple", required=True, metavar="P,L,NPL")
    p.add_argument("--no-ch", action="store_true")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("build", help="blueprint a distribution spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--variant", choices=("t77", "t84", "t91", "t92"), default="t77")
    p.add_argument("--replay", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--colors", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--fan-out", type=int, default=2)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("decompose", help="fold a decomposition sum")
    p.add_argument("--rk", required=True)
    p.add_argument("--il", default="")
    p.add_argument("--npl", required=True)
    p.add_argument("--tc", action="store_true")
    p.add_argument("--no-ch", action="store_true")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_decompose)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
