"""``rklab limits``: limit-model class counts at a length bound."""
import argparse

from . import Natural, _emit


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=("lmt", "lms"), required=True)
    p.add_argument("--n", action=Natural, default=None)
    p.add_argument("--lam", default=None, help="cardinal token, e.g. w")
    p.add_argument("--alphabet", action=Natural, required=True)
    p.add_argument("--len", dest="length", action=Natural, required=True)
    p.add_argument("--reading", choices=("gt", "geq"), default="gt")


def run(args: argparse.Namespace) -> int:
    from ..cardinal import fin, parse_card, render
    from ..limitcount import NODE_BUDGET, lmt, lms, render_word, stabilization

    if (args.n is None) == (args.lam is None):
        raise ValueError("limits takes exactly one of --n and --lam")
    lam = fin(args.n) if args.lam is None else parse_card(args.lam)
    system = lmt(lam) if args.system == "lmt" else lms(lam, args.reading)
    info = stabilization(system, args.alphabet, args.length)
    known = info["count_next"] is not None
    length, count, target = info["L"], info["count"], render(system.target)
    # the records split "L=..: N classes" in two and put target second
    out = [("system", system.kind, f"system: {system.describe()}"), ("target", target, None)]
    if system.kind == "lms" and system.n is None:
        out.append(("reading", system.reading, f"side-condition reading: {system.reading}"))
    out += [("L", length, f"L={length}: {count} classes"), ("classes", count, None)]
    over = f"over the node budget ({info['nodes_next']} > {NODE_BUDGET.limit})"
    out.append(("classes_next", info["count_next"] if known else "unknown",
                f"L={length + 1}: " + (f"{info['count_next']} classes" if known else over)))
    stable = info["stable"] if known else "unknown"
    out.append(("stable", stable, f"stable: {stable}"))
    reps = [render_word(w) for w in info["representatives"]]
    out.append(("representatives", ";".join(reps), f"representatives: {', '.join(reps)}"))
    out.append((None, None, f"target (displayed, not asserted at finite L): {target}"))
    _emit(args, out)
    return 0
