"""``rklab limits``: limit-model class counts at a length bound."""
import argparse

from . import Natural


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=("lmt", "lms"), required=True)
    p.add_argument("--n", action=Natural, default=None)
    p.add_argument("--lam", default=None, help="cardinal token, e.g. w")
    p.add_argument("--alphabet", action=Natural, required=True)
    p.add_argument("--len", dest="length", action=Natural, required=True)
    p.add_argument("--reading", choices=("gt", "geq"), default="gt")


def run(args: argparse.Namespace) -> int:
    from ..cardinal import fin, parse_card, render
    from ..limitcount import lmt, lms, render_word, stabilization

    if (args.n is None) == (args.lam is None):
        raise ValueError("limits takes exactly one of --n and --lam")
    lam = fin(args.n) if args.lam is None else parse_card(args.lam)
    system = lmt(lam) if args.system == "lmt" else lms(lam, args.reading)
    info = stabilization(system, args.alphabet, args.length)
    known = info["count_next"] is not None
    out: list[str] = []
    # no _emit: the records split "L=..: N classes" in two and put target second
    if args.machine:
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
        over = f"over the node budget ({info['nodes_next']} > {info['budget']})"
        out.append(f"L={info['L'] + 1}: " + (f"{info['count_next']} classes" if known else over))
        out.append(f"stable: {info['stable'] if known else 'unknown'}")
        reps = ", ".join(render_word(w) for w in info["representatives"])
        out.append(f"representatives: {reps}")
        out.append(f"target (displayed, not asserted at finite L): {render(system.target)}")
    print("\n".join(out))
    return 0
