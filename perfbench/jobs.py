"""The three workloads as seeded job lists, each job with its output check.

A job is one fresh process: a ``rklab`` subcommand, one of the
``scripts/``, or the benchmark's own library job (``libjob.py``).  Files a
job reads are written into the work directory by ``gen``; paths are
relative to it, so outputs do not depend on where the checkout lives.

Each job carries the reference its ``--machine`` stdout must match: an
oracle where one runs in seconds, a recomputation from the generated
input (``refs``), or, for jobs whose inputs are fixed arguments, a digest
of the output at the parent commit (``expected``).  A job listed with a
``limit`` is a known envelope limit of the program: exiting non-zero with
that error text counts as a refusal; if a later version answers it, the
answer is checked like any other.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import refs
from expected import DIGESTS, LMS_W_A4_L8

Check = Callable[[str, Path], "str | None"]

# Jobs the program refuses at the commit that defined the benchmark, with
# the error text that marks the refusal.  Each is an envelope limit named
# in ROADMAP items 2, 3 and 5; lifting one lowers fail_share.
KNOWN_LIMITS = {
    "lms-w-A4-L8": "exceed the budget",  # the L+1 table has 349524 words
    "preorder-capped": "width search capped",  # over 20 quotient classes
    "types-sdup-d3-prime": "formula enumeration needs",  # 3^15 candidates
    "types-colored-m3-d6-prime": "formula enumeration needs",  # 3^10 candidates
}


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" | "script" | "lib"
    argv: tuple[str, ...]
    check: Check
    limit: str | None = None
    ref: str = "computed"  # "digest": compared with the parent commit's output


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _lines(expected: list[str]) -> Check:
    def check(out: str, work: Path) -> str | None:
        got = out.splitlines()
        if got == expected:
            return None
        for k, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                return f"line {k}: got {a[:80]!r}, want {b[:80]!r}"
        return f"{len(got)} lines, want {len(expected)}"

    return check


def _digest(name: str) -> Check:
    def check(out: str, work: Path) -> str | None:
        got = digest(out)
        return None if got == DIGESTS[name] else f"digest {got} != {DIGESTS[name]}"

    return check


def cli(name: str, *argv: str) -> Job:
    return Job(name, "cli", argv, _digest(name), ref="digest")


def script(name: str, *argv: str) -> Job:
    return Job(name, "script", argv, _digest(name), ref="digest")


# -- limits ---------------------------------------------------------------------


def _lms_w_a4_l8(out: str, work: Path) -> str | None:
    """Answer to the over-budget job, should a later version give one: the
    counts at L=8 are known; the L+1 figure may be withheld."""
    rec = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    want = {"system": "lms", "target": "w", "reading": "gt", "L": "8", **LMS_W_A4_L8}
    bad = [k for k, v in want.items() if rec.get(k) != v]
    nxt, stable = rec.get("classes_next", ""), rec.get("stable", "")
    if nxt.isdigit() and stable != str(nxt == want["classes"]).lower():
        bad.append("stable")
    return f"records differ: {bad}" if bad else None


def _limits_oracle(name: str, system: str, n: int | None, alphabet: int, length: int) -> Job:
    argv = ["limits", "--system", system]
    argv += ["--lam", "w"] if n is None else ["--n", str(n)]
    argv += ["--alphabet", str(alphabet), "--len", str(length), "--machine"]
    expected = refs.limits_lines(system, n, "gt", alphabet, length)
    return Job(name, "cli", tuple(argv), _lines(expected))


def _limits(system: str, lam: str, alphabet: int, length: int, reading: str = "") -> Job:
    name = f"{system}-{lam}{'-' + reading if reading else ''}-A{alphabet}-L{length}"
    argv = ["limits", "--system", system]
    argv += ["--lam", "w"] if lam == "w" else ["--n", lam[1:]]
    argv += ["--alphabet", str(alphabet), "--len", str(length)]
    argv += ["--reading", reading] if reading else []
    return cli(name, *argv, "--machine")


def limits(rng: random.Random, work: Path, quick: bool) -> list[Job]:
    over = Job(
        "lms-w-A4-L8",
        "cli",
        ("limits", "--system", "lms", "--lam", "w", "--alphabet", "4", "--len", "8", "--machine"),
        _lms_w_a4_l8,
        limit=KNOWN_LIMITS["lms-w-A4-L8"],
    )
    if quick:
        return [
            over,
            _limits_oracle("oracle-lmt-n1-A3-L4", "lmt", 1, 3, 4),
            script("census-A23-L4", "limit_census.py", "--alphabets", "2,3", "--max-len", "4"),
        ]
    return [
        over,
        _limits("lmt", "w", 2, 13),
        _limits("lmt", "n1", 4, 6),
        _limits("lmt", "n2", 3, 6),
        _limits("lms", "w", 4, 6, "geq"),
        _limits("lmt", "n3", 3, 7),
        _limits("lms", "n2", 3, 7),
        _limits("lms", "n3", 2, 11),
        _limits_oracle("oracle-lmt-n1-A3-L4", "lmt", 1, 3, 4),
        _limits_oracle("oracle-lms-w-A3-L3", "lms", None, 3, 3),
        script("census-A234-L5", "limit_census.py", "--alphabets", "2,3,4", "--max-len", "5"),
    ]


# -- blueprint --------------------------------------------------------------------

def _preorder(name: str, order: gen.Order, work: Path) -> Job:
    (work / f"{name}.po").write_text(gen.preorder_text(order))
    argv = ("preorder", "--in", f"{name}.po", "--quotient", "--height", "--width", "--machine")
    return Job(name, "cli", argv, _lines(refs.preorder_lines(order)), KNOWN_LIMITS.get(name))


def _dominate(name: str, g: gen.Graph, work: Path, rkt: bool) -> Job:
    (work / f"{name}.dg").write_text(gen.graph_text(g))
    argv = ("dominate", "--in", f"{name}.dg") + (("--rkt",) if rkt else ()) + ("--machine",)
    return Job(name, "cli", argv, _lines(refs.dominate_lines(g, rkt)))


def _spec(rng, work, name, shape, mode="finite", npl=0):
    order = gen.layered_order(rng, shape)
    values = gen.finite_values(rng, order) if mode == "finite" else gen.sequence_values(rng, order)
    text, partition = gen.spec_text(rng, order, values, mode, npl)
    (work / f"{name}.ds").write_text(text)
    return order, values, partition


def _build(rng, work, name, variant, shape, mode="finite", npl=0) -> Job:
    order, values, partition = _spec(rng, work, name, shape, mode, npl)
    out_name = f"{name}.pipe"
    expected, head, plan = refs.build_expect(order, variant, values, mode, partition, out_name)
    stdout_ok = _lines(expected)

    def check(out: str, work: Path) -> str | None:
        bad = stdout_ok(out, work)
        if bad:
            return bad
        lines = (work / out_name).read_text().splitlines()
        ops = [line.split()[0] for line in lines if not line.startswith(("base", "qedge"))]
        qedges = sorted(line for line in lines if line.startswith("qedge"))
        if lines[:1] != head[:1] or qedges != sorted(head[1:]) or ops != plan:
            return f"pipeline file {out_name} differs from the plan"
        return None

    argv = ("build", "--spec", f"{name}.ds", "--variant", variant, "--replay", "--out", out_name, "--machine")
    return Job(name, "cli", argv, check)


def _apply(rng, work, name, parts, colors, depth, fan, bus) -> Job:
    p = gen.pipeline(rng, parts, colors, depth, fan, bus)
    (work / f"{name}.pipe").write_text(gen.pipeline_text(p))
    out_name = f"{name}.struct"
    expected, universe, records = refs.apply_expect(p, out_name)
    stdout_ok = _lines(expected)

    def check(out: str, work: Path) -> str | None:
        bad = stdout_ok(out, work)
        if bad:
            return bad
        lines = (work / out_name).read_text().splitlines()
        if len(lines[0].split()) != universe + 1 or sum(l.startswith("applied ") for l in lines) != records:
            return f"structure file {out_name} differs"
        return None

    argv = ("apply", "--pipeline", f"{name}.pipe", "--verify", "--out", out_name, "--machine")
    return Job(name, "cli", argv, check)


def _checked_replay(rng, work, name, shape) -> Job:
    order, values, _ = _spec(rng, work, name, shape)
    _, _, plan = refs.build_expect(order, "t77", values, "finite", {}, "")
    expected = [
        f"steps={len(plan)}",
        f"universe={refs.build_universe(order.n, plan, 1)}",
        "labelled_equal=true",
        "il_equal=true",
        "schemes_ok=true",
    ]
    return Job(name, "lib", (f"{name}.ds",), _lines(expected))


def _levels(*sizes) -> list[list[int]]:
    """A component from per-level class sizes, e.g. ``_levels([1], [2, 1])``."""
    return [list(s) for s in sizes]


def blueprint(rng: random.Random, work: Path, quick: bool) -> list[Job]:
    one = _levels([1])
    if quick:
        return [
            _build(rng, work, "build-t77-small", "t77", [_levels([1], [2]), one, one]),
            _apply(rng, work, "apply-small", 4, 1, 1, 2, 2),
            _preorder("preorder-capped", gen.layered_order(rng, [one] * 21), work),
            _checked_replay(rng, work, "replay-check-small", [_levels([1], [1]), one]),
        ]
    return [
        _build(rng, work, "build-t77-wide", "t77",
               [one] * 36 + [_levels([1], [2, 1], [3])] * 4 + [_levels([2])] * 4),
        _build(rng, work, "build-t84-chains", "t84",
               [_levels([1], [1, 2], [1], [1])] * 3 + [_levels([2], [1])] * 2, mode="countable-truncated"),
        _build(rng, work, "build-t91-parts", "t91",
               [_levels([1], [2], [1])] * 3 + [one] * 4, npl=5),
        _build(rng, work, "build-t92-parts", "t92",
               [_levels([1], [1, 1])] * 3 + [_levels([2])] + [one] * 3, npl=4),
        _build(rng, work, "build-t77-small", "t77", [_levels([1], [2]), one, one, _levels([2])]),
        _apply(rng, work, "apply-wide", 36, 2, 2, 2, 300),
        _apply(rng, work, "apply-small", 6, 1, 1, 3, 5),
        _dominate("dominate-400", gen.domination_graph(rng, 400, 12, 30), work, rkt=False),
        _dominate("dominate-rkt-250", gen.domination_graph(rng, 250, 10, 20), work, rkt=True),
        _preorder(
            "preorder-18-classes",
            gen.layered_order(rng, [_levels([12, 10], [14, 12, 10], [16], [10, 12, 14])] * 2),
            work,
        ),
        _preorder("preorder-capped", gen.layered_order(rng, [_levels([2], [1, 2], [2])] * 6 + [one] * 6), work),
        _checked_replay(rng, work, "replay-check", [one] * 18 + [_levels([1], [2], [1])] * 2),
    ]


# -- desk -----------------------------------------------------------------------

def _prime_answer(cells: int) -> Check:
    """Answer to an over-budget prime-model query, should a later version
    give one: sdup and colored spaces always have a prime model."""
    return _lines([f"cells={cells}", "prime_model=true"])


def _demo(name: str, seed: int, elements: int) -> Job:
    def check(out: str, work: Path) -> str | None:
        f = {l[1:].split(" = ")[0]: l.split(" = ")[1] for l in out.splitlines() if l.startswith("f{")}
        il = {l[2:].split(" = ")[0]: l.split(" = ")[1] for l in out.splitlines() if l.startswith("IL{")}
        if "isomorphic to the drawn preorder: True" not in out.splitlines():
            return "replayed preorder not isomorphic to the drawn one"
        return None if f and f == il else "IL readback differs from f"

    return Job(name, "script", ("blueprint_demo.py", "--seed", str(seed), "--elements", str(elements)), check)


def desk(rng: random.Random, work: Path, quick: bool) -> list[Job]:
    one = _levels([1])
    small = [
        _preorder("preorder-6", gen.layered_order(rng, [_levels([2], [1, 1]), one, one]), work),
        _preorder("preorder-8", gen.layered_order(rng, [_levels([1], [2], [1, 1]), _levels([1], [1]), one]), work),
        _preorder("preorder-7", gen.layered_order(rng, [_levels([3], [1]), _levels([1, 1], [1])]), work),
        _dominate("dominate-12", gen.domination_graph(rng, 12, 3, 2), work, rkt=False),
        _dominate("dominate-rkt-16", gen.domination_graph(rng, 16, 4, 2), work, rkt=True),
    ]
    sdup3 = Job("types-sdup-d3-prime", "cli",
                ("types", "--family", "sdup", "--depth", "3", "--prime", "--machine"),
                _prime_answer(23), KNOWN_LIMITS["types-sdup-d3-prime"])
    colored36 = Job("types-colored-m3-d6-prime", "cli",
                    ("types", "--family", "colored", "--m", "3", "--depth", "6", "--prime", "--machine"),
                    _prime_answer(24), KNOWN_LIMITS["types-colored-m3-d6-prime"])
    demo_seed = rng.randrange(10**6)
    if quick:
        return [
            small[0],
            sdup3,
            colored36,
            cli("classify-tc-0-0-c", "classify", "--tc", "--triple", "0,0,c", "--machine"),
            _demo("demo-5", demo_seed, 5),
        ]
    return small + [
        sdup3,
        colored36,
        cli("classify-tc-0-0-c", "classify", "--tc", "--triple", "0,0,c", "--machine"),
        cli("classify-small-1-0-0", "classify", "--small", "--triple", "1,0,0", "--machine"),
        cli("classify-tc-c-c-0", "classify", "--tc", "--triple", "c,c,0", "--machine"),
        cli("classify-tc-2-w-c", "classify", "--tc", "--triple", "2,w,c", "--machine"),
        cli("classify-small-w-0-0", "classify", "--small", "--triple", "w,0,0", "--machine"),
        cli("classify-tc-c-1-1", "classify", "--tc", "--triple", "c,1,1", "--machine"),
        cli("classify-tc-0-1-c", "classify", "--tc", "--triple", "0,1,c", "--machine"),
        cli("classify-tc-w1-w1-0-noch", "classify", "--tc", "--no-ch", "--triple", "w1,w1,0", "--machine"),
        cli("decompose-readme", "decompose", "--rk", "2", "--il", "1,0,2", "--npl", "c", "--tc", "--machine"),
        cli("decompose-w-c-0", "decompose", "--rk", "w", "--il", "c", "--npl", "0", "--tc", "--machine"),
        cli("decompose-3-12-4", "decompose", "--rk", "3", "--il", "1,2", "--npl", "4", "--machine"),
        cli("types-iup-d3-enum-prime", "types", "--family", "iup", "--depth", "3", "--enumerate", "--prime", "--machine"),
        cli("types-iup-d2-classify", "types", "--family", "iup", "--depth", "2", "--classify", "P0,!P1", "--machine"),
        cli("types-iup-d3-dense", "types", "--family", "iup", "--depth", "3",
            "--dense", "000;001;010;011;100;101;110;111", "--machine"),
        cli("types-sdup-d2-classify", "types", "--family", "sdup", "--depth", "2", "--classify", "Se,!S0,!S1", "--machine"),
        cli("types-sdup-d2-enum-prime", "types", "--family", "sdup", "--depth", "2", "--enumerate", "--prime", "--machine"),
        cli("types-sdup-d2-dense", "types", "--family", "sdup", "--depth", "2",
            "--dense", "stop:e;stop:0;stop:1;cont:00;stop:01;cont:10;cont:11", "--machine"),
        cli("types-colored-m2-d3-enum-prime", "types", "--family", "colored", "--m", "2", "--depth", "3",
            "--enumerate", "--prime", "--machine"),
        cli("types-colored-m3-d5-prime", "types", "--family", "colored", "--m", "3", "--depth", "5", "--prime", "--machine"),
        cli("types-colored-m2-d2-classify", "types", "--family", "colored", "--m", "2", "--depth", "2",
            "--classify", "P0,!C0", "--machine"),
        cli("types-colored-m2-d2-dense", "types", "--family", "colored", "--m", "2", "--depth", "2",
            "--dense", "(0,0);(0,1);(0,2);(0,inf);(1,0);(1,1)", "--machine"),
        script("atlas-fin5", "triple_atlas.py", "--max-fin", "5"),
        _demo("demo-8", demo_seed, 8),
        _demo("demo-6", demo_seed + 1, 6),
    ]


WORKLOADS = {"limits": limits, "blueprint": blueprint, "desk": desk}
