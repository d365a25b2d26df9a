"""Traced job runner and per-layer aggregation.

Run as ``python tracing.py SPANS KIND ARG...`` it installs a wrapper around
every public module-level function of each ``rklab`` layer, in every
namespace that bound it (so ``from .x import y`` calls between modules
are traced too), then runs the job: ``cli`` calls ``rklab.cli.main``,
``script`` runs a file from ``scripts/`` as ``__main__``, ``lib`` runs
``libjob.py``.  Each call records a span (function, start, end, parent)
in memory; generator functions record one span per resumption.  Spans
and counters are written to SPANS when the job ends.

Only module-level functions are wrapped.  A method (``QuotientPoset.covers``,
``Registry.with_edge``) counts toward the layer of the span that called it,
which is its own module except where ``cli`` or ``distribution`` call a
method of another layer's object directly.
"""
from __future__ import annotations

import array
import functools
import inspect
import json
import runpy
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = (
    "cli", "formats", "preorder", "typespace", "domination",
    "operators", "limitcount", "distribution", "cardinal",
)
PREORDER_FNS = (
    "close", "is_closed", "sim_quotient", "height", "width", "cones",
    "is_upward_directed", "from_pairs", "preorders_isomorphic",
)
OPERATOR_STEPS = ("icp", "css", "bu", "apply_lmt", "apply_lms")

METRICS = (
    [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [
        ("limitcount.words", "count"),
        ("limitcount.instances", "count"),
        ("limitcount.classes", "count"),
        ("limitcount.next_share", "share"),
        ("limitcount.repeat_calls", "count"),
        ("limitcount.budget_errors", "count"),
        ("operators.apply_ms", "ms"),
        ("operators.verify_ms", "ms"),
        ("operators.steps", "count"),
        ("operators.universe", "count"),
        ("operators.records_verified", "count"),
        ("operators.verify_useful_ratio", "share"),
        ("distribution.plan_steps", "count"),
        ("distribution.classify_calls", "count"),
    ]
    + [(f"preorder.calls.{fn}", "count") for fn in PREORDER_FNS]
    + [
        ("preorder.elements", "count"),
        ("preorder.closure_checks", "ratio"),
        ("preorder.cap_errors", "count"),
        ("domination.nodes", "count"),
        ("typespace.formula_candidates", "count"),
        ("typespace.formulas_consistent", "count"),
        ("typespace.consistent_ratio", "share"),
        ("typespace.budget_errors", "count"),
        ("formats.parse_ms", "ms"),
        ("formats.serialize_ms", "ms"),
        ("formats.bytes_in", "bytes"),
        ("formats.bytes_out", "bytes"),
        ("cli.import_ms", "ms"),
        ("cardinal.calls", "count"),
        ("outside.ms", "ms"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


# -- child side -------------------------------------------------------------------


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.stack = [-1]
        self.calls: list[int] = []
        self.counters: Counter = Counter()
        self.tables: set = set()
        self.verified: dict[int, object] = {}
        self.originals: dict[str, object] = {}

    def layer_of(self, span: int) -> str:
        return self.names[self.ids[span]].split(".", 1)[0] if span >= 0 else ""

    def install(self) -> None:
        import importlib

        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rklab.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self.originals[f"{layer}.{name}"] = fn
                wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname == "rklab" or modname.startswith("rklab."):
                for name, obj in list(vars(mod).items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, name, hit[1])

    def _open(self, nid: int) -> int:
        i = len(self.ids)
        self.ids.append(nid)
        self.parents.append(self.stack[-1])
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(i)
        return i

    def wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        self.calls.append(0)
        hook = HOOKS.get(qual.split(".", 1)[0])
        clock = time.perf_counter_ns
        starts, ends, stack, calls, open_ = self.starts, self.ends, self.stack, self.calls, self._open

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                return self._resume(nid, fn(*args, **kwargs), hook, args)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            i = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
                if hook:
                    hook(self, qual, i, args, None, exc)
                raise
            ends[i] = clock()
            starts[i] = t0
            stack.pop()
            if hook:
                hook(self, qual, i, args, result, None)
            return result

        return wrapper

    def _resume(self, nid, gen, hook, args):
        qual = self.names[nid]
        clock = time.perf_counter_ns
        produced = 0
        while True:
            i = self._open(nid)
            t0 = clock()
            try:
                item = next(gen)
            except StopIteration:
                self.ends[i], self.starts[i] = clock(), t0
                self.stack.pop()
                if hook:
                    hook(self, qual, i, args, produced, None)
                return
            except BaseException as exc:
                self.ends[i], self.starts[i] = clock(), t0
                self.stack.pop()
                if hook:
                    hook(self, qual, i, args, None, exc)
                raise
            self.ends[i], self.starts[i] = clock(), t0
            self.stack.pop()
            produced += 1
            yield item

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters["operators.distinct_verified"] = len(self.verified)
        header = {
            "names": self.names,
            "calls": self.calls,
            "counters": counters,
            "spans": len(self.ids),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


# -- counters recorded at layer boundaries ------------------------------------------


def _limitcount(tr: Tracer, qual: str, span: int, args, result, exc) -> None:
    name = qual.split(".", 1)[1]
    if name == "instantiate" and exc is None:
        tr.counters["limitcount.instances"] += len(result)
    if name not in ("count_classes", "normal_form"):
        return
    if name == "count_classes":
        system, alphabet, max_len = args[0], args[1], args[2]
    else:
        system, word, max_len = args[0], args[1], args[2]
        alphabet = args[3] if len(args) > 3 and args[3] is not None else max(word) + 1
    tr.counters["limitcount.words"] += sum(alphabet**l for l in range(1, max_len + 1))
    key = (system, alphabet, max_len)
    tr.counters["limitcount.repeat_calls"] += key in tr.tables
    tr.tables.add(key)
    if exc is not None:
        tr.counters["limitcount.budget_errors"] += "exceed the budget" in str(exc)
    elif name == "count_classes":
        tr.counters["limitcount.classes"] += result[0]


def _operators(tr: Tracer, qual: str, span: int, args, result, exc) -> None:
    name = qual.split(".", 1)[1]
    if exc is not None:
        return
    if name in OPERATOR_STEPS:
        tr.counters["operators.steps"] += 1
        spec = result[0] if isinstance(result, tuple) else result
        tr.counters["operators.universe_max"] = max(
            tr.counters["operators.universe_max"], len(spec.universe)
        )
    elif name == "verify_schemes":
        spec, tag = args[0], args[1]
        records = [rec for rec in spec.history if rec.op == tag]
        tr.counters["operators.records_verified"] += len(records)
        for rec in records:
            tr.verified[id(rec)] = rec


def _distribution(tr: Tracer, qual: str, span: int, args, result, exc) -> None:
    if qual == "distribution.build_blueprint" and exc is None:
        tr.counters["distribution.plan_steps"] += len(result.operator_plan)


def _outer(tr: Tracer, span: int, layer: str) -> bool:
    return tr.layer_of(tr.parents[span]) != layer


def _preorder(tr: Tracer, qual: str, span: int, args, result, exc) -> None:
    if qual == "preorder.width" and exc is not None and "capped" in str(exc):
        tr.counters["preorder.cap_errors"] += 1
    if not _outer(tr, span, "preorder"):
        return
    tr.counters["preorder.outer_calls"] += 1
    first = args[0] if args else None
    n = first if isinstance(first, int) else getattr(first, "n", 0)
    tr.counters["preorder.elements"] += n


def _domination(tr: Tracer, qual: str, span: int, args, result, exc) -> None:
    if args and _outer(tr, span, "domination"):
        tr.counters["domination.nodes"] += len(getattr(args[0], "nodes", ()))


def _typespace(tr: Tracer, qual: str, span: int, args, result, exc) -> None:
    if qual != "typespace.enumerate_formulas":
        return
    if exc is not None:
        tr.counters["typespace.budget_errors"] += "formula enumeration needs" in str(exc)
        return
    tr.counters["typespace.formula_candidates"] += 3 ** len(tr.originals["typespace.atoms"](args[0]))
    tr.counters["typespace.formulas_consistent"] += result


def _formats(tr: Tracer, qual: str, span: int, args, result, exc) -> None:
    if exc is not None or not _outer(tr, span, "formats"):
        return
    name = qual.split(".", 1)[1]
    if name.startswith("parse_") and args and isinstance(args[0], str):
        tr.counters["formats.bytes_in"] += len(args[0].encode())
    elif isinstance(result, str):
        tr.counters["formats.bytes_out"] += len(result.encode())


HOOKS = {
    "limitcount": _limitcount,
    "operators": _operators,
    "distribution": _distribution,
    "preorder": _preorder,
    "domination": _domination,
    "typespace": _typespace,
    "formats": _formats,
}


def child_main(argv: list[str]) -> int:
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    here = Path(__file__).resolve().parent
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        if kind == "cli":
            import rklab.cli

            code = rklab.cli.main(rest)
        elif kind == "script":
            path = here.parent / "scripts" / rest[0]
            sys.argv = [str(path)] + rest[1:]
            runpy.run_path(str(path), run_name="__main__")
        else:
            sys.path.insert(0, str(here))
            import libjob

            libjob.main(rest)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


# -- parent side ------------------------------------------------------------------


def load(path: Path) -> tuple[dict, list[array.array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _ in range(4):
            arr = array.array("q")
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return header, arrays


class Totals:
    """Per-layer sums over the traced jobs of one pass."""

    def __init__(self) -> None:
        self.ns: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, header: dict, arrays: list[array.array], wall_s: float) -> None:
        names = header["names"]
        ids, parents, starts, ends = arrays
        n = len(ids)
        layer = [name.split(".", 1)[0] for name in names]
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        groups = {
            "operators.apply_ms": lambda q: q in {f"operators.{s}" for s in OPERATOR_STEPS},
            "operators.verify_ms": lambda q: q == "operators.verify_schemes",
            "formats.parse_ms": lambda q: q.startswith("formats.parse_"),
            "formats.serialize_ms": lambda q: q.startswith("formats.serialize_") or q == "formats.quotient_dot",
            "limitcount.total": lambda q: q.startswith("limitcount."),
        }
        # a group's inclusive time sums its outermost spans only
        group_ids = {m: {nid for nid, q in enumerate(names) if pred(q)} for m, pred in groups.items()}
        member = [[m for m, ids_ in group_ids.items() if nid in ids_] for nid in range(len(names))]
        self_key = [f"{layer[nid]}.self_ms" for nid in range(len(names))]
        tables = names.index("limitcount.count_classes") if "limitcount.count_classes" in names else -2
        stab = names.index("limitcount.stabilization") if "limitcount.stabilization" in names else -2
        seen_tables: Counter = Counter()
        ns = self.ns
        top = 0
        for i in range(n):
            nid = ids[i]
            p = parents[i]
            d = dur[i]
            ns[self_key[nid]] += d - child[i]
            pid = ids[p] if p >= 0 else -1
            if p < 0:
                top += d
            for m in member[nid]:
                if pid not in group_ids[m]:
                    ns[m] += d
            if nid == tables and pid == stab:
                seen_tables[p] += 1
                if seen_tables[p] == 2:
                    ns["limitcount.next"] += d
        self.ns["outside.ms"] += int(wall_s * 1e9) - top
        for q, c in zip(names, header["calls"]):
            self.counts[f"calls.{q}"] += c
        c = header["counters"]
        for key, value in c.items():
            self.counts[key] += value
        self.counts["operators.universe"] += c.get("operators.universe_max", 0)
        self.counts["trace.spans"] += n

    def metrics(self) -> dict[str, float]:
        ms = {k: v / 1e6 for k, v in self.ns.items()}
        c = self.counts
        out: dict[str, float] = {}
        for name, _unit in METRICS:
            if name.endswith("_ms") or name == "outside.ms":
                out[name] = ms.get(name, 0.0)
            else:
                out[name] = float(c.get(name, 0))
        out["limitcount.next_share"] = _ratio(ms.get("limitcount.next", 0.0), ms.get("limitcount.total", 0.0))
        out["operators.verify_useful_ratio"] = _ratio(
            c["operators.distinct_verified"], c["operators.records_verified"]
        )
        out["distribution.classify_calls"] = float(c["calls.distribution.classify_triple"])
        for fn in PREORDER_FNS:
            out[f"preorder.calls.{fn}"] = float(c[f"calls.preorder.{fn}"])
        out["preorder.closure_checks"] = _ratio(c["calls.preorder.is_closed"], c["preorder.outer_calls"])
        out["typespace.consistent_ratio"] = _ratio(
            c["typespace.formulas_consistent"], c["typespace.formula_candidates"]
        )
        out["cardinal.calls"] = float(sum(v for k, v in c.items() if k.startswith("calls.cardinal.")))
        return out


def _ratio(num: float, den: float) -> float:
    """Zero when the layer did no such work in the pass."""
    return num / den if den else 0.0


def import_ms(python: str, env: dict, cwd: Path) -> float:
    """Import time of the rklab package and its CLI, from ``-X importtime``:
    the cumulative time of every outermost ``rklab`` entry."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-m", "rklab", "--help"],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    total = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        if name.lstrip().startswith("rklab") and len(name) - len(name.lstrip()) == 1:
            total += int(parts[1])
    return total / 1000.0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
