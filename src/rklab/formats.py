"""Text formats for every value the CLI reads or writes.

All formats are line oriented UTF-8; blank lines and lines starting
with '#' are ignored.  Parsers raise ParseError carrying the file name,
line number, and the grammar production they expected, and every
serializer's output reparses to an equal value.
"""
from __future__ import annotations

import json
from typing import Iterable

from .cardinal import Card, parse_card, render
from .distribution import DistributionSpec, SeqKey, finite_spec, sequence_spec
from .domination import DomEdge, DominationGraph, TypeNode
from .operators import OpRecord, PipelineStep, RegEdge, RegNode, Registry, StructSpec
from .preorder import Preorder, QuotientPoset, close, from_pairs
from .typespace import TypeSpace, parse_cell, render_cell


class ParseError(ValueError):
    def __init__(self, path: str, line_no: int, expected: str, got: str):
        self.path = path
        self.line_no = line_no
        self.expected = expected
        self.got = got
        super().__init__(f"{path}:{line_no}: expected {expected}, got {got!r}")


def _lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


# -- preorder files -----------------------------------------------------------

def parse_preorder(text: str, path: str = "<preorder>") -> Preorder:
    """Grammar: ``elements: k`` then ``i <= j`` pair lines.

    The file lists generators; the parsed preorder is the closure.
    """
    lines = _lines(text)
    if not lines or not lines[0][1].startswith("elements:"):
        got = lines[0][1] if lines else "<empty file>"
        raise ParseError(path, lines[0][0] if lines else 1, "'elements: <k>'", got)
    first_no, first = lines[0]
    try:
        n = int(first.split(":", 1)[1].strip())
    except ValueError:
        raise ParseError(path, first_no, "integer element count", first) from None
    pairs = []
    for no, line in lines[1:]:
        parts = line.split("<=")
        if len(parts) != 2:
            raise ParseError(path, no, "'<i> <= <j>'", line)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, no, "integer pair '<i> <= <j>'", line) from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(path, no, f"indices below {n}", line)
        pairs.append((i, j))
    return close(from_pairs(n, pairs))


def serialize_preorder(p: Preorder) -> str:
    lines = [f"elements: {p.n}"]
    lines.extend(f"{i} <= {j}" for i, j in p.pairs() if i != j)
    return "\n".join(lines) + "\n"


def quotient_dot(q: QuotientPoset, labels: list[str] | None = None) -> str:
    """DOT rendering of a quotient poset's covering diagram."""

    def label(ci: int) -> str:
        members = q.classes[ci]
        if labels is None:
            return "{" + ",".join(str(m) for m in members) + "}"
        return "{" + ",".join(labels[m] for m in members) + "}"

    out = ["digraph quotient {", "  rankdir=BT;"]
    for ci in range(q.size):
        out.append(f'  c{ci} [label="{label(ci)}"];')
    for a, b in q.covers():
        out.append(f"  c{a} -> c{b};")
    out.append("}")
    return "\n".join(out) + "\n"


# -- domination graph files ---------------------------------------------------

def parse_domination(text: str, path: str = "<graph>") -> DominationGraph:
    """Grammar: ``type <id> [principal] [prime]`` node lines and
    ``<q> dominates <p> via <label> [principal]`` edge lines."""
    nodes: list[TypeNode] = []
    edges: list[DomEdge] = []
    for no, line in _lines(text):
        words = line.split()
        if words[0] == "type":
            if len(words) < 2:
                raise ParseError(path, no, "'type <id> [principal] [prime]'", line)
            flags = set(words[2:])
            if not flags <= {"principal", "prime"}:
                raise ParseError(path, no, "flags among {principal, prime}", line)
            nodes.append(
                TypeNode(words[1], principal="principal" in flags, prime="prime" in flags)
            )
        elif len(words) >= 5 and words[1] == "dominates" and words[3] == "via":
            principal = False
            if len(words) == 6 and words[5] == "principal":
                principal = True
            elif len(words) != 5:
                raise ParseError(
                    path, no, "'<q> dominates <p> via <label> [principal]'", line
                )
            edges.append(DomEdge(words[0], words[2], words[4], principal))
        else:
            raise ParseError(path, no, "a 'type' or 'dominates' line", line)
    try:
        return DominationGraph(tuple(nodes), tuple(edges))
    except ValueError as exc:
        raise ParseError(path, len(_lines(text)), "a well-formed graph", str(exc)) from None


def serialize_domination(g: DominationGraph) -> str:
    lines = []
    for n in g.nodes:
        line = f"type {n.name}"
        if n.principal:
            line += " principal"
        if n.prime:
            line += " prime"
        lines.append(line)
    for e in g.edges:
        line = f"{e.src} dominates {e.dst} via {e.label}"
        if e.principal:
            line += " principal"
        lines.append(line)
    return "\n".join(lines) + "\n"


# -- type-space files ---------------------------------------------------------

def parse_typespace(text: str, path: str = "<typespace>") -> TypeSpace:
    fields: dict[str, str] = {}
    for no, line in _lines(text):
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(path, no, "'<key>: <value>'", line)
        fields[key.strip()] = value.strip()
    if "family" not in fields or "depth" not in fields:
        raise ParseError(path, 1, "'family:' and 'depth:' entries", text[:40])
    family = fields["family"]
    try:
        depth = int(fields["depth"])
        parts = int(fields["m"]) if "m" in fields else None
    except ValueError as exc:
        raise ParseError(path, 1, "integer depth/m", str(exc)) from None
    try:
        return TypeSpace(family, depth, parts)
    except ValueError as exc:
        raise ParseError(path, 1, "a valid type space", str(exc)) from None


def serialize_typespace(ts: TypeSpace) -> str:
    lines = [f"family: {ts.family}"]
    if ts.parts is not None:
        lines.append(f"m: {ts.parts}")
    lines.append(f"depth: {ts.depth}")
    return "\n".join(lines) + "\n"


# -- model spec files ---------------------------------------------------------

def parse_modelspec(text: str, path: str = "<modelspec>"):
    from .models import ModelSpec

    lines = _lines(text)
    header: dict[str, str] = {}
    edits: list[tuple[str, int]] = []
    body_start = None
    for idx, (no, line) in enumerate(lines):
        if line.startswith(("+", "-")):
            body_start = idx
            break
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(path, no, "header '<key>: <value>' or an edit line", line)
        header[key.strip()] = value.strip()
    if "base" not in header:
        raise ParseError(path, 1, "'base: all|none'", text[:40])
    ts = parse_typespace(
        "\n".join(f"{k}: {v}" for k, v in header.items() if k in ("family", "depth", "m")),
        path,
    )
    if header["base"] not in ("all", "none"):
        raise ParseError(path, 1, "'base: all|none'", header["base"])
    base_all = header["base"] == "all"
    deltas: dict = {}
    for no, line in lines[body_start:] if body_start is not None else []:
        words = line.split()
        if words[0] not in ("+", "-") or len(words) not in (2, 3):
            raise ParseError(path, no, "'+ <cell> [count]' or '- <cell> [count]'", line)
        try:
            cell = parse_cell(ts, words[1])
            count = int(words[2]) if len(words) == 3 else 1
        except ValueError as exc:
            raise ParseError(path, no, "a valid cell address", str(exc)) from None
        sign = 1 if words[0] == "+" else -1
        deltas[cell] = deltas.get(cell, 0) + sign * count
    edits_t = tuple(
        sorted(((c, d) for c, d in deltas.items() if d != 0), key=lambda cd: render_cell(cd[0]))
    )
    try:
        return ModelSpec(ts, base_all, edits_t)
    except ValueError as exc:
        raise ParseError(path, 1, "a consistent model spec", str(exc)) from None


def serialize_modelspec(spec) -> str:
    lines = [serialize_typespace(spec.space).rstrip()]
    lines.append(f"base: {'all' if spec.base_all else 'none'}")
    for cell, delta in spec.edits:
        sign = "+" if delta > 0 else "-"
        lines.append(f"{sign} {render_cell(cell)} {abs(delta)}")
    return "\n".join(lines) + "\n"


# -- distribution spec files --------------------------------------------------

def parse_distribution(text: str, path: str = "<dspec>") -> DistributionSpec:
    """Preorder block, then ``mode:``, ``f:`` value lines, and optional
    ``partition:`` lines."""
    lines = _lines(text)
    pre_lines = []
    rest = []
    mode = None
    for no, line in lines:
        if line.startswith("mode:"):
            mode = line.split(":", 1)[1].strip()
            continue
        if line.startswith(("f:", "partition:")):
            rest.append((no, line))
        else:
            pre_lines.append((no, line))
    order = parse_preorder("\n".join(l for _, l in pre_lines), path)
    if mode not in ("finite", "countable-truncated"):
        raise ParseError(path, 1, "'mode: finite|countable-truncated'", str(mode))
    class_values: dict = {}
    seq_values: dict = {}
    partition: dict[int, str] = {}
    for no, line in rest:
        if line.startswith("partition:"):
            words = line.split(":", 1)[1].split()
            if len(words) != 2 or words[1] not in ("P", "NPL"):
                raise ParseError(path, no, "'partition: <elem> P|NPL'", line)
            partition[int(words[0])] = words[1]
            continue
        body = line.split(":", 1)[1].strip()
        key_s, sep, value_s = body.partition("=")
        if not sep:
            raise ParseError(path, no, "'f: <key> = <cardinal>'", line)
        key_s = key_s.strip()
        try:
            value = parse_card(value_s)
        except ValueError:
            raise ParseError(path, no, "a cardinal token", value_s.strip()) from None
        if key_s.startswith("{"):
            if not key_s.endswith("}"):
                raise ParseError(path, no, "'{i,j,...}' class key", key_s)
            members = frozenset(int(x) for x in key_s[1:-1].split(",") if x.strip())
            class_values[members] = value
        else:
            extendable = key_s.endswith("<...")
            if extendable:
                key_s = key_s[: -len("<...")]
            try:
                entries = tuple(int(x) for x in key_s.split("<"))
            except ValueError:
                raise ParseError(path, no, "'i<j<k' sequence key", key_s) from None
            seq_values[SeqKey(entries, extendable)] = value
    try:
        if mode == "finite":
            return finite_spec(order, class_values, partition or None)
        return sequence_spec(order, seq_values, partition or None)
    except ValueError as exc:
        raise ParseError(path, 1, "a well-formed distribution spec", str(exc)) from None


def serialize_distribution(spec: DistributionSpec) -> str:
    lines = [serialize_preorder(spec.order).rstrip(), f"mode: {spec.mode}"]
    if spec.mode == "finite":
        for key, value in spec.class_values or ():
            body = "{" + ",".join(str(x) for x in sorted(key)) + "}"
            lines.append(f"f: {body} = {render(value)}")
    else:
        for key, value in spec.seq_values or ():
            lines.append(f"f: {key.render()} = {render(value)}")
    if spec.partition is not None:
        for elem, label in spec.partition:
            lines.append(f"partition: {elem} {label}")
    return "\n".join(lines) + "\n"


# -- structure spec files -----------------------------------------------------

def _params_to_json(value):
    if isinstance(value, tuple):
        return [_params_to_json(v) for v in value]
    return value


def _params_from_json(value):
    if isinstance(value, list):
        return tuple(_params_from_json(v) for v in value)
    return value


def serialize_struct(spec: StructSpec) -> str:
    lines = ["universe: " + " ".join(spec.universe)]
    for pred in sorted(spec.unary):
        lines.append(f"unary {pred}: " + " ".join(spec.unary[pred]))
    for el in spec.universe:
        if el in spec.coloring:
            c = spec.coloring[el]
            lines.append(f"color {el} = {'inf' if c is None else c}")
    for name in sorted(spec.binary):
        pairs = " ".join(f"({a},{b})" for a, b in spec.binary[name])
        lines.append(f"rel2 {name}: {pairs}")
    for name in sorted(spec.ternary):
        triples = " ".join(f"({a},{b},{c})" for a, b, c in spec.ternary[name])
        lines.append(f"rel3 {name}: {triples}")
    for name in sorted(spec.registry.nodes):
        n = spec.registry.nodes[name]
        line = f"node {n.name}"
        if n.principal:
            line += " principal"
        if n.prime:
            line += " prime"
        if n.stub_of is not None:
            line += f" stub-of {n.stub_of} bits {n.stub_bits or '-'}"
        if n.realized:
            line += " realized"
        lines.append(line)
    for e in spec.registry.edges:
        line = f"edge {e.src} dominates {e.dst} via {e.label}"
        if e.principal:
            line += " principal"
        lines.append(line)
    for key in sorted(spec.registry.limit_targets):
        lines.append(f"target {key} = {render(spec.registry.limit_targets[key])}")
    for note in spec.registry.notes:
        lines.append(f"note {note}")
    for rec in spec.history:
        payload = json.dumps(
            {"op": rec.op, "params": {k: _params_to_json(v) for k, v in rec.params.items()}},
            sort_keys=True,
        )
        lines.append(f"applied {payload}")
    return "\n".join(lines) + "\n"


def parse_struct(text: str, path: str = "<struct>") -> StructSpec:
    universe: tuple[str, ...] = ()
    unary: dict[str, tuple[str, ...]] = {}
    coloring: dict[str, int | None] = {}
    binary: dict[str, tuple[tuple[str, str], ...]] = {}
    ternary: dict[str, tuple[tuple[str, str, str], ...]] = {}
    nodes: dict[str, RegNode] = {}
    edges: list[RegEdge] = []
    targets: dict[str, Card] = {}
    notes: list[str] = []
    history: list[OpRecord] = []

    def tuples_of(body: str, no: int, arity: int):
        out = []
        for chunk in body.split():
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ParseError(path, no, "parenthesised tuples", chunk)
            items = tuple(chunk[1:-1].split(","))
            if len(items) != arity:
                raise ParseError(path, no, f"{arity}-tuples", chunk)
            out.append(items)
        return tuple(out)

    for no, line in _lines(text):
        if line.startswith("universe:"):
            universe = tuple(line.split(":", 1)[1].split())
        elif line.startswith("unary "):
            head, _, body = line.partition(":")
            unary[head.split()[1]] = tuple(body.split())
        elif line.startswith("color "):
            words = line.split()
            if len(words) != 4 or words[2] != "=":
                raise ParseError(path, no, "'color <el> = <n|inf>'", line)
            coloring[words[1]] = None if words[3] == "inf" else int(words[3])
        elif line.startswith("rel2 "):
            head, _, body = line.partition(":")
            binary[head.split()[1]] = tuples_of(body, no, 2)  # type: ignore[assignment]
        elif line.startswith("rel3 "):
            head, _, body = line.partition(":")
            ternary[head.split()[1]] = tuples_of(body, no, 3)  # type: ignore[assignment]
        elif line.startswith("node "):
            words = line.split()
            name = words[1]
            rest = words[2:]
            principal = "principal" in rest
            prime = "prime" in rest
            realized = "realized" in rest
            stub_of = None
            stub_bits = ""
            if "stub-of" in rest:
                i = rest.index("stub-of")
                stub_of = rest[i + 1]
                if i + 3 <= len(rest) and rest[i + 2] == "bits":
                    stub_bits = "" if rest[i + 3] == "-" else rest[i + 3]
            nodes[name] = RegNode(name, principal, prime, stub_of, stub_bits, realized)
        elif line.startswith("edge "):
            words = line.split()
            if len(words) < 6 or words[2] != "dominates" or words[4] != "via":
                raise ParseError(path, no, "'edge <q> dominates <p> via <label>'", line)
            edges.append(RegEdge(words[1], words[3], words[5], words[-1] == "principal"))
        elif line.startswith("target "):
            body = line[len("target "):]
            key, sep, value = body.rpartition("=")
            if not sep:
                raise ParseError(path, no, "'target <key> = <cardinal>'", line)
            targets[key.strip()] = parse_card(value)
        elif line.startswith("note "):
            notes.append(line[len("note "):])
        elif line.startswith("applied "):
            try:
                payload = json.loads(line[len("applied "):])
                history.append(
                    OpRecord(
                        payload["op"],
                        {k: _params_from_json(v) for k, v in payload["params"].items()},
                    )
                )
            except (json.JSONDecodeError, KeyError) as exc:
                raise ParseError(path, no, "an 'applied' JSON payload", str(exc)) from None
        else:
            raise ParseError(path, no, "a structure spec line", line)
    registry = Registry(nodes, tuple(edges), targets, tuple(notes))
    try:
        return StructSpec(universe, unary, coloring, binary, ternary, registry, tuple(history))
    except ValueError as exc:
        raise ParseError(path, 1, "a consistent structure spec", str(exc)) from None


# -- pipeline files -----------------------------------------------------------

def parse_pipeline(text: str, path: str = "<pipeline>") -> list[PipelineStep]:
    """Grammar: one operator invocation per line, ``<op> key=value ...``."""
    steps = []
    known = {"base", "qedge", "icp", "css", "bd", "bu", "lmt", "lms", "note"}
    for no, line in _lines(text):
        words = line.split()
        if words[0] not in known:
            raise ParseError(path, no, f"an operator among {sorted(known)}", words[0])
        args: dict[str, str] = {}
        for chunk in words[1:]:
            key, sep, value = chunk.partition("=")
            if not sep:
                raise ParseError(path, no, "'key=value' arguments", chunk)
            args[key] = value
        steps.append(PipelineStep(words[0], args))
    return steps


def serialize_pipeline(steps: Iterable[PipelineStep]) -> str:
    lines = []
    for step in steps:
        parts = [step.op]
        parts.extend(f"{k}={v}" for k, v in sorted(step.args.items()))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
