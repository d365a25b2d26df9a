"""Text formats for every value the CLI reads or writes.

All formats are line oriented UTF-8; blank lines and lines starting
with '#' are ignored.  Parsers raise ParseError carrying the file name,
line number, and the grammar production they expected, and every
serializer's output reparses to an equal value.
"""
from __future__ import annotations

import json
from typing import Iterable

from .cardinal import parse_card, render  # other layers: imported where used
from .report import BudgetError

# the most elements a preorder or distribution-spec file may declare; a
# million elements and a few pairs take about 320 MB to analyse
ELEMENT_CAP = 1_000_000


class ParseError(ValueError):
    def __init__(self, path: str, line_no: int, expected: str, got: str):
        self.path = path
        self.line_no = line_no
        self.expected = expected
        self.got = got
        super().__init__(f"{path}:{line_no}: expected {expected}, got {got!r}")


def _ints(words: Iterable[str], path: str, no: int, expected: str, got: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, words))
    except ValueError:
        raise ParseError(path, no, expected, got) from None


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
    return _preorder(_lines(text), path)


def _preorder(lines: list[tuple[int, str]], path: str) -> Preorder:
    """The preorder block of a file, from its numbered content lines."""
    from .preorder import close, from_pairs

    if not lines or not lines[0][1].startswith("elements:"):
        got = lines[0][1] if lines else "<empty file>"
        raise ParseError(path, lines[0][0] if lines else 1, "'elements: <k>'", got)
    first_no, first = lines[0]
    (n,) = _ints([first.split(":", 1)[1]], path, first_no, "integer element count", first)
    if n > ELEMENT_CAP:
        raise BudgetError(f"{n} elements exceed the element cap {ELEMENT_CAP}")
    pairs = []
    for no, line in lines[1:]:
        parts = line.split("<=")
        if len(parts) != 2:
            raise ParseError(path, no, "'<i> <= <j>'", line)
        i, j = _ints(parts, path, no, "integer pair '<i> <= <j>'", line)
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

_NODE_WORDS = "<id> [principal] [prime] [stub-of <id> bits <bits|->] [realized]"
_EDGE_WORDS = "<q> dominates <p> via <label> [principal]"


def _node_words(n: TypeNode) -> str:
    """A node line's words after its keyword, in ``_NODE_WORDS`` order."""
    words = [n.name] + [flag for flag in ("principal", "prime") if getattr(n, flag)]
    if n.stub_of is not None:
        words += ["stub-of", n.stub_of, "bits", n.stub_bits or "-"]
    return " ".join(words + ["realized"] * n.realized)


def _edge_words(e: DomEdge) -> str:
    return f"{e.src} dominates {e.dst} via {e.label}" + (" principal" if e.principal else "")


def _read_node(nodes: dict, keyword: str, words: list[str], path: str, no: int, line: str) -> None:
    """Add to ``nodes`` the node a line declares in its words after ``keyword``."""
    from .domination import TypeNode

    rest = words[1:]
    flags = []
    for flag in ("principal", "prime"):
        flags.append(rest[:1] == [flag])
        rest = rest[flags[-1]:]
    stub_of, bits = None, ""
    if rest[:1] == ["stub-of"] and rest[2:3] == ["bits"] and len(rest) >= 4:
        stub_of, bits, rest = rest[1], rest[3], rest[4:]
    if not words or rest not in ([], ["realized"]) or not (bits == "-" or set(bits) <= {"0", "1"}):
        raise ParseError(path, no, f"'{keyword} {_NODE_WORDS}'", line)
    if words[0] in nodes:
        raise ParseError(path, no, "one line per node", line)
    try:
        nodes[words[0]] = TypeNode(words[0], *flags, stub_of, bits.strip("-"), bool(rest))
    except ValueError as exc:
        raise ParseError(path, no, "a well-formed node", str(exc)) from None


def _read_edge(prefix: str, words: list[str], path: str, no: int, line: str) -> DomEdge:
    """The edge a line certifies in its words after ``prefix``."""
    from .domination import DomEdge

    if len(words) not in (5, 6) or words[1:4:2] != ["dominates", "via"] or words[5:] not in ([], ["principal"]):
        raise ParseError(path, no, f"'{prefix}{_EDGE_WORDS}'", line)
    return DomEdge(words[0], words[2], words[4], len(words) == 6)


def _declared(nodes: dict, edges: list[tuple[int, str, DomEdge]], path: str) -> tuple[DomEdge, ...]:
    """The edges of ``(line number, line, edge)`` entries, if ``nodes`` holds their ends."""
    for no, line, e in edges:
        if e.src not in nodes or e.dst not in nodes:
            raise ParseError(path, no, "an edge between declared nodes", line)
    return tuple(e for _, _, e in edges)


def parse_domination(text: str, path: str = "<graph>") -> DominationGraph:
    """Grammar: ``type <_NODE_WORDS>`` node lines and ``<_EDGE_WORDS>`` edge
    lines; each node is declared once, before or after its edges."""
    from .domination import DominationGraph

    nodes: dict[str, TypeNode] = {}
    edges: list[tuple[int, str, DomEdge]] = []
    for no, line in _lines(text):
        words = line.split()
        if words[0] == "type":
            _read_node(nodes, "type", words[1:], path, no, line)
        elif words[1:2] == ["dominates"]:
            edges.append((no, line, _read_edge("", words, path, no, line)))
        else:
            raise ParseError(path, no, "a 'type' or 'dominates' line", line)
    return DominationGraph(tuple(nodes.values()), _declared(nodes, edges, path))


def serialize_domination(g: DominationGraph) -> str:
    lines = [f"type {_node_words(n)}" for n in g.nodes]
    lines.extend(_edge_words(e) for e in g.edges)
    return "\n".join(lines) + "\n"


# -- type-space files ---------------------------------------------------------

def _header(
    lines: list[tuple[int, str]], path: str, keys: tuple[str, ...], expected: str
) -> dict[str, tuple[int, str]]:
    """The ``<key>: <value>`` lines of a header, each key among ``keys`` and
    given once; maps each key to its line number and value."""
    fields: dict[str, tuple[int, str]] = {}
    for no, line in lines:
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError(path, no, expected, line)
        if key not in keys:
            raise ParseError(path, no, "a key among " + ", ".join(keys), line)
        if key in fields:
            raise ParseError(path, no, f"one '{key}:' line", line)
        fields[key] = (no, value.strip())
    return fields


def _typespace(fields: dict[str, tuple[int, str]], path: str, text: str) -> TypeSpace:
    """The type space a header's ``family:``, ``depth:`` and ``m:`` fields
    give; a refusal of the combination cites the ``family:`` line, since
    the family decides which depths and part counts are valid."""
    from .typespace import TypeSpace

    if "family" not in fields or "depth" not in fields:
        raise ParseError(path, 1, "'family:' and 'depth:' entries", text[:40])
    numbers = {}
    for key in ("depth", "m"):
        if key in fields:
            no, value = fields[key]
            (numbers[key],) = _ints([value], path, no, f"integer {key}", value)
    no, family = fields["family"]
    try:
        return TypeSpace(family, numbers["depth"], numbers.get("m"))
    except ValueError as exc:
        raise ParseError(path, no, "a valid type space", str(exc)) from None


def parse_typespace(text: str, path: str = "<typespace>") -> TypeSpace:
    """Grammar: ``family:``, ``m:`` (colored only) and ``depth:`` lines, each once."""
    fields = _header(_lines(text), path, ("family", "m", "depth"), "'<key>: <value>'")
    return _typespace(fields, path, text)


def serialize_typespace(ts: TypeSpace) -> str:
    lines = [f"family: {ts.family}"]
    if ts.parts is not None:
        lines.append(f"m: {ts.parts}")
    lines.append(f"depth: {ts.depth}")
    return "\n".join(lines) + "\n"


# -- model spec files ---------------------------------------------------------

def parse_modelspec(text: str, path: str = "<modelspec>"):
    from .models import ModelSpec, check_edit
    from .typespace import parse_cell

    lines = _lines(text)
    body = next((i for i, (_, line) in enumerate(lines) if line.startswith(("+", "-"))), len(lines))
    header = _header(
        lines[:body], path, ("family", "m", "depth", "base"),
        "header '<key>: <value>' or an edit line",
    )
    if "base" not in header:
        raise ParseError(path, 1, "'base: all|none'", text[:40])
    ts = _typespace(header, path, text)
    base_no, base = header["base"]
    if base not in ("all", "none"):
        raise ParseError(path, base_no, "'base: all|none'", base)
    deltas: dict = {}
    last_no: dict = {}  # each cell's last edit line
    for no, line in lines[body:]:
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
        last_no[cell] = no
    # a refused edit cites its cell's last edit line, a refused support the base line
    try:
        for cell, delta in deltas.items():
            no = last_no[cell]
            check_edit(base == "all", delta)
        no = base_no
        return ModelSpec(ts, base == "all", tuple(deltas.items()))
    except ValueError as exc:
        raise ParseError(path, no, "a consistent model spec", str(exc)) from None


def serialize_modelspec(spec) -> str:
    from .typespace import render_cell

    lines = [serialize_typespace(spec.space).rstrip()]
    lines.append(f"base: {'all' if spec.base_all else 'none'}")
    for cell, delta in spec.edits:
        sign = "+" if delta > 0 else "-"
        lines.append(f"{sign} {render_cell(cell)} {abs(delta)}")
    return "\n".join(lines) + "\n"


# -- distribution spec files --------------------------------------------------

def parse_distribution(text: str, path: str = "<dspec>") -> DistributionSpec:
    """Preorder block, then one ``mode:`` line, ``f:`` value lines, and
    optional ``partition:`` lines; each key of f and each partitioned
    element appears once."""
    from .distribution import SeqKey, finite_spec, sequence_spec

    lines = _lines(text)
    pre_lines = []
    rest = []
    mode = None
    for no, line in lines:
        if line.startswith("mode:"):
            if mode is not None:
                raise ParseError(path, no, "one 'mode:' line", line)
            mode = line.split(":", 1)[1].strip()
            continue
        if line.startswith(("f:", "partition:")):
            rest.append((no, line))
        else:
            pre_lines.append((no, line))
    order = _preorder(pre_lines, path)
    if mode not in ("finite", "countable-truncated"):
        raise ParseError(path, 1, "'mode: finite|countable-truncated'", str(mode))
    values: dict = {}
    partition: dict[int, str] = {}
    for no, line in rest:
        if line.startswith("partition:"):
            words = line.split(":", 1)[1].split()
            if len(words) != 2 or words[1] not in ("P", "NPL"):
                raise ParseError(path, no, "'partition: <elem> P|NPL'", line)
            (elem,) = _ints(words[:1], path, no, "an integer partition element", words[0])
            if elem in partition:
                raise ParseError(path, no, "one 'partition:' line per element", line)
            partition[elem] = words[1]
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
        # class keys belong to finite mode, chain keys to countable-truncated mode
        if mode == "finite":
            expected = "'{i,j,...}' class key"
            if not (key_s.startswith("{") and key_s.endswith("}")):
                raise ParseError(path, no, expected, key_s)
            key = frozenset(_ints(filter(str.strip, key_s[1:-1].split(",")), path, no, expected, key_s))
        else:
            chain = key_s.removesuffix("<...")
            entries = _ints(chain.split("<"), path, no, "'i<j<k' sequence key", chain)
            key = SeqKey(entries, chain != key_s)
        if key in values:
            raise ParseError(path, no, "one 'f:' line per key", line)
        values[key] = value
    try:
        if mode == "finite":
            return finite_spec(order, values, partition or None)
        return sequence_spec(order, values, partition or None)
    except ValueError as exc:
        raise ParseError(path, 1, "a well-formed distribution spec", str(exc)) from None


def serialize_distribution(spec: DistributionSpec) -> str:
    from .distribution import key_label

    lines = [serialize_preorder(spec.order).rstrip(), f"mode: {spec.mode}"]
    lines.extend(f"f: {key_label(key)} = {render(value)}" for key, value in spec.values)
    if spec.partition is not None:
        lines.extend(f"partition: {elem} {label}" for elem, label in spec.partition)
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
    lines.extend(f"node {_node_words(spec.registry.nodes[name])}" for name in sorted(spec.registry.nodes))
    lines.extend(f"edge {_edge_words(e)}" for e in spec.registry.edges)
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
    """Grammar: one ``universe:`` line; ``unary``, ``color``, ``rel2``,
    ``rel3`` and ``target`` lines, one per name; ``note`` and ``applied``
    lines; and the registry as domination-graph lines behind the keywords
    ``node`` and ``edge``."""
    from .operators import OpRecord, Registry, StructSpec

    universe: tuple[str, ...] | None = None
    tables: dict[str, dict] = {"unary": {}, "color": {}, "rel2": {}, "rel3": {}, "target": {}}
    nodes: dict[str, TypeNode] = {}
    edges: list[tuple[int, str, DomEdge]] = []
    notes: list[str] = []
    history: list[OpRecord] = []
    mentions: list[tuple[int, str, str]] = []  # (line, element, what names it)

    def relation(keyword: str, line: str, no: int, arity: int) -> tuple[str, tuple]:
        """The name and entries of a ``unary``, ``rel2`` or ``rel3`` line."""
        head, sep, body = line.partition(":")
        words = head.split()
        if not sep or len(words) != 2:
            raise ParseError(path, no, f"'{keyword} <name>: ...'", line)
        if arity == 1:
            return words[1], tuple(body.split())
        out = []
        for chunk in body.split():
            out.append(tuple(chunk[1:-1].split(",")))
            if chunk[:1] + chunk[-1:] != "()" or len(out[-1]) != arity:
                raise ParseError(path, no, f"parenthesised {arity}-tuples", chunk)
        return words[1], tuple(out)

    for no, line in _lines(text):
        words = line.split()
        keyword = words[0]
        if line.startswith("universe:"):
            if universe is not None:
                raise ParseError(path, no, "one 'universe:' line", line)
            universe = tuple(line.split(":", 1)[1].split())
            if len(set(universe)) != len(universe):
                raise ParseError(path, no, "a consistent structure spec", "duplicate universe elements")
            continue
        if keyword == "node":
            _read_node(nodes, "node", words[1:], path, no, line)
            continue
        if keyword == "edge":
            edges.append((no, line, _read_edge("edge ", words[1:], path, no, line)))
            continue
        if keyword == "note":
            notes.append(line[len("note "):])
            continue
        if keyword == "applied":
            try:
                payload = json.loads(line[len("applied "):])
                op, params = payload["op"], dict(payload["params"])
            except (ValueError, LookupError, TypeError) as exc:
                raise ParseError(path, no, "an 'applied' JSON payload", str(exc)) from None
            history.append(OpRecord(op, {k: _params_from_json(v) for k, v in params.items()}))
            continue
        # the lines that each give one entry of a table
        if keyword in ("unary", "rel2", "rel3"):
            key, value = relation(keyword, line, no, {"unary": 1, "rel2": 2, "rel3": 3}[keyword])
        elif keyword == "color":
            if len(words) != 4 or words[2] != "=" or not (words[3] == "inf" or words[3].isdecimal()):
                raise ParseError(path, no, "'color <el> = <n|inf>'", line)
            key, value = words[1], None if words[3] == "inf" else int(words[3])
        elif keyword == "target":
            key, sep, value = line[len("target"):].rpartition("=")
            try:
                key, value = key.strip(), parse_card(value if sep else "")
            except ValueError:
                raise ParseError(path, no, "'target <key> = <cardinal>'", line) from None
        else:
            raise ParseError(path, no, "a structure spec line", line)
        if key in tables[keyword]:
            raise ParseError(path, no, f"one '{keyword}' line per name", line)
        if keyword == "unary":
            mentions.extend((no, el, f"{key} contains") for el in value)
        elif keyword == "color":
            mentions.append((no, key, "coloring mentions"))
        tables[keyword][key] = value
    known = set(universe or ())
    for no, el, what in mentions:
        if el not in known:
            raise ParseError(path, no, "a consistent structure spec", f"{what} unknown element {el!r}")
    registry = Registry(nodes, _declared(nodes, edges, path), tables["target"], tuple(notes))
    return StructSpec(
        universe or (), tables["unary"], tables["color"], tables["rel2"], tables["rel3"],
        registry, tuple(history),
    )


# -- pipeline files -----------------------------------------------------------

def parse_pipeline(text: str, path: str = "<pipeline>") -> list[PipelineStep]:
    """Grammar: one operator invocation per line, ``<op> key=value ...``."""
    from .operators import PipelineStep

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
