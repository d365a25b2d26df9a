"""Text formats for every value the CLI reads or writes.

All formats are line oriented UTF-8; blank lines and lines starting
with '#' are ignored.  ``cardinal.natural`` reads every number in them,
the whitespace around it aside.  Parsers raise ParseError carrying the
file name, line number, and the grammar production they expected; a
number past the digit bound is a ``BudgetError``.  Structure files are
written and never read; every other serializer's output reparses to an
equal value.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable

from .cardinal import natural, parse_card, render  # other layers: imported where used
from .report import Budget, BudgetError

# the most elements a preorder or distribution-spec file may declare; a
# million elements and five pairs peak at about 200 MB to analyse
ELEMENT_CAP = Budget("element cap", 1_000_000, "elements")


class ParseError(ValueError):
    def __init__(self, path: str, line_no: int, expected: str, got: str):
        self.path = path
        self.line_no = line_no
        self.expected = expected
        self.got = got
        super().__init__(f"{path}:{line_no}: expected {expected}, got {got!r}")


def _read(path: str, no: int, expected: str, got: str | None, read: Callable, *args):
    """``read(*args)``, a refusal of which is a ParseError citing line ``no``,
    with the refusal's own text for ``got`` if that is None; a BudgetError passes."""
    try:
        return read(*args)
    except BudgetError:
        raise
    except (KeyError, ValueError) as exc:
        raise ParseError(path, no, expected, str(exc) if got is None else got) from None


def _ints(words: Iterable[str], path: str, no: int, expected: str, got: str,
          below: int | None = None) -> tuple[int, ...]:
    """The natural numbers ``words`` spell on line ``no``, each below ``below`` if given."""
    numbers = _read(path, no, expected, got, tuple, map(natural, map(str.strip, words)))
    if below is not None and max(numbers, default=-1) >= below:
        raise ParseError(path, no, f"indices below {below}", got)
    return numbers


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
    from .preorder import from_pairs

    if not lines or not lines[0][1].startswith("elements:"):
        got = lines[0][1] if lines else "<empty file>"
        raise ParseError(path, lines[0][0] if lines else 1, "'elements: <k>'", got)
    first_no, first = lines[0]
    (n,) = _ints([first.split(":", 1)[1]], path, first_no, "integer element count", first)
    ELEMENT_CAP.check(n)

    def pairs():  # read as from_pairs takes them, so no list of them is kept
        for no, line in lines[1:]:
            parts = line.split("<=")
            if len(parts) != 2:
                raise ParseError(path, no, "'<i> <= <j>'", line)
            yield _ints(parts, path, no, "integer pair '<i> <= <j>'", line, n)

    return from_pairs(n, pairs())


def serialize_preorder(p: Preorder) -> str:
    lines = [f"elements: {p.n}"]
    lines.extend(f"{i} <= {j}" for i, j in p.pairs() if i != j)
    return "\n".join(lines) + "\n"


def quotient_dot(q: Preorder, labels: list[str] | None = None) -> str:
    """DOT rendering of the covering diagram of a preorder's classes."""

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


def _read_node(nodes: dict, words: list[str], path: str, no: int, line: str) -> None:
    """Add to ``nodes`` the node a ``type`` line declares in its later words."""
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
        raise ParseError(path, no, f"'type {_NODE_WORDS}'", line)
    if words[0] in nodes:
        raise ParseError(path, no, "one line per node", line)
    try:
        nodes[words[0]] = TypeNode(words[0], *flags, stub_of, bits.strip("-"), bool(rest))
    except ValueError as exc:
        raise ParseError(path, no, "a well-formed node", str(exc)) from None


def parse_domination(text: str, path: str = "<graph>") -> DominationGraph:
    """Grammar: ``type <_NODE_WORDS>`` node lines and ``<_EDGE_WORDS>`` edge
    lines; each node is declared once, before or after its edges, and each
    edge appears once."""
    from .domination import DomEdge, DominationGraph

    nodes: dict[str, TypeNode] = {}
    edges: list[tuple[int, str, DomEdge]] = []
    for no, line in _lines(text):
        words = line.split()
        if words[0] == "type":
            _read_node(nodes, words[1:], path, no, line)
        elif words[1:2] == ["dominates"]:
            if len(words) not in (5, 6) or words[3] != "via" or words[5:] not in ([], ["principal"]):
                raise ParseError(path, no, f"'{_EDGE_WORDS}'", line)
            edges.append((no, line, DomEdge(words[0], words[2], words[4], len(words) == 6)))
        else:
            raise ParseError(path, no, "a 'type' or 'dominates' line", line)
    seen: set[DomEdge] = set()
    for no, line, e in edges:
        if e in seen:
            raise ParseError(path, no, "one line per edge", line)
        seen.add(e)
        if e.src not in nodes or e.dst not in nodes:
            raise ParseError(path, no, "an edge between declared nodes", line)
    return DominationGraph(tuple(nodes.values()), tuple(e for _, _, e in edges))


# -- type-space files ---------------------------------------------------------

def parse_typespace(text: str, path: str = "<typespace>") -> TypeSpace:
    """Grammar: ``family:``, ``m:`` (colored only) and ``depth:`` lines, each
    once.  A refusal of the combination cites the ``family:`` line, since the
    family decides the valid depths and part counts; a ``BudgetError`` passes."""
    from .typespace import TypeSpace

    keys = ("family", "m", "depth")
    fields: dict[str, tuple[int, str]] = {}
    for no, line in _lines(text):
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError(path, no, "'<key>: <value>'", line)
        if key not in keys:
            raise ParseError(path, no, "a key among " + ", ".join(keys), line)
        if key in fields:
            raise ParseError(path, no, f"one '{key}:' line", line)
        fields[key] = (no, value.strip())
    if "family" not in fields or "depth" not in fields:
        raise ParseError(path, 1, "'family:' and 'depth:' entries", text[:40])
    numbers = {}
    for key in ("depth", "m"):
        if key in fields:
            no, value = fields[key]
            (numbers[key],) = _ints([value], path, no, f"integer {key}", value)
    no, family = fields["family"]
    return _read(path, no, "a valid type space", None, TypeSpace, family, numbers["depth"], numbers.get("m"))


# -- distribution spec files --------------------------------------------------

def parse_distribution(text: str, path: str = "<dspec>") -> DistributionSpec:
    """Preorder block, then one ``mode:`` line, ``f:`` value lines, and
    optional ``partition:`` lines; each key of f and each partitioned
    element appears once."""
    from .distribution import SeqKey, finite_spec, sequence_spec

    lines = _lines(text)
    pre_lines = []
    rest = []
    mode = mode_no = None
    for no, line in lines:
        if line.startswith("mode:"):
            if mode is not None:
                raise ParseError(path, no, "one 'mode:' line", line)
            mode, mode_no = line.split(":", 1)[1].strip(), no
            continue
        if line.startswith(("f:", "partition:")):
            rest.append((no, line))
        else:
            pre_lines.append((no, line))
    order = _preorder(pre_lines, path)
    if mode is None:
        raise ValueError(f"{path}: distribution spec needs a 'mode: finite|countable-truncated' line")
    if mode not in ("finite", "countable-truncated"):
        raise ParseError(path, mode_no, "'mode: finite|countable-truncated'", mode)
    values: dict = {}
    partition: dict[int, str] = {}
    for no, line in rest:
        if line.startswith("partition:"):
            words = line.split(":", 1)[1].split()
            if len(words) != 2 or words[1] not in ("P", "NPL"):
                raise ParseError(path, no, "'partition: <elem> P|NPL'", line)
            (elem,) = _ints(words[:1], path, no, "an integer partition element", words[0], order.n)
            if elem in partition:
                raise ParseError(path, no, "one 'partition:' line per element", line)
            partition[elem] = words[1]
            continue
        body = line.split(":", 1)[1].strip()
        key_s, sep, value_s = body.partition("=")
        if not sep:
            raise ParseError(path, no, "'f: <key> = <cardinal>'", line)
        key_s = key_s.strip()
        value = _read(path, no, "a cardinal token", value_s.strip(), parse_card, value_s)
        # class keys belong to finite mode, chain keys to countable-truncated mode
        if mode == "finite":
            expected = "'{i,j,...}' class key"
            if not (key_s.startswith("{") and key_s.endswith("}")):
                raise ParseError(path, no, expected, key_s)
            key = frozenset(_ints(filter(str.strip, key_s[1:-1].split(",")), path, no, expected, key_s, order.n))
        else:
            chain = key_s.removesuffix("<...")
            entries = _ints(chain.split("<"), path, no, "'i<j<k' sequence key", chain, order.n)
            if not all(map(order.le, entries, entries[1:])):
                raise ParseError(path, no, "a chain of the order", chain)
            key = SeqKey(entries, chain != key_s)
        if key in values:
            raise ParseError(path, no, "one 'f:' line per key", line)
        values[key] = value
    make = finite_spec if mode == "finite" else sequence_spec
    return _read(path, 1, "a well-formed distribution spec", None, make, order, values, partition or None)


# -- structure spec files -----------------------------------------------------

def serialize_struct(spec: StructSpec) -> str:
    """Grammar: one ``universe:`` line; ``unary``, ``color``, ``rel2``,
    ``rel3`` and ``target`` lines, one per name; ``note`` lines; the
    registry as domination-graph lines behind the keywords ``node`` and
    ``edge``; and one ``applied`` JSON line per operator record."""
    import json

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
    lines.extend(f"node {_node_words(spec.nodes[name])}" for name in sorted(spec.nodes))
    lines.extend(f"edge {_edge_words(e)}" for e in spec.edges)
    for key in sorted(spec.limit_targets):
        lines.append(f"target {key} = {render(spec.limit_targets[key])}")
    for note in spec.notes:
        lines.append(f"note {note}")
    for rec in spec.history:
        lines.append("applied " + json.dumps({"op": rec.op, "params": rec.params}, sort_keys=True))
    return "\n".join(lines) + "\n"


# -- pipeline files -----------------------------------------------------------

def _node_list(text: str) -> tuple[str, ...]:
    """The names of a comma-separated list, split only at commas outside
    parentheses, so that a joint type ``q(p(P0),p(P1))`` is one name."""
    depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in text)
    cuts = [i for i, (ch, depth) in enumerate(zip(text, depths)) if ch == "," and not depth]
    return tuple(text[a + 1 : b] for a, b in zip([-1, *cuts], [*cuts, len(text)]))


# each kind of pipeline value (operators.STEP_KEYS): its grammar, reader and writer
_VALUE_KINDS = {
    "integer": ("<integer>", natural, str),
    "integer-or-auto": ("<integer>|auto", lambda t: None if t == "auto" else natural(t),
                        lambda v: "auto" if v is None else str(v)),
    "flag": ("true|false", {"true": True, "false": False}.__getitem__, lambda v: str(v).lower()),
    "reading": ("gt|geq", {"gt": "gt", "geq": "geq"}.__getitem__, str),
    "cardinal": ("<integer>|w|w1|c", parse_card, render),
    "text": ("<text>", str, str),
    "node-list": ("<node>,...", _node_list, ",".join),
}


def parse_pipeline(text: str, path: str = "<pipeline>") -> list[PipelineStep]:
    """Grammar: one operator invocation per line, ``<op> key=value ...``,
    each key once and among those ``operators.STEP_KEYS`` gives the
    operator, each value of the kind it gives the key; one ``base`` line."""
    from .operators import STEP_KEYS, PipelineStep

    steps = []
    for no, line in _lines(text):
        words = line.split()
        keys = STEP_KEYS.get(words[0])
        if keys is None:
            raise ParseError(path, no, f"an operator among {sorted(STEP_KEYS)}", words[0])
        if words[0] == "base" and any(step.op == "base" for step in steps):
            raise ParseError(path, no, "one 'base' line", line)
        args: dict[str, object] = {}
        for chunk in words[1:]:
            key, sep, value = chunk.partition("=")
            if not sep:
                raise ParseError(path, no, "'key=value' arguments", chunk)
            if key not in keys:
                raise ParseError(path, no, f"a key of '{words[0]}' among {', '.join(keys)}", chunk)
            if key in args:
                raise ParseError(path, no, f"one '{key}=' per step", chunk)
            grammar, read, _ = _VALUE_KINDS[keys[key][0]]
            args[key] = _read(path, no, f"'{key}={grammar}'", chunk, read, value)
        steps.append(PipelineStep(words[0], args))
    return steps


def cite_step(path: str, text: str, exc: ValueError) -> None:
    """Prefix a refusal naming its step by index into ``parse_pipeline(text)``
    (``exc.step``) with that step's line, the content line of that index."""
    if hasattr(exc, "step"):
        exc.args = (f"{path}:{_lines(text)[exc.step][0]}: {exc}",)


def serialize_pipeline(steps: Iterable[PipelineStep]) -> str:
    from .operators import STEP_KEYS

    lines = []
    for step in steps:
        keys = STEP_KEYS[step.op]
        parts = [step.op]
        parts.extend(f"{k}={_VALUE_KINDS[keys[k][0]][2](v)}" for k, v in sorted(step.args.items()))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
