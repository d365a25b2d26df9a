"""Theory-building operators as transformers on finite structure specs.

Each operator takes a structure spec, adds ground relation tuples
realizing its axiom schemes, and updates the type registry's prime and
limit bookkeeping.  "Infinitely many" in a scheme is rendered as a
configured fan-out of witnesses per required class; the fan-out is
recorded in the application history so the scheme checker re-evaluates
against the same figure.

The limit operators do not materialise relations at all: they emit
identity systems (consumed by the word-congruence engine) plus registry
annotations recording the intended number of limit models over a type
or a sequence, and the fact that the linking relations never
semi-isolate backwards.

``run_pipeline`` is the one interpreter of operator pipelines, whether
they come from a pipeline file or from a blueprint builder.  It grows
one working structure through the operator cores (``_icp`` and the
rest), which each public operator runs on a thawed copy of its spec.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .cardinal import CONTINUUM, OMEGA, Card, card_eq, fin, parse_card, render
from .domination import DomEdge, DominationGraph, TypeNode
from .limitcount import FREE_SYSTEM, IdentitySystem, Schema
from .report import Report, ReportBuilder

Color = int | None  # None is the infinite color


def pnode(pred: str) -> str:
    return f"p({pred})"


def stub_name(pred: str, bits: str) -> str:
    return f"p({pred})[{bits}]"


def joint_name(p1: str, p2: str) -> str:
    return f"q({p1},{p2})"


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class RegNode:
    name: str
    principal: bool = False
    prime: bool = False
    stub_of: str | None = None
    stub_bits: str = ""
    realized: bool = False


@dataclass(frozen=True)
class RegEdge:
    src: str
    dst: str
    label: str
    principal: bool = False


@dataclass(frozen=True)
class Registry:
    nodes: dict[str, RegNode] = field(default_factory=dict)
    edges: tuple[RegEdge, ...] = ()
    limit_targets: dict[str, Card] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def stubs_of(self, p: str) -> list[RegNode]:
        return sorted(
            (n for n in self.nodes.values() if n.stub_of == p),
            key=lambda n: n.name,
        )

    def realized_stubs(self) -> list[RegNode]:
        return sorted(
            (n for n in self.nodes.values() if n.stub_of is not None and n.realized),
            key=lambda n: n.name,
        )

    def to_domination_graph(self) -> DominationGraph:
        nodes = tuple(
            TypeNode(n.name, principal=n.principal, prime=n.prime)
            for n in sorted(self.nodes.values(), key=lambda n: n.name)
        )
        edges = tuple(
            DomEdge(e.src, e.dst, e.label, e.principal) for e in self.edges
        )
        return DominationGraph(nodes, edges)


# -- structure specs ----------------------------------------------------------

@dataclass(frozen=True)
class OpRecord:
    op: str
    params: dict[str, object]


@dataclass(frozen=True)
class StructSpec:
    universe: tuple[str, ...]
    unary: dict[str, tuple[str, ...]]
    coloring: dict[str, Color]
    binary: dict[str, tuple[tuple[str, str], ...]]
    ternary: dict[str, tuple[tuple[str, str, str], ...]]
    registry: Registry = field(default_factory=Registry)
    history: tuple[OpRecord, ...] = ()

    def __post_init__(self) -> None:
        known = set(self.universe)
        if len(known) != len(self.universe):
            raise ValueError("duplicate universe elements")
        for pred, extent in self.unary.items():
            for el in extent:
                if el not in known:
                    raise ValueError(f"{pred} contains unknown element {el!r}")
        for el in self.coloring:
            if el not in known:
                raise ValueError(f"coloring mentions unknown element {el!r}")

    def extent(self, pred: str) -> tuple[str, ...]:
        if pred not in self.unary:
            raise KeyError(f"no unary predicate {pred!r}")
        return self.unary[pred]

    def color(self, el: str) -> Color:
        if el not in self.coloring:
            raise KeyError(f"element {el!r} is uncolored")
        return self.coloring[el]


class _Work:
    """The one mutable structure an operator pipeline grows.

    A pipeline thaws it once from the colored base; the operator cores
    grow it in place, each checking only the names it adds, and it is
    frozen into a validated ``StructSpec`` once, at the end.  It
    answers ``extent``, ``color``, ``binary``, ``ternary`` and
    ``history`` as a spec does, so the scheme verifiers read either.
    """

    extent = StructSpec.extent
    color = StructSpec.color

    def __init__(self, spec: StructSpec) -> None:
        self.universe = list(spec.universe)
        self.names = set(spec.universe)
        self.unary = dict(spec.unary)
        self.coloring = dict(spec.coloring)
        self.binary = dict(spec.binary)
        self.ternary = dict(spec.ternary)
        self.nodes: dict[str, RegNode] = {}
        self.stubs: dict[str, dict[str, None]] = {}  # stub_of -> stub names
        for node in spec.registry.nodes.values():
            self.put_node(node)
        self.edges = dict.fromkeys(spec.registry.edges)  # an insertion-ordered set
        self.targets = dict(spec.registry.limit_targets)
        self.notes = list(spec.registry.notes)
        self.history = list(spec.history)

    def add_elements(self, names: list[str], kind: str) -> None:
        if not self.names.isdisjoint(names):
            raise ValueError(f"fresh {kind} elements collide with the universe")
        self.names.update(names)
        self.universe.extend(names)

    def put_node(self, node: RegNode) -> None:
        self.nodes[node.name] = node
        if node.stub_of is not None:
            self.stubs.setdefault(node.stub_of, {})[node.name] = None

    def set_node(self, name: str, **changes) -> None:
        """Apply ``changes`` to the named node, created bare if it is new."""
        node = self.nodes.get(name) or RegNode(name)
        self.put_node(replace(node, **changes) if changes else node)

    def stubs_of(self, p: str) -> list[str]:
        return sorted(self.stubs.get(p, ()))

    def freeze(self) -> StructSpec:
        registry = Registry(self.nodes, tuple(self.edges), self.targets, tuple(self.notes))
        return StructSpec(
            tuple(self.universe), self.unary, self.coloring, self.binary,
            self.ternary, registry, tuple(self.history),
        )


def colored_base(
    parts: int,
    colors: int,
    per_color: int = 1,
    q_edges: Sequence[tuple[int, int, bool]] = (),
) -> StructSpec:
    """Partitioned colored structure: the common starting point.

    ``parts`` unary predicates partition the universe; each part carries
    every color 0..colors-1 (``per_color`` elements each) plus one
    infinite-color element, whose type is the part's non-principal type.
    ``q_edges`` entries (low, high, principal) link the types of two
    parts so the high type dominates the low one, materialised as a
    color-monotone binary predicate.
    """
    if parts < 1 or colors < 1 or per_color < 1:
        raise ValueError("parts, colors, per_color must be positive")
    universe: list[str] = []
    unary: dict[str, tuple[str, ...]] = {}
    coloring: dict[str, Color] = {}
    nodes: dict[str, RegNode] = {}
    for i in range(parts):
        extent: list[str] = []
        for c in range(colors):
            for r in range(per_color):
                el = f"a{i}c{c}" + (f"_{r}" if per_color > 1 else "")
                extent.append(el)
                coloring[el] = c
        el = f"a{i}inf"
        extent.append(el)
        coloring[el] = None
        universe.extend(extent)
        unary[f"P{i}"] = tuple(extent)
        nodes[pnode(f"P{i}")] = RegNode(pnode(f"P{i}"), prime=True)
    binary: dict[str, tuple[tuple[str, str], ...]] = {}
    edges: dict[RegEdge, None] = {}  # an insertion-ordered set
    for low, high, principal in q_edges:
        if not (0 <= low < parts and 0 <= high < parts) or low == high:
            raise ValueError(f"bad q edge ({low},{high})")
        qname = f"Q{low}_{high}"
        pairs: list[tuple[str, str]] = []
        for j in range(colors):  # range side color
            for i in range(j, colors):  # domain side color, i >= j
                x = f"a{low}c{i}" + ("_0" if per_color > 1 else "")
                y = f"a{high}c{j}" + ("_0" if per_color > 1 else "")
                pairs.append((x, y))
        pairs.append((f"a{low}inf", f"a{high}inf"))
        binary[qname] = tuple(pairs)
        edges[RegEdge(pnode(f"P{high}"), pnode(f"P{low}"), qname, principal)] = None
    registry = Registry(nodes, tuple(edges))
    return StructSpec(tuple(universe), unary, coloring, binary, {}, registry)


def verify_q_order(spec: StructSpec) -> Report:
    """Ground check of the color-monotone link conditions on Q predicates."""
    rb = ReportBuilder("q-order")
    for qname, pairs in sorted(spec.binary.items()):
        if not qname.startswith("Q"):
            continue
        bad = [
            (x, y)
            for x, y in pairs
            if spec.color(x) is not None
            and spec.color(y) is not None
            and spec.color(x) < spec.color(y)
        ]
        rb.check(
            f"{qname}.monotone",
            not bad,
            f"{len(bad)} pairs go up in color" if bad else "",
        )
        rb.check(f"{qname}.nonempty", bool(pairs))
    return rb.done()


# -- sizing helpers -----------------------------------------------------------

def _eff_color(c: Color, depth: int) -> int:
    return depth if c is None else c


def icp_need(spec: StructSpec | _Work, sub: str, depth: int, fan_out: int) -> int:
    return sum(
        (2 ** _eff_color(spec.color(x), depth)) * fan_out for x in spec.extent(sub)
    )


def bu_need(spec: StructSpec | _Work, sub1: str, sub2: str, depth: int, fan_out: int) -> int:
    total = 0
    for x1 in spec.extent(sub1):
        for x2 in spec.extent(sub2):
            c1, c2 = spec.color(x1), spec.color(x2)
            if c1 is None and c2 is None:
                eff = depth
            else:
                eff = min(c for c in (c1, c2) if c is not None)
            total += (2**eff) * fan_out
    return total


def _check_colored_extent(spec: StructSpec | _Work, sub: str, ceiling: int) -> None:
    extent = spec.extent(sub)
    if not extent:
        raise ValueError(f"{sub} has an empty extent")
    colors = [spec.color(x) for x in extent]
    if not any(c is None for c in colors):
        raise ValueError(f"{sub} has no infinite-color element")
    too_deep = [c for c in colors if c is not None and c > ceiling]
    if too_deep:
        raise ValueError(
            f"{sub} carries finite colors above {ceiling}: {sorted(too_deep)}"
        )


# -- the operators ------------------------------------------------------------

def icp(
    spec: StructSpec,
    sub: str,
    fresh_y: int,
    depth: int,
    fan_out: int = 3,
    seed: int = 0,
) -> StructSpec:
    """Continual partition over the designated substructure.

    Splits each colored element's image set into 2^color nonempty
    disjoint blocks (2^depth for the infinite-color element, the
    truncated stand-in for the continuum split), kills the prime model
    over the substructure's non-principal type, and registers one
    continuation stub per depth-length bit string.
    """
    w = _Work(spec)
    _icp(w, sub, fresh_y, depth, fan_out, seed)
    return w.freeze()


def _icp(w: _Work, sub: str, fresh_y: int, depth: int, fan_out: int, seed: int = 0) -> None:
    if depth < 1:
        raise ValueError("depth must be positive")
    _check_colored_extent(w, sub, depth)
    need = icp_need(w, sub, depth, fan_out)
    if fresh_y < need:
        raise ValueError(f"Y of size {fresh_y} cannot honor the splits, need {need}")
    app = len(w.history)
    ys = [f"Y{app}s{seed}_{k}" for k in range(fresh_y)]
    w.add_elements(ys, "Y")
    rels = [f"{sub}.icp{app}.R{i}" for i in range(depth + 1)]
    tuples: dict[str, list[tuple[str, str]]] = {r: [] for r in rels}
    cursor = 0
    for x in sorted(w.extent(sub)):
        eff = _eff_color(w.color(x), depth)
        for block in range(2**eff):
            bits = [(block >> (i - 1)) & 1 for i in range(1, eff + 1)]
            for _ in range(fan_out):
                y = ys[cursor]
                cursor += 1
                tuples[rels[0]].append((x, y))
                for i in range(1, eff + 1):
                    if bits[i - 1]:
                        tuples[rels[i]].append((x, y))
    for r in rels:
        w.binary[r] = tuple(tuples[r])
    p = pnode(sub)
    w.set_node(p, prime=False)
    for bits in itertools.product("01", repeat=depth):
        b = "".join(bits)
        w.put_node(RegNode(stub_name(sub, b), stub_of=p, stub_bits=b))
    w.notes.append(f"icp on {sub}: no prime model over {p}")
    w.history.append(OpRecord("icp", {
        "sub": sub, "depth": depth, "fan_out": fan_out,
        "rels": tuple(rels), "ys": tuple(ys), "seed": seed,
    }))


def css(
    spec: StructSpec,
    q_subset: Sequence[str],
    sub: str,
    fan_out: int = 3,
    seed: int = 0,
    linked: bool = False,
) -> StructSpec:
    """Allocation for a countable subset of the continuum of stubs.

    Links the substructure's colored elements to fresh approximation
    witnesses of each selected stub type: a color-i source gets images
    of every color k >= i and none below, per stub.  Restores the prime
    model over the substructure's non-principal type, realizing exactly
    the selected stubs.  With ``linked`` set, the allocation is recorded
    as tied to the type (the downward-ban reading of the same operator).
    """
    w = _Work(spec)
    _css(w, q_subset, sub, fan_out, seed, linked)
    return w.freeze()


def _css(
    w: _Work, q_subset: Sequence[str], sub: str, fan_out: int, seed: int = 0, linked: bool = False
) -> None:
    if not q_subset:
        raise ValueError("q_subset must be nonempty")
    stubs = []
    for name in q_subset:
        node = w.nodes.get(name)
        if node is None or node.stub_of is None:
            raise ValueError(f"{name!r} is not a continuation stub")
        stubs.append(node)
    depths = {len(n.stub_bits) for n in stubs}
    if len(depths) != 1:
        raise ValueError("stubs come from different split depths")
    ceiling = depths.pop()
    _check_colored_extent(w, sub, ceiling)
    app = len(w.history)
    rels = [f"{sub}.css{app}.R{j}" for j in range(len(stubs))]
    tuples: dict[str, list[tuple[str, str]]] = {r: [] for r in rels}
    fresh: list[str] = []
    colors: list[Color] = []
    for j, _stub in enumerate(stubs):
        for x in sorted(w.extent(sub)):
            c = w.color(x)
            targets: list[Color]
            if c is None:
                targets = [None] * fan_out
            else:
                targets = [k for k in range(c, ceiling + 1) for _ in range(fan_out)]
            for tcol in targets:
                t = f"T{app}s{seed}_{len(fresh)}"
                fresh.append(t)
                colors.append(tcol)
                tuples[rels[j]].append((x, t))
    w.add_elements(fresh, "T")
    w.coloring.update(zip(fresh, colors))
    for r in rels:
        w.binary[r] = tuple(tuples[r])
    p = pnode(sub)
    w.set_node(p, prime=True)
    for node in stubs:
        w.set_node(node.name, realized=True)
    msg = f"css on {sub}: prime model over {p} realizes exactly {len(stubs)} stubs"
    if linked:
        msg += " (linked: removing a realized stub removes the type)"
    w.notes.append(msg)
    w.history.append(OpRecord("css", {
        "sub": sub, "stubs": tuple(n.name for n in stubs), "rels": tuple(rels),
        "ceiling": ceiling, "fan_out": fan_out, "linked": linked, "seed": seed,
    }))


def bu(
    spec: StructSpec,
    sub1: str,
    sub2: str,
    fresh_z: int,
    depth: int,
    fan_out: int = 3,
    seed: int = 0,
) -> StructSpec:
    """Ban for upward movement between two designated substructures.

    Joint images of element pairs split into 2^min(color, color) blocks
    (2^depth when both colors are infinite); the joint types over both
    non-principal types lose their prime models while the two types
    themselves keep their flags.
    """
    w = _Work(spec)
    _bu(w, sub1, sub2, fresh_z, depth, fan_out, seed)
    return w.freeze()


def _bu(
    w: _Work, sub1: str, sub2: str, fresh_z: int, depth: int, fan_out: int, seed: int = 0
) -> None:
    if depth < 1:
        raise ValueError("depth must be positive")
    ext1, ext2 = w.extent(sub1), w.extent(sub2)
    if set(ext1) & set(ext2):
        raise ValueError(f"{sub1} and {sub2} overlap")
    _check_colored_extent(w, sub1, depth)
    _check_colored_extent(w, sub2, depth)
    need = bu_need(w, sub1, sub2, depth, fan_out)
    if fresh_z < need:
        raise ValueError(f"Z of size {fresh_z} cannot honor the splits, need {need}")
    app = len(w.history)
    zs = [f"Z{app}s{seed}_{k}" for k in range(fresh_z)]
    w.add_elements(zs, "Z")
    rels = [f"{sub1}*{sub2}.bu{app}.R{i}" for i in range(depth + 1)]
    tuples: dict[str, list[tuple[str, str, str]]] = {r: [] for r in rels}
    cursor = 0
    for x1 in sorted(ext1):
        for x2 in sorted(ext2):
            c1, c2 = w.color(x1), w.color(x2)
            if c1 is None and c2 is None:
                eff = depth
            else:
                eff = min(c for c in (c1, c2) if c is not None)
            for block in range(2**eff):
                bits = [(block >> (i - 1)) & 1 for i in range(1, eff + 1)]
                for _ in range(fan_out):
                    z = zs[cursor]
                    cursor += 1
                    tuples[rels[0]].append((x1, x2, z))
                    for i in range(1, eff + 1):
                        if bits[i - 1]:
                            tuples[rels[i]].append((x1, x2, z))
    for r in rels:
        w.ternary[r] = tuple(tuples[r])
    p1, p2 = pnode(sub1), pnode(sub2)
    for p in (p1, p2):
        w.set_node(p)
    joint = joint_name(p1, p2)
    w.put_node(RegNode(joint, prime=False))
    w.edges[RegEdge(joint, p1, "x=y1", principal=True)] = None
    w.edges[RegEdge(joint, p2, "x=y2", principal=True)] = None
    w.notes.append(f"bu on {sub1},{sub2}: no prime models over joint types {joint}")
    w.history.append(OpRecord("bu", {
        "sub1": sub1, "sub2": sub2, "depth": depth, "fan_out": fan_out,
        "rels": tuple(rels), "zs": tuple(zs), "seed": seed,
    }))


# -- limit-model operators ----------------------------------------------------

def lmt(lam: Card) -> IdentitySystem:
    """Identity family sizing the limit models over a single type."""
    if lam.finite:
        n = lam.value
        if n < 1:
            raise ValueError("the finite case needs at least one limit model")
        return IdentitySystem(
            "lmt",
            (
                Schema("single_rename", n),
                Schema("idem_below", n),
                Schema("drop_to_min"),
            ),
            fin(n),
            n=n,
        )
    if lam == OMEGA:
        return IdentitySystem(
            "lmt",
            (Schema("idem_all"), Schema("drop_to_min"), Schema("pair_to_run")),
            OMEGA,
        )
    raise ValueError(f"limit-model count must be in w+1, got {render(lam)}")


def lms(q_len: int, lam: Card, reading: str = "gt") -> IdentitySystem:
    """Identity family sizing the limit models over a domination sequence."""
    if q_len < 1:
        raise ValueError("sequence length must be positive")
    if reading not in ("gt", "geq"):
        raise ValueError("reading must be 'gt' or 'geq'")
    if lam.finite:
        n = lam.value
        if n < 1:
            raise ValueError("the finite case needs at least one limit model")
        return IdentitySystem(
            "lms",
            (Schema("single_rename", n), Schema("ascend_to_power")),
            fin(n),
            n=n,
            seq_len=q_len,
        )
    if lam == OMEGA:
        return IdentitySystem(
            "lms",
            (
                Schema("ascend_to_power"),
                Schema("ascend_to_run"),
                Schema("ascend_to_capped_run"),
            ),
            OMEGA,
            reading=reading,
            seq_len=q_len,
        )
    raise ValueError(f"limit-model count must be in w+1, got {render(lam)}")


def apply_lmt(
    spec: StructSpec, p: str, lam: Card, reading: str = "gt"
) -> tuple[StructSpec, IdentitySystem]:
    """Record the limit target over a type in the registry.

    A continuum target means the extension tree is left free (no
    identities); finite and countable targets carry the corresponding
    identity system.
    """
    w = _Work(spec)
    system = _apply_lmt(w, p, lam, reading)
    return w.freeze(), system


def _apply_lmt(w: _Work, p: str, lam: Card, reading: str = "gt") -> IdentitySystem:
    system = FREE_SYSTEM if card_eq(lam, CONTINUUM, ch=False) else lmt(lam)
    w.set_node(p)
    w.targets[p] = lam
    w.notes.append(
        f"lmt over {p}: linking relations entail the type and never semi-isolate back"
    )
    w.history.append(OpRecord("lmt", {"node": p, "lam": render(lam), "reading": reading}))
    return system


def seq_key(nodes: Sequence[str]) -> str:
    return ">".join(nodes)


def apply_lms(
    spec: StructSpec, nodes: Sequence[str], lam: Card, reading: str = "gt"
) -> tuple[StructSpec, IdentitySystem]:
    w = _Work(spec)
    system = _apply_lms(w, nodes, lam, reading)
    return w.freeze(), system


def _apply_lms(w: _Work, nodes: Sequence[str], lam: Card, reading: str = "gt") -> IdentitySystem:
    if not nodes:
        raise ValueError("sequence must be nonempty")
    system = FREE_SYSTEM if card_eq(lam, CONTINUUM, ch=False) else lms(len(nodes), lam, reading)
    for p in nodes:
        w.set_node(p)
    key = seq_key(nodes)
    w.targets[key] = lam
    w.notes.append(
        f"lms over {key}: linking relations step down the sequence, never semi-isolating back"
    )
    w.history.append(OpRecord("lms", {"nodes": tuple(nodes), "lam": render(lam), "reading": reading}))
    return system


# -- ground scheme verification -----------------------------------------------

def _pair_index(pairs: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for x, y in pairs:
        out.setdefault(x, set()).add(y)
    return out


def _triple_index(triples: Iterable[tuple[str, str, str]]) -> dict[tuple[str, str], set[str]]:
    out: dict[tuple[str, str], set[str]] = {}
    for x, y, z in triples:
        out.setdefault((x, y), set()).add(z)
    return out


def _verify_icp(spec: StructSpec | _Work, rb: ReportBuilder, tag: str, params: Mapping) -> None:
    sub = params["sub"]
    depth = params["depth"]
    fan_out = params["fan_out"]
    rels = params["rels"]
    images = [_pair_index(spec.binary.get(r, ())) for r in rels]
    extent = sorted(spec.extent(sub))

    base_bad: list[str] = []
    split_bad: list[str] = []
    contain_bad: list[str] = []
    for x in extent:
        eff = _eff_color(spec.color(x), depth)
        img0 = images[0].get(x, set())
        if spec.color(x) == 0 and len(img0) < fan_out:
            base_bad.append(f"{x}: base image {len(img0)} < {fan_out}")
        for i in range(1, depth + 1):
            extra = images[i].get(x, set()) - img0
            if extra:
                contain_bad.append(f"{x}: R{i} outside R0 ({len(extra)})")
            if i > eff and images[i].get(x):
                split_bad.append(f"{x}: color {eff} but R{i} nonempty")
        for block in range(2**eff):
            bits = [(block >> (i - 1)) & 1 for i in range(1, eff + 1)]
            part = {
                y
                for y in img0
                if all(
                    (y in images[i].get(x, set())) == bool(bits[i - 1])
                    for i in range(1, eff + 1)
                )
            }
            if len(part) < fan_out:
                split_bad.append(
                    f"{x}: block {bits} has {len(part)} witnesses, need {fan_out}"
                )
    rb.check(f"{tag}.base-images", not base_bad, "; ".join(base_bad[:3]))
    rb.check(f"{tag}.splits", not split_bad, "; ".join(split_bad[:3]))
    rb.check(f"{tag}.containment", not contain_bad, "; ".join(contain_bad[:3]))

    disjoint_bad = []
    for a, b in itertools.combinations(extent, 2):
        if images[0].get(a, set()) & images[0].get(b, set()):
            disjoint_bad.append(f"{a},{b}")
    rb.check(f"{tag}.disjoint-images", not disjoint_bad, "; ".join(disjoint_bad[:3]))


def _verify_css(spec: StructSpec | _Work, rb: ReportBuilder, tag: str, params: Mapping) -> None:
    sub = params["sub"]
    ceiling = params["ceiling"]
    fan_out = params["fan_out"]
    rels = params["rels"]
    extent = sorted(spec.extent(sub))
    color_bad: list[str] = []
    disjoint_bad: list[str] = []
    for ri, r in enumerate(rels):
        images = _pair_index(spec.binary.get(r, ()))
        for x in extent:
            c = spec.color(x)
            img = images.get(x, set())
            if c is None:
                if len(img) < fan_out:
                    color_bad.append(f"{x}/R{ri}: {len(img)} images, need {fan_out}")
                continue
            for k in range(c, ceiling + 1):
                hits = sum(1 for y in img if spec.color(y) == k)
                if hits < fan_out:
                    color_bad.append(
                        f"{x}/R{ri}: color {k} has {hits} images, need {fan_out}"
                    )
            low = [y for y in img if spec.color(y) is not None and spec.color(y) < c]
            if low:
                color_bad.append(f"{x}/R{ri}: {len(low)} images below color {c}")
        for a, b in itertools.combinations(extent, 2):
            if images.get(a, set()) & images.get(b, set()):
                disjoint_bad.append(f"{a},{b}/R{ri}")
    rb.check(f"{tag}.color-monotone", not color_bad, "; ".join(color_bad[:3]))
    rb.check(f"{tag}.disjoint-images", not disjoint_bad, "; ".join(disjoint_bad[:3]))


def _verify_bu(spec: StructSpec | _Work, rb: ReportBuilder, tag: str, params: Mapping) -> None:
    sub1, sub2 = params["sub1"], params["sub2"]
    depth = params["depth"]
    fan_out = params["fan_out"]
    rels = params["rels"]
    images = [_triple_index(spec.ternary.get(r, ())) for r in rels]
    pairs = [
        (x1, x2) for x1 in sorted(spec.extent(sub1)) for x2 in sorted(spec.extent(sub2))
    ]
    split_bad: list[str] = []
    contain_bad: list[str] = []
    for x1, x2 in pairs:
        c1, c2 = spec.color(x1), spec.color(x2)
        eff = depth if (c1 is None and c2 is None) else min(
            c for c in (c1, c2) if c is not None
        )
        img0 = images[0].get((x1, x2), set())
        for i in range(1, depth + 1):
            extra = images[i].get((x1, x2), set()) - img0
            if extra:
                contain_bad.append(f"({x1},{x2}): R{i} outside R0")
            if i > eff and images[i].get((x1, x2)):
                split_bad.append(f"({x1},{x2}): min color {eff} but R{i} nonempty")
        for block in range(2**eff):
            bits = [(block >> (i - 1)) & 1 for i in range(1, eff + 1)]
            part = {
                z
                for z in img0
                if all(
                    (z in images[i].get((x1, x2), set())) == bool(bits[i - 1])
                    for i in range(1, eff + 1)
                )
            }
            if len(part) < fan_out:
                split_bad.append(
                    f"({x1},{x2}): block {bits} has {len(part)}, need {fan_out}"
                )
    rb.check(f"{tag}.splits", not split_bad, "; ".join(split_bad[:3]))
    rb.check(f"{tag}.containment", not contain_bad, "; ".join(contain_bad[:3]))
    disjoint_bad = []
    for (a1, a2), (b1, b2) in itertools.combinations(pairs, 2):
        if a1 == b1 or a2 == b2:
            continue
        for i, idx in enumerate(images):
            if idx.get((a1, a2), set()) & idx.get((b1, b2), set()):
                disjoint_bad.append(f"({a1},{a2})~({b1},{b2})/R{i}")
    rb.check(f"{tag}.disjoint-images", not disjoint_bad, "; ".join(disjoint_bad[:3]))


_VERIFIERS = {"icp": _verify_icp, "css": _verify_css, "bu": _verify_bu}


def _verify_record(spec: StructSpec | _Work, rb: ReportBuilder, index: int) -> None:
    """Add the ground checks of the history record at ``index`` to ``rb``."""
    rec = spec.history[index]
    tag = f"app{index}"
    rb.fact(f"{tag}.fan_out", rec.params["fan_out"])
    _VERIFIERS[rec.op](spec, rb, tag, rec.params)


def verify_schemes(spec: StructSpec, op_tag: str) -> Report:
    """Re-evaluate every ground instance of the named operator's schemes.

    Checks every recorded application of that operator against the
    current relations; a mutation of the structure shows up as a FAIL
    entry, never an exception.
    """
    if op_tag not in _VERIFIERS:
        raise ValueError(f"no ground schemes for {op_tag!r}")
    indices = [i for i, rec in enumerate(spec.history) if rec.op == op_tag]
    if not indices:
        raise ValueError(f"spec has no recorded {op_tag} application")
    rb = ReportBuilder(f"schemes:{op_tag}")
    for i in indices:
        _verify_record(spec, rb, i)
    return rb.done()


# -- pipelines ----------------------------------------------------------------

@dataclass(frozen=True)
class PipelineStep:
    """One pipeline line: an operator keyword and its ``key=value`` arguments."""

    op: str
    args: dict[str, str]


def run_pipeline(steps: Sequence[PipelineStep], check: bool = False) -> StructSpec:
    """Apply a pipeline to the colored base it declares.

    The ``base`` and ``qedge`` steps seed the structure wherever they
    appear, the last ``base`` winning; the other steps run in order.
    ``fan`` defaults to 2, ``depth`` to 1, and ``y``/``z`` to the least
    size that honors the splits; ``bd`` is ``css`` with ``linked=true``.
    With ``check`` set, each icp/css/bu record is verified as soon as it
    is applied, and a violation raises ``ValueError``.  One working
    structure carries every step, so each step costs what it adds.
    """
    base: dict[str, str] | None = None
    qedges: list[tuple[int, int, bool]] = []
    for step in steps:
        if step.op == "base":
            base = step.args
        elif step.op == "qedge":
            a = step.args
            qedges.append(
                (int(a["low"]), int(a["high"]), a.get("principal", "false") == "true")
            )
    if base is None:
        raise ValueError("pipeline needs a 'base' line")
    w = _Work(colored_base(
        int(base["parts"]), int(base["colors"]), int(base.get("per_color", "1")), qedges
    ))
    for step in steps:
        if step.op in ("base", "qedge"):
            continue
        a = step.args
        fan = int(a.get("fan", "2"))
        depth = int(a.get("depth", "1"))
        if step.op == "icp":
            y = a.get("y", "auto")
            need = icp_need(w, a["sub"], depth, fan)
            _icp(w, a["sub"], need if y == "auto" else int(y), depth, fan)
        elif step.op in ("css", "bd"):
            if "source" in a:
                stubs = w.stubs_of(pnode(a["source"]))
            else:
                stubs = a["stubs"].split(",")
            _css(w, stubs, a["sub"], fan, linked=step.op == "bd" or a.get("linked") == "true")
        elif step.op == "bu":
            z = a.get("z", "auto")
            need = bu_need(w, a["sub1"], a["sub2"], depth, fan)
            _bu(w, a["sub1"], a["sub2"], need if z == "auto" else int(z), depth, fan)
        elif step.op == "lmt":
            _apply_lmt(w, a["node"], parse_card(a["lam"]), a.get("reading", "gt"))
        elif step.op == "lms":
            _apply_lms(w, a["nodes"].split(","), parse_card(a["lam"]), a.get("reading", "gt"))
        elif step.op == "note":
            w.notes.append(a.get("text", ""))
            continue
        else:
            raise ValueError(f"unknown pipeline step {step.op!r}")
        rec = w.history[-1]
        if check and rec.op in _VERIFIERS:
            # steps only append new relations, elements and colors: earlier records cannot change
            rb = ReportBuilder(f"schemes:{rec.op}")
            _verify_record(w, rb, len(w.history) - 1)
            bad = ", ".join(e.code for e in rb.done().violations())
            if bad:
                raise ValueError(f"scheme violation after {rec.op}: {bad}")
    return w.freeze()
