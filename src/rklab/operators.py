"""Theory-building operators as transformers on finite structure specs.

Each operator takes a structure spec, adds ground relation tuples
realizing its axiom schemes, and updates the type registry's prime and
limit bookkeeping.  "Infinitely many" in a scheme is rendered as a
configured fan-out of witnesses per required class; the fan-out is
recorded in the application history so the scheme checker re-evaluates
against the same figure.

The limit operators do not materialise relations at all: they record
in the registry the intended number of limit models over a type or a
sequence, and the fact that the linking relations never semi-isolate
backwards.  The identity systems that count those models are
``limitcount``'s, behind the ``limits`` command.

Every operator grows the ``StructSpec`` it is given in place and
returns that same object; ``StructSpec.copy`` gives a structure to grow
apart.  ``run_pipeline`` is the one interpreter of operator pipelines,
whether they come from a pipeline file or from a blueprint builder: it
grows one structure through the operators, so each step costs what it
adds.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

from .cardinal import CONTINUUM, Card, check_limit_count, parse_card, render
from .domination import DomEdge, DominationGraph, TypeNode
from .record import record, replace
from .report import BudgetError, Report, ReportBuilder

Color = int | None  # None is the infinite color

# the most elements the operators may grow a structure to, checked before each
# step allocates; the costliest plan within it peaks at about 350 MB (README)
UNIVERSE_CAP = 250_000


def pnode(pred: str) -> str:
    return f"p({pred})"


def stub_name(pred: str, bits: str) -> str:
    return f"p({pred})[{bits}]"


def joint_name(p1: str, p2: str) -> str:
    return f"q({p1},{p2})"


# -- structure specs ----------------------------------------------------------

@record
class OpRecord:
    op: str
    params: dict[str, object]


class StructSpec:
    """A finite structure with its type registry: the one structure the
    operators grow.

    Its fields are the ``universe`` (a list, with ``names`` its set), the
    ``unary`` extents, the ``coloring``, the ``binary`` and ``ternary``
    relations, the registry's ``nodes`` (with ``stubs``, each stub
    parent's stub names), ``edges`` (an insertion-ordered set),
    ``limit_targets`` and ``notes``, and the ``history`` of operator
    records.  Building one from parts checks its elements once; the
    operators then grow it in place, each checking only the names it
    adds, and ``copy`` gives a structure that shares no container.
    """

    def __init__(
        self,
        universe: Iterable[str],
        unary: Mapping[str, tuple[str, ...]],
        coloring: Mapping[str, Color],
        binary: Mapping[str, tuple[tuple[str, str], ...]],
        ternary: Mapping[str, tuple[tuple[str, str, str], ...]],
        nodes: Iterable[TypeNode] = (),
        edges: Iterable[DomEdge] = (),
        limit_targets: Mapping[str, Card] | None = None,
        notes: Iterable[str] = (),
        history: Iterable[OpRecord] = (),
    ) -> None:
        self.universe = list(universe)
        self.names = set(self.universe)
        if len(self.names) != len(self.universe):
            raise ValueError("duplicate universe elements")
        for pred, extent in unary.items():
            for el in extent:
                if el not in self.names:
                    raise ValueError(f"{pred} contains unknown element {el!r}")
        for el in coloring:
            if el not in self.names:
                raise ValueError(f"coloring mentions unknown element {el!r}")
        self.unary = dict(unary)
        self.coloring = dict(coloring)
        self.binary = dict(binary)
        self.ternary = dict(ternary)
        self.nodes: dict[str, TypeNode] = {}
        self.stubs: dict[str, dict[str, None]] = {}  # stub_of -> stub names
        for node in nodes:
            self.put_node(node)
        self.edges = dict.fromkeys(edges)
        self.limit_targets = dict(limit_targets or {})
        self.notes = list(notes)
        self.history = list(history)

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if isinstance(other, StructSpec) else NotImplemented

    def copy(self) -> StructSpec:
        new = StructSpec.__new__(StructSpec)
        for name, value in vars(self).items():
            setattr(new, name, value.copy())
        new.stubs = {p: names.copy() for p, names in self.stubs.items()}
        return new

    def extent(self, pred: str) -> tuple[str, ...]:
        if pred not in self.unary:
            raise KeyError(f"no unary predicate {pred!r}")
        return self.unary[pred]

    def color(self, el: str) -> Color:
        if el not in self.coloring:
            raise KeyError(f"element {el!r} is uncolored")
        return self.coloring[el]

    def add_elements(self, names: list[str], kind: str) -> None:
        if not self.names.isdisjoint(names):
            raise ValueError(f"fresh {kind} elements collide with the universe")
        self.names.update(names)
        self.universe.extend(names)

    def put_node(self, node: TypeNode) -> None:
        self.nodes[node.name] = node
        if node.stub_of is not None:
            self.stubs.setdefault(node.stub_of, {})[node.name] = None

    def set_node(self, name: str, **changes) -> None:
        """Apply ``changes`` to the named node, created bare if it is new."""
        node = self.nodes.get(name) or TypeNode(name)
        self.put_node(replace(node, **changes) if changes else node)

    def stubs_of(self, p: str) -> list[str]:
        """The names of the continuation stubs registered over ``p``, sorted."""
        return sorted(self.stubs.get(p, ()))

    def to_domination_graph(self) -> DominationGraph:
        nodes = tuple(sorted(self.nodes.values(), key=lambda n: n.name))
        return DominationGraph(nodes, tuple(self.edges))


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
    _reserve(0, parts * (colors * per_color + 1))
    # a q edge links each color to every color at or below it, and the infinite colors
    _reserve(0, len(q_edges) * (colors * (colors + 1) // 2 + 1), "q-edge pairs")
    universe: list[str] = []
    unary: dict[str, tuple[str, ...]] = {}
    coloring: dict[str, Color] = {}
    nodes: list[TypeNode] = []
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
        nodes.append(TypeNode(pnode(f"P{i}"), prime=True))
    binary: dict[str, tuple[tuple[str, str], ...]] = {}
    edges: list[DomEdge] = []
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
        edges.append(DomEdge(pnode(f"P{high}"), pnode(f"P{low}"), qname, principal))
    return StructSpec(universe, unary, coloring, binary, {}, nodes, edges)


# -- sizing helpers -----------------------------------------------------------

def _split_depth(colors: Iterable[Color], depth: int) -> int:
    """Split depth of an element or pair: its least finite color, else ``depth``."""
    finite = [c for c in colors if c is not None]
    return min(finite) if finite else depth


def _reserve(size: int, adding: int, what: str = "elements") -> None:
    """Refuse, before it allocates, growing ``size`` ``what`` by ``adding``
    past the cap."""
    total = size + adding
    if total > UNIVERSE_CAP:
        # 2^depth splits can have more digits than Python prints
        amount = total if total.bit_length() <= 64 else f"at least 2^{total.bit_length() - 1}"
        raise BudgetError(f"{amount} {what} exceed the universe cap {UNIVERSE_CAP}")


def _split_need(spec: StructSpec, subs: Sequence[str], depth: int, fan_out: int) -> int:
    # summed over tuples of colors, not of elements: the extents may be long
    counts = [Counter(map(spec.color, spec.extent(sub))).items() for sub in subs]
    total = 0
    for combo in itertools.product(*counts):
        colors, sizes = zip(*combo)
        total += math.prod(sizes) << _split_depth(colors, depth)
    return total * fan_out


def icp_need(spec: StructSpec, sub: str, depth: int, fan_out: int) -> int:
    return _split_need(spec, (sub,), depth, fan_out)


def _check_colored_extent(spec: StructSpec, sub: str, ceiling: int) -> None:
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


def _split(
    spec: StructSpec, op: str, subs: Sequence[str], fresh: int | None, depth: int, fan_out: int,
    letter: str,
) -> tuple[list[str], list[str]]:
    """Give each element, or tuple of elements, of the extents of ``subs``
    2^(split depth) blocks of ``fan_out`` fresh witnesses, ``fresh`` of them
    in all (the least that honors the splits when None).  Layer R0 holds
    every witness; layer Ri, i >= 1, those of the blocks with bit i-1 set.
    Returns the layer names and the witnesses."""
    for sub in subs:
        _check_colored_extent(spec, sub, depth)
    # past depth 64 the need is over the cap however it is counted: 2^depth is not computed
    need = _split_need(spec, subs, min(depth, 64), fan_out)
    fresh = need if fresh is None else fresh
    _reserve(len(spec.universe), max(fresh, need))
    if fresh < need:
        raise ValueError(f"{letter} of size {fresh} cannot honor the splits, need {need}")
    app = len(spec.history)
    names = [f"{letter}{app}s0_{k}" for k in range(fresh)]  # "s0": the names files hold
    spec.add_elements(names, letter)
    rels = ["*".join(subs) + f".{op}{app}.R{i}" for i in range(depth + 1)]
    layers: list[list[tuple[str, ...]]] = [[] for _ in rels]
    cursor = 0
    for key in itertools.product(*(sorted(spec.extent(sub)) for sub in subs)):
        eff = _split_depth(map(spec.color, key), depth)
        for block in range(2**eff):
            rows = [key + (y,) for y in names[cursor : cursor + fan_out]]
            cursor += fan_out
            layers[0] += rows
            for i in range(1, eff + 1):
                if block >> (i - 1) & 1:
                    layers[i] += rows
    table = spec.binary if len(subs) == 1 else spec.ternary
    for r, rows in zip(rels, layers):
        table[r] = tuple(rows)
    return rels, names


# -- the operators ------------------------------------------------------------

def icp(spec: StructSpec, sub: str, fresh_y: int | None, depth: int, fan_out: int = 3) -> StructSpec:
    """Continual partition over the designated substructure.

    Splits each colored element's image set into 2^color nonempty
    disjoint blocks (2^depth for the infinite-color element, the
    truncated stand-in for the continuum split), kills the prime model
    over the substructure's non-principal type, and registers one
    continuation stub per depth-length bit string.  ``fresh_y`` None
    takes the least count of witnesses that honors the splits.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if fan_out < 1:
        raise ValueError("fan-out must be positive")
    rels, ys = _split(spec, "icp", (sub,), fresh_y, depth, fan_out, "Y")
    p = pnode(sub)
    spec.set_node(p, prime=False)
    for bits in itertools.product("01", repeat=depth):
        b = "".join(bits)
        spec.put_node(TypeNode(stub_name(sub, b), stub_of=p, stub_bits=b))
    spec.notes.append(f"icp on {sub}: no prime model over {p}")
    spec.history.append(OpRecord("icp", {
        "sub": sub, "depth": depth, "fan_out": fan_out,
        "rels": tuple(rels), "ys": tuple(ys), "seed": 0,
    }))
    return spec


def css(
    spec: StructSpec, q_subset: Sequence[str], sub: str, fan_out: int = 3, linked: bool = False
) -> StructSpec:
    """Allocation for a countable subset of the continuum of stubs.

    Links the substructure's colored elements to fresh approximation
    witnesses of each selected stub type: a color-i source gets images
    of every color k >= i and none below, per stub.  Restores the prime
    model over the substructure's non-principal type, realizing exactly
    the selected stubs.  With ``linked`` set, the allocation is recorded
    as tied to the type (the downward-ban reading of the same operator).
    """
    if not q_subset:
        raise ValueError("q_subset must be nonempty")
    if fan_out < 1:
        raise ValueError("fan-out must be positive")
    stubs = []
    for name in q_subset:
        node = spec.nodes.get(name)
        if node is None or node.stub_of is None:
            raise ValueError(f"{name!r} is not a continuation stub")
        stubs.append(node)
    depths = {len(n.stub_bits) for n in stubs}
    if len(depths) != 1:
        raise ValueError("stubs come from different split depths")
    ceiling = depths.pop()
    _check_colored_extent(spec, sub, ceiling)
    # each stub gives an element of color c one target per color c..ceiling
    per_stub = sum(1 if c is None else ceiling + 1 - c for c in map(spec.color, spec.extent(sub)))
    _reserve(len(spec.universe), len(stubs) * per_stub * fan_out)
    app = len(spec.history)
    rels = [f"{sub}.css{app}.R{j}" for j in range(len(stubs))]
    tuples: dict[str, list[tuple[str, str]]] = {r: [] for r in rels}
    fresh: list[str] = []
    colors: list[Color] = []
    for j, _stub in enumerate(stubs):
        for x in sorted(spec.extent(sub)):
            c = spec.color(x)
            targets: list[Color]
            if c is None:
                targets = [None] * fan_out
            else:
                targets = [k for k in range(c, ceiling + 1) for _ in range(fan_out)]
            for tcol in targets:
                t = f"T{app}s0_{len(fresh)}"
                fresh.append(t)
                colors.append(tcol)
                tuples[rels[j]].append((x, t))
    spec.add_elements(fresh, "T")
    spec.coloring.update(zip(fresh, colors))
    for r in rels:
        spec.binary[r] = tuple(tuples[r])
    p = pnode(sub)
    spec.set_node(p, prime=True)
    for node in stubs:
        spec.set_node(node.name, realized=True)
    msg = f"css on {sub}: prime model over {p} realizes exactly {len(stubs)} stubs"
    if linked:
        msg += " (linked: removing a realized stub removes the type)"
    spec.notes.append(msg)
    spec.history.append(OpRecord("css", {
        "sub": sub, "stubs": tuple(n.name for n in stubs), "rels": tuple(rels),
        "ceiling": ceiling, "fan_out": fan_out, "linked": linked, "seed": 0,
    }))
    return spec


def bu(
    spec: StructSpec, sub1: str, sub2: str, fresh_z: int | None, depth: int, fan_out: int = 3
) -> StructSpec:
    """Ban for upward movement between two designated substructures.

    Joint images of element pairs split into 2^min(color, color) blocks
    (2^depth when both colors are infinite); the joint types over both
    non-principal types lose their prime models while the two types
    themselves keep their flags.  ``fresh_z`` None takes the least count
    of witnesses that honors the splits.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if fan_out < 1:
        raise ValueError("fan-out must be positive")
    if set(spec.extent(sub1)) & set(spec.extent(sub2)):
        raise ValueError(f"{sub1} and {sub2} overlap")
    rels, zs = _split(spec, "bu", (sub1, sub2), fresh_z, depth, fan_out, "Z")
    p1, p2 = pnode(sub1), pnode(sub2)
    for p in (p1, p2):
        spec.set_node(p)
    joint = joint_name(p1, p2)
    spec.put_node(TypeNode(joint))
    spec.edges[DomEdge(joint, p1, "x=y1", principal=True)] = None
    spec.edges[DomEdge(joint, p2, "x=y2", principal=True)] = None
    spec.notes.append(f"bu on {sub1},{sub2}: no prime models over joint types {joint}")
    spec.history.append(OpRecord("bu", {
        "sub1": sub1, "sub2": sub2, "depth": depth, "fan_out": fan_out,
        "rels": tuple(rels), "zs": tuple(zs), "seed": 0,
    }))
    return spec


# -- limit-model operators ----------------------------------------------------

def apply_lmt(spec: StructSpec, p: str, lam: Card, reading: str = "gt") -> StructSpec:
    """Record the limit target over a type in the registry: a count in
    1..w, or a continuum, which leaves the extension tree free."""
    if lam != CONTINUUM:
        check_limit_count(lam)
    spec.set_node(p)
    spec.limit_targets[p] = lam
    spec.notes.append(
        f"lmt over {p}: linking relations entail the type and never semi-isolate back"
    )
    spec.history.append(OpRecord("lmt", {"node": p, "lam": render(lam), "reading": reading}))
    return spec


def apply_lms(spec: StructSpec, nodes: Sequence[str], lam: Card, reading: str = "gt") -> StructSpec:
    """Record the limit target over a domination sequence, as ``apply_lmt``
    does over a type."""
    if not nodes:
        raise ValueError("sequence must be nonempty")
    if lam != CONTINUUM:
        check_limit_count(lam)
    for p in nodes:
        spec.set_node(p)
    key = ">".join(nodes)
    spec.limit_targets[key] = lam
    spec.notes.append(
        f"lms over {key}: linking relations step down the sequence, never semi-isolating back"
    )
    spec.history.append(OpRecord("lms", {"nodes": tuple(nodes), "lam": render(lam), "reading": reading}))
    return spec


# -- ground scheme verification -----------------------------------------------

def _image_index(rows: Iterable[tuple[str, ...]]) -> dict[tuple[str, ...], set[str]]:
    """Each key, a row but its last element, to the witnesses it is paired with."""
    out: dict[tuple[str, ...], set[str]] = {}
    for row in rows:
        out.setdefault(row[:-1], set()).add(row[-1])
    return out


def _label(key: tuple[str, ...]) -> str:
    return key[0] if len(key) == 1 else f"({','.join(key)})"


def _clashes(keys: list[tuple[str, ...]], index: Mapping) -> list[tuple[int, int]]:
    """The positions a < b of the keys whose images in ``index`` share a
    witness although the keys differ in every coordinate, in order.

    Each witness lists the keys that own it, so a structure whose images
    are disjoint costs one pass.
    """
    owners: dict[str, list[int]] = {}
    for p, key in enumerate(keys):
        for z in index.get(key, ()):
            owners.setdefault(z, []).append(p)
    clashes = {
        (a, b)
        for ps in owners.values()
        if len(ps) > 1
        for a, b in itertools.combinations(ps, 2)
        if all(u != v for u, v in zip(keys[a], keys[b]))
    }
    return sorted(clashes)


def _split_images(
    spec: StructSpec, params: Mapping, subs: Sequence[str]
) -> tuple[list[tuple[str, ...]], list[dict]]:
    """The keys a split record covers, the tuples of its extents, and the
    image index of each of its layers."""
    table = spec.binary if len(subs) == 1 else spec.ternary
    images = [_image_index(table.get(r, ())) for r in params["rels"]]
    return list(itertools.product(*(sorted(spec.extent(sub)) for sub in subs))), images


def _check_splits(
    spec: StructSpec, rb: ReportBuilder, tag: str, params: Mapping,
    keys: list[tuple[str, ...]], images: list[dict],
) -> None:
    """Every layer of a key lies inside its R0, none lies past its split
    depth, and each of its 2^(split depth) blocks holds ``fan_out`` witnesses."""
    depth, fan_out = params["depth"], params["fan_out"]
    split_bad: list[str] = []
    contain_bad: list[str] = []
    for key in keys:
        eff = _split_depth(map(spec.color, key), depth)
        img0 = images[0].get(key, set())
        block_of = dict.fromkeys(img0, 0)  # bit i-1 set: the witness lies in Ri
        for i in range(1, depth + 1):
            img = images[i].get(key, set())
            if extra := img - img0:
                contain_bad.append(f"{_label(key)}: R{i} outside R0 ({len(extra)})")
            if i > eff:
                if img:
                    split_bad.append(f"{_label(key)}: color {eff} but R{i} nonempty")
                continue
            for y in img:
                if y in block_of:
                    block_of[y] |= 1 << (i - 1)
        sizes = Counter(block_of.values())
        for block in range(2**eff):
            if sizes[block] < fan_out:
                bits = [(block >> i) & 1 for i in range(eff)]
                split_bad.append(
                    f"{_label(key)}: block {bits} has {sizes[block]} witnesses, need {fan_out}"
                )
    rb.check(f"{tag}.splits", not split_bad, "; ".join(split_bad[:3]))
    rb.check(f"{tag}.containment", not contain_bad, "; ".join(contain_bad[:3]))


def _verify_icp(spec: StructSpec, rb: ReportBuilder, tag: str, params: Mapping) -> None:
    keys, images = _split_images(spec, params, (params["sub"],))
    fan_out = params["fan_out"]
    base_bad = [
        f"{x}: base image {len(images[0].get((x,), ()))} < {fan_out}"
        for (x,) in keys
        if spec.color(x) == 0 and len(images[0].get((x,), ())) < fan_out
    ]
    rb.check(f"{tag}.base-images", not base_bad, "; ".join(base_bad[:3]))
    _check_splits(spec, rb, tag, params, keys, images)
    shown = [f"{keys[a][0]},{keys[b][0]}" for a, b in _clashes(keys, images[0])]
    rb.check(f"{tag}.disjoint-images", not shown, "; ".join(shown[:3]))


def _verify_css(spec: StructSpec, rb: ReportBuilder, tag: str, params: Mapping) -> None:
    ceiling, fan_out = params["ceiling"], params["fan_out"]
    keys = [(x,) for x in sorted(spec.extent(params["sub"]))]
    color_bad: list[str] = []
    disjoint_bad: list[str] = []
    for ri, r in enumerate(params["rels"]):
        images = _image_index(spec.binary.get(r, ()))
        for key in keys:
            x = key[0]
            c = spec.color(x)
            img = images.get(key, set())
            if c is None:
                finite = sorted(y for y in img if spec.coloring.get(y, 0) is not None)
                if finite:
                    color_bad.append(f"{x}/R{ri}: image {finite[0]} is not of infinite color")
                if len(img) < fan_out:
                    color_bad.append(f"{x}/R{ri}: {len(img)} images, need {fan_out}")
                continue
            bare = sorted(y for y in img if y not in spec.coloring)
            if bare:
                color_bad.append(f"{x}/R{ri}: image {bare[0]} is uncolored")
            hits = Counter(spec.coloring[y] for y in img if y in spec.coloring)
            for k in range(c, ceiling + 1):
                if hits[k] < fan_out:
                    color_bad.append(
                        f"{x}/R{ri}: color {k} has {hits[k]} images, need {fan_out}"
                    )
            low = sum(n for k, n in hits.items() if k is not None and k < c)
            if low:
                color_bad.append(f"{x}/R{ri}: {low} images below color {c}")
        disjoint_bad += (f"{keys[a][0]},{keys[b][0]}/R{ri}" for a, b in _clashes(keys, images))
    rb.check(f"{tag}.color-monotone", not color_bad, "; ".join(color_bad[:3]))
    rb.check(f"{tag}.disjoint-images", not disjoint_bad, "; ".join(disjoint_bad[:3]))


def _verify_bu(spec: StructSpec, rb: ReportBuilder, tag: str, params: Mapping) -> None:
    keys, images = _split_images(spec, params, (params["sub1"], params["sub2"]))
    _check_splits(spec, rb, tag, params, keys, images)
    clashes = sorted((a, b, i) for i, index in enumerate(images) for a, b in _clashes(keys, index))
    shown = [f"{_label(keys[a])}~{_label(keys[b])}/R{i}" for a, b, i in clashes[:3]]
    rb.check(f"{tag}.disjoint-images", not clashes, "; ".join(shown))


_VERIFIERS = {"icp": _verify_icp, "css": _verify_css, "bu": _verify_bu}


def _verify_record(spec: StructSpec, rb: ReportBuilder, index: int) -> None:
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

@record
class PipelineStep:
    """One pipeline line: an operator keyword and its ``key=value`` arguments."""

    op: str
    args: dict[str, str]


class _Args(dict):
    """A step's arguments; a missing required one is an input error naming the step."""

    def __init__(self, step: PipelineStep):
        super().__init__(step.args)
        self.op = step.op

    def __missing__(self, key: str) -> str:
        raise ValueError(f"{self.op} step needs {key}=")


# the keys each pipeline operator reads, each with the kind of value it takes
# (formats.PIPELINE_VALUES); a pipeline file may give no other key or value
STEP_KEYS: dict[str, dict[str, str]] = {
    "base": {"parts": "integer", "colors": "integer", "per_color": "integer"},
    "qedge": {"low": "integer", "high": "integer", "principal": "flag"},
    "icp": {"sub": "text", "depth": "integer", "fan": "integer", "y": "integer-or-auto"},
    "css": {"sub": "text", "source": "text", "stubs": "text", "fan": "integer", "linked": "flag"},
    "bd": {"sub": "text", "source": "text", "stubs": "text", "fan": "integer"},
    "bu": {"sub1": "text", "sub2": "text", "depth": "integer", "fan": "integer", "z": "integer-or-auto"},
    "lmt": {"node": "text", "lam": "text", "reading": "reading"},
    "lms": {"nodes": "text", "lam": "text", "reading": "reading"},
    "note": {"text": "text"},
}


def run_pipeline(steps: Sequence[PipelineStep], check: bool = False) -> StructSpec:
    """Apply a pipeline to the colored base it declares.

    The ``base`` and ``qedge`` steps seed the structure wherever they
    appear, the last ``base`` winning; the other steps run in order.
    ``fan`` defaults to 2, ``depth`` to 1, and ``y``/``z`` to the least
    size that honors the splits; ``bd`` is ``css`` with ``linked=true``.
    With ``check`` set, each icp/css/bu record is verified as soon as it
    is applied, and a violation raises ``ValueError``.  The steps grow
    one structure in place, so each step costs what it adds.
    """
    base: dict[str, str] | None = None
    qedges: list[tuple[int, int, bool]] = []
    for step in steps:
        if step.op == "base":
            base = _Args(step)
        elif step.op == "qedge":
            a = _Args(step)
            qedges.append(
                (int(a["low"]), int(a["high"]), a.get("principal", "false") == "true")
            )
    if base is None:
        raise ValueError("pipeline needs a 'base' line")
    spec = colored_base(
        int(base["parts"]), int(base["colors"]), int(base.get("per_color", "1")), qedges
    )
    for step in steps:
        if step.op in ("base", "qedge"):
            continue
        a = _Args(step)
        fan = int(a.get("fan", "2"))
        depth = int(a.get("depth", "1"))
        if step.op == "icp":
            y = a.get("y", "auto")
            icp(spec, a["sub"], None if y == "auto" else int(y), depth, fan)
        elif step.op in ("css", "bd"):
            if "source" in a:
                stubs = spec.stubs_of(pnode(a["source"]))
            elif "stubs" in a:
                stubs = a["stubs"].split(",")
            else:
                raise ValueError(f"{step.op} step needs source= or stubs=")
            css(spec, stubs, a["sub"], fan, linked=step.op == "bd" or a.get("linked") == "true")
        elif step.op == "bu":
            z = a.get("z", "auto")
            bu(spec, a["sub1"], a["sub2"], None if z == "auto" else int(z), depth, fan)
        elif step.op == "lmt":
            apply_lmt(spec, a["node"], parse_card(a["lam"]), a.get("reading", "gt"))
        elif step.op == "lms":
            apply_lms(spec, a["nodes"].split(","), parse_card(a["lam"]), a.get("reading", "gt"))
        elif step.op == "note":
            spec.notes.append(a.get("text", ""))
            continue
        else:
            raise ValueError(f"unknown pipeline step {step.op!r}")
        rec = spec.history[-1]
        if check and rec.op in _VERIFIERS:
            # steps only append new relations, elements and colors: earlier records cannot change
            rb = ReportBuilder(f"schemes:{rec.op}")
            _verify_record(spec, rb, len(spec.history) - 1)
            bad = ", ".join(e.code for e in rb.done().violations())
            if bad:
                raise ValueError(f"scheme violation after {rec.op}: {bad}")
    return spec
