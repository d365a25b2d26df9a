"""Theory-building operators as transformers on finite structure specs.

Each operator takes a structure spec, adds ground relation tuples
realizing its axiom schemes, and updates the type registry's prime and
limit bookkeeping.  "Infinitely many" in a scheme is rendered as a
configured fan-out of witnesses per required class; the fan-out is
recorded in the application history so the scheme checker re-evaluates
against the same figure.

The limit operators do not materialise relations at all: they record
in the registry the intended number of limit models over a type or a
sequence of types that earlier steps made, and the fact that the
linking relations never semi-isolate backwards.  The identity systems
that count those models are ``limitcount``'s, behind the ``limits``
command.

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

from .cardinal import CONTINUUM, Card, check_limit_count, render
from .domination import DomEdge, DominationGraph, TypeNode
from .record import record, replace
from .report import Budget, Report, ReportBuilder

Color = int | None  # None is the infinite color

# the most elements the operators may grow a structure to, checked before each
# step allocates; the costliest plan within it peaks at about 350 MB (README)
UNIVERSE_CAP = Budget("universe cap", 250_000, "elements")


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
            raise ValueError(f"no unary predicate {pred!r}")
        return self.unary[pred]

    def color(self, el: str) -> Color:
        if el not in self.coloring:
            raise ValueError(f"element {el!r} is uncolored")
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
        """Apply ``changes`` to the named node."""
        self.put_node(replace(self.nodes[name], **changes))

    def stubs_of(self, p: str) -> list[str]:
        """The names of the continuation stubs registered over ``p``, sorted."""
        return sorted(self.stubs.get(p, ()))

    def to_domination_graph(self) -> DominationGraph:
        nodes = tuple(sorted(self.nodes.values(), key=lambda n: n.name))
        return DominationGraph(nodes, tuple(self.edges))


def colored_base(parts: int, colors: int, per_color: int = 1) -> StructSpec:
    """Partitioned colored structure: the common starting point.

    ``parts`` unary predicates partition the universe; each part carries
    every color 0..colors-1 (``per_color`` elements each) plus one
    infinite-color element, whose type is the part's non-principal type.
    """
    if parts < 1 or colors < 1 or per_color < 1:
        raise ValueError("parts, colors, per_color must be positive")
    UNIVERSE_CAP.check(parts * (colors * per_color + 1))
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
    return StructSpec(universe, unary, coloring, {}, {}, nodes)


def add_qedge(spec: StructSpec, low: int, high: int, principal: bool) -> None:
    """Link the types of parts ``low`` and ``high`` of a colored base, so
    the high type dominates the low one, materialised as a color-monotone
    binary predicate over each part's first element of each color, whose
    pairs are counted against the cap before they are built."""
    if f"P{low}" not in spec.unary or f"P{high}" not in spec.unary or low == high:
        raise ValueError(f"bad q edge ({low},{high})")
    # each part's first element of each color; the last written wins, so read backwards
    lo, hi = ({spec.color(x): x for x in reversed(spec.extent(f"P{p}"))} for p in (low, high))
    colors = sorted(c for c in lo if c is not None)
    # a q edge links each color to every color at or below it, and the infinite colors
    UNIVERSE_CAP.check(sum(map(len, spec.binary.values())) + len(colors) * (len(colors) + 1) // 2 + 1, "q-edge pairs")
    # range side color j, domain side color i >= j
    rows = [(lo[i], hi[j]) for j in colors for i in colors if i >= j]
    qname = f"Q{low}_{high}"
    spec.binary[qname] = (*rows, (lo[None], hi[None]))
    spec.edges[DomEdge(pnode(f"P{high}"), pnode(f"P{low}"), qname, principal)] = None


# -- sizing helpers -----------------------------------------------------------

def _split_depth(colors: Iterable[Color], depth: int) -> int:
    """Split depth of an element or pair: its least finite color, else ``depth``."""
    finite = [c for c in colors if c is not None]
    return min(finite) if finite else depth


def _split_need(spec: StructSpec, subs: Sequence[str], depth: int, fan_out: int) -> int:
    """The witnesses ``_split`` gives the tuples of the extents of ``subs``, counted per
    color: the tuples whose least finite color is c, those with every color at or above c
    less those with every color above it (the infinite one above all), take 2^c blocks
    each, and those of infinite colors alone 2^depth."""
    counts = [Counter(map(spec.color, spec.extent(sub))) for sub in subs]
    above = [n.pop(None, 0) for n in counts]  # per extent, its elements above the color at hand
    total = math.prod(above) << depth
    for c in sorted(set().union(*counts), reverse=True):
        fewer = math.prod(above)
        above = [a + n[c] for a, n in zip(above, counts)]
        total += (math.prod(above) - fewer) << c
    return total * fan_out


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
    UNIVERSE_CAP.check(len(spec.universe) + max(fresh, need))
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

def icp(spec: StructSpec, sub: str, fresh_y: int | None, depth: int, fan_out: int) -> StructSpec:
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
    spec: StructSpec, q_subset: Sequence[str], sub: str, fan_out: int, linked: bool = False
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
    stubs: dict[str, TypeNode] = {}
    for name in q_subset:
        node = spec.nodes.get(name)
        if node is None or node.stub_of is None:
            raise ValueError(f"{name!r} is not a continuation stub")
        if name in stubs:
            raise ValueError(f"stub {name!r} is named twice")
        stubs[name] = node
    depths = {len(n.stub_bits) for n in stubs.values()}
    if len(depths) != 1:
        raise ValueError("stubs come from different split depths")
    ceiling = depths.pop()
    _check_colored_extent(spec, sub, ceiling)
    # each stub gives an element of color c one target per color c..ceiling
    per_stub = sum(1 if c is None else ceiling + 1 - c for c in map(spec.color, spec.extent(sub)))
    UNIVERSE_CAP.check(len(spec.universe) + len(stubs) * per_stub * fan_out)
    app = len(spec.history)
    rels = [f"{sub}.css{app}.R{j}" for j in range(len(stubs))]
    tuples: dict[str, list[tuple[str, str]]] = {r: [] for r in rels}
    fresh: list[str] = []
    colors: list[Color] = []
    for rel in rels:
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
                tuples[rel].append((x, t))
    spec.add_elements(fresh, "T")
    spec.coloring.update(zip(fresh, colors))
    for r in rels:
        spec.binary[r] = tuple(tuples[r])
    p = pnode(sub)
    spec.set_node(p, prime=True)
    for name in stubs:
        spec.set_node(name, realized=True)
    msg = f"css on {sub}: prime model over {p} realizes exactly {len(stubs)} stubs"
    if linked:
        msg += " (linked: removing a realized stub removes the type)"
    spec.notes.append(msg)
    spec.history.append(OpRecord("css", {
        "sub": sub, "stubs": tuple(stubs), "rels": tuple(rels),
        "ceiling": ceiling, "fan_out": fan_out, "linked": linked, "seed": 0,
    }))
    return spec


def bu(
    spec: StructSpec, sub1: str, sub2: str, fresh_z: int | None, depth: int, fan_out: int
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
    """Record the limit target over a type a step made: a count in 1..w,
    or a continuum, which leaves the extension tree free."""
    if lam != CONTINUUM:
        check_limit_count(lam)
    if p not in spec.nodes:
        raise ValueError(f"no type node {p!r}")
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
        if p not in spec.nodes:
            raise ValueError(f"no type node {p!r}")
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
    """One pipeline line: an operator keyword and its arguments, of the kinds ``STEP_KEYS`` gives."""

    op: str
    args: dict[str, object]


# the keys each pipeline operator reads, each with the kind of its value (formats
# reads and writes each kind) and its default, ``...`` where a step must give it
STEP_KEYS: dict[str, dict[str, tuple[str, object]]] = {
    "base": {"parts": ("integer", ...), "colors": ("integer", ...), "per_color": ("integer", 1)},
    "qedge": {"low": ("integer", ...), "high": ("integer", ...), "principal": ("flag", False)},
    "icp": {"sub": ("text", ...), "depth": ("integer", 1), "fan": ("integer", 2),
            "y": ("integer-or-auto", None)},
    "css": {"sub": ("text", ...), "source": ("text", ...), "stubs": ("node-list", ...),
            "fan": ("integer", 2), "linked": ("flag", False)},
    "bd": {"sub": ("text", ...), "source": ("text", ...), "stubs": ("node-list", ...),
           "fan": ("integer", 2)},
    "bu": {"sub1": ("text", ...), "sub2": ("text", ...), "depth": ("integer", 1), "fan": ("integer", 2),
           "z": ("integer-or-auto", None)},
    "lmt": {"node": ("text", ...), "lam": ("cardinal", ...), "reading": ("reading", "gt")},
    "lms": {"nodes": ("node-list", ...), "lam": ("cardinal", ...), "reading": ("reading", "gt")},
    "note": {"text": ("text", "")},
}


class _Args(dict):
    """A step's arguments over its keys' defaults; a missing one is an input error naming the step."""

    def __init__(self, step: PipelineStep):
        super().__init__({k: d for k, (_, d) in STEP_KEYS[step.op].items() if d is not ...}, **step.args)
        self.op = step.op

    def __missing__(self, key: str) -> object:
        raise ValueError(f"{self.op} step needs {key}=")


def run_pipeline(steps: Sequence[PipelineStep], check: bool = False) -> StructSpec:
    """Apply a pipeline to the colored base it declares.

    The ``base`` and ``qedge`` steps seed the structure wherever they
    appear; the other steps run in order.  A key a step leaves out takes
    its ``STEP_KEYS`` default (a ``y`` or ``z`` of None is the least size
    that honors the splits); ``bd`` is ``css`` with ``linked`` set.
    With ``check`` set, each icp/css/bu record is verified as soon as it
    is applied, and a violation raises ``ValueError``.  The steps grow
    one structure in place, so each step costs what it adds.  A refusal
    names the step at fault by its index in ``steps``, as ``exc.step``.
    """
    if all(step.op != "base" for step in steps):
        raise ValueError("pipeline needs a 'base' line")
    seeds = {"base": 0, "qedge": 1}
    for i in sorted(range(len(steps)), key=lambda i: seeds.get(steps[i].op, 2)):
        try:
            a = _Args(steps[i])
            if a.op == "base":
                spec = colored_base(a["parts"], a["colors"], a["per_color"])
            elif a.op == "qedge":
                add_qedge(spec, a["low"], a["high"], a["principal"])
            else:
                _run_step(spec, a, check)
        except ValueError as exc:
            exc.step = i
            raise
    return spec


def _run_step(spec: StructSpec, a: _Args, check: bool) -> None:
    """Apply one operator step, verifying its record with ``check`` set."""
    if a.op == "icp":
        icp(spec, a["sub"], a["y"], a["depth"], a["fan"])
    elif a.op in ("css", "bd"):
        if "source" in a:
            stubs = spec.stubs_of(pnode(a["source"]))
        elif "stubs" in a:
            stubs = a["stubs"]
        else:
            raise ValueError(f"{a.op} step needs source= or stubs=")
        css(spec, stubs, a["sub"], a["fan"], linked=a.op == "bd" or a["linked"])
    elif a.op == "bu":
        bu(spec, a["sub1"], a["sub2"], a["z"], a["depth"], a["fan"])
    elif a.op == "lmt":
        apply_lmt(spec, a["node"], a["lam"], a["reading"])
    elif a.op == "lms":
        apply_lms(spec, a["nodes"], a["lam"], a["reading"])
    else:
        spec.notes.append(a["text"])
        return
    rec = spec.history[-1]
    if check and rec.op in _VERIFIERS:
        # steps only append new relations, elements and colors: earlier records cannot change
        rb = ReportBuilder(f"schemes:{rec.op}")
        _verify_record(spec, rb, len(spec.history) - 1)
        bad = ", ".join(e.code for e in rb.done().violations())
        if bad:
            raise ValueError(f"scheme violation after {rec.op}: {bad}")
