"""Seeded input generator for the benchmark, in the README text formats.

It imports nothing from ``rklab``: a change to the program cannot change
the inputs it is measured on.  Every generator takes a ``random.Random``
and a fixed *shape*; the seed only relabels elements, picks the cross
edges between classes, the limit-count values and the line order, so the
work a shape asks for stays nearly the same from seed to seed while the
files differ.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

CARDS = ("1", "2", "w", "c")


@dataclass(frozen=True)
class Order:
    """A generated preorder: ``classes`` are the intended mutual-domination
    classes (as labels), ``pairs`` the generator lines ``i <= j``."""

    n: int
    classes: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]
    chains: tuple[tuple[int, ...], ...]  # per component, one label per level, each <= the next


def layered_order(rng: random.Random, components) -> Order:
    """Disjoint components, each a list of levels, each level a list of class
    sizes.  Every class above level 0 sits over at least one class of the
    level below and every class below the top has one above it, so the
    maxima of a component are exactly its top-level classes."""
    classes: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    chains: list[list[int]] = []
    nxt = 0
    for levels in components:
        by_level: list[list[int]] = []
        for sizes in levels:
            ids = []
            for size in sizes:
                members = list(range(nxt, nxt + size))
                nxt += size
                ids.append(len(classes))
                classes.append(members)
            by_level.append(ids)
        for ids in by_level:
            for c in ids:
                ring = classes[c][:]
                rng.shuffle(ring)
                if len(ring) > 1:
                    pairs.extend(zip(ring, ring[1:] + ring[:1]))
        up: dict[int, list[int]] = {}
        for low, high in zip(by_level, by_level[1:]):
            for u in high:
                for d in rng.sample(low, min(len(low), 1 + (rng.random() < 0.3))):
                    up.setdefault(d, []).append(u)
            for d in low:
                if d not in up:
                    up[d] = [rng.choice(high)]
            for d in low:
                for u in up[d]:
                    pairs.append((rng.choice(classes[d]), rng.choice(classes[u])))
        c = rng.choice(by_level[0])
        chain = [rng.choice(classes[c])]
        while c in up:
            c = rng.choice(up[c])
            chain.append(rng.choice(classes[c]))
        chains.append(chain)
    perm = list(range(nxt))
    rng.shuffle(perm)
    pairs = [(perm[a], perm[b]) for a, b in pairs]
    rng.shuffle(pairs)
    return Order(
        nxt,
        tuple(tuple(sorted(perm[m] for m in members)) for members in classes),
        tuple(pairs),
        tuple(tuple(perm[e] for e in chain) for chain in chains),
    )


def preorder_text(order: Order) -> str:
    lines = [f"elements: {order.n}"]
    lines.extend(f"{i} <= {j}" for i, j in order.pairs)
    return "\n".join(lines) + "\n"


def finite_values(rng: random.Random, order: Order) -> dict[tuple[int, ...], str]:
    """f per class; fat classes need a positive value."""
    return {
        members: rng.choice(CARDS if len(members) > 1 else ("0",) + CARDS)
        for members in order.classes
    }


def sequence_values(rng: random.Random, order: Order) -> dict[tuple[int, ...], str]:
    """Extendable sequence keys: every prefix of two or more entries of each
    component's chain.  A strictly growing sequence needs a positive value."""
    out = {}
    for chain in order.chains:
        for end in range(2, len(chain) + 1):
            out[chain[:end]] = rng.choice(CARDS)
    return out


def spec_text(
    rng: random.Random,
    order: Order,
    values: dict[tuple[int, ...], str],
    mode: str = "finite",
    npl: int = 0,
) -> tuple[str, dict[int, str]]:
    """Distribution spec; ``npl`` elements (chosen by the seed) are labelled
    NPL and the rest P when ``npl`` is positive."""
    lines = [preorder_text(order).rstrip(), f"mode: {mode}"]
    if mode == "finite":
        for members, v in sorted(values.items()):
            lines.append("f: {" + ",".join(map(str, members)) + "} = " + v)
    else:
        for key, v in sorted(values.items()):
            lines.append("f: " + "<".join(map(str, key)) + "<... = " + v)
    partition: dict[int, str] = {}
    if npl:
        chosen = set(rng.sample(range(order.n), npl))
        partition = {e: ("NPL" if e in chosen else "P") for e in range(order.n)}
        lines.extend(f"partition: {e} {label}" for e, label in sorted(partition.items()))
    return "\n".join(lines) + "\n", partition


@dataclass(frozen=True)
class Graph:
    names: tuple[str, ...]
    prime: tuple[bool, ...]
    principal: tuple[bool, ...]
    edges: tuple[tuple[int, int, str, bool], ...]  # (src, dst, label, principal)


def domination_graph(rng: random.Random, n: int, levels: int, cycles: int) -> Graph:
    """``n`` types over ``levels`` layers; each type above layer 0 dominates one
    or two types of the layer below, and ``cycles`` back edges create
    mutual-domination classes.  The graph's shape depends only on the size
    parameters, since the cost of its closure grows with the number of
    reachable pairs; the seed picks the names, node order, labels and line
    order."""
    shape = random.Random(f"graph-{n}-{levels}-{cycles}")
    layer = [i * levels // n for i in range(n)]
    by_layer: list[list[int]] = [[] for _ in range(levels)]
    for i, lv in enumerate(layer):
        by_layer[lv].append(i)
    edges = []
    for i in range(n):
        if layer[i] == 0:
            continue
        for d in shape.sample(by_layer[layer[i] - 1], 1 + (shape.random() < 0.4)):
            edges.append((i, d))
    for _ in range(cycles):
        lv = shape.randrange(1, levels)
        hi = shape.choice(by_layer[lv])
        lo = shape.choice(by_layer[lv - 1])
        edges.append((lo, hi))
        edges.append((hi, lo))
    prime = [shape.random() < 0.7 for _ in range(n)]
    principal = [p and shape.random() < 0.25 for p in prime]
    edge_principal = [shape.random() < 0.3 for _ in edges]
    perm = list(range(n))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}
    tags = rng.sample(range(10 * n), n)
    names = tuple(f"t{tags[old]}" for old in perm)
    out_edges = []
    for k, ((src, dst), principal_edge) in enumerate(zip(edges, edge_principal)):
        out_edges.append((inv[src], inv[dst], f"f{rng.randrange(10**6)}_{k}", principal_edge))
    rng.shuffle(out_edges)
    return Graph(
        names,
        tuple(prime[old] for old in perm),
        tuple(principal[old] for old in perm),
        tuple(out_edges),
    )


def graph_text(g: Graph) -> str:
    lines = []
    for name, prime, principal in zip(g.names, g.prime, g.principal):
        line = f"type {name}"
        if principal:
            line += " principal"
        if prime:
            line += " prime"
        lines.append(line)
    for src, dst, label, principal in g.edges:
        line = f"{g.names[src]} dominates {g.names[dst]} via {label}"
        if principal:
            line += " principal"
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Pipeline:
    parts: int
    colors: int
    per_color: int
    steps: tuple[tuple[str, dict[str, str]], ...]  # operator steps after the base


def pipeline(
    rng: random.Random, parts: int, colors: int, depth: int, fan: int, bus: int
) -> Pipeline:
    """A partition on a seeded source part, allocations to every part, ``bus``
    bans on seeded part pairs, q edges along a seeded chain, and limit
    targets on a few parts and one sequence."""
    steps: list[tuple[str, dict[str, str]]] = []
    labels = list(range(parts))
    rng.shuffle(labels)
    for low, high in zip(labels, labels[1:]):
        if rng.random() < 0.5:
            steps.append(("qedge", {"low": str(low), "high": str(high),
                                    "principal": rng.choice(("true", "false"))}))
    source = labels[0]
    steps.append(("icp", {"sub": f"P{source}", "depth": str(depth), "fan": str(fan), "y": "auto"}))
    for p in labels:
        steps.append(("css", {"sub": f"P{p}", "source": f"P{source}", "fan": str(fan)}))
    all_pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    for a, b in rng.sample(all_pairs, bus):
        steps.append(("bu", {"sub1": f"P{a}", "sub2": f"P{b}", "depth": str(depth),
                             "fan": str(fan), "z": "auto"}))
    for p in rng.sample(labels, 3):
        steps.append(("lmt", {"node": f"p(P{p})", "lam": rng.choice(CARDS)}))
    seq = ",".join(f"p(P{p})" for p in labels[:3])
    steps.append(("lms", {"nodes": seq, "lam": rng.choice(CARDS)}))
    steps.append(("note", {"text": f"seeded_{rng.randrange(10**6)}"}))
    return Pipeline(parts, colors, 1, tuple(steps))


def pipeline_text(p: Pipeline) -> str:
    lines = [f"base colors={p.colors} parts={p.parts} per_color={p.per_color}"]
    for op, args in p.steps:
        lines.append(" ".join([op] + [f"{k}={v}" for k, v in sorted(args.items())]))
    return "\n".join(lines) + "\n"
