import random

import pytest

from rklab import formats
from rklab.cardinal import CONTINUUM, OMEGA, ZERO, fin
from rklab.distribution import (
    BuildConfig,
    SeqKey,
    build_blueprint,
    finite_spec,
    replay_blueprint,
    sequence_spec,
)
from rklab.domination import DomEdge, DominationGraph, TypeNode
from rklab.models import ModelSpec, explicit, full_base
from rklab.preorder import close, random_preorder, sim_quotient, from_pairs
from rklab.typespace import TypeSpace, enumerate_types


def random_graph(rng: random.Random) -> DominationGraph:
    n = rng.randint(1, 6)
    nodes = []
    for i in range(n):
        prime = rng.random() < 0.6
        principal = prime and rng.random() < 0.3
        nodes.append(TypeNode(f"t{i}", principal=principal, prime=prime))
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.25:
                edges.append(
                    DomEdge(f"t{i}", f"t{j}", f"w{i}{j}", rng.random() < 0.5)
                )
    return DominationGraph(tuple(nodes), tuple(edges))


def random_space(rng: random.Random) -> TypeSpace:
    family = rng.choice(["iup", "sdup", "colored"])
    depth = rng.randint(1, 4)
    return TypeSpace(family, depth, rng.randint(1, 3) if family == "colored" else None)


def random_modelspec(rng: random.Random) -> ModelSpec:
    ts = TypeSpace("iup", rng.randint(1, 3))
    cells = enumerate_types(ts)
    if rng.random() < 0.5:
        spec = full_base(ts)
        for cell in cells:
            if rng.random() < 0.4:
                spec = spec.with_delta(cell, rng.randint(-2, 2))
        return spec
    return explicit(ts, {c: rng.randint(1, 4) for c in cells})


def test_preorder_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        p = random_preorder(rng, rng.randint(1, 8), rng.uniform(0.1, 0.5))
        assert formats.parse_preorder(formats.serialize_preorder(p)) == p


def test_domination_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng)
        assert formats.parse_domination(formats.serialize_domination(g)) == g


def test_typespace_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        ts = random_space(rng)
        assert formats.parse_typespace(formats.serialize_typespace(ts)) == ts


def test_modelspec_round_trip():
    rng = random.Random(4)
    for _ in range(200):
        spec = random_modelspec(rng)
        assert formats.parse_modelspec(formats.serialize_modelspec(spec)) == spec


def test_distribution_round_trip():
    rng = random.Random(5)
    cards = [ZERO, fin(1), fin(2), OMEGA, CONTINUUM]
    for trial in range(200):
        order = random_preorder(rng, rng.randint(1, 5), 0.3)
        if trial % 2 == 0:
            q = sim_quotient(order)
            values = {
                frozenset(c): (fin(1) if len(c) > 1 else rng.choice(cards))
                for c in q.classes
            }
            partition = (
                {i: rng.choice(["P", "NPL"]) for i in range(order.n)}
                if rng.random() < 0.5
                else None
            )
            spec = finite_spec(order, values, partition)
        else:
            chain = [0]
            for nxt in range(1, order.n):
                if order.le(chain[-1], nxt):
                    chain.append(nxt)
            key = SeqKey(tuple(chain), extendable=rng.random() < 0.5)
            spec = sequence_spec(order, {key: rng.choice(cards)})
        text = formats.serialize_distribution(spec)
        parsed = formats.parse_distribution(text)
        assert formats.serialize_distribution(parsed) == text
        assert parsed.order == spec.order
        assert parsed.class_values == spec.class_values
        assert parsed.seq_values == spec.seq_values
        assert parsed.partition == spec.partition


def random_struct(rng: random.Random):
    from rklab.cardinal import parse_card
    from rklab.operators import OpRecord, RegEdge, RegNode, Registry, StructSpec

    n = rng.randint(1, 8)
    universe = tuple(f"e{i}" for i in range(n))
    unary = {
        f"P{k}": tuple(e for e in universe if rng.random() < 0.6)
        for k in range(rng.randint(0, 2))
    }
    coloring = {
        e: rng.choice([0, 1, 2, None]) for e in universe if rng.random() < 0.7
    }
    binary = {}
    for k in range(rng.randint(0, 2)):
        pairs = tuple(
            (rng.choice(universe), rng.choice(universe))
            for _ in range(rng.randint(1, 4))
        )
        binary[f"R{k}"] = pairs
    ternary = {}
    if rng.random() < 0.4:
        ternary["S0"] = tuple(
            (rng.choice(universe), rng.choice(universe), rng.choice(universe))
            for _ in range(rng.randint(1, 3))
        )
    names = [f"p(P{k})" for k in range(rng.randint(0, 3))]
    nodes = {}
    for name in names:
        prime = rng.random() < 0.6
        nodes[name] = RegNode(name, prime and rng.random() < 0.4, prime)
    if names and rng.random() < 0.5:
        stub = f"{names[0]}[01]"
        nodes[stub] = RegNode(stub, stub_of=names[0], stub_bits="01", realized=True)
    edges = tuple(
        RegEdge(rng.choice(names), rng.choice(names), f"w{i}", rng.random() < 0.5)
        for i in range(rng.randint(0, 2))
        if names
    )
    targets = (
        {names[0]: parse_card(rng.choice(["0", "2", "w", "c"]))} if names else {}
    )
    notes = tuple(f"note-{i}" for i in range(rng.randint(0, 2)))
    history = tuple(
        OpRecord("icp", {"sub": "P0", "depth": 1, "fan_out": 2, "rels": ("a", "b"), "ys": (), "seed": 0})
        for _ in range(rng.randint(0, 2))
    )
    registry = Registry(nodes, edges, targets, notes)
    return StructSpec(universe, unary, coloring, binary, ternary, registry, history)


def test_struct_round_trip():
    cfg = BuildConfig(colors=1, per_color=1, depth=1, fan_out=1)
    rng = random.Random(6)
    for _ in range(5):
        order = random_preorder(rng, rng.randint(1, 4), 0.3)
        q = sim_quotient(order)
        values = {frozenset(c): (fin(1) if len(c) > 1 else ZERO) for c in q.classes}
        spec = finite_spec(order, values)
        struct = replay_blueprint(build_blueprint(spec, "t77", cfg), cfg)
        text = formats.serialize_struct(struct)
        parsed = formats.parse_struct(text)
        assert parsed == struct
        assert formats.serialize_struct(parsed) == text
    for _ in range(200):
        struct = random_struct(rng)
        text = formats.serialize_struct(struct)
        assert formats.parse_struct(text) == struct


def test_pipeline_random_round_trip():
    rng = random.Random(7)
    ops_pool = ["base", "qedge", "icp", "css", "bu", "lmt", "lms", "note"]
    for _ in range(200):
        steps = [
            formats.PipelineStep(
                rng.choice(ops_pool),
                {f"k{j}": f"v{rng.randrange(9)}" for j in range(rng.randint(0, 3))},
            )
            for _ in range(rng.randint(1, 6))
        ]
        text = formats.serialize_pipeline(steps)
        assert formats.parse_pipeline(text) == steps


def test_pipeline_round_trip():
    text = (
        "base colors=1 parts=2 per_color=1\n"
        "qedge high=1 low=0 principal=true\n"
        "icp depth=1 fan=2 sub=P0 y=auto\n"
        "css fan=2 source=P0 sub=P1\n"
        "lmt lam=2 node=p(P0)\n"
    )
    steps = formats.parse_pipeline(text)
    assert formats.serialize_pipeline(steps) == text
    assert steps[0].op == "base" and steps[2].args["sub"] == "P0"


def test_parse_errors_name_position_and_expectation():
    with pytest.raises(formats.ParseError) as err:
        formats.parse_preorder("elements: 2\n0 < 1\n", "bad.po")
    assert err.value.path == "bad.po"
    assert err.value.line_no == 2
    assert "<=" in err.value.expected
    with pytest.raises(formats.ParseError):
        formats.parse_preorder("0 <= 1\n")
    with pytest.raises(formats.ParseError):
        formats.parse_domination("type a\nb dominates a via f\n")
    with pytest.raises(formats.ParseError):
        formats.parse_typespace("family: iup\n")
    with pytest.raises(formats.ParseError):
        formats.parse_distribution("elements: 1\nmode: finite\n")
    with pytest.raises(formats.ParseError):
        formats.parse_pipeline("warp sub=P0\n")


def test_quotient_dot_output():
    q = sim_quotient(close(from_pairs(3, [(0, 1), (1, 2)])))
    dot = formats.quotient_dot(q)
    assert dot.startswith("digraph")
    assert "c0 -> c1" in dot
