import random

import pytest

from oracles import read_struct, serialize_distribution, serialize_domination, serialize_typespace
from rklab import formats, operators
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
from rklab.preorder import close, random_preorder, sim_quotient, from_pairs
from rklab.typespace import TypeSpace


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


def test_preorder_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        p = random_preorder(rng, rng.randint(1, 8), rng.uniform(0.1, 0.5))
        assert formats.parse_preorder(formats.serialize_preorder(p)) == p


def test_domination_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng)
        assert formats.parse_domination(serialize_domination(g)) == g


def test_typespace_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        ts = random_space(rng)
        assert formats.parse_typespace(serialize_typespace(ts)) == ts


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
        text = serialize_distribution(spec)
        parsed = formats.parse_distribution(text)
        assert serialize_distribution(parsed) == text
        assert parsed.order == spec.order
        assert parsed.values == spec.values
        assert parsed.partition == spec.partition


def random_struct(rng: random.Random):
    from rklab.cardinal import parse_card
    from rklab.operators import OpRecord, StructSpec

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
        nodes[name] = TypeNode(name, prime and rng.random() < 0.4, prime)
    if names and rng.random() < 0.5:
        stub = f"{names[0]}[01]"
        nodes[stub] = TypeNode(stub, stub_of=names[0], stub_bits="01", realized=True)
    edges = tuple(
        DomEdge(rng.choice(names), rng.choice(names), f"w{i}", rng.random() < 0.5)
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
    return StructSpec(
        universe, unary, coloring, binary, ternary, nodes.values(), edges, targets, notes, history
    )


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
        parsed = read_struct(text)
        assert parsed == struct
        assert formats.serialize_struct(parsed) == text
    for _ in range(200):
        struct = random_struct(rng)
        text = formats.serialize_struct(struct)
        assert read_struct(text) == struct


def test_registry_graph_round_trips_through_a_dg_file():
    # a .dg file carries the registry's stub words, so nothing is dropped
    pipe = "base parts=2 colors=1\nqedge low=0 high=1\nicp sub=P0 depth=2\ncss source=P0 sub=P1\n"
    g = operators.run_pipeline(formats.parse_pipeline(pipe)).to_domination_graph()
    assert any(n.stub_of is not None and n.realized for n in g.nodes)
    assert formats.parse_domination(serialize_domination(g)) == g


def test_struct_with_an_empty_note_round_trips():
    # an empty note is written as "note " and read back as ""
    spec = operators.run_pipeline(formats.parse_pipeline("base parts=1 colors=1\nnote\n"))
    assert read_struct(formats.serialize_struct(spec)) == spec


NODE_GRAMMAR = "<id> [principal] [prime] [stub-of <id> bits <bits|->] [realized]"


@pytest.mark.parametrize(
    "text, message",
    [
        ("# graph\n\ntype a\ntype c\n\nb dominates a via f\n",
         "bad.dg:6: expected an edge between declared nodes, got 'b dominates a via f'"),
        ("type a principal\n# b\ntype b prime\n",
         "bad.dg:1: expected a well-formed node, got 'principal node a must have a prime model'"),
        ("type a\n\ntype b\ntype a prime\n", "bad.dg:4: expected one line per node, got 'type a prime'"),
        ("type a\ntype b\nb dominates a via f\n# again\nb dominates a via f\n",
         "bad.dg:5: expected one line per edge, got 'b dominates a via f'"),
        ("type a\ntype n garbage\n", f"bad.dg:2: expected 'type {NODE_GRAMMAR}', got 'type n garbage'"),
        ("type n stub-of\n", f"bad.dg:1: expected 'type {NODE_GRAMMAR}', got 'type n stub-of'"),
        ("type n\ntype m\nn dominates m via L junk\n",
         "bad.dg:3: expected '<q> dominates <p> via <label> [principal]', got 'n dominates m via L junk'"),
    ],
    ids=["undeclared-end-node", "principal-without-prime", "repeated-node", "repeated-edge",
         "node-junk", "stub-of-cut-short", "edge-junk"],
)
def test_domination_refusals_cite_the_line_at_fault(text, message):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_domination(text, "bad.dg")
    assert str(err.value) == message


# a random value of each kind a pipeline key takes (operators.STEP_KEYS)
PIPELINE_VALUE_OF = {
    "text": lambda rng: f"v{rng.randrange(9)}",
    "integer": lambda rng: str(rng.randrange(-1, 9)),
    "integer-or-auto": lambda rng: rng.choice(["auto", str(rng.randrange(9))]),
    "flag": lambda rng: rng.choice(["true", "false"]),
    "reading": lambda rng: rng.choice(["gt", "geq"]),
}


def test_pipeline_random_round_trip():
    rng = random.Random(7)
    ops_pool = sorted(operators.STEP_KEYS)
    for _ in range(200):
        steps = []
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(ops_pool)
            keys = operators.STEP_KEYS[op]
            picked = rng.sample(sorted(keys), rng.randint(0, min(3, len(keys))))
            steps.append(operators.PipelineStep(op, {k: PIPELINE_VALUE_OF[keys[k]](rng) for k in picked}))
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("base parts=1 colors=1\nicp sub=P0 dpth=3\n",
         "p.pipe:2: expected a key of 'icp' among sub, depth, fan, y, got 'dpth=3'"),
        ("base parts=2 colors=1\n# sub P1\ncss sub=P1 source=P0 depth=2\n",
         "p.pipe:3: expected a key of 'css' among sub, source, stubs, fan, linked, got 'depth=2'"),
        ("base parts=1 colors=1 per-color=2\n",
         "p.pipe:1: expected a key of 'base' among parts, colors, per_color, got 'per-color=2'"),
        ("base parts=1 colors=1\nicp sub=P0 depth=3 depth=1\n",
         "p.pipe:2: expected one 'depth=' per step, got 'depth=1'"),
        ("base parts=1 colors=1\nicp sub=P0\nbd sub=P0 source=P0 linked=false\n",
         "p.pipe:3: expected a key of 'bd' among sub, source, stubs, fan, got 'linked=false'"),
        ("base parts=2 colors=1\nicp sub=P0\ncss sub=P1 source=P0 linked=yes\n",
         "p.pipe:3: expected 'linked=true|false', got 'linked=yes'"),
        ("base parts=2 colors=1\nqedge low=0 high=1 principal=yes\n",
         "p.pipe:2: expected 'principal=true|false', got 'principal=yes'"),
        ("base parts=1 colors=1\nlmt node=p(P0) lam=2 reading=xyz\n",
         "p.pipe:2: expected 'reading=gt|geq', got 'reading=xyz'"),
        ("base parts=1 colors=1\nicp sub=P0 fan=x\n",
         "p.pipe:2: expected 'fan=<integer>', got 'fan=x'"),
        ("base parts=2 colors=1\nbu sub1=P0 sub2=P1 z=least\n",
         "p.pipe:2: expected 'z=<integer>|auto', got 'z=least'"),
        ("base parts=1 colors=\n", "p.pipe:1: expected 'colors=<integer>', got 'colors='"),
    ],
    ids=["misspelled-depth", "depth-on-css", "misspelled-per-color", "repeated-depth", "linked-on-bd",
         "linked-yes", "principal-yes", "reading-xyz", "fan-x", "z-word", "colors-empty"],
)
def test_pipeline_keys_its_operator_does_not_read_are_refused(text, message):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_pipeline(text, "p.pipe")
    assert str(err.value) == message


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


@pytest.mark.parametrize(
    "text, line_no, expected",
    [
        ("family: iup\ndepth: 3\ndepth: 4\n", 3, "one 'depth:' line"),
        ("family: iup\nfoo: 1\ndepth: 3\n", 2, "a key among family, m, depth"),
        ("# space\nfamily: iup\n\ndepth: x\n", 4, "integer depth"),
        ("depth: 2\nm: two\nfamily: colored\n", 2, "integer m"),
        ("# space\nfamily: iup\ndepth: 17\n", 2, "a valid type space"),
    ],
    ids=["ts-repeat", "ts-unknown", "ts-depth", "ts-m", "ts-space"],
)
def test_header_keys_appear_once_and_errors_cite_their_line(text, line_no, expected):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_typespace(text, "h.txt")
    assert (err.value.line_no, err.value.expected) == (line_no, expected)


def test_distribution_preorder_errors_cite_file_lines():
    # the preorder block is read from the file's own numbered lines
    text = "elements: 2\n# a comment\n\n0 <= 1\nmode: finite\n1 <= x\nf: {0} = 1\n"
    with pytest.raises(formats.ParseError) as err:
        formats.parse_distribution(text, "a.ds")
    assert (err.value.path, err.value.line_no, err.value.got) == ("a.ds", 6, "1 <= x")


def test_distribution_partition_element_must_be_an_integer():
    text = "elements: 2\n0 <= 1\nmode: finite\nf: {0} = 1\nf: {1} = 1\npartition: x P\n"
    with pytest.raises(formats.ParseError) as err:
        formats.parse_distribution(text, "b.ds")
    assert str(err.value) == "b.ds:6: expected an integer partition element, got 'x'"


def test_distribution_class_key_members_must_be_integers():
    text = "elements: 2\n0 <= 1\nmode: finite\nf: {0,a} = 0\n"
    with pytest.raises(formats.ParseError) as err:
        formats.parse_distribution(text, "c.ds")
    assert str(err.value) == "c.ds:4: expected '{i,j,...}' class key, got '{0,a}'"


SPEC_HEAD = "elements: 2\n0 <= 1\n"


@pytest.mark.parametrize(
    "body, message",
    [
        # a key of the other mode's kind
        ("mode: countable-truncated\nf: 0<1 = 1\nf: {0} = 5\n",
         "d.ds:5: expected 'i<j<k' sequence key, got '{0}'"),
        ("mode: finite\nf: {0} = 1\nf: {1} = 0\nf: 0<1 = 7\n",
         "d.ds:6: expected '{i,j,...}' class key, got '0<1'"),
        # a key, an element or the mode given twice
        ("mode: finite\nf: {0} = 1\nf: {1} = 0\nf: {0} = 2\n",
         "d.ds:6: expected one 'f:' line per key, got 'f: {0} = 2'"),
        ("mode: countable-truncated\nf: 0<1 = 1\nf: 0<1<... = 2\nf: 0<1 = 1\n",
         "d.ds:6: expected one 'f:' line per key, got 'f: 0<1 = 1'"),
        ("mode: finite\nf: {0} = 1\nf: {1} = 0\npartition: 0 P\npartition: 1 P\npartition: 0 NPL\n",
         "d.ds:8: expected one 'partition:' line per element, got 'partition: 0 NPL'"),
        ("mode: finite\nf: {0} = 1\nf: {1} = 0\nmode: countable-truncated\n",
         "d.ds:6: expected one 'mode:' line, got 'mode: countable-truncated'"),
    ],
    ids=["class-key-in-sequence-mode", "chain-key-in-finite-mode", "repeated-class-key",
         "repeated-chain-key", "repeated-partition-element", "second-mode"],
)
def test_distribution_lines_that_would_be_dropped_are_refused(body, message):
    # each was dropped or overwritten without a message before
    with pytest.raises(formats.ParseError) as err:
        formats.parse_distribution(SPEC_HEAD + body, "d.ds")
    assert str(err.value) == message


def test_quotient_dot_output():
    q = sim_quotient(close(from_pairs(3, [(0, 1), (1, 2)])))
    dot = formats.quotient_dot(q)
    assert dot.startswith("digraph")
    assert "c0 -> c1" in dot
