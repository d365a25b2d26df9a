import random

import pytest

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
        assert parsed.values == spec.values
        assert parsed.partition == spec.partition


def random_struct(rng: random.Random):
    from rklab.cardinal import parse_card
    from rklab.operators import OpRecord, Registry, StructSpec

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


def test_registry_graph_round_trips_through_a_dg_file():
    # a .dg file carries the registry's stub words, so nothing is dropped
    pipe = "base parts=2 colors=1\nqedge low=0 high=1\nicp sub=P0 depth=2\ncss source=P0 sub=P1\n"
    g = operators.run_pipeline(formats.parse_pipeline(pipe)).registry.to_domination_graph()
    assert any(n.stub_of is not None and n.realized for n in g.nodes)
    assert formats.parse_domination(formats.serialize_domination(g)) == g


def test_struct_with_an_empty_note_round_trips():
    # "note " is read back as "note" once its trailing blank is stripped
    spec = operators.run_pipeline(formats.parse_pipeline("base parts=1 colors=1\nnote\n"))
    assert formats.parse_struct(formats.serialize_struct(spec)) == spec


@pytest.mark.parametrize(
    "text, message",
    [
        ("# graph\n\ntype a\ntype c\n\nb dominates a via f\n",
         "bad.dg:6: expected an edge between declared nodes, got 'b dominates a via f'"),
        ("type a principal\n# b\ntype b prime\n",
         "bad.dg:1: expected a well-formed node, got 'principal node a must have a prime model'"),
        ("type a\n\ntype b\ntype a prime\n", "bad.dg:4: expected one line per node, got 'type a prime'"),
    ],
    ids=["undeclared-end-node", "principal-without-prime", "repeated-node"],
)
def test_domination_refusals_cite_the_line_at_fault(text, message):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_domination(text, "bad.dg")
    assert str(err.value) == message


NODE_GRAMMAR = "<id> [principal] [prime] [stub-of <id> bits <bits|->] [realized]"


@pytest.mark.parametrize(
    "line, message",
    [
        ("color a = x", "s.struct:3: expected 'color <el> = <n|inf>', got 'color a = x'"),
        ("unary : a", "s.struct:3: expected 'unary <name>: ...', got 'unary : a'"),
        ("node n stub-of", f"s.struct:3: expected 'node {NODE_GRAMMAR}', got 'node n stub-of'"),
        ("node n garbage", f"s.struct:3: expected 'node {NODE_GRAMMAR}', got 'node n garbage'"),
        ("edge n dominates m via L junk",
         "s.struct:3: expected 'edge <q> dominates <p> via <label> [principal]', "
         "got 'edge n dominates m via L junk'"),
        ("edge n dominates z via L",
         "s.struct:3: expected an edge between declared nodes, got 'edge n dominates z via L'"),
        ("unary P0: a c",
         "s.struct:3: expected a consistent structure spec, got \"P0 contains unknown element 'c'\""),
        ("color c = 1",
         "s.struct:3: expected a consistent structure spec, got \"coloring mentions unknown element 'c'\""),
    ],
    ids=[
        "color-value", "unary-head", "stub-of-cut-short", "node-junk", "edge-junk", "undeclared-end-node",
        "unary-unknown-element", "color-unknown-element",
    ],
)
def test_parse_struct_refuses_with_parse_errors(line, message):
    text = f"universe: a b\nnode n\n{line}\nnode m\n"
    with pytest.raises(formats.ParseError) as err:
        formats.parse_struct(text, "s.struct")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, line_no, got",
    [
        ("# s\nuniverse: a b a\n", 2, "duplicate universe elements"),
        ("node n\nunary P0: b\nuniverse: a\n", 2, "P0 contains unknown element 'b'"),
        ("node n\ncolor b = inf\nuniverse: a\n", 2, "coloring mentions unknown element 'b'"),
    ],
    ids=["repeated-universe-element", "unary-before-universe", "color-before-universe"],
)
def test_struct_element_refusals_cite_their_line(text, line_no, got):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_struct(text, "s.struct")
    assert (err.value.line_no, err.value.expected, err.value.got) == (line_no, "a consistent structure spec", got)


README_SPEC = (
    "elements: 3\n0 <= 1\n1 <= 0\nmode: finite\nf: {0,1} = 2\nf: {2} = 0\n"
    "partition: 0 P\npartition: 1 P\npartition: 2 NPL\n"
)


def test_mutated_struct_files_parse_or_raise_parse_errors(tmp_path, monkeypatch, capsys):
    from rklab.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.ds").write_text(README_SPEC)
    assert main("build --spec spec.ds --variant t77 --out build.pipe".split()) == 0
    assert main("apply --pipeline build.pipe --out out.struct".split()) == 0
    capsys.readouterr()
    lines = (tmp_path / "out.struct").read_text().splitlines()
    pool = sorted({w for line in lines for w in line.split()}) + ["x", "-", "-1", "[]", "{}"]
    rng = random.Random(19)
    outcomes = set()
    for _ in range(1500):
        mutant = list(lines)
        for _ in range(rng.randint(1, 3)):
            op, i, j = rng.randrange(5), rng.randrange(len(mutant)), rng.randrange(len(mutant))
            words = mutant[i].split()
            if op == 0:
                mutant[i], mutant[j] = mutant[j], mutant[i]
            elif op == 1 and len(mutant) > 1:
                del mutant[i]
            elif op == 2:
                mutant.insert(j, mutant[i])
            elif op == 3 and words:
                del words[rng.randrange(len(words))]
                mutant[i] = " ".join(words)
            elif op == 4 and words:
                words[rng.randrange(len(words))] = rng.choice(pool)
                mutant[i] = " ".join(words)
        try:
            formats.parse_struct("\n".join(mutant) + "\n", "m.struct")
            outcomes.add("parsed")
        except formats.ParseError:
            outcomes.add("refused")
    assert outcomes == {"parsed", "refused"}


@pytest.mark.parametrize(
    "text, line_no, got",
    [
        ("# c\nfamily: iup\ndepth: 2\nbase: none\n+ 00 9\n", 5, "edit magnitude exceeds cap 8"),
        ("family: iup\ndepth: 2\nbase: all\n+ 00 5\n+ 01 1\n+ 00 4\n", 6, "edit magnitude exceeds cap 8"),
        ("family: iup\ndepth: 2\nbase: none\n+ 00 1\n- 01 1\n+ 10 1\n", 5,
         "negative count on an explicit spec"),
        ("family: iup\n\ndepth: 2\nbase: none\n+ 00 1\n", 4, "support of an iup spec must be dense"),
    ],
    ids=["over-cap", "over-cap-summed", "negative-on-explicit", "not-dense"],
)
def test_modelspec_refusals_cite_the_line_that_caused_them(text, line_no, got):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_modelspec(text, "m.txt")
    assert (err.value.line_no, err.value.expected, err.value.got) == (line_no, "a consistent model spec", got)


def test_pipeline_random_round_trip():
    rng = random.Random(7)
    ops_pool = ["base", "qedge", "icp", "css", "bu", "lmt", "lms", "note"]
    for _ in range(200):
        steps = [
            operators.PipelineStep(
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


@pytest.mark.parametrize(
    "parse, text, line_no, expected",
    [
        (formats.parse_typespace, "family: iup\ndepth: 3\ndepth: 4\n", 3, "one 'depth:' line"),
        (formats.parse_typespace, "family: iup\nfoo: 1\ndepth: 3\n", 2, "a key among family, m, depth"),
        (formats.parse_typespace, "# space\nfamily: iup\n\ndepth: x\n", 4, "integer depth"),
        (formats.parse_typespace, "depth: 2\nm: two\nfamily: colored\n", 2, "integer m"),
        (formats.parse_typespace, "# space\nfamily: iup\ndepth: 17\n", 2, "a valid type space"),
        (formats.parse_modelspec, "family: iup\ndepth: 2\nbase: all\nbase: none\n", 4, "one 'base:' line"),
        (formats.parse_modelspec, "family: iup\nfamily: sdup\ndepth: 2\nbase: all\n", 2, "one 'family:' line"),
        (formats.parse_modelspec, "family: iup\ndepth: 2\nbase: all\nedits: 0\n", 4,
         "a key among family, m, depth, base"),
        (formats.parse_modelspec, "family: iup\ndepth: 2\n\nbase: some\n", 4, "'base: all|none'"),
    ],
    ids=["ts-repeat", "ts-unknown", "ts-depth", "ts-m", "ts-space", "ms-base-repeat",
         "ms-family-repeat", "ms-unknown", "ms-base-value"],
)
def test_header_keys_appear_once_and_errors_cite_their_line(parse, text, line_no, expected):
    with pytest.raises(formats.ParseError) as err:
        parse(text, "h.txt")
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
