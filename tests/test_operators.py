import copy
import random
import re

import pytest

from oracles import brute_disjoint
from rklab.cardinal import CONTINUUM, OMEGA, OMEGA1, ZERO, fin, parse_card
from rklab import operators
from rklab.distribution import BuildConfig, build_blueprint, finite_spec, realize_corollary
from rklab.formats import parse_pipeline, serialize_struct
from rklab.domination import DomEdge, TypeNode
from rklab.limitcount import lmt, lms
from rklab.operators import (
    PipelineStep,
    StructSpec,
    apply_lmt,
    apply_lms,
    bu,
    colored_base,
    css,
    icp,
    icp_need,
    pnode,
    run_pipeline,
    stub_name,
    verify_schemes,
)
from rklab.preorder import close, from_pairs, sim_quotient
from rklab.report import BudgetError


def base2(colors=2, q=()):
    return colored_base(2, colors, q_edges=q)


def test_colored_base_shape():
    spec = colored_base(2, 2, q_edges=[(0, 1, True)])
    assert len(spec.universe) == 6
    assert spec.color("a0inf") is None
    assert spec.nodes[pnode("P0")].prime
    # the Q link never goes up in color, and pairs the two infinite elements
    q = spec.binary["Q0_1"]
    assert all(spec.color(x) is None or spec.color(x) >= spec.color(y) for x, y in q)
    assert ("a0inf", "a1inf") in q
    [edge] = spec.edges
    assert edge.src == pnode("P1") and edge.dst == pnode("P0") and edge.principal


def test_icp_splits_by_color():
    spec = base2()
    out = icp(spec, "P0", icp_need(spec, "P0", 2, 2), 2, 2)
    rec = out.history[-1]
    rels = rec.params["rels"]
    img = {}
    for x, y in out.binary[rels[0]]:
        img.setdefault(x, set()).add(y)
    # color-1 element splits into 2 blocks, infinite element into 4
    r1 = {y for x, y in out.binary[rels[1]] if x == "a0c1"}
    base_c1 = img["a0c1"]
    assert len(base_c1) == 4  # 2 blocks x fan-out 2
    assert len(r1) == 2 and r1 <= base_c1
    assert len(img["a0inf"]) == 8  # 4 blocks x 2
    # distinct elements have disjoint base images
    assert not img["a0c0"] & img["a0c1"]
    assert verify_schemes(out, "icp").ok


def test_icp_registry_updates():
    spec = base2(colors=1)
    out = icp(spec, "P0", icp_need(spec, "P0", 1, 2), 1, 2)
    assert out.nodes[pnode("P0")].prime is False
    stubs = out.stubs_of(pnode("P0"))
    assert stubs == [stub_name("P0", "0"), stub_name("P0", "1")]
    assert not any(out.nodes[s].realized for s in stubs)


def test_icp_errors():
    spec = base2(colors=1)
    with pytest.raises(ValueError):
        icp(spec, "P0", 1, 1, 2)  # Y too small
    with pytest.raises(ValueError):
        icp(spec, "P0", 100, 0, 2)  # no depth
    bad = colored_base(1, 3)
    with pytest.raises(ValueError):
        icp(bad, "P0", 100, 1, 2)  # finite colors above the split depth
    no_inf = spec.copy()
    no_inf.coloring = {e: 0 for e in spec.universe}
    with pytest.raises(ValueError):
        icp(no_inf, "P0", 100, 1, 2)


def icp_then_stubs(spec, sub="P0", depth=1, fan=2):
    out = icp(spec, sub, icp_need(spec, sub, depth, fan), depth, fan)
    return out, out.stubs_of(pnode(sub))


def realized_stubs(spec):
    return sorted(n.name for n in spec.nodes.values() if n.stub_of is not None and n.realized)


def test_css_restores_prime_and_realizes_exactly_subset():
    spec, stubs = icp_then_stubs(base2(colors=1))
    out = css(spec, stubs, "P0", 2)
    assert out.nodes[pnode("P0")].prime is True
    assert realized_stubs(out) == stubs
    assert verify_schemes(out, "css").ok


def test_css_color_monotone_images():
    spec, stubs = icp_then_stubs(base2(colors=2), depth=2)
    out = css(spec, stubs[:1], "P1", 2)
    rel = out.history[-1].params["rels"][0]
    for x, y in out.binary[rel]:
        cx, cy = out.color(x), out.color(y)
        if cx is not None and cy is not None:
            assert cy >= cx


def test_css_rejects_non_stubs():
    spec = base2(colors=1)
    with pytest.raises(ValueError):
        css(spec, [pnode("P0")], "P0", 2)
    with pytest.raises(ValueError):
        css(spec, [], "P0", 2)


def test_bd_is_linked_css():
    spec, stubs = icp_then_stubs(base2(colors=1))
    out = css(spec, stubs, "P0", 2, linked=True)
    assert out.history[-1].params["linked"] is True
    assert any("linked" in n for n in out.notes)


def test_bu_splits_and_registry():
    spec, _ = icp_then_stubs(base2(colors=2), depth=2)
    before_p0 = spec.nodes[pnode("P0")].prime
    before_p1 = spec.nodes[pnode("P1")].prime
    out = bu(spec, "P0", "P1", None, 2, 2)
    rels = out.history[-1].params["rels"]
    img = {}
    for x, y, z in out.ternary[rels[0]]:
        img.setdefault((x, y), set()).add(z)
    # pair of colors (1, 2) -> 2^1 blocks x fan-out
    assert len(img[("a0c1", "a1c1")]) == 4  # min color 1 -> 2 blocks x 2
    assert len(img[("a0inf", "a1inf")]) == 8  # 2^2 x 2
    joint = f"q({pnode('P0')},{pnode('P1')})"
    assert out.nodes[joint].prime is False
    assert out.nodes[pnode("P0")].prime == before_p0
    assert out.nodes[pnode("P1")].prime == before_p1
    assert verify_schemes(out, "bu").ok


def test_bu_errors():
    spec = base2(colors=1)
    with pytest.raises(ValueError):
        bu(spec, "P0", "P0", 100, 1, 2)  # overlapping extents
    with pytest.raises(ValueError):
        bu(spec, "P0", "P1", 1, 1, 2)  # Z too small


def test_icp_then_css_invariant():
    spec, stubs = icp_then_stubs(base2(colors=1))
    assert spec.nodes[pnode("P0")].prime is False
    out = css(spec, stubs, "P0", 2)
    assert out.nodes[pnode("P0")].prime is True
    assert len(realized_stubs(out)) == len(stubs)


def test_operators_return_the_structure_they_grow():
    spec = base2(colors=2)
    steps = [
        lambda s: icp(s, "P0", None, 2, 2),
        lambda s: css(s, s.stubs_of(pnode("P0")), "P1", 2),
        lambda s: bu(s, "P0", "P1", None, 2, 2),
        lambda s: apply_lmt(s, pnode("P1"), OMEGA),
        lambda s: apply_lms(s, [pnode("P0"), pnode("P1")], fin(3)),
    ]
    for step in steps:
        before = len(spec.history)
        assert step(spec) is spec
        assert len(spec.history) == before + 1


def test_copy_shares_no_container():
    # a copy that shared a container with its original would change the
    # original's text as it grows
    spec, stubs = icp_then_stubs(base2(colors=2), depth=2)
    apply_lmt(spec, pnode("P0"), fin(2))
    before, whole = serialize_struct(spec), copy.deepcopy(spec)
    out = spec.copy()
    assert out == spec
    icp(out, "P1", None, 2, 2)
    css(out, stubs, "P1", 2, linked=True)
    bu(out, "P0", "P1", None, 2, 2)
    apply_lmt(out, pnode("P1"), OMEGA)
    apply_lms(out, [pnode("P0"), pnode("P1")], fin(3))
    out.put_node(TypeNode(stub_name("P0", "11x"), stub_of=pnode("P0"), stub_bits="11"))
    out.edges[DomEdge("a", "b", "c")] = None
    out.unary["P9"] = ()
    assert serialize_struct(spec) == before and spec.stubs_of(pnode("P0")) == stubs
    assert spec == whole  # the colors and names of elements the text leaves out too
    # nor do two structures built with the default registry share one
    bare = StructSpec([], {}, {}, {}, {})
    bare.put_node(TypeNode("p"))
    bare.edges[DomEdge("p", "p", "x")] = None
    bare.limit_targets["p"] = OMEGA
    bare.notes.append("n")
    assert serialize_struct(StructSpec([], {}, {}, {}, {})) == "universe: \n"


def test_operator_determinism():
    a = icp(base2(), "P0", icp_need(base2(), "P0", 2, 2), 2, 2)
    b = icp(base2(), "P0", icp_need(base2(), "P0", 2, 2), 2, 2)
    assert a == b


def test_verify_schemes_on_random_inputs():
    rng = random.Random(5)
    for trial in range(100):
        parts = rng.randint(1, 3)
        colors = rng.randint(1, 2)
        depth = max(1, colors - 1 + rng.randint(0, 1))
        fan = rng.randint(1, 2)
        spec = colored_base(parts, colors)
        sub = f"P{rng.randrange(parts)}"
        spec = icp(spec, sub, icp_need(spec, sub, depth, fan), depth, fan)
        assert verify_schemes(spec, "icp").ok
        stubs = spec.stubs_of(pnode(sub))
        target = f"P{rng.randrange(parts)}"
        spec = css(spec, stubs, target, fan)
        assert verify_schemes(spec, "css").ok
        if parts >= 2:
            others = [i for i in range(parts) if f"P{i}" != sub]
            s2 = f"P{others[0]}"
            spec = bu(spec, sub, s2, None, depth, fan)
            assert verify_schemes(spec, "bu").ok
        assert len(spec.universe) <= 200


def _delete_one_pair(spec, rel, index=0):
    pairs = list(spec.binary[rel])
    del pairs[index]
    mutated = spec.copy()
    mutated.binary[rel] = tuple(pairs)
    return mutated


def test_mutation_detected():
    spec = base2(colors=1)
    out = icp(spec, "P0", icp_need(spec, "P0", 1, 2), 1, 2)
    rels = out.history[-1].params["rels"]
    for rel in rels:
        for index in range(len(out.binary[rel])):
            mutated = _delete_one_pair(out, rel, index)
            assert not verify_schemes(mutated, "icp").ok


def _mutate_layers(spec, rng):
    """Copy witnesses between keys, drop rows and add stray ones on the
    layers of icp, css and bu records chosen at random."""
    binary = {r: list(t) for r, t in spec.binary.items()}
    ternary = {r: list(t) for r, t in spec.ternary.items()}
    for _ in range(rng.randint(1, 8)):
        rec = rng.choice(spec.history)
        params = rec.params
        subs = (params["sub1"], params["sub2"]) if rec.op == "bu" else (params["sub"],)
        rows = (ternary if rec.op == "bu" else binary)[rng.choice(params["rels"])]
        move = rng.random()
        if move < 0.5 and rows:
            witness = rng.choice(rows)[-1]
            for row in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                rows.append(row[:-1] + (witness,))
        elif move < 0.8 and rows:
            del rows[rng.randrange(len(rows))]
        else:
            rows.append(tuple(rng.choice(spec.extent(sub)) for sub in subs) + (rng.choice(spec.universe),))
    mutated = spec.copy()
    mutated.binary = {r: tuple(t) for r, t in binary.items()}
    mutated.ternary = {r: tuple(t) for r, t in ternary.items()}
    return mutated


def test_bu_disjoint_images_match_pairwise_oracle():
    # for icp, css and bu alike the indexed check reports what comparing
    # every two keys reports, down to the first three violations
    rng = random.Random(11)
    failing = dict.fromkeys(("icp", "css", "bu"), 0)
    for trial in range(60):
        colors = rng.randint(1, 3)
        depth = max(1, colors - 1 + rng.randint(0, 1))
        fan = rng.randint(1, 2)
        spec = colored_base(2, colors, per_color=rng.randint(1, 2))
        spec = icp(spec, "P0", icp_need(spec, "P0", depth, fan), depth, fan)
        spec = css(spec, spec.stubs_of(pnode("P0")), "P1", fan)
        spec = bu(spec, "P0", "P1", None, depth, fan)
        for _ in range(5):
            mutated = _mutate_layers(spec, rng)
            for index, rec in enumerate(mutated.history):
                entries = {e.code: e for e in verify_schemes(mutated, rec.op).entries}
                entry = entries[f"app{index}.disjoint-images"]
                expected = brute_disjoint(mutated, rec.op, rec.params)
                assert entry.ok == (not expected)
                assert entry.detail == "; ".join(expected[:3])
                failing[rec.op] += not entry.ok
    assert min(failing.values()) >= 50


def test_css_uncolored_image_is_reported():
    # an image with no color fails color-monotone; it does not raise
    spec = run_pipeline(parse_pipeline("base parts=1 colors=1\nicp sub=P0\ncss sub=P0 source=P0\n", "plan.pipe"))
    rel = "P0.css1.R0"
    mutated = spec.copy()
    mutated.binary[rel] += (("a0c0", "Y0s0_0"),)
    entries = {e.code: e for e in verify_schemes(mutated, "css").entries}
    assert not entries["app1.color-monotone"].ok
    assert "Y0s0_0 is uncolored" in entries["app1.color-monotone"].detail


def test_css_infinite_color_source_needs_infinite_color_images():
    # a0inf may map only to infinite-color elements: an uncolored or a
    # color-0 image fails color-monotone and names the image
    spec = run_pipeline(parse_pipeline("base parts=1 colors=1\nicp sub=P0\ncss sub=P0 source=P0\n", "plan.pipe"))
    rel = "P0.css1.R0"
    assert verify_schemes(spec, "css").ok
    for image in ("Y0s0_0", "a0c0"):
        mutated = spec.copy()
        mutated.binary[rel] += (("a0inf", image),)
        entry = {e.code: e for e in verify_schemes(mutated, "css").entries}["app1.color-monotone"]
        assert not entry.ok
        assert f"a0inf/R0: image {image} is not of infinite color" in entry.detail


def test_verify_schemes_needs_matching_record():
    spec = base2()
    with pytest.raises(ValueError):
        verify_schemes(spec, "icp")
    with pytest.raises(ValueError):
        verify_schemes(spec, "lmt")


def test_lmt_systems():
    sys1 = lmt(fin(1))
    assert sys1.kind == "lmt" and sys1.n == 1 and sys1.target == fin(1)
    assert [s.kind for s in sys1.schemas] == [
        "single_rename",
        "idem_below",
        "drop_to_min",
    ]
    sysw = lmt(OMEGA)
    assert [s.kind for s in sysw.schemas] == ["idem_all", "drop_to_min", "pair_to_run"]
    with pytest.raises(ValueError):
        lmt(fin(0))
    with pytest.raises(ValueError):
        lmt(CONTINUUM)


def test_lms_systems():
    sys2 = lms(4, fin(2))
    assert sys2.target == fin(2)
    assert [s.kind for s in sys2.schemas] == ["single_rename", "ascend_to_power"]
    sysw = lms(4, OMEGA)
    assert [s.kind for s in sysw.schemas] == [
        "ascend_to_power",
        "ascend_to_run",
        "ascend_to_capped_run",
    ]
    with pytest.raises(ValueError):
        lms(0, fin(1))
    with pytest.raises(ValueError):
        lms(3, CONTINUUM)
    with pytest.raises(ValueError):
        lms(3, OMEGA, reading="maybe")


def test_apply_limit_operators():
    spec = base2(colors=1)
    apply_lmt(spec, pnode("P0"), fin(2))
    assert spec.limit_targets[pnode("P0")] == fin(2)
    apply_lmt(spec, pnode("P1"), CONTINUUM)
    assert spec.limit_targets[pnode("P1")] == CONTINUUM
    nodes = [pnode("P0"), pnode("P1")]
    apply_lms(spec, nodes, OMEGA)
    assert spec.limit_targets["p(P0)>p(P1)"] == OMEGA
    assert any("never semi-isolating" in n for n in spec.notes)
    # a count outside 1..w, other than the continuum, is refused before anything grows
    for lam, message in [
        (ZERO, "the finite case needs at least one limit model"),
        (OMEGA1, "limit-model count must be in w+1, got w1"),
    ]:
        grown = serialize_struct(spec)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_lmt(spec, pnode("P0"), lam)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_lms(spec, nodes, lam)
        assert serialize_struct(spec) == grown


PIPE = [
    PipelineStep("base", {"parts": "2", "colors": "1"}),
    PipelineStep("icp", {"sub": "P0", "fan": "1"}),
    PipelineStep("css", {"sub": "P0", "source": "P0", "fan": "1"}),
    PipelineStep("css", {"sub": "P1", "source": "P0", "fan": "1"}),
    PipelineStep("bu", {"sub1": "P0", "sub2": "P1", "fan": "1"}),
    PipelineStep("lmt", {"node": "p(P0)", "lam": "2"}),
]


def test_checked_pipeline_verifies_each_record_once(monkeypatch):
    verified = []
    real = operators._verify_record

    def counting(spec, rb, index):
        verified.append(index)
        real(spec, rb, index)

    monkeypatch.setattr(operators, "_verify_record", counting)
    spec = run_pipeline(PIPE, check=True)
    assert [rec.op for rec in spec.history] == ["icp", "css", "css", "bu", "lmt"]
    assert verified == [0, 1, 2, 3]
    assert spec == run_pipeline(PIPE)


def test_auto_sizes_are_computed_once_per_step(monkeypatch):
    arities = []  # the number of extents each sizing call reads
    real = operators._split_need

    def counted(spec, subs, *args):
        arities.append(len(subs))
        return real(spec, subs, *args)

    monkeypatch.setattr(operators, "_split_need", counted)
    run_pipeline(PIPE + [PipelineStep("bu", {"sub1": "P1", "sub2": "P0"})])
    assert arities == [1, 2, 2]


@pytest.mark.parametrize(
    "text, amount",
    [
        ("base parts=1 colors=3 per_color=100000", "300001"),
        ("base parts=1 colors=1\nicp sub=P0 fan=1 y=300000", "300002"),
        ("base parts=1 colors=1\nicp sub=P0 depth=40", "2199023255556"),
        ("base parts=1 colors=1\nicp sub=P0 depth=100", "at least 2^65"),
        ("base parts=2 colors=3\nbu sub1=P0 sub2=P1 depth=63", "at least 2^64"),
        # 10^10 element pairs, sized per pair of colors
        ("base parts=2 colors=1 per_color=100000\nbu sub1=P0 sub2=P1 fan=1", "10000400004"),
        ("base parts=1 colors=1\nicp sub=P0 fan=1\ncss sub=P0 source=P0 fan=100000", "600005"),
    ],
    ids=["base", "icp-y", "icp-deep", "icp-deeper", "bu-deep", "bu-long", "css"],
)
def test_plan_past_the_universe_cap_refused(text, amount):
    with pytest.raises(BudgetError) as info:
        run_pipeline(parse_pipeline(text + "\n", "plan.pipe"))
    assert str(info.value) == f"{amount} elements exceed the universe cap {operators.UNIVERSE_CAP}"


def test_checked_pipeline_raises_at_failing_step(monkeypatch):
    real_css = operators.css

    def lossy_css(work, *args, **kwargs):
        real_css(work, *args, **kwargs)
        rel = work.history[-1].params["rels"][0]
        work.binary[rel] = work.binary[rel][1:]  # drop one witness
        return work

    monkeypatch.setattr(operators, "css", lossy_css)
    assert len(run_pipeline(PIPE).history) == 5  # unchecked: nothing notices
    with pytest.raises(ValueError, match=r"^scheme violation after css: app1\.color-monotone"):
        run_pipeline(PIPE, check=True)


def test_checked_pipeline_raises_at_failing_bu_block(monkeypatch):
    real_bu = operators.bu

    def lossy_bu(work, *args, **kwargs):
        real_bu(work, *args, **kwargs)
        rel = work.history[-1].params["rels"][0]
        work.ternary[rel] = work.ternary[rel][1:]  # the first witness lies in block 0 only
        return work

    monkeypatch.setattr(operators, "bu", lossy_bu)
    assert len(run_pipeline(PIPE).history) == 5  # unchecked: nothing notices
    with pytest.raises(ValueError, match=r"^scheme violation after bu: app3\.splits$"):
        run_pipeline(PIPE, check=True)


def test_css_fresh_names_must_not_collide():
    spec, stubs = icp_then_stubs(base2(colors=1))
    crowded = spec.copy()
    crowded.add_elements([f"T{len(spec.history)}s0_0"], "T")
    with pytest.raises(ValueError, match="^fresh T elements collide with the universe$"):
        css(crowded, stubs, "P0", 2)


def fold_public_operators(steps):
    """The pipeline's meaning spelled out with the public operators, each
    growing the one structure in place."""
    base = [s.args for s in steps if s.op == "base"][-1]
    qedges = [
        (int(a["low"]), int(a["high"]), a.get("principal", "false") == "true")
        for a in (s.args for s in steps if s.op == "qedge")
    ]
    spec = colored_base(
        int(base["parts"]), int(base["colors"]), int(base.get("per_color", "1")), qedges
    )
    for step in steps:
        a = step.args
        fan, depth = int(a.get("fan", "2")), int(a.get("depth", "1"))
        if step.op == "icp":
            y = a.get("y", "auto")
            y = icp_need(spec, a["sub"], depth, fan) if y == "auto" else int(y)
            icp(spec, a["sub"], y, depth, fan)
        elif step.op in ("css", "bd"):
            if "source" in a:
                parent = pnode(a["source"])  # a scan of the nodes, not the stub index
                stubs = sorted(n.name for n in spec.nodes.values() if n.stub_of == parent)
            else:
                stubs = a["stubs"].split(",")
            linked = step.op == "bd" or a.get("linked") == "true"  # only css reads linked=
            css(spec, stubs, a["sub"], fan, linked=linked)
        elif step.op == "bu":
            z = a.get("z", "auto")
            z = None if z == "auto" else int(z)
            bu(spec, a["sub1"], a["sub2"], z, depth, fan)
        elif step.op == "lmt":
            apply_lmt(spec, a["node"], parse_card(a["lam"]), a.get("reading", "gt"))
        elif step.op == "lms":
            apply_lms(spec, a["nodes"].split(","), parse_card(a["lam"]), a.get("reading", "gt"))
        elif step.op == "note":
            spec.notes.append(a.get("text", ""))
    return spec


def random_pipeline(rng):
    parts, colors = rng.randint(2, 5), rng.randint(1, 2)
    depth = str(max(1, colors - 1 + rng.randint(0, 1)))
    steps = [PipelineStep("base", {"parts": str(parts), "colors": str(colors)})]
    for _ in range(rng.randint(0, 2)):
        low, high = rng.sample(range(parts), 2)
        steps.append(PipelineStep("qedge", {"low": str(low), "high": str(high), "principal": rng.choice(["true", "false"])}))
    subs = [f"P{i}" for i in range(parts)]
    source = rng.choice(subs)
    steps.append(PipelineStep("icp", {"sub": source, "depth": depth, "fan": str(rng.randint(1, 2))}))
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["icp", "css", "bd", "bu", "lmt", "lms", "note"])
        fan = str(rng.randint(1, 2))
        if kind == "icp":
            y = rng.choice(["auto", "40", "3"])
            steps.append(PipelineStep("icp", {"sub": rng.choice(subs), "depth": depth, "fan": fan, "y": y}))
        elif kind in ("css", "bd"):
            args = {"sub": rng.choice(subs), "source": source, "fan": fan}
            if kind == "css":  # bd is always linked and takes no linked=
                args["linked"] = rng.choice(["true", "false"])
            steps.append(PipelineStep(kind, args))
        elif kind == "bu":
            a, b = rng.sample(subs, 2)
            steps.append(PipelineStep("bu", {"sub1": a, "sub2": b, "depth": depth, "fan": fan}))
        elif kind == "lmt":
            steps.append(PipelineStep("lmt", {"node": pnode(rng.choice(subs)), "lam": rng.choice(["1", "3", "w", "c"])}))
        elif kind == "lms":
            nodes = ",".join(pnode(s) for s in rng.sample(subs, 2))
            steps.append(PipelineStep("lms", {"nodes": nodes, "lam": rng.choice(["2", "w", "c"]), "reading": rng.choice(["gt", "geq"])}))
        else:
            steps.append(PipelineStep("note", {"text": f"n{rng.randint(0, 9)}"}))
    return steps


def build_variant_pipelines():
    order = close(from_pairs(5, [(0, 1), (1, 0), (1, 2), (3, 2)]))
    q = sim_quotient(order)
    values = [ZERO, fin(2), OMEGA, CONTINUUM]
    f = {frozenset(c): (fin(1) if len(c) > 1 else values[i % 4]) for i, c in enumerate(q.classes)}
    finite = finite_spec(order, f, {0: "P", 1: "NPL", 2: "P", 3: "NPL", 4: "P"})
    sequence = realize_corollary("c93", (OMEGA,))
    specs = [(finite, v) for v in ("t77", "t91", "t92")] + [(sequence, v) for v in ("t84", "t91", "t92")]
    for cfg in (BuildConfig(), BuildConfig(colors=2, depth=2, fan_out=1)):
        for spec, variant in specs:
            yield build_blueprint(spec, variant, cfg).pipeline


def test_run_pipeline_equals_fold_of_public_operators():
    rng = random.Random(1018)
    pipelines = [random_pipeline(rng) for _ in range(60)] + list(build_variant_pipelines())
    for steps in pipelines:
        try:
            expected = serialize_struct(fold_public_operators(steps))
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                run_pipeline(steps)
            continue
        assert serialize_struct(run_pipeline(steps)) == expected
        assert serialize_struct(run_pipeline(steps, check=True)) == expected
