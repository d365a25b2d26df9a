import random
from dataclasses import replace

import pytest

from rklab.cardinal import CONTINUUM, OMEGA, fin
from rklab import operators
from rklab.limitcount import FREE_SYSTEM
from rklab.operators import (
    PipelineStep,
    apply_lmt,
    apply_lms,
    bu,
    bu_need,
    colored_base,
    css,
    icp,
    icp_need,
    lmt,
    lms,
    pnode,
    run_pipeline,
    stub_name,
    verify_q_order,
    verify_schemes,
)


def base2(colors=2, q=()):
    return colored_base(2, colors, q_edges=q)


def test_colored_base_shape():
    spec = colored_base(2, 2, q_edges=[(0, 1, True)])
    assert len(spec.universe) == 6
    assert spec.color("a0inf") is None
    assert spec.registry.nodes[pnode("P0")].prime
    assert verify_q_order(spec).ok
    edge = spec.registry.edges[0]
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
    assert out.registry.nodes[pnode("P0")].prime is False
    stubs = out.registry.stubs_of(pnode("P0"))
    assert [s.name for s in stubs] == [stub_name("P0", "0"), stub_name("P0", "1")]
    assert not any(s.realized for s in stubs)


def test_icp_errors():
    spec = base2(colors=1)
    with pytest.raises(ValueError):
        icp(spec, "P0", 1, 1, 2)  # Y too small
    with pytest.raises(ValueError):
        icp(spec, "P0", 100, 0, 2)  # no depth
    bad = colored_base(1, 3)
    with pytest.raises(ValueError):
        icp(bad, "P0", 100, 1, 2)  # finite colors above the split depth
    no_inf = replace(spec, coloring={e: 0 for e in spec.universe})
    with pytest.raises(ValueError):
        icp(no_inf, "P0", 100, 1, 2)


def icp_then_stubs(spec, sub="P0", depth=1, fan=2):
    out = icp(spec, sub, icp_need(spec, sub, depth, fan), depth, fan)
    return out, [n.name for n in out.registry.stubs_of(pnode(sub))]


def test_css_restores_prime_and_realizes_exactly_subset():
    spec, stubs = icp_then_stubs(base2(colors=1))
    out = css(spec, stubs, "P0", 2)
    assert out.registry.nodes[pnode("P0")].prime is True
    realized = out.registry.realized_stubs()
    assert [n.name for n in realized] == stubs
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
    assert any("linked" in n for n in out.registry.notes)


def test_bu_splits_and_registry():
    spec, _ = icp_then_stubs(base2(colors=2), depth=2)
    before_p0 = spec.registry.nodes[pnode("P0")].prime
    before_p1 = spec.registry.nodes[pnode("P1")].prime
    out = bu(spec, "P0", "P1", bu_need(spec, "P0", "P1", 2, 2), 2, 2)
    rels = out.history[-1].params["rels"]
    img = {}
    for x, y, z in out.ternary[rels[0]]:
        img.setdefault((x, y), set()).add(z)
    # pair of colors (1, 2) -> 2^1 blocks x fan-out
    assert len(img[("a0c1", "a1c1")]) == 4  # min color 1 -> 2 blocks x 2
    assert len(img[("a0inf", "a1inf")]) == 8  # 2^2 x 2
    joint = f"q({pnode('P0')},{pnode('P1')})"
    assert out.registry.nodes[joint].prime is False
    assert out.registry.nodes[pnode("P0")].prime == before_p0
    assert out.registry.nodes[pnode("P1")].prime == before_p1
    assert verify_schemes(out, "bu").ok


def test_bu_errors():
    spec = base2(colors=1)
    with pytest.raises(ValueError):
        bu(spec, "P0", "P0", 100, 1, 2)  # overlapping extents
    with pytest.raises(ValueError):
        bu(spec, "P0", "P1", 1, 1, 2)  # Z too small


def test_icp_then_css_invariant():
    spec, stubs = icp_then_stubs(base2(colors=1))
    assert spec.registry.nodes[pnode("P0")].prime is False
    out = css(spec, stubs, "P0", 2)
    assert out.registry.nodes[pnode("P0")].prime is True
    assert len(out.registry.realized_stubs()) == len(stubs)


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
        stubs = [n.name for n in spec.registry.stubs_of(pnode(sub))]
        target = f"P{rng.randrange(parts)}"
        spec = css(spec, stubs, target, fan)
        assert verify_schemes(spec, "css").ok
        if parts >= 2:
            others = [i for i in range(parts) if f"P{i}" != sub]
            s2 = f"P{others[0]}"
            spec = bu(spec, sub, s2, bu_need(spec, sub, s2, depth, fan), depth, fan)
            assert verify_schemes(spec, "bu").ok
        assert len(spec.universe) <= 200


def _delete_one_pair(spec, rel, index=0):
    pairs = list(spec.binary[rel])
    del pairs[index]
    binary = dict(spec.binary)
    binary[rel] = tuple(pairs)
    return replace(spec, binary=binary)


def test_mutation_detected():
    spec = base2(colors=1)
    out = icp(spec, "P0", icp_need(spec, "P0", 1, 2), 1, 2)
    rels = out.history[-1].params["rels"]
    for rel in rels:
        for index in range(len(out.binary[rel])):
            mutated = _delete_one_pair(out, rel, index)
            assert not verify_schemes(mutated, "icp").ok


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
    assert sys2.seq_len == 4 and sys2.target == fin(2)
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
    spec, system = apply_lmt(spec, pnode("P0"), fin(2))
    assert system.target == fin(2)
    assert spec.registry.limit_targets[pnode("P0")] == fin(2)
    spec, system = apply_lmt(spec, pnode("P1"), CONTINUUM)
    assert system is FREE_SYSTEM
    nodes = [pnode("P0"), pnode("P1")]
    spec, system = apply_lms(spec, nodes, OMEGA)
    assert spec.registry.limit_targets["p(P0)>p(P1)"] == OMEGA
    assert any("never semi-isolating" in n for n in spec.registry.notes)


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


def test_checked_pipeline_raises_at_failing_step(monkeypatch):
    real_css = operators.css

    def lossy_css(*args, **kwargs):
        out = real_css(*args, **kwargs)
        rel = out.history[-1].params["rels"][0]
        binary = dict(out.binary)
        binary[rel] = out.binary[rel][1:]  # drop one witness
        return replace(out, binary=binary)

    monkeypatch.setattr(operators, "css", lossy_css)
    assert len(run_pipeline(PIPE).history) == 5  # unchecked: nothing notices
    with pytest.raises(ValueError, match=r"^scheme violation after css: app1\.color-monotone"):
        run_pipeline(PIPE, check=True)
