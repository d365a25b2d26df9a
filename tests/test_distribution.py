import itertools
import random
import re
import time
from pathlib import Path

import pytest

from oracles import (
    brute_classify_triple,
    brute_components,
    limit_obligations,
    matrix,
    replayed_prime_flags,
)
from rklab.cardinal import CONTINUUM, OMEGA, OMEGA1, ZERO, card_eq, fin, render
from rklab.distribution import (
    RULES,
    BuildConfig,
    Cm3Triple,
    DistributionSpec,
    SeqKey,
    build_blueprint,
    classify_triple,
    decompose,
    decompose_tc,
    finite_spec,
    nonrepeating_cofinite,
    realize_corollary,
    replay_blueprint,
    replayed_il,
    replayed_prime_preorder,
    sequence_spec,
    subsequence_of,
    tail_equal,
    target_triple,
    validate_f,
)
from rklab.domination import DomEdge, DominationGraph, TypeNode
from rklab.operators import pnode, verify_schemes
from rklab.preorder import (
    components,
    from_pairs,
    random_preorder,
)

CFG = BuildConfig(colors=1, per_color=1, depth=1, fan_out=1)


def test_classify_small():
    assert classify_triple(Cm3Triple(fin(1), ZERO, ZERO), "small").case == 1
    v = classify_triple(Cm3Triple(fin(3), OMEGA, ZERO), "small")
    assert v.status == "admissible-small" and v.case == 2
    assert classify_triple(Cm3Triple(fin(3), OMEGA1, ZERO), "small").admissible
    assert "omega1-value-unrealized" in classify_triple(
        Cm3Triple(fin(3), OMEGA1, ZERO), "small"
    ).flags
    assert (
        classify_triple(Cm3Triple(fin(1), fin(1), ZERO), "small").reason
        == "p-categorical-forces-zero-limits"
    )
    assert (
        classify_triple(Cm3Triple(fin(2), ZERO, ZERO), "small").reason
        == "multiple-primes-need-limits"
    )
    assert (
        classify_triple(Cm3Triple(fin(2), fin(1), fin(1)), "small").reason
        == "small-npl-nonzero"
    )
    assert (
        classify_triple(Cm3Triple(CONTINUUM, fin(1), ZERO), "small").reason
        == "small-prime-count-at-most-countable"
    )


def test_classify_tc_families():
    assert classify_triple(Cm3Triple(ZERO, ZERO, CONTINUUM)).case == 2
    assert classify_triple(Cm3Triple(CONTINUUM, CONTINUUM, fin(5))).case == 1
    assert classify_triple(Cm3Triple(CONTINUUM, CONTINUUM, CONTINUUM)).case == 1
    assert classify_triple(Cm3Triple(fin(2), OMEGA, CONTINUUM)).case == 3
    assert classify_triple(Cm3Triple(CONTINUUM, fin(5), CONTINUUM)).case == 3


def test_classify_tc_rejections():
    assert (
        classify_triple(Cm3Triple(fin(2), CONTINUUM, ZERO)).reason
        == "continuum-limits-need-continuum-primes-or-npl"
    )
    assert (
        classify_triple(Cm3Triple(CONTINUUM, fin(2), OMEGA)).reason
        == "continuum-primes-force-continuum-limits"
    )
    assert (
        classify_triple(Cm3Triple(fin(1), fin(1), OMEGA)).reason
        == "no-continuum-coordinate"
    )
    assert (
        classify_triple(Cm3Triple(ZERO, fin(1), CONTINUUM)).reason
        == "limits-need-primes"
    )


def test_every_triple_on_the_grid_against_the_oracle():
    # 9^3 triples over {0..5, w, w1, c}, both theory classes, both CH flags
    grid = [fin(k) for k in range(6)] + [OMEGA, OMEGA1, CONTINUUM]
    decided = []
    for p, l, npl in itertools.product(grid, repeat=3):
        t = Cm3Triple(p, l, npl)
        for cls, ch in itertools.product(("small", "tc"), (False, True)):
            got, want = classify_triple(t, cls, ch), brute_classify_triple(t, cls, ch)
            assert (got.status, got.case, got.reason, got.flags, got.render()) == (
                want.status, want.case, want.reason, want.flags, want.render()
            ), (t.render(), cls, ch)
            decided.append((cls, got.status, got.reason or got.case))
    assert len(decided) == 2916
    # each row's outcome is its own, so every row decides some triple
    outcomes = [(cls, status, outcome) for cls, _, _, _, status, outcome in RULES]
    assert len(RULES) == len(set(outcomes)) == 14
    assert set(decided) == set(outcomes)


def test_the_readme_rule_table_is_rules():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (small|tc) \| `(\S+)` \| `(\S+)` \| `(\S+)` \| ([a-z-]+) \| ([\w-]+) \|$", readme, re.M)
    assert rows == [(*row[:5], str(row[5])) for row in RULES]


def test_classify_omega1_under_ch():
    # under CH the first uncountable coordinate counts as the continuum
    v = classify_triple(Cm3Triple(OMEGA1, OMEGA1, fin(0)), "tc", ch=True)
    assert v.case == 1 and "omega1-coordinate" in v.flags
    v = classify_triple(Cm3Triple(fin(1), OMEGA1, CONTINUUM), "tc", ch=False)
    assert v.admissible is False or v.case == 3
    assert "outside-ch-hypothesis" in v.flags


def test_decompose():
    assert decompose(fin(4), [fin(1), ZERO, fin(2), fin(1)], ZERO) == fin(8)
    assert decompose(fin(1), [CONTINUUM], fin(3)) == CONTINUUM
    total, ok = decompose_tc(fin(2), [fin(1)], CONTINUUM)
    assert total == CONTINUUM and ok
    total, ok = decompose_tc(fin(2), [], fin(1))
    assert not ok


# -- f validation -------------------------------------------------------------

def test_validate_f_finite_tc():
    order = from_pairs(3, [(0, 1), (1, 0)])
    good = finite_spec(order, {frozenset({0, 1}): fin(1), frozenset({2}): ZERO})
    assert validate_f(good).ok
    bad = finite_spec(order, {frozenset({0, 1}): ZERO, frozenset({2}): ZERO})
    report = validate_f(bad)
    assert not report.ok
    assert any("fat-class-positive" in e.code for e in report.violations())


def test_validate_f_all_singleton_antichain_zero_passes():
    order = from_pairs(3, [])
    spec = finite_spec(order, {frozenset({i}): ZERO for i in range(3)})
    assert validate_f(spec).ok


def test_validate_f_value_range():
    order = from_pairs(1, [])
    spec = finite_spec(order, {frozenset({0}): OMEGA1})
    assert any(
        "value-range" in e.code for e in validate_f(spec).violations()
    )
    assert [e.detail for e in validate_f(spec).violations()] == [
        "f = w1; value must lie in w or be w or c"
    ]


@pytest.mark.parametrize(
    "kind,params,what",
    [("c78", (fin(2), OMEGA1), "second parameter"), ("c85", (OMEGA1,), "limit count"),
     ("c93", (OMEGA1,), "npl count")],
)
def test_corollary_refuses_w1_and_no_other_value(kind, params, what):
    # the values validate_f accepts: every cardinal but w1, zero included
    with pytest.raises(ValueError, match=f"^{what} out of range: w1$"):
        realize_corollary(kind, params)
    for lam in (ZERO, fin(3), OMEGA, CONTINUUM):
        realize_corollary(kind, params[:-1] + (lam,))


def test_classify_refuses_an_unknown_theory_class():
    with pytest.raises(ValueError, match="^unknown theory class 'big'$"):
        classify_triple(Cm3Triple(ZERO, ZERO, CONTINUUM), "big")


def test_sequence_semantics():
    a = SeqKey((0, 1, 2))
    b = SeqKey((1, 2))
    assert subsequence_of(b, a)
    assert not subsequence_of(a, b)
    assert not subsequence_of(SeqKey((0, 1)), a)  # different final element
    assert tail_equal(SeqKey((0, 2)), SeqKey((1, 2)))
    assert not tail_equal(SeqKey((0, 1)), a)
    ext = SeqKey((0, 1), extendable=True)
    assert nonrepeating_cofinite(ext)
    assert not nonrepeating_cofinite(a)
    assert not subsequence_of(b, SeqKey((1, 2), extendable=True))
    assert tail_equal(ext, ext)


def test_validate_f_sequences():
    order = from_pairs(3, [(0, 1), (1, 2)])
    good = sequence_spec(
        order,
        {SeqKey((0, 1, 2)): fin(2), SeqKey((1, 2)): fin(2)},
    )
    assert validate_f(good).ok
    # subsequence monotonicity: f(y) <= f(y') when y' inside y
    bad = sequence_spec(
        order,
        {SeqKey((0, 1, 2)): fin(3), SeqKey((1, 2)): fin(1)},
    )
    report = validate_f(bad)
    assert any("subsequence-monotone" in e.code for e in report.violations())
    # tail equality forces equal values
    bad2 = sequence_spec(
        order,
        {SeqKey((0, 2)): fin(1), SeqKey((1, 2)): fin(2)},
    )
    assert any("tail-equal" in e.code for e in validate_f(bad2).violations())
    # strictly growing sequences need at least one limit model
    bad3 = sequence_spec(order, {SeqKey((0, 1, 2), extendable=True): ZERO})
    assert any(
        "growing-positive" in e.code for e in validate_f(bad3).violations()
    )


def test_spec_validation_errors():
    order = from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        finite_spec(order, {frozenset({0}): ZERO})  # misses a class
    with pytest.raises(ValueError):
        sequence_spec(order, {SeqKey((1, 0)): ZERO})  # not a chain


def test_spec_keys_match_the_mode():
    order = from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError, match="countable-truncated mode keys f by sequence"):
        DistributionSpec(order, "countable-truncated", ((frozenset({0}), ZERO),))
    with pytest.raises(ValueError, match="finite mode keys f by class"):
        DistributionSpec(order, "finite", ((SeqKey((0, 1)), ZERO),))
    with pytest.raises(ValueError, match="each key one value"):
        DistributionSpec(order, "countable-truncated", ((SeqKey((0, 1)), ZERO), (SeqKey((0, 1)), ZERO)))
    # values are kept sorted: classes by their members, sequences by their text
    spec = DistributionSpec(order, "finite", ((frozenset({1}), ZERO), (frozenset({0}), fin(1))))
    assert spec.values == ((frozenset({0}), fin(1)), (frozenset({1}), ZERO))


# -- blueprints and replay ----------------------------------------------------

def test_blueprint_example_shape():
    # two types, the higher dominating the lower one only
    order = from_pairs(2, [(0, 1)])
    spec = finite_spec(order, {frozenset(c): ZERO for c in order.classes})
    bp = build_blueprint(spec, "t77", CFG)
    qedges = [step.args for step in bp.pipeline if step.op == "qedge"]
    assert qedges == [{"low": 0, "high": 1, "principal": True}]
    struct = replay_blueprint(bp, CFG)
    po = replayed_prime_preorder(struct, bp.predicates)
    assert po.le(0, 1) and not po.le(1, 0)
    assert po == order


def test_replay_rejects_other_config():
    spec = finite_spec(from_pairs(1, []), {frozenset({0}): ZERO})
    bp = build_blueprint(spec, "t77", CFG)
    with pytest.raises(ValueError, match="built with"):
        replay_blueprint(bp, BuildConfig(fan_out=CFG.fan_out + 1))


def test_components_against_matrix_oracle():
    rng = random.Random(20261018)
    for trial in range(400):
        n = trial if trial < 2 else rng.randint(0, 12)
        p = random_preorder(rng, n, rng.uniform(0.0, 0.4))
        full = matrix(p)
        comps, expected = components(p), brute_components(full)
        assert [sorted(elements) for elements, _ in comps] == expected
        for (_, reps), comp in zip(comps, expected):
            # the least element of each class with nothing strictly above it
            top = [e for e in comp if not any(full[e][d] and not full[d][e] for d in comp)]
            assert reps == [e for e in top if not any(full[e][d] and d < e for d in top)]


def test_blueprint_singleton():
    order = from_pairs(1, [])
    spec = finite_spec(order, {frozenset({0}): ZERO})
    bp = build_blueprint(spec, "t77", CFG)
    struct = replay_blueprint(bp, CFG)
    po = replayed_prime_preorder(struct, bp.predicates)
    assert po.n == 1
    assert replayed_il(struct, spec) == {frozenset({0}): ZERO}


def test_blueprint_rejects_invalid_f():
    order = from_pairs(2, [(0, 1), (1, 0)])
    spec = finite_spec(order, {frozenset({0, 1}): ZERO})
    with pytest.raises(ValueError):
        build_blueprint(spec, "t77", CFG)
    with pytest.raises(ValueError):
        build_blueprint(spec, "bogus", CFG)


def test_blueprint_round_trip_random():
    rng = random.Random(20260811)
    values = [ZERO, fin(1), fin(2), OMEGA, CONTINUUM]
    for trial in range(12):
        order = random_preorder(rng, rng.randint(1, 5), 0.3)
        f = {}
        for members in order.classes:
            f[frozenset(members)] = (
                rng.choice([fin(1), fin(3), OMEGA, CONTINUUM])
                if len(members) > 1
                else rng.choice(values)
            )
        spec = finite_spec(order, f)
        bp = build_blueprint(spec, "t77", CFG)
        struct = replay_blueprint(bp, CFG)
        assert len(struct.universe) <= 200
        po = replayed_prime_preorder(struct, bp.predicates)
        assert po == order
        il = replayed_il(struct, spec)
        assert all(card_eq(il[k], v, ch=False) for k, v in f.items())
        for tag in ("icp", "css"):
            assert verify_schemes(struct, tag).ok


def test_blueprint_partition_variants():
    order = from_pairs(3, [])
    f = {frozenset(c): ZERO for c in order.classes}
    partition = {0: "P", 1: "NPL", 2: "P"}
    spec_finite = finite_spec(order, f, partition)
    bp91 = build_blueprint(spec_finite, "t91", CFG)
    struct91 = replay_blueprint(bp91, CFG)
    flags = replayed_prime_flags(struct91, bp91.predicates)
    assert flags == {0: True, 1: False, 2: True}
    bp92 = build_blueprint(spec_finite, "t92", CFG)
    struct92 = replay_blueprint(bp92, CFG)
    flags = replayed_prime_flags(struct92, bp92.predicates)
    assert flags == {0: True, 1: False, 2: True}
    for struct, bp in ((struct91, bp91), (struct92, bp92)):
        assert replayed_prime_preorder(struct, bp.predicates) == order
    ops91 = [s.op for s in bp91.operator_plan]
    ops92 = [s.op for s in bp92.operator_plan]
    assert ops91.index("css") < ops91.index("icp", 1)  # allocation before partition
    assert ops92.index("icp") < ops92.index("css")  # partition before allocation
    with pytest.raises(ValueError):
        build_blueprint(finite_spec(order, f), "t91", CFG)


def test_blueprint_sequence_mode():
    order = from_pairs(3, [(0, 1), (1, 2)])
    spec = sequence_spec(order, {SeqKey((0, 1, 2)): fin(2)})
    bp = build_blueprint(spec, "t84", CFG)
    struct = replay_blueprint(bp, CFG)
    key = ">".join(pnode(f"P{i}") for i in (0, 1, 2))
    assert struct.limit_targets[key] == fin(2)
    assert replayed_prime_preorder(struct, bp.predicates) == order


def test_limit_obligations_cross_module_rule():
    g = DominationGraph(
        (
            TypeNode("a", prime=True),
            TypeNode("b", prime=True),
            TypeNode("c", prime=True),
        ),
        (
            DomEdge("a", "b", "f"),
            DomEdge("b", "a", "g"),
        ),
    )
    obligations = limit_obligations(g)
    assert obligations[frozenset({"a", "b"})] is True
    assert obligations[frozenset({"c"})] is False
    g2 = DominationGraph(
        (TypeNode("a", prime=True), TypeNode("b", prime=True)),
        (
            DomEdge("a", "b", "f", principal=True),
            DomEdge("b", "a", "g", principal=True),
        ),
    )
    # strongly equivalent: one isomorphism type, no forced limit model
    assert limit_obligations(g2)[frozenset({"a", "b"})] is False


def test_replay_registry_obligations_match_f_requirements():
    order = from_pairs(2, [(0, 1), (1, 0)])
    spec = finite_spec(order, {frozenset({0, 1}): fin(1)})
    bp = build_blueprint(spec, "t77", CFG)
    struct = replay_blueprint(bp, CFG)
    g = struct.to_domination_graph()
    obligations = limit_obligations(g)
    names = frozenset({pnode("P0"), pnode("P1")})
    assert obligations[names] is True
    il = replayed_il(struct, spec)
    assert card_eq(il[frozenset({0, 1})], fin(1), ch=False)


# -- corollary witnesses ------------------------------------------------------

def test_corollary_c78():
    spec = realize_corollary("c78", (fin(2), OMEGA))
    triple = target_triple(spec)
    assert triple == Cm3Triple(fin(2), OMEGA, CONTINUUM)
    verdict = classify_triple(triple, "tc")
    assert verdict.admissible and verdict.case == 3
    bp = build_blueprint(spec, "t77", CFG)
    assert len(bp.predicates) == 2
    with pytest.raises(ValueError):
        realize_corollary("c78", (ZERO, OMEGA))
    with pytest.raises(ValueError):
        realize_corollary("c78", (fin(2), OMEGA1))


def test_corollary_c85():
    spec = realize_corollary("c85", (CONTINUUM,))
    triple = target_triple(spec)
    assert triple == Cm3Triple(OMEGA, CONTINUUM, CONTINUUM)
    assert classify_triple(triple, "tc").admissible
    bp = build_blueprint(spec, "t84", CFG)
    struct = replay_blueprint(bp, CFG)
    assert len(struct.universe) <= 200
    zero = realize_corollary("c85", (ZERO,))
    assert validate_f(zero).ok


def test_corollary_c93():
    spec = realize_corollary("c93", (ZERO,))
    triple = target_triple(spec)
    assert triple == Cm3Triple(CONTINUUM, CONTINUUM, ZERO)
    verdict = classify_triple(triple, "tc")
    assert verdict.admissible and verdict.case == 1
    bp = build_blueprint(spec, "t92", CFG)
    struct = replay_blueprint(bp, CFG)
    flags = replayed_prime_flags(struct, bp.predicates)
    assert flags[0] and flags[1] and flags[2]
    cont = realize_corollary("c93", (CONTINUUM,))
    assert cont.npl_residual == CONTINUUM
    notes = [step for step in build_blueprint(cont, "t92", CFG).pipeline if step.op == "note"]
    assert any("prime-less" in step.args["text"] for step in notes)


def _old_corollary(kind, lam):
    """The spec ``realize_corollary`` gave when it built each spec and then
    replaced its triple: each corollary spec's quotient built twice."""
    from rklab.record import replace

    chain = from_pairs(3, [(0, 1), (1, 2)])
    if kind == "c78":
        spec = finite_spec(from_pairs(2, []), {frozenset({0}): lam, frozenset({1}): ZERO})
        return replace(spec, triple=Cm3Triple(fin(2), lam, CONTINUUM))
    if kind == "c85":
        key = SeqKey((0, 1, 2), extendable=not card_eq(lam, ZERO, ch=False))
        return replace(sequence_spec(chain, {key: lam}), triple=Cm3Triple(OMEGA, lam, CONTINUUM))
    n = 3 + (2 if lam in (OMEGA, CONTINUUM) else lam.value)
    order = from_pairs(n, [(0, 1), (1, 2)])
    partition = {i: ("P" if i < 3 else "NPL") for i in range(n)}
    spec = sequence_spec(order, {SeqKey((0, 1, 2), extendable=True): CONTINUUM}, partition=partition)
    residual = CONTINUUM if card_eq(lam, CONTINUUM, ch=False) else None
    return replace(spec, npl_residual=residual, triple=Cm3Triple(CONTINUUM, CONTINUUM, lam))


@pytest.mark.parametrize("kind", ["c78", "c85", "c93"])
@pytest.mark.parametrize("lam", [ZERO, fin(2), OMEGA, CONTINUUM], ids=render)
def test_corollary_builds_one_quotient(monkeypatch, kind, lam):
    import rklab.preorder

    quotients = []
    original = rklab.preorder.from_pairs
    monkeypatch.setattr(rklab.preorder, "from_pairs", lambda n, pairs: quotients.append(n) or original(n, pairs))
    params = (fin(2), lam) if kind == "c78" else (lam,)
    spec = realize_corollary(kind, params)
    assert len(quotients) == 1
    monkeypatch.undo()
    assert spec == _old_corollary(kind, lam)


def test_corollaries_all_accepted_and_decompose_to_continuum():
    finite_values = [ZERO, fin(1), fin(3), OMEGA, CONTINUUM]
    witnesses = []
    for lam2 in finite_values:
        witnesses.append(realize_corollary("c78", (fin(2), lam2)))
    for lam in finite_values:
        witnesses.append(realize_corollary("c85", (lam,)))
        witnesses.append(realize_corollary("c93", (lam,)))
    for spec in witnesses:
        triple = target_triple(spec)
        verdict = classify_triple(triple, "tc")
        assert verdict.admissible, triple.render()
        total, ok = decompose_tc(triple.p, [triple.l], triple.npl)
        assert ok, triple.render()


def test_builder_worst_case_universe_budget():
    # 6 singleton components maximizes the upward-ban applications;
    # six 2-cycles maximizes elements at the 6-class bound
    for pairs, n in (([], 6), ([(2 * i, 2 * i + 1) for i in range(6)]
                               + [(2 * i + 1, 2 * i) for i in range(6)], 12)):
        order = from_pairs(n, pairs)
        spec = finite_spec(order, {frozenset(c): CONTINUUM for c in order.classes})
        bp = build_blueprint(spec, "t77", CFG)
        struct = replay_blueprint(bp, CFG, check=True)
        assert len(struct.universe) <= 200


def test_wide_blueprint_builds_in_linear_time():
    # 60 single-element parts: 1770 bu steps into a universe of about 18.5k
    # elements; a step that costs the whole structure so far takes seconds
    n = 60
    order = from_pairs(n, [])
    spec = finite_spec(order, {frozenset({i}): (fin(1) if i % 3 else ZERO) for i in range(n)})
    start = time.perf_counter()
    bp = build_blueprint(spec, "t77")
    struct = replay_blueprint(bp, bp.config, check=True)
    po = replayed_prime_preorder(struct, bp.predicates)
    elapsed = time.perf_counter() - start
    assert sum(step.op == "bu" for step in bp.operator_plan) == n * (n - 1) // 2
    assert po == order
    assert elapsed < 4.0, f"wide t77 build and checked replay took {elapsed:.2f}s"
