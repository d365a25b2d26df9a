import random
import time

import pytest

from rklab.cardinal import CONTINUUM, OMEGA, OMEGA1, ZERO, card_eq, fin
from rklab.distribution import (
    BuildConfig,
    Cm3Triple,
    DistributionSpec,
    SeqKey,
    build_blueprint,
    classify_triple,
    decompose,
    decompose_tc,
    finite_spec,
    limit_obligations,
    nonrepeating_cofinite,
    realize_corollary,
    replay_blueprint,
    replayed_il,
    replayed_prime_flags,
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
    close,
    from_pairs,
    random_preorder,
    sim_quotient,
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
    order = close(from_pairs(3, [(0, 1), (1, 0)]))
    q = sim_quotient(order)
    good = finite_spec(order, {frozenset({0, 1}): fin(1), frozenset({2}): ZERO})
    assert validate_f(good, "tc").ok
    bad = finite_spec(order, {frozenset({0, 1}): ZERO, frozenset({2}): ZERO})
    report = validate_f(bad, "tc")
    assert not report.ok
    assert any("fat-class-positive" in e.code for e in report.violations())


def test_validate_f_all_singleton_antichain_zero_passes():
    order = close(from_pairs(3, []))
    spec = finite_spec(order, {frozenset({i}): ZERO for i in range(3)})
    assert validate_f(spec, "tc").ok


def test_validate_f_small_profile():
    order = close(from_pairs(2, [(0, 1)]))
    good = finite_spec(order, {frozenset({0}): ZERO, frozenset({1}): fin(1)})
    assert validate_f(good, "small").ok
    bad_bottom = finite_spec(order, {frozenset({0}): fin(1), frozenset({1}): fin(1)})
    assert any(
        e.code == "least-class-zero" for e in validate_f(bad_bottom, "small").violations()
    )
    bad_top = finite_spec(order, {frozenset({0}): ZERO, frozenset({1}): ZERO})
    assert any(
        e.code == "greatest-class-positive"
        for e in validate_f(bad_top, "small").violations()
    )
    no_least = finite_spec(
        close(from_pairs(2, [])), {frozenset({0}): ZERO, frozenset({1}): ZERO}
    )
    assert any(
        e.code == "least-class-exists" for e in validate_f(no_least, "small").violations()
    )


def test_validate_f_value_range():
    order = close(from_pairs(1, []))
    spec = finite_spec(order, {frozenset({0}): OMEGA1})
    assert any(
        "value-range" in e.code for e in validate_f(spec, "tc").violations()
    )


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
    order = close(from_pairs(3, [(0, 1), (1, 2)]))
    good = sequence_spec(
        order,
        {SeqKey((0, 1, 2)): fin(2), SeqKey((1, 2)): fin(2)},
    )
    assert validate_f(good, "tc").ok
    # subsequence monotonicity: f(y) <= f(y') when y' inside y
    bad = sequence_spec(
        order,
        {SeqKey((0, 1, 2)): fin(3), SeqKey((1, 2)): fin(1)},
    )
    report = validate_f(bad, "tc")
    assert any("subsequence-monotone" in e.code for e in report.violations())
    # tail equality forces equal values
    bad2 = sequence_spec(
        order,
        {SeqKey((0, 2)): fin(1), SeqKey((1, 2)): fin(2)},
    )
    assert any("tail-equal" in e.code for e in validate_f(bad2, "tc").violations())
    # strictly growing sequences need at least one limit model
    bad3 = sequence_spec(order, {SeqKey((0, 1, 2), extendable=True): ZERO})
    assert any(
        "growing-positive" in e.code for e in validate_f(bad3, "tc").violations()
    )


def test_validate_f_sequences_small():
    order = close(from_pairs(3, [(0, 1), (1, 2)]))
    touching_least = sequence_spec(order, {SeqKey((0, 1)): fin(1)})
    report = validate_f(touching_least, "small")
    assert any("avoids-least" in e.code for e in report.violations())
    cofinal_zero = sequence_spec(order, {SeqKey((1, 2)): ZERO})
    report = validate_f(cofinal_zero, "small")
    assert any("cofinal-positive" in e.code for e in report.violations())


def test_spec_validation_errors():
    order = close(from_pairs(2, [(0, 1)]))
    with pytest.raises(ValueError):
        finite_spec(order, {frozenset({0}): ZERO})  # misses a class
    with pytest.raises(ValueError):
        sequence_spec(order, {SeqKey((1, 0)): ZERO})  # not a chain
    with pytest.raises(ValueError):
        DistributionSpec(from_pairs(2, [(0, 1)]), "finite")  # not closed


# -- blueprints and replay ----------------------------------------------------

def test_blueprint_example_shape():
    # two types, the higher dominating the lower one only
    order = close(from_pairs(2, [(0, 1)]))
    q = sim_quotient(order)
    spec = finite_spec(order, {frozenset(c): ZERO for c in q.classes})
    bp = build_blueprint(spec, "t77", CFG)
    assert bp.q_edges == ((0, 1, True),)
    struct = replay_blueprint(bp, CFG)
    po = replayed_prime_preorder(struct, bp.predicates)
    assert po.le(0, 1) and not po.le(1, 0)
    assert po == order


def test_replay_rejects_other_config():
    spec = finite_spec(close(from_pairs(1, [])), {frozenset({0}): ZERO})
    bp = build_blueprint(spec, "t77", CFG)
    with pytest.raises(ValueError, match="built with"):
        replay_blueprint(bp, BuildConfig(fan_out=CFG.fan_out + 1))


def test_blueprint_singleton():
    order = close(from_pairs(1, []))
    spec = finite_spec(order, {frozenset({0}): ZERO})
    bp = build_blueprint(spec, "t77", CFG)
    struct = replay_blueprint(bp, CFG)
    po = replayed_prime_preorder(struct, bp.predicates)
    assert po.n == 1
    assert replayed_il(struct, spec) == {frozenset({0}): ZERO}


def test_blueprint_rejects_invalid_f():
    order = close(from_pairs(2, [(0, 1), (1, 0)]))
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
        q = sim_quotient(order)
        f = {}
        for members in q.classes:
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
        assert sim_quotient(po) == q
        il = replayed_il(struct, spec)
        assert all(card_eq(il[k], v, ch=False) for k, v in f.items())
        for tag in ("icp", "css"):
            assert verify_schemes(struct, tag).ok


def test_blueprint_partition_variants():
    order = close(from_pairs(3, []))
    q = sim_quotient(order)
    f = {frozenset(c): ZERO for c in q.classes}
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
    order = close(from_pairs(3, [(0, 1), (1, 2)]))
    spec = sequence_spec(order, {SeqKey((0, 1, 2)): fin(2)})
    bp = build_blueprint(spec, "t84", CFG)
    struct = replay_blueprint(bp, CFG)
    key = ">".join(pnode(f"P{i}") for i in (0, 1, 2))
    assert struct.registry.limit_targets[key] == fin(2)
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
    order = close(from_pairs(2, [(0, 1), (1, 0)]))
    spec = finite_spec(order, {frozenset({0, 1}): fin(1)})
    bp = build_blueprint(spec, "t77", CFG)
    struct = replay_blueprint(bp, CFG)
    g = struct.registry.to_domination_graph()
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
    assert validate_f(zero, "tc").ok


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
    assert any(
        "prime-less" in n for n in build_blueprint(cont, "t92", CFG).notes
    )


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
        order = close(from_pairs(n, pairs))
        q = sim_quotient(order)
        spec = finite_spec(order, {frozenset(c): CONTINUUM for c in q.classes})
        bp = build_blueprint(spec, "t77", CFG)
        struct = replay_blueprint(bp, CFG, check=True)
        assert len(struct.universe) <= 200


def test_wide_blueprint_builds_in_linear_time():
    # 60 single-element parts: 1770 bu steps into a universe of about 18.5k
    # elements; a step that costs the whole structure so far takes seconds
    n = 60
    order = close(from_pairs(n, []))
    spec = finite_spec(order, {frozenset({i}): (fin(1) if i % 3 else ZERO) for i in range(n)})
    start = time.perf_counter()
    bp = build_blueprint(spec, "t77")
    struct = replay_blueprint(bp, bp.config, check=True)
    po = replayed_prime_preorder(struct, bp.predicates)
    elapsed = time.perf_counter() - start
    assert sum(step.op == "bu" for step in bp.operator_plan) == n * (n - 1) // 2
    assert po == order
    assert elapsed < 4.0, f"wide t77 build and checked replay took {elapsed:.2f}s"
