"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
report.  Expected values marked as derived were computed with the
independent oracles in oracles.py before being frozen here.
"""
import itertools
import random
import time

import pytest

from oracles import (
    brute_close,
    brute_congruence_count,
    brute_height,
    brute_instantiate,
    brute_width,
    enumerate_formulas,
    matrix,
)
from rklab.cardinal import (
    CONTINUUM,
    OMEGA,
    OMEGA1,
    ZERO,
    card_eq,
    card_le,
    card_sum,
    fin,
)
from rklab.distribution import (
    BuildConfig,
    Cm3Triple,
    build_blueprint,
    classify_triple,
    decompose_tc,
    finite_spec,
    realize_corollary,
    replay_blueprint,
    replayed_il,
    replayed_prime_preorder,
    target_triple,
)
from rklab.limitcount import count_classes, lmt, lms
from rklab.models import (
    RkSequence,
    cm_dominates,
    construct_model,
    explicit,
    full_base,
    perturb,
)
from rklab.operators import (
    colored_base,
    icp,
    verify_schemes,
)
from rklab.preorder import (
    ConeCase,
    PremodelProfile,
    check_premodel,
    from_pairs,
    random_preorder,
)
from rklab.typespace import (
    FormulaClass,
    TypeSpace,
    classify_formula,
    enumerate_types,
    has_prime_model,
    is_dense,
)

SYMBOLS = [fin(k) for k in range(21)] + [OMEGA, OMEGA1, CONTINUUM]


def report(n: int, detail: str = "") -> None:
    print(f"ACCEPTANCE {n}: PASS {detail}".rstrip())


def test_criterion_01_cardinal_algebra():
    start = time.perf_counter()
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert card_sum(a, b) == card_sum(b, a)
        assert card_sum(a, CONTINUUM) == CONTINUUM
    for a, b, c in itertools.product(SYMBOLS, repeat=3):
        assert card_sum(card_sum(a, b), c) == card_sum(a, card_sum(b, c))
    for ch in (True, False):
        for a in SYMBOLS:
            assert card_le(a, a, ch)
        for a, b in itertools.product(SYMBOLS, repeat=2):
            assert card_le(a, b, ch) or card_le(b, a, ch)
        for a, b, c in itertools.product(SYMBOLS, repeat=3):
            if card_le(a, b, ch) and card_le(b, c, ch):
                assert card_le(a, c, ch)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"({elapsed:.2f}s)")


def test_criterion_02_preorder_laws():
    start = time.perf_counter()
    rng = random.Random(2026)
    for _ in range(500):
        n = rng.randint(1, 10)
        density = rng.uniform(0.05, 0.5)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
        p = from_pairs(n, pairs)
        assert matrix(p) == brute_close([[(i, j) in pairs for j in range(n)] for i in range(n)])
        flat = sorted(x for members in p.classes for x in members)
        assert flat == list(range(n))
        for a in range(p.size):
            for b in range(p.size):
                if a != b:  # the class order is antisymmetric
                    assert not (p.above[a] >> b & 1 and p.above[b] >> a & 1)
        if n <= 8:
            from rklab.preorder import height, width

            assert height(p) == brute_height(matrix(p))
            assert width(p) == brute_width(matrix(p))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    report(2, f"({elapsed:.2f}s)")


def test_criterion_03_premodel_checker():
    cases = (
        ConeCase(OMEGA, CONTINUUM, False),
        ConeCase(CONTINUUM, ZERO, True),
        ConeCase(CONTINUUM, OMEGA, False),
        ConeCase(CONTINUUM, CONTINUUM, False),
    )
    conforming = PremodelProfile(CONTINUUM, True, OMEGA, OMEGA, cases, OMEGA)
    rep = check_premodel(conforming)
    assert rep.ok
    assert ("width", "c") in rep.facts
    finite_height = PremodelProfile(CONTINUUM, True, OMEGA, OMEGA, cases, fin(5))
    rep = check_premodel(finite_height)
    assert not rep.ok
    assert any(e.code == "height-countable" for e in rep.violations())
    report(3)


def test_criterion_04_type_spaces():
    start = time.perf_counter()
    for depth in range(1, 13):
        assert len(enumerate_types(TypeSpace("iup", depth))) == 2**depth
    iup = TypeSpace("iup", 8)
    assert has_prime_model(iup) is False
    assert any(
        classify_formula(iup, phi) is FormulaClass.NI
        for phi in enumerate_formulas(iup)
    )
    sdup = TypeSpace("sdup", 2)
    assert has_prime_model(sdup) is True
    assert all(
        classify_formula(sdup, phi) is FormulaClass.I
        for phi in enumerate_formulas(sdup)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f}s"
    report(4, f"({elapsed:.2f}s)")


def _random_iup_spec(rng, ts):
    if rng.random() < 0.5:
        spec = full_base(ts)
        for cell in enumerate_types(ts):
            if rng.random() < 0.3:
                spec = spec.with_delta(cell, rng.randint(-2, 2))
        return spec
    return explicit(ts, {c: rng.randint(1, 3) for c in enumerate_types(ts)})


def test_criterion_05_model_domination():
    rng = random.Random(5)
    ts = TypeSpace("iup", 4)
    specs = [_random_iup_spec(rng, ts) for _ in range(200)]
    for s in specs:
        assert cm_dominates(s, s)
    for _ in range(600):
        a, b, c = rng.choice(specs), rng.choice(specs), rng.choice(specs)
        if cm_dominates(a, b) and cm_dominates(b, c):
            assert cm_dominates(a, c)
    strict = 0
    for s in specs:
        up = perturb(s, "up")
        assert cm_dominates(s, up) and not cm_dominates(up, s)
        assert is_dense(ts, up.support())
        strict += 1
        if strict >= 100:
            break
    assert strict == 100
    down_ok = 0
    for s in specs:
        try:
            down = perturb(s, "down")
        except ValueError:
            continue
        assert cm_dominates(down, s) and not cm_dominates(s, down)
        assert is_dense(ts, down.support())
        down_ok += 1
    assert down_ok >= 50
    report(5)


def test_criterion_06_submodel_construction():
    rng = random.Random(6)
    ts = TypeSpace("iup", 3)
    cells = list(enumerate_types(ts))
    for _ in range(50):
        k = rng.randint(1, 4)
        cones = [set() for _ in range(k)]
        for cell in cells:
            cones[rng.randrange(k)].add(cell)
        cones = [cone or {cells[rng.randrange(len(cells))]} for cone in cones]
        seq = RkSequence(tuple(cells[:k]))
        spec = construct_model(ts, seq, cones)
        assert spec.support() == frozenset().union(*cones)
    for _ in range(50):
        k = rng.randint(1, 3)
        missing = set(rng.sample(cells, rng.randint(1, 3)))
        remaining = [c for c in cells if c not in missing]
        cones = [
            set(rng.sample(remaining, rng.randint(1, len(remaining))))
            for _ in range(k)
        ]
        seq = RkSequence(tuple(cells[:k]))
        with pytest.raises(ValueError):
            construct_model(ts, seq, cones)
    report(6)


def test_criterion_07_limit_counting():
    start = time.perf_counter()
    systems = []
    for n in (1, 2, 3):
        systems.append(lmt(fin(n)))
        systems.append(lms(fin(n)))
    systems.append(lmt(OMEGA))
    systems.append(lms(OMEGA))
    for sys_ in systems:
        for alphabet in (2, 3, 4):
            for length in (1, 2, 3, 4):
                eqs = brute_instantiate(sys_, alphabet, length)
                expected, _ = brute_congruence_count(eqs, alphabet, length)
                assert count_classes(sys_, alphabet, length)[0] == expected
    for alphabet in (2, 3, 4):
        for length in (1, 2, 3, 4, 5):
            assert count_classes(lmt(fin(1)), alphabet, length)[0] == 1
    base = lmt(OMEGA)
    from rklab.limitcount import IdentitySystem

    for cut in range(len(base.schemas)):
        partial = IdentitySystem("lmt", base.schemas[:cut], OMEGA)
        fuller = IdentitySystem("lmt", base.schemas[: cut + 1], OMEGA)
        for alphabet in (2, 3, 4):
            assert (
                count_classes(fuller, alphabet, 4)[0]
                <= count_classes(partial, alphabet, 4)[0]
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.2f}s"
    report(7, f"({elapsed:.2f}s)")


def _oracle_tc_admissible(t: Cm3Triple) -> int | None:
    # literal restatement of the three-family list under CH
    is_c = lambda v: v in (CONTINUUM, OMEGA1)
    if is_c(t.p) and is_c(t.l):
        return 1
    if t.p == ZERO and t.l == ZERO and is_c(t.npl):
        return 2
    if is_c(t.npl) and t.p != ZERO:
        return 3
    return None


def _oracle_small_admissible(t: Cm3Triple) -> bool:
    if t.npl != ZERO:
        return False
    if t == Cm3Triple(fin(1), ZERO, ZERO):
        return True
    p_ok = (t.p.finite and t.p.value >= 2) or t.p == OMEGA
    l_ok = t.l != ZERO
    return p_ok and l_ok


def test_criterion_08_triple_classification():
    checked = 0
    grid = [fin(k) for k in range(6)] + [OMEGA, OMEGA1, CONTINUUM]
    for p, l, npl in itertools.product(grid, repeat=3):
        t = Cm3Triple(p, l, npl)
        verdict = classify_triple(t, "tc", ch=True)
        family = _oracle_tc_admissible(t)
        assert verdict.admissible == (family is not None), t.render()
        if family is not None:
            assert verdict.case == family, t.render()
            total, ok = decompose_tc(t.p, [t.l], t.npl, ch=True)
            assert ok, t.render()
        small = classify_triple(t, "small")
        assert small.admissible == _oracle_small_admissible(t), t.render()
        checked += 2
    # the two impossible patterns carry their own reason codes
    assert (
        classify_triple(Cm3Triple(fin(2), CONTINUUM, fin(0))).reason
        == "continuum-limits-need-continuum-primes-or-npl"
    )
    assert (
        classify_triple(Cm3Triple(fin(5), CONTINUUM, OMEGA)).reason
        == "continuum-limits-need-continuum-primes-or-npl"
    )
    assert (
        classify_triple(Cm3Triple(CONTINUUM, fin(3), OMEGA)).reason
        == "continuum-primes-force-continuum-limits"
    )
    assert (
        classify_triple(Cm3Triple(CONTINUUM, OMEGA, fin(0))).reason
        == "continuum-primes-force-continuum-limits"
    )
    assert checked >= 1458
    # the realizability corollaries: each witness's target triple is
    # admissible under tc and decomposes to the continuum
    lams = [ZERO, fin(1), fin(3), OMEGA, CONTINUUM]
    witnesses = [realize_corollary("c78", (fin(2), lam)) for lam in lams]
    witnesses += [realize_corollary(kind, (lam,)) for kind in ("c85", "c93") for lam in lams]
    for spec in witnesses:
        triple = target_triple(spec)
        assert classify_triple(triple, "tc").admissible, triple.render()
        total, ok = decompose_tc(triple.p, [triple.l], triple.npl)
        assert ok, triple.render()
    report(8, f"({checked} classifications, {len(witnesses)} corollary witnesses)")


def test_criterion_09_builder_round_trip():
    start = time.perf_counter()
    cfg = BuildConfig(colors=1, per_color=1, depth=1, fan_out=1)
    rng = random.Random(9)
    values = [ZERO, fin(1), fin(2), fin(4), OMEGA, CONTINUUM]
    for trial in range(50):
        order = random_preorder(rng, rng.randint(1, 6), rng.uniform(0.1, 0.4))
        f = {}
        for members in order.classes:
            f[frozenset(members)] = (
                rng.choice(values[1:]) if len(members) > 1 else rng.choice(values)
            )
        spec = finite_spec(order, f)
        bp = build_blueprint(spec, "t77", cfg)
        # check=True verifies each operator record as soon as it is applied
        struct = replay_blueprint(bp, cfg, check=True)
        assert len(struct.universe) <= 200, f"universe {len(struct.universe)}"
        po = replayed_prime_preorder(struct, bp.predicates)
        # replay keeps the labels (P_i is element i): equality, not isomorphism
        assert po == order
        assert sorted(len(c) for c in po.classes) == sorted(len(c) for c in order.classes)
        il = replayed_il(struct, spec)
        assert all(card_eq(il[k], v, ch=False) for k, v in f.items())
        recorded = {rec.op for rec in struct.history if rec.op in ("icp", "css", "bu")}
        for tag in recorded:
            assert verify_schemes(struct, tag).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.2f}s"
    report(9, f"({elapsed:.2f}s)")


def test_criterion_10_operator_ground_checks():
    rng = random.Random(10)
    spec0 = colored_base(1, 3)
    out = icp(spec0, "P0", None, 3, 2)
    rels = out.history[-1].params["rels"]
    base_img = {}
    for x, y in out.binary[rels[0]]:
        base_img.setdefault(x, set()).add(y)
    for x in out.extent("P0"):
        color = out.color(x)
        eff = 3 if color is None else color
        img0 = base_img[x]
        parts = []
        for block in itertools.product((0, 1), repeat=eff):
            part = {
                y
                for y in img0
                if all(
                    ((x, y) in out.binary[rels[i + 1]]) == bool(block[i])
                    for i in range(eff)
                )
            }
            parts.append(part)
        assert len(parts) == 2**eff
        assert all(part for part in parts)
        for a, b in itertools.combinations(parts, 2):
            assert not (a & b)
        assert set().union(*parts) == img0
    assert verify_schemes(out, "icp").ok
    detected = 0
    for _ in range(100):
        rel = rng.choice(rels)
        pairs = list(out.binary[rel])
        if not pairs:
            continue
        index = rng.randrange(len(pairs))
        del pairs[index]
        mutated = out.copy()
        mutated.binary[rel] = tuple(pairs)
        if not verify_schemes(mutated, "icp").ok:
            detected += 1
    assert detected == 100
    report(10)
