import random

import pytest

from oracles import (
    brute_classes,
    brute_close,
    brute_covers,
    brute_directed,
    brute_height,
    brute_isomorphic,
    brute_width,
    matrix,
)
from rklab.cardinal import CONTINUUM, OMEGA, ZERO, fin
from rklab.preorder import (
    ConeCase,
    PremodelProfile,
    check_premodel,
    classify_cone_case,
    close,
    cones,
    from_pairs,
    height,
    is_closed,
    is_upward_directed,
    random_preorder,
    sim_quotient,
    width,
)


def chain(n):
    return close(from_pairs(n, [(i, i + 1) for i in range(n - 1)]))


def antichain(n):
    return close(from_pairs(n, []))


def test_close_examples():
    p = close(from_pairs(3, [(0, 1), (1, 2)]))
    assert p.le(0, 2)
    assert all(p.le(i, i) for i in range(3))
    assert close(p) == p  # idempotent
    empty = close(from_pairs(2, []))
    assert empty.pairs() == [(0, 0), (1, 1)]


def test_sim_quotient_examples():
    p = close(from_pairs(2, [(0, 1), (1, 0)]))
    assert sim_quotient(p).size == 1
    q = sim_quotient(antichain(3))
    assert q.size == 3
    assert not any(q.le(a, b) for a in range(3) for b in range(3) if a != b)
    # two-cycle below a third element: 2 classes, one covering edge
    p = close(from_pairs(3, [(0, 1), (1, 0), (0, 2)]))
    q = sim_quotient(p)
    assert q.size == 2
    assert len(q.covers()) == 1


def test_sim_quotient_rejects_raw_input():
    with pytest.raises(ValueError):
        sim_quotient(from_pairs(2, [(0, 1)]))


def test_cones():
    p = chain(3)
    lower, upper = cones(p, 2)
    assert lower == frozenset({0, 1, 2}) and upper == frozenset({2})
    lower, upper = cones(antichain(3), 1)
    assert lower == upper == frozenset({1})
    lower, upper = cones(p, 1)
    assert len(lower) == 2 and len(upper) == 2
    with pytest.raises(IndexError):
        cones(p, 5)


def test_height_width_examples():
    assert height(chain(4)) == 4
    assert height(antichain(5)) == 1
    two_equiv = close(from_pairs(2, [(0, 1), (1, 0)]))
    assert height(two_equiv) == 1  # equivalent elements never stack
    assert width(antichain(5)) == 5
    assert width(chain(4)) == 1
    grid = close(from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    assert width(grid) == 2
    assert brute_width(matrix(grid)) == 2


def test_directedness():
    top = close(from_pairs(3, [(0, 2), (1, 2)]))
    assert is_upward_directed(top)
    assert not is_upward_directed(antichain(2))
    v = close(from_pairs(3, [(0, 2), (1, 2)]))
    assert is_upward_directed(v)


def test_random_preorders_against_oracles():
    rng = random.Random(20260811)
    for trial in range(500):
        n = rng.randint(1, 10)
        p = random_preorder(rng, n, rng.uniform(0.05, 0.5))
        assert is_closed(p)
        assert close(p) == p
        q = sim_quotient(p)
        seen = sorted(x for members in q.classes for x in members)
        assert seen == list(range(n))  # genuine partition
        for a in range(q.size):
            for b in range(q.size):
                if a != b:
                    assert not (q.le(a, b) and q.le(b, a))
        if n <= 8:
            assert height(p) == brute_height(matrix(p))
            assert width(p) == brute_width(matrix(p))


def test_bitset_rows_against_matrix_oracles():
    rng = random.Random(20261018)
    for trial in range(300):
        n = rng.randint(0, 9) if trial < 200 else rng.randint(10, 24)
        density = rng.uniform(0.0, 0.4)
        raw = from_pairs(n, [
            (i, j) for i in range(n) for j in range(n) if rng.random() < density
        ])
        full = brute_close(matrix(raw))
        assert is_closed(raw) == (matrix(raw) == full)
        p = close(raw)
        assert matrix(p) == full
        q = sim_quotient(p)
        assert {frozenset(c) for c in q.classes} == brute_classes(full)
        assert {(frozenset(q.classes[a]), frozenset(q.classes[b])) for a, b in q.covers()} == brute_covers(full)
        for a in range(q.size):
            for b in range(q.size):
                assert q.le(a, b) == full[q.classes[a][0]][q.classes[b][0]]
        assert is_upward_directed(p) == brute_directed(full)
        for a in range(n):
            lower, upper = cones(p, a)
            assert lower == {x for x in range(n) if full[x][a]}
            assert upper == {x for x in range(n) if full[a][x]}
        if n <= 8:
            assert height(p) == brute_height(full)
            assert width(p) == brute_width(full)


def test_height_one_iff_flat():
    rng = random.Random(7)
    for _ in range(100):
        p = random_preorder(rng, rng.randint(1, 6), 0.4)
        q = sim_quotient(p)
        flat = not any(
            q.le(a, b) for a in range(q.size) for b in range(q.size) if a != b
        )
        assert (height(p) == 1) == flat


def conforming_profile():
    return PremodelProfile(
        size=CONTINUUM,
        directed=True,
        lower_cone_card=OMEGA,
        class_card=OMEGA,
        joint_upper_cone_cases=(
            ConeCase(OMEGA, CONTINUUM, False),
            ConeCase(CONTINUUM, ZERO, True),
            ConeCase(CONTINUUM, OMEGA, False),
            ConeCase(CONTINUUM, CONTINUUM, False),
        ),
        height=OMEGA,
    )


def test_premodel_conforming_profile_passes():
    report = check_premodel(conforming_profile())
    assert report.ok
    assert ("width", "c") in report.facts


def test_premodel_finite_height_fails():
    import dataclasses

    profile = dataclasses.replace(conforming_profile(), height=fin(5))
    report = check_premodel(profile)
    assert not report.ok
    bad = [e for e in report.violations()]
    assert any(e.code == "height-countable" for e in bad)


def test_premodel_continual_lower_cone_fails():
    import dataclasses

    profile = dataclasses.replace(conforming_profile(), lower_cone_card=CONTINUUM)
    report = check_premodel(profile)
    assert not report.ok
    assert any(e.code == "lower-cones-countable" for e in report.violations())


def test_cone_cases_match_exactly_one_shape():
    profile = conforming_profile()
    for case in profile.joint_upper_cone_cases:
        shapes = [
            s
            for s in (1, 2, 3, 4)
            if classify_cone_case(case) == s
        ]
        assert len(shapes) == 1
    assert classify_cone_case(ConeCase(fin(3), CONTINUUM, False)) is None
    assert classify_cone_case(ConeCase(CONTINUUM, fin(2), True)) is None


def test_preorders_isomorphic():
    assert brute_isomorphic(matrix(chain(3)), matrix(close(from_pairs(3, [(2, 1), (1, 0)]))))
    assert not brute_isomorphic(matrix(chain(3)), matrix(antichain(3)))
    cyc = close(from_pairs(2, [(0, 1), (1, 0)]))
    assert not brute_isomorphic(matrix(cyc), matrix(chain(2)))


def chains(*lengths):
    """Disjoint union of chains of the given lengths."""
    pairs, start = [], 0
    for length in lengths:
        pairs += [(i, i + 1) for i in range(start, start + length - 1)]
        start += length
    return close(from_pairs(start, pairs))


def chain_product(m, n):
    """Product order of an m-chain and an n-chain; element i*n + j is (i, j)."""
    pairs = [(i * n + j, (i + 1) * n + j) for i in range(m - 1) for j in range(n)]
    pairs += [(i * n + j, i * n + j + 1) for i in range(m) for j in range(n - 1)]
    return close(from_pairs(m * n, pairs))


def test_width_past_twenty_classes():
    assert width(antichain(25)) == 25
    for lengths in ((30,), (5,) * 7, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (3,) * 24):
        assert width(chains(*lengths)) == len(lengths)
    for m, n in ((1, 25), (5, 5), (4, 9), (9, 4), (6, 8)):
        assert width(chain_product(m, n)) == min(m, n)
    # equivalent elements collapse: 30 two-element cycles in one chain
    cycles = [(2 * i, 2 * i + 1) for i in range(30)] + [(2 * i + 1, 2 * i) for i in range(30)]
    links = [(2 * i, 2 * i + 2) for i in range(29)]
    assert width(close(from_pairs(60, cycles + links))) == 1


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def raw_preorders(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=12,
        )
    )
    return from_pairs(n, pairs)


@settings(max_examples=80, deadline=None)
@given(raw_preorders())
def test_close_properties(raw):
    p = close(raw)
    assert is_closed(p)
    assert close(p) == p
    # closure only adds pairs
    assert set(raw.pairs()) <= set(p.pairs())


@settings(max_examples=80, deadline=None)
@given(raw_preorders())
def test_quotient_partition_properties(raw):
    p = close(raw)
    q = sim_quotient(p)
    flat = sorted(x for members in q.classes for x in members)
    assert flat == list(range(p.n))
    for members in q.classes:
        for a in members:
            for b in members:
                assert p.sim(a, b)
