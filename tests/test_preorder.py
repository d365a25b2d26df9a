import itertools
import random
import time

import pytest

from oracles import (
    all_preorders,
    brute_classes,
    brute_close,
    brute_components,
    brute_covers,
    brute_directed,
    brute_extremes,
    brute_height,
    brute_isomorphic,
    brute_width,
    matrix,
    preorder_types,
)
import rklab.preorder
from rklab.cardinal import CONTINUUM, OMEGA, ZERO, fin
from rklab.formats import parse_preorder, serialize_preorder
from rklab.preorder import (
    ConeCase,
    PremodelProfile,
    check_premodel,
    classify_cone_case,
    components,
    cones,
    from_pairs,
    height,
    induced,
    is_upward_directed,
    random_preorder,
    width,
)
from rklab.record import replace
from rklab.report import BudgetError


def chain(n):
    return from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return from_pairs(n, [])


def test_close_examples():
    p = from_pairs(3, [(0, 1), (1, 2)])
    assert p.le(0, 2)
    assert all(p.le(i, i) for i in range(3))
    assert from_pairs(3, p.pairs()) == p  # idempotent
    empty = from_pairs(2, [])
    assert empty.pairs() == [(0, 0), (1, 1)]


def test_sim_quotient_examples():
    p = from_pairs(2, [(0, 1), (1, 0)])
    assert p.size == 1 and p.classes == ((0, 1),) and p.index == (0, 0)
    q = antichain(3)
    assert q.size == 3
    assert q.above == (0, 0, 0)  # no class lies below another
    # two-cycle below a third element: 2 classes, one covering edge
    p = from_pairs(3, [(0, 1), (1, 0), (0, 2)])
    assert p.size == 2
    assert p.covers() == [(0, 1)]
    # classes are numbered by least element, members ascending
    p = from_pairs(5, [(4, 2), (2, 4), (3, 0), (1, 4)])
    assert p.classes == ((0,), (1,), (2, 4), (3,))
    assert p.index == (0, 1, 2, 3, 2)
    assert p.above == (0, 0b100, 0, 0b1)


def test_preorder_is_closed_on_construction():
    # a 3-element chain given without 0 <= 2
    p = from_pairs(3, [(1, 2), (0, 1)])
    assert p.le(0, 2) and p.above == (0b110, 0b100, 0)
    assert p == from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers() == [(0, 1), (1, 2)]


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
    two_equiv = from_pairs(2, [(0, 1), (1, 0)])
    assert height(two_equiv) == 1  # equivalent elements never stack
    assert width(antichain(5)) == 5
    assert width(chain(4)) == 1
    grid = from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert width(grid) == 2
    assert brute_width(matrix(grid)) == 2


def test_directedness():
    top = from_pairs(3, [(0, 2), (1, 2)])
    assert is_upward_directed(top)
    assert not is_upward_directed(antichain(2))
    v = from_pairs(3, [(0, 2), (1, 2)])
    assert is_upward_directed(v)


def test_random_preorders_against_oracles():
    rng = random.Random(20260811)
    for trial in range(500):
        n = rng.randint(1, 10)
        density = rng.uniform(0.05, 0.5)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
        p = from_pairs(n, pairs)
        assert matrix(p) == brute_close([[(i, j) in pairs for j in range(n)] for i in range(n)])
        seen = sorted(x for members in p.classes for x in members)
        assert seen == list(range(n))  # genuine partition
        for a in range(p.size):
            for b in range(p.size):
                if a != b:  # the class order is antisymmetric
                    assert not (p.above[a] >> b & 1 and p.above[b] >> a & 1)
        if n <= 8:
            assert height(p) == brute_height(matrix(p))
            assert width(p) == brute_width(matrix(p))


def _cycles(rng, n):
    """Pairs running a cycle through each of a few random disjoint groups."""
    elements = rng.sample(range(n), n)
    pairs = []
    while elements:
        group, elements = elements[: rng.randint(1, 5)], elements[rng.randint(1, 5):]
        pairs += zip(group, group[1:] + group[:1])
    return pairs


def test_bitset_rows_against_matrix_oracles():
    rng = random.Random(20261018)
    for trial in range(400):
        n = rng.randint(0, 9) if trial < 200 else rng.randint(10, 24)
        density = rng.uniform(0.0, 0.4) if trial < 300 else rng.uniform(0.0, 0.1)
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
        if trial >= 300:  # fat classes: cycles through random groups, a few links between
            pairs += _cycles(rng, n)
        generators = [[i == j or (i, j) in pairs for j in range(n)] for i in range(n)]
        full = brute_close(generators)
        p = from_pairs(n, pairs)
        assert matrix(p) == full
        assert {frozenset(c) for c in p.classes} == brute_classes(full)
        assert [c[0] for c in p.classes] == sorted(c[0] for c in p.classes)
        assert all(list(c) == sorted(c) and p.index[x] == a for a, c in enumerate(p.classes) for x in c)
        assert {(frozenset(p.classes[a]), frozenset(p.classes[b])) for a, b in p.covers()} == brute_covers(full)
        for a in range(p.size):
            for b in range(p.size):
                assert bool(p.above[a] >> b & 1) == (a != b and full[p.classes[a][0]][p.classes[b][0]])
        assert is_upward_directed(p) == brute_directed(full)
        for a in range(n):
            lower, upper = cones(p, a)
            assert lower == {x for x in range(n) if full[x][a]}
            assert upper == {x for x in range(n) if full[a][x]}
        elements = rng.sample(range(n), rng.randint(0, n))
        sub = induced(p, elements)
        assert matrix(sub) == [[full[x][y] for y in elements] for x in elements]
        assert sub == from_pairs(len(elements), sub.pairs())
        if n <= 8:
            assert height(p) == brute_height(full)
            assert width(p) == brute_width(full)


def test_height_one_iff_flat():
    rng = random.Random(7)
    for _ in range(100):
        p = random_preorder(rng, rng.randint(1, 6), 0.4)
        flat = not any(
            p.le(x, y) for x in range(p.n) for y in range(p.n) if p.class_of(x) != p.class_of(y)
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
    from rklab.record import replace

    profile = replace(conforming_profile(), height=fin(5))
    report = check_premodel(profile)
    assert not report.ok
    bad = [e for e in report.violations()]
    assert any(e.code == "height-countable" for e in bad)


def test_premodel_continual_lower_cone_fails():
    from rklab.record import replace

    profile = replace(conforming_profile(), lower_cone_card=CONTINUUM)
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
    assert brute_isomorphic(matrix(chain(3)), matrix(from_pairs(3, [(2, 1), (1, 0)])))
    assert not brute_isomorphic(matrix(chain(3)), matrix(antichain(3)))
    cyc = from_pairs(2, [(0, 1), (1, 0)])
    assert not brute_isomorphic(matrix(cyc), matrix(chain(2)))


def chains(*lengths):
    """Disjoint union of chains of the given lengths."""
    pairs, start = [], 0
    for length in lengths:
        pairs += [(i, i + 1) for i in range(start, start + length - 1)]
        start += length
    return from_pairs(start, pairs)


def chain_product(m, n):
    """Product order of an m-chain and an n-chain; element i*n + j is (i, j)."""
    pairs = [(i * n + j, (i + 1) * n + j) for i in range(m - 1) for j in range(n)]
    pairs += [(i * n + j, i * n + j + 1) for i in range(m) for j in range(n - 1)]
    return from_pairs(m * n, pairs)


def test_width_past_twenty_classes():
    assert width(antichain(25)) == 25
    for lengths in ((30,), (5,) * 7, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (3,) * 24):
        assert width(chains(*lengths)) == len(lengths)
    for m, n in ((1, 25), (5, 5), (4, 9), (9, 4), (6, 8)):
        assert width(chain_product(m, n)) == min(m, n)
    # equivalent elements collapse: 30 two-element cycles in one chain
    cycles = [(2 * i, 2 * i + 1) for i in range(30)] + [(2 * i + 1, 2 * i) for i in range(30)]
    links = [(2 * i, 2 * i + 2) for i in range(29)]
    assert width(from_pairs(60, cycles + links)) == 1


def test_a_long_cycle_builds_one_class_quickly():
    n = 100_000
    pairs = [(i, (i + 1) % n) for i in range(n)]
    start = time.perf_counter()
    p = from_pairs(n, pairs)
    elapsed = time.perf_counter() - start
    assert p.classes == (tuple(range(n)),) and p.above == (0,) and set(p.index) == {0}
    assert height(p) == width(p) == 1
    assert elapsed < 1.0, f"a {n}-element cycle took {elapsed:.2f}s"


def star(n):
    """Every element below the last: n - 1 rows of n bits each."""
    return [(i, n - 1) for i in range(n - 1)]


def test_rows_past_the_budget_are_refused(monkeypatch):
    n = 40
    assert from_pairs(n, star(n)).above[0] == 1 << n - 1
    row_budget = rklab.preorder.ROW_BUDGET
    monkeypatch.setattr(rklab.preorder, "ROW_BUDGET", replace(row_budget, limit=(n - 1) * n))
    p = from_pairs(n, star(n))  # exactly at the budget
    from_pairs(n + 1, star(n) + [(n - 1, n), (n, n - 1)])  # a second top element adds no row
    with pytest.raises(BudgetError, match="row budget"):
        from_pairs(n + 1, star(n + 1))
    # a restriction charges its own rows
    assert induced(p, list(range(n))) == p
    monkeypatch.setattr(rklab.preorder, "ROW_BUDGET", replace(row_budget, limit=(n - 1) * n - 1))
    with pytest.raises(BudgetError, match="row budget"):
        induced(p, list(range(n)))


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
    return n, pairs


@settings(max_examples=80, deadline=None)
@given(raw_preorders())
def test_close_properties(raw):
    n, pairs = raw
    p = from_pairs(n, pairs)
    # closure only adds pairs, and adds exactly the oracle's
    assert set(pairs) <= set(p.pairs())
    assert matrix(p) == brute_close([[(i, j) in pairs for j in range(n)] for i in range(n)])
    assert from_pairs(n, p.pairs()) == p


@settings(max_examples=80, deadline=None)
@given(raw_preorders())
def test_quotient_partition_properties(raw):
    p = from_pairs(*raw)
    flat = sorted(x for members in p.classes for x in members)
    assert flat == list(range(p.n))
    for members in p.classes:
        for a in members:
            for b in members:
                assert p.le(a, b) and p.le(b, a)


def test_every_preorder_on_five_points_against_the_oracles():
    # OEIS A000798 labeled, A001930 up to isomorphism
    assert [len(all_preorders(n)) for n in range(1, 6)] == [1, 4, 29, 355, 6942]
    assert [len(preorder_types(n)) for n in range(1, 5)] == [1, 3, 9, 33]
    assert not any(brute_isomorphic(a, b) for a, b in itertools.combinations(preorder_types(4), 2))
    for n in range(1, 6):
        for rel in all_preorders(n):
            rel = [list(row) for row in rel]
            p = from_pairs(n, [(i, j) for i in range(n) for j in range(n) if rel[i][j]])
            assert matrix(p) == rel
            classes, covers = brute_classes(rel), brute_covers(rel)
            cycles = [(c[k], c[k - 1]) for c in map(sorted, classes) for k in range(len(c))]
            assert from_pairs(n, [(min(a), min(b)) for a, b in covers] + cycles) == p
            assert {frozenset(c) for c in p.classes} == classes
            assert all(p.index[x] == a for a, c in enumerate(p.classes) for x in c)
            assert all(bool(p.above[a] >> b & 1) == (a != b and rel[p.classes[a][0]][p.classes[b][0]])
                       for a in range(p.size) for b in range(p.size))
            assert {(frozenset(p.classes[a]), frozenset(p.classes[b])) for a, b in p.covers()} == covers
            lowest, highest = brute_extremes(rel)
            assert {frozenset(p.classes[a]) for a in p.minima()} == lowest
            assert {frozenset(p.classes[a]) for a in p.maxima()} == highest
            assert height(p) == brute_height(rel) and width(p) == brute_width(rel)
            comps = brute_components(rel)
            got = [(sorted(elements), reps) for elements, reps in components(p)]
            assert got == [(comp, sorted(min(c) for c in highest if c <= set(comp))) for comp in comps]
            for a in range(n):
                assert cones(p, a) == ({x for x in range(n) if rel[x][a]}, {x for x in range(n) if rel[a][x]})
            assert is_upward_directed(p) == brute_directed(rel)
            assert parse_preorder(serialize_preorder(p)) == p
            if n <= 4:  # every subset, renumbered ascending and descending
                for k in range(n + 1):
                    for subset in itertools.combinations(range(n), k):
                        for elements in (subset, subset[::-1]):
                            sub = induced(p, list(elements))
                            assert matrix(sub) == [[rel[x][y] for y in elements] for x in elements]
                            assert sub == from_pairs(k, sub.pairs())
