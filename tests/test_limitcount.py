import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_congruence_count
from rklab.cardinal import OMEGA, fin
from rklab.limitcount import (
    FREE_SYSTEM,
    IdentitySystem,
    Schema,
    count_classes,
    instantiate,
    normal_form,
    render_word,
    stabilization,
)
from rklab.operators import lmt, lms


def all_systems():
    out = []
    for n in (1, 2, 3):
        out.append(("lmt", n, lmt(fin(n))))
        out.append(("lms", n, lms(3, fin(n))))
    out.append(("lmt", "w", lmt(OMEGA)))
    out.append(("lms", "w", lms(3, OMEGA)))
    return out


def test_instantiate_lmt_n1_examples():
    sys1 = lmt(fin(1))
    eqs = instantiate(sys1, 3, 2)
    assert ((0,), (1,)) in eqs
    assert ((0,), (2,)) in eqs
    assert ((0, 0), (0,)) in eqs


def test_instantiate_lms_n2_examples():
    sys2 = lms(3, fin(2))
    eqs = instantiate(sys2, 3, 3)
    assert ((1,), (2,)) in eqs
    assert ((0, 1, 2), (2, 2, 2)) in eqs


def test_instantiate_empty_system():
    assert instantiate(FREE_SYSTEM, 3, 3) == []


def test_instantiate_sides_bounded_and_nonempty():
    for _, _, sys in all_systems():
        for lhs, rhs in instantiate(sys, 4, 4):
            assert 1 <= len(lhs) <= 4 and 1 <= len(rhs) <= 4


def test_free_monoid_counts():
    count, reps = count_classes(FREE_SYSTEM, 2, 2)
    assert count == 6
    assert len(reps) == 6


def test_lmt_n1_single_class():
    for alphabet in (2, 3, 4):
        for length in (1, 2, 3, 4, 5):
            count, reps = count_classes(lmt(fin(1)), alphabet, length)
            assert count == 1
            assert reps == [(0,)]


def test_engine_matches_oracle():
    for kind, n, sys in all_systems():
        for alphabet in (2, 3, 4):
            for length in (1, 2, 3, 4):
                eqs = instantiate(sys, alphabet, length)
                expected, _ = brute_congruence_count(eqs, alphabet, length)
                got, _ = count_classes(sys, alphabet, length)
                assert got == expected, (kind, n, alphabet, length)


def test_lmt_n2_frozen_count_and_stability():
    # value computed by the brute-force oracle and frozen here
    sys2 = lmt(fin(2))
    eqs = instantiate(sys2, 3, 4)
    oracle, _ = brute_congruence_count(eqs, 3, 4)
    assert oracle == 3
    assert count_classes(sys2, 3, 4)[0] == 3
    assert count_classes(sys2, 3, 5)[0] == 3  # stable one level up


def test_adding_equations_never_increases_count():
    base = lmt(OMEGA)
    for cut in range(len(base.schemas) + 1):
        partial = IdentitySystem("lmt", base.schemas[:cut], OMEGA)
        fuller = IdentitySystem("lmt", base.schemas[: cut + 1], OMEGA) if cut < len(
            base.schemas
        ) else base
        for alphabet in (2, 3):
            a, _ = count_classes(partial, alphabet, 4)
            b, _ = count_classes(fuller, alphabet, 4)
            assert b <= a


def test_normal_form_examples():
    sys1 = lmt(fin(1))
    assert normal_form(sys1, (2, 1, 2), 4) == (0,)
    assert normal_form(FREE_SYSTEM, (1, 0), 3, alphabet=2) == (1, 0)
    w = (2, 0, 1)
    nf = normal_form(lmt(fin(2)), w, 4, alphabet=3)
    assert normal_form(lmt(fin(2)), nf, 4, alphabet=3) == nf


def test_normal_form_characterizes_classes():
    sys2 = lms(3, fin(2))
    _, classes = brute_congruence_count(instantiate(sys2, 3, 3), 3, 3)
    for members in classes.values():
        forms = {normal_form(sys2, w, 3, alphabet=3) for w in members}
        assert len(forms) == 1
        rep = forms.pop()
        assert rep == min(members, key=lambda w: (len(w), w))


def test_word_validation():
    sys1 = lmt(fin(1))
    with pytest.raises(ValueError):
        normal_form(sys1, (), 3)
    with pytest.raises(ValueError):
        normal_form(sys1, (0, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        normal_form(sys1, (5,), 3, alphabet=3)
    with pytest.raises(ValueError):
        count_classes(FREE_SYSTEM, 10, 7, budget=1000)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
    st.sampled_from([1, 2, OMEGA]),
)
def test_normal_form_idempotent_and_in_class(letters, lam):
    sys = lmt(fin(lam) if isinstance(lam, int) else lam)
    w = tuple(letters)
    nf = normal_form(sys, w, 4, alphabet=3)
    assert normal_form(sys, nf, 4, alphabet=3) == nf
    assert (len(nf), nf) <= (len(w), w)


def test_stabilization_report():
    info = stabilization(lmt(fin(1)), 3, 4)
    assert info["count"] == 1 and info["stable"]
    assert info["target"] == fin(1)
    info = stabilization(lms(3, OMEGA), 3, 3)
    assert info["count_next"] >= info["count"] - 0  # reported, not asserted equal
    assert render_word((0, 1)) == "0.1"


def test_lms_reading_flag_instances_coincide_given_equality_constraint():
    gt = lms(3, OMEGA, reading="gt")
    geq = lms(3, OMEGA, reading="geq")
    assert gt.reading == "gt" and geq.reading == "geq"
    assert instantiate(gt, 4, 4) == instantiate(geq, 4, 4)


def test_schema_kind_validation():
    with pytest.raises(ValueError):
        instantiate(IdentitySystem("lmt", (Schema("bogus"),), OMEGA), 2, 2)


def _bfs_classes(instances, alphabet, max_len):
    # third method: per-word BFS over one-step rewrites
    import itertools as it

    words = []
    for length in range(1, max_len + 1):
        words.extend(it.product(range(alphabet), repeat=length))
    edges = {w: set() for w in words}
    for w in words:
        for lhs, rhs in instances:
            for i in range(len(w) - len(lhs) + 1):
                if w[i : i + len(lhs)] == lhs:
                    w2 = w[:i] + rhs + w[i + len(lhs) :]
                    if len(w2) <= max_len:
                        edges[w].add(w2)
                        edges[w2].add(w)
    seen = set()
    count = 0
    for w in words:
        if w in seen:
            continue
        count += 1
        frontier = [w]
        seen.add(w)
        while frontier:
            x = frontier.pop()
            for y in edges[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return count


def test_engine_matches_bfs_connectivity():
    for sys_ in (lmt(fin(2)), lmt(OMEGA), lms(3, fin(3)), lms(3, OMEGA)):
        for alphabet, length in ((3, 4), (4, 3), (2, 5)):
            eqs = instantiate(sys_, alphabet, length)
            assert count_classes(sys_, alphabet, length)[0] == _bfs_classes(
                eqs, alphabet, length
            )


def test_engine_matches_oracle_at_bound_five():
    # spot checks right at the length-bound boundary, where equations
    # whose replacement would overflow must be skipped on both sides
    for sys_ in (lmt(fin(3)), lms(3, OMEGA)):
        for alphabet in (2, 3):
            eqs = instantiate(sys_, alphabet, 5)
            expected, _ = brute_congruence_count(eqs, alphabet, 5)
            assert count_classes(sys_, alphabet, 5)[0] == expected


SCHEMA_KINDS = [
    ("lmt-1", lmt(fin(1))),
    ("lmt-2", lmt(fin(2))),
    ("lmt-3", lmt(fin(3))),
    ("lmt-w", lmt(OMEGA)),
    ("lms-2", lms(3, fin(2))),
    ("lms-3", lms(3, fin(3))),
    ("lms-w-gt", lms(3, OMEGA, reading="gt")),
    ("lms-w-geq", lms(3, OMEGA, reading="geq")),
    ("free", FREE_SYSTEM),
]
DIFF_SHAPES = [(a, n) for a in (1, 2, 3) for n in (1, 2, 3, 4)] + [(2, 5), (2, 6)]


@pytest.mark.parametrize("name,sys_", SCHEMA_KINDS, ids=[k for k, _ in SCHEMA_KINDS])
def test_engine_matches_brute_classes(name, sys_):
    # counts, representatives and every normal form against the oracle's
    # classes and their length-lex minima
    for alphabet, length in DIFF_SHAPES:
        eqs = instantiate(sys_, alphabet, length)
        expected, classes = brute_congruence_count(eqs, alphabet, length)
        minima = {w: min(ms, key=lambda v: (len(v), v)) for ms in classes.values() for w in ms}
        count, reps = count_classes(sys_, alphabet, length)
        assert count == expected, (name, alphabet, length)
        assert reps == sorted(set(minima.values()), key=lambda v: (len(v), v))
        for w, least in minima.items():
            assert normal_form(sys_, w, length, alphabet=alphabet) == least


def test_stabilization_next_table_over_budget():
    sys1 = lmt(fin(2))
    words = {3: 3 + 9 + 27, 4: 3 + 9 + 27 + 81}
    info = stabilization(sys1, 3, 3, budget=words[3])
    assert info["count_next"] is None and info["stable"] is None
    assert info["words_next"] == words[4] and info["budget"] == words[3]
    assert info["count"] == count_classes(sys1, 3, 3)[0]
    assert info["representatives"] == count_classes(sys1, 3, 3)[1]
    full = stabilization(sys1, 3, 3, budget=words[4])
    assert full["count_next"] == count_classes(sys1, 3, 4)[0]
    assert full["stable"] == (full["count"] == full["count_next"])
    with pytest.raises(ValueError, match="39 words exceed the budget 38"):
        stabilization(sys1, 3, 3, budget=words[3] - 1)
