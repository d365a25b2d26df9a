import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_congruence_count, brute_instantiate
from rklab import limitcount
from rklab.record import replace
from rklab.cardinal import CONTINUUM, OMEGA, fin
from rklab.limitcount import (
    _AUTOMATA,
    NODE_BUDGET,
    IdentitySystem,
    Schema,
    _level_blocks,
    count_classes,
    lmt,
    lms,
    normal_form,
    render_word,
    stabilization,
)

# no identities at all: every word is its own class
FREE_SYSTEM = IdentitySystem("free", (), CONTINUUM)


def instantiate(sys, alphabet, max_len):
    """All ground instances with both sides nonempty and within the bound,
    level by level: the blocks of ``_level_blocks`` for k = 1 .. max_len,
    decoded into word pairs in order, each pair once."""
    out = {}
    for k in range(1, max_len + 1):
        for (kind, p), last, (f, top, n) in _level_blocks(sys, alphabet, k):
            if kind == "word":
                prefixes = (p,)
            elif kind == "from":
                prefixes = ((p, *u) for u in itertools.product(range(alphabet), repeat=k - 2))
            else:
                prefixes = itertools.product(range(p + 1, alphabet) if kind == "above" else range(p), repeat=k - 1)
            rhs = tuple(min(f + i, top) for i in range(n))
            for u in prefixes:
                if (*u, last) != rhs:
                    out[(*u, last), rhs] = None
    return list(out)


def all_systems():
    out = []
    for n in (1, 2, 3):
        out.append(("lmt", n, lmt(fin(n))))
        out.append(("lms", n, lms(fin(n))))
    out.append(("lmt", "w", lmt(OMEGA)))
    out.append(("lms", "w", lms(OMEGA)))
    return out


def test_instantiate_lmt_n1_examples():
    sys1 = lmt(fin(1))
    eqs = instantiate(sys1, 3, 2)
    assert ((0,), (1,)) in eqs
    assert ((0,), (2,)) in eqs
    assert ((0, 0), (0,)) in eqs


def test_instantiate_lms_n2_examples():
    sys2 = lms(fin(2))
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
    # against instances found by scanning words, not decoded from the engine's blocks
    for kind, n, sys in all_systems():
        for alphabet in (2, 3, 4):
            for length in (1, 2, 3, 4):
                eqs = brute_instantiate(sys, alphabet, length)
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


def test_roots_do_not_fold_over_letters():
    # 0.1.3 ~ 0.3 at L=4, yet 0.1.3.4 and 0.3.4 lie in different classes:
    # root(x.c) = root(root(x).c) fails, so one map per class cannot grow a level
    sysw = lmt(OMEGA)
    assert normal_form(sysw, (0, 1, 3), 4, alphabet=5) == (0, 3)
    assert normal_form(sysw, (0, 1, 3, 4), 4, alphabet=5) == (0, 1, 3, 4)
    assert normal_form(sysw, (0, 3, 4), 4, alphabet=5) == (0, 3, 4)


def test_normal_form_characterizes_classes():
    sys2 = lms(fin(2))
    _, classes = brute_congruence_count(instantiate(sys2, 3, 3), 3, 3)
    for members in classes.values():
        forms = {normal_form(sys2, w, 3, alphabet=3) for w in members}
        assert len(forms) == 1
        rep = forms.pop()
        assert rep == min(members, key=lambda w: (len(w), w))


def test_word_validation(monkeypatch):
    sys1 = lmt(fin(1))
    with pytest.raises(ValueError):
        normal_form(sys1, (), 3)
    with pytest.raises(ValueError):
        normal_form(sys1, (0, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        normal_form(sys1, (5,), 3, alphabet=3)
    monkeypatch.setattr(limitcount, "NODE_BUDGET", replace(limitcount.NODE_BUDGET, limit=1000))
    with pytest.raises(ValueError, match="exceed the node budget 1000$"):
        count_classes(FREE_SYSTEM, 10, 7)


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
    info = stabilization(lms(OMEGA), 3, 3)
    assert info["count_next"] >= info["count"] - 0  # reported, not asserted equal
    assert render_word((0, 1)) == "0.1"


def test_lms_reading_flag_instances_coincide_given_equality_constraint():
    gt = lms(OMEGA, reading="gt")
    geq = lms(OMEGA, reading="geq")
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
    for sys_ in (lmt(fin(2)), lmt(OMEGA), lms(fin(3)), lms(OMEGA)):
        for alphabet, length in ((3, 4), (4, 3), (2, 5)):
            eqs = instantiate(sys_, alphabet, length)
            assert count_classes(sys_, alphabet, length)[0] == _bfs_classes(
                eqs, alphabet, length
            )


def test_engine_matches_oracle_at_bound_five():
    # spot checks right at the length-bound boundary, where equations
    # whose replacement would overflow must be skipped on both sides
    for sys_ in (lmt(fin(3)), lms(OMEGA)):
        for alphabet in (2, 3):
            eqs = instantiate(sys_, alphabet, 5)
            expected, _ = brute_congruence_count(eqs, alphabet, 5)
            assert count_classes(sys_, alphabet, 5)[0] == expected


SCHEMA_KINDS = [
    ("lmt-1", lmt(fin(1))),
    ("lmt-2", lmt(fin(2))),
    ("lmt-3", lmt(fin(3))),
    ("lmt-w", lmt(OMEGA)),
    ("lms-2", lms(fin(2))),
    ("lms-3", lms(fin(3))),
    ("lms-w-gt", lms(OMEGA, reading="gt")),
    ("lms-w-geq", lms(OMEGA, reading="geq")),
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


def test_stabilization_next_table_over_budget(monkeypatch):
    # lms w over 3 letters: 3, 12, 27, 45 and 66 nodes of at most 1 .. 5 letters
    def budget(limit):
        monkeypatch.setattr(limitcount, "NODE_BUDGET", replace(NODE_BUDGET, limit=limit))

    sysw = lms(OMEGA)
    budget(45)
    info = stabilization(sysw, 3, 4)
    assert info["count_next"] is None and info["stable"] is None
    assert info["nodes_next"] == 66 > limitcount.NODE_BUDGET.limit == 45
    assert info["count"] == count_classes(sysw, 3, 4)[0] == 21
    assert info["representatives"] == count_classes(sysw, 3, 4)[1][:20]
    budget(66)
    full = stabilization(sysw, 3, 4)
    assert full["count_next"] == count_classes(sysw, 3, 5)[0] == 29
    assert full["stable"] is False
    budget(44)
    with pytest.raises(ValueError, match="^45 nodes exceed the node budget 44$"):
        stabilization(sysw, 3, 4)
    _AUTOMATA.clear()  # the same refusal before level 4 is built
    with pytest.raises(ValueError, match="^45 nodes exceed the node budget 44$"):
        stabilization(sysw, 3, 4)
    # each level is charged one node per letter at least
    budget(14)
    info = stabilization(lmt(fin(2)), 3, 4)
    assert info["count_next"] is None and info["nodes_next"] == 15
    with pytest.raises(ValueError, match="^15 nodes exceed the node budget 14$"):
        stabilization(lmt(fin(2)), 3, 5)


@pytest.mark.parametrize("name,sys_", SCHEMA_KINDS, ids=[k for k, _ in SCHEMA_KINDS])
def test_instantiate_matches_word_scanning_oracle(name, sys_):
    # the level-by-level code generator decodes to the instances found by
    # scanning every word, with no duplicates
    for alphabet in (1, 2, 3, 4):
        for length in (1, 2, 3, 4, 5):
            got = instantiate(sys_, alphabet, length)
            assert len(got) == len(set(got))
            assert set(got) == set(brute_instantiate(sys_, alphabet, length)), (alphabet, length)


def test_stabilization_builds_each_level_once(monkeypatch):
    calls = []
    level = limitcount._Automaton._level
    monkeypatch.setattr(limitcount._Automaton, "_level", lambda self, k: calls.append(k) or level(self, k))
    for _, _, sys_ in all_systems():
        for alphabet, length in ((1, 40), (2, 1), (2, 6), (3, 4), (4, 5)):
            _AUTOMATA.clear()
            calls.clear()
            for bound in range(1, length + 1):
                stabilization(sys_, alphabet, bound)
            # levels 1..L and the L+1 count, each level built once across the bounds
            assert calls == list(range(1, length + 2)), (sys_.kind, alphabet, length)


def _snapshot(sys_, alphabet, length):
    words = [w for n in range(1, length + 1) for w in itertools.product(range(alphabet), repeat=n)]
    forms = [normal_form(sys_, w, length, alphabet=alphabet) for w in words]
    return count_classes(sys_, alphabet, length), forms


def test_level_tables_independent_of_build_order():
    # a table grown on the way to L+1 equals the one asked for first
    for _, _, sys_ in all_systems() + [("free", None, FREE_SYSTEM)]:
        for alphabet in (1, 2, 3):
            for length in (1, 2, 3, 4, 5):
                _AUTOMATA.clear()
                up = _snapshot(sys_, alphabet, length + 1), _snapshot(sys_, alphabet, length)
                _AUTOMATA.clear()
                down = _snapshot(sys_, alphabet, length), _snapshot(sys_, alphabet, length + 1)
                assert up == down[::-1], (sys_.kind, alphabet, length)


MIXED_SYSTEMS = [
    (IdentitySystem("lmt", (Schema("drop_to_min"), Schema("ascend_to_power")), OMEGA), (2, 6)),
    (IdentitySystem("lms", (Schema("idem_below", 1), Schema("ascend_to_capped_run")), OMEGA), (3, 5)),
    (
        IdentitySystem(
            "lms", (Schema("idem_below", 2), Schema("ascend_to_power"), Schema("ascend_to_run")), OMEGA
        ),
        (4, 4),
    ),
    # pair_to_run with no idem_all: its left side f.(f+s) is an old word at k > 2
    (IdentitySystem("lmt", (Schema("pair_to_run"),), OMEGA), (4, 4)),
    (IdentitySystem("lmt", (Schema("idem_below", 1), Schema("pair_to_run")), OMEGA), (4, 4)),
]


def test_mixed_schemas_match_brute_classes():
    # in these systems short words that were roots one level down merge
    # through longer ones, so their own context pairs are needed
    for sys_, (alphabet, length) in MIXED_SYSTEMS:
        expected, _ = brute_congruence_count(instantiate(sys_, alphabet, length), alphabet, length)
        assert count_classes(sys_, alphabet, length)[0] == expected, sys_.schemas


@pytest.mark.parametrize(
    "sys_",
    [sys_ for _, _, sys_ in all_systems()] + [lms(OMEGA, reading="geq"), FREE_SYSTEM]
    + [sys_ for sys_, _ in MIXED_SYSTEMS],
    ids=[f"{k}-{n}" for k, n, _ in all_systems()] + ["lms-w-geq", "free"]
    + [f"mixed-{i}" for i in range(1, len(MIXED_SYSTEMS) + 1)],
)
def test_stabilization_counts_next_level_without_its_table(sys_):
    # the L+1 count read from the merge equals the L+1 table's count and,
    # where the words are few enough, the brute-force oracle's
    for alphabet in (1, 2, 3, 4):
        for length in range(1, 7):
            _AUTOMATA.clear()
            got = stabilization(sys_, alphabet, length)["count_next"]
            assert got == count_classes(sys_, alphabet, length + 1)[0], (alphabet, length)
            if alphabet ** (length + 1) <= 729:
                eqs = instantiate(sys_, alphabet, length + 1)
                assert got == brute_congruence_count(eqs, alphabet, length + 1)[0], (alphabet, length)


def test_class_counts_far_past_the_word_count():
    # about 1.6e10 and 2e60 words, counted per class; the census rules predict the values
    sysw = lmt(OMEGA)
    assert count_classes(sysw, 7, 12)[0] == 28 == 7 * 8 // 2
    info = stabilization(lms(OMEGA), 4, 100)
    assert info["count"] == 5745 and info["count_next"] == 5853
    # lms w grows by L + 2^(A-1) - 1 at each L >= A-1
    counts = [count_classes(lms(OMEGA), 4, length)[0] for length in range(8, 21)]
    assert [b - a for a, b in zip(counts, counts[1:])] == [length + 7 for length in range(9, 21)]
