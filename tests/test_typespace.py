import itertools
import random
import time

import pytest

from oracles import (
    brute_atoms,
    brute_classify,
    brute_consistent,
    brute_coverage,
    brute_dense,
    brute_satisfies,
    enumerate_formulas,
    round_robin_counts,
)
from rklab.models import COUNT_CAP, RkSequence, cm_dominates, construct_model, full_base
from rklab.typespace import (
    ColorCell,
    FormulaClass,
    FormulaLit,
    IupCell,
    SdupCell,
    TypeSpace,
    cell_atoms,
    cell_count,
    classify_formula,
    consistent,
    covers_all_formulas,
    enumerate_types,
    has_prime_model,
    is_dense,
    is_principal,
    parse_cell,
    parse_formula,
    render_cell,
    valid_cell,
)
from rklab.report import BudgetError


def test_enumerate_iup():
    ts = TypeSpace("iup", 3)
    cells = enumerate_types(ts)
    assert len(cells) == 8
    assert all(not is_principal(ts, c) for c in cells)


def test_enumerate_sdup():
    ts = TypeSpace("sdup", 2)
    cells = enumerate_types(ts)
    stopped = [c for c in cells if c.kind == "stop"]
    cont = [c for c in cells if c.kind == "cont"]
    assert {c.path for c in stopped} == {"", "0", "1", "00", "01", "10", "11"}
    assert len(cont) == 4
    assert all(is_principal(ts, c) for c in stopped)
    assert not any(is_principal(ts, c) for c in cont)


def test_enumerate_colored():
    ts = TypeSpace("colored", 1, 2)
    cells = set(enumerate_types(ts))
    assert cells == {
        ColorCell(0, 0),
        ColorCell(0, 1),
        ColorCell(1, 0),
        ColorCell(1, 1),
        ColorCell(0, None),
        ColorCell(1, None),
    }
    assert not is_principal(ts, ColorCell(0, None))
    assert is_principal(ts, ColorCell(0, 1))


@pytest.mark.parametrize("depth", range(1, 13))
def test_iup_counts_are_powers_of_two(depth):
    assert len(enumerate_types(TypeSpace("iup", depth))) == 2**depth


def test_cell_rendering_round_trip():
    for ts in (TypeSpace("iup", 3), TypeSpace("sdup", 2), TypeSpace("colored", 2, 2)):
        for cell in enumerate_types(ts):
            assert parse_cell(ts, render_cell(cell)) == cell
    with pytest.raises(ValueError):
        parse_cell(TypeSpace("iup", 3), "012")


def test_classify_examples():
    iup = TypeSpace("iup", 3)
    assert classify_formula(iup, FormulaLit.of({("P", 0): True})) is FormulaClass.NI
    sdup = TypeSpace("sdup", 2)
    stopped_root = FormulaLit.of({("S", ""): True, ("S", "0"): False, ("S", "1"): False})
    assert classify_formula(sdup, stopped_root) is FormulaClass.I
    colored = TypeSpace("colored", 2, 2)
    phi = FormulaLit.of({("C", 0): True, ("P", 0): True})
    assert classify_formula(colored, phi) is FormulaClass.I
    with pytest.raises(ValueError):
        classify_formula(iup, FormulaLit.of([((("P", 0)), True), ((("P", 0)), False)]))
    for ts in (iup, sdup, colored, TypeSpace("colored", 4, 2)):
        for phi in enumerate_formulas(ts):
            assert classify_formula(ts, phi) is brute_classify(ts, phi), (ts, phi)


def test_consistency_rules():
    sdup = TypeSpace("sdup", 2)
    assert not consistent(sdup, FormulaLit.of({("S", ""): False}))
    assert not consistent(sdup, FormulaLit.of({("S", "00"): True, ("S", "0"): False}))
    assert not consistent(sdup, FormulaLit.of({("S", "00"): True, ("S", "01"): True}))
    assert consistent(sdup, FormulaLit.of({("S", "0"): True, ("S", "01"): False}))
    colored = TypeSpace("colored", 2, 2)
    assert not consistent(colored, FormulaLit.of({("P", 0): False, ("P", 1): False}))
    assert not consistent(colored, FormulaLit.of({("C", 0): True, ("C", 1): True}))
    assert consistent(colored, FormulaLit.of({("C", 0): False, ("C", 1): False}))


def test_prime_model_family_answers():
    assert has_prime_model(TypeSpace("iup", 6)) is False
    assert has_prime_model(TypeSpace("sdup", 2)) is True
    assert has_prime_model(TypeSpace("colored", 3, 3)) is True
    # spaces past exhaustive enumeration get the same family answer
    assert has_prime_model(TypeSpace("iup", 16)) is False
    assert has_prime_model(TypeSpace("sdup", 3)) is True
    assert has_prime_model(TypeSpace("colored", 6, 3)) is True


# every space whose 3^atoms candidate formulas number at most 30,000
ENUMERABLE_SPACES = (
    [TypeSpace("iup", d) for d in range(1, 10)]
    + [TypeSpace("sdup", d) for d in (1, 2)]
    + [TypeSpace("colored", d, m) for m in range(1, 8) for d in range(1, 9 - m)]
)


def test_prime_model_agrees_with_exhaustive_classification():
    for ts in ENUMERABLE_SPACES:
        exhaustive = all(
            brute_classify(ts, phi) is FormulaClass.I for phi in enumerate_formulas(ts)
        )
        assert has_prime_model(ts) == exhaustive, ts


def test_construct_model_agrees_with_the_round_robin_oracle():
    # all cells, or all but one, split at random into one to three cones:
    # the union covers every formula exactly when the oracle says so
    rng = random.Random(21)
    outcomes = set()
    for ts in ENUMERABLE_SPACES:
        formulas = list(enumerate_formulas(ts))
        cells = list(enumerate_types(ts))
        for drop in (None, rng.choice(cells)):
            kept = [c for c in cells if c != drop]
            # None unless every formula has a witness among the kept cells
            oracle = round_robin_counts(ts, kept, formulas, COUNT_CAP)
            for _ in range(3):
                cones = [[] for _ in range(rng.randint(1, 3))]
                for cell in kept:
                    rng.choice(cones).append(cell)
                cones = [cone or [rng.choice(kept)] for cone in cones]
                seq = RkSequence(tuple(rng.choice(kept) for _ in cones))
                if oracle is None:
                    with pytest.raises(ValueError):
                        construct_model(ts, seq, cones)
                    outcomes.add("refused")
                    continue
                spec = construct_model(ts, seq, cones)
                assert spec.support() == frozenset(oracle) == frozenset(kept), (ts, drop)
                assert all(1 <= spec.count(c).k <= COUNT_CAP for c in kept), (ts, drop)
                assert all(1 <= k <= COUNT_CAP for k in oracle.values()), (ts, drop)
                outcomes.add("built")
    assert outcomes == {"built", "refused"}


@pytest.mark.parametrize(
    "ts", [TypeSpace("iup", 16), TypeSpace("sdup", 14), TypeSpace("colored", 2, 16382)],
    ids=["iup-d16", "sdup-d14", "colored-m16382-d2"],
)
def test_construct_model_answers_the_largest_spaces(ts):
    # each takes well under 2 s in process; the bound leaves room for slow hosts
    cells = enumerate_types(ts)
    half = len(cells) // 2
    start = time.perf_counter()
    spec = construct_model(ts, RkSequence(cells[:2]), [cells[:half], cells[half:]])
    assert spec.support() == frozenset(cells)
    assert cm_dominates(spec, spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"{ts} took {elapsed:.2f}s"


def test_dense_examples():
    ts = TypeSpace("iup", 3)
    cells = enumerate_types(ts)
    assert is_dense(ts, cells)
    half = [c for c in cells if c.bits[0] == 1]
    assert not is_dense(ts, half)


def test_implicit_dense_set_survives_removal():
    ts = TypeSpace("iup", 3)
    spec = full_base(ts)
    removed = spec.with_delta(IupCell((0, 0, 0)), -1)
    assert is_dense(ts, removed.support())
    removed2 = removed.with_delta(IupCell((0, 0, 1)), -1)
    assert is_dense(ts, removed2.support())


def test_sdup_stopped_cells_are_dense():
    for depth in (1, 2, 3):
        ts = TypeSpace("sdup", depth)
        stopped = [c for c in enumerate_types(ts) if c.kind == "stop"]
        assert is_dense(ts, stopped)


def test_density_matches_formula_enumeration_oracle():
    for ts in (TypeSpace("iup", 3), TypeSpace("sdup", 2), TypeSpace("colored", 2, 2)):
        formulas = list(enumerate_formulas(ts))
        cells = list(enumerate_types(ts))
        samples = [
            cells,
            cells[:-1],
            cells[1:],
            cells[::2],
        ]
        for sample in samples:
            assert is_dense(ts, sample) == brute_dense(ts, sample, formulas)


def test_atom_table_matches_the_family_rule_oracle():
    # satisfaction, consistency and coverage groups all read cell_atoms;
    # the oracles, formula enumeration among them, read each family's rule
    spaces = (
        [TypeSpace("iup", d) for d in range(1, 7)]
        + [TypeSpace("sdup", d) for d in (1, 2)]
        + [TypeSpace("colored", d, m) for m in (1, 2) for d in (1, 2, 3)]
    )
    for ts in spaces:
        alphabet = brute_atoms(ts)
        cells = enumerate_types(ts)
        for cell in cells:
            # the space's atoms, in their order
            true = tuple(a for a in alphabet if brute_satisfies(ts, cell, FormulaLit.of({a: True})))
            assert cell_atoms(ts, cell) == true, (ts, cell)
        expected = []
        for assignment in itertools.product((None, True, False), repeat=len(alphabet)):
            phi = FormulaLit.of({a: s for a, s in zip(alphabet, assignment) if s is not None})
            truth = any(brute_satisfies(ts, cell, phi) for cell in cells)
            assert consistent(ts, phi) == truth, (ts, phi)
            if truth:
                expected.append(phi)
        assert list(enumerate_formulas(ts)) == expected, ts
        groups: dict = {}
        for cell in cells:
            signature = tuple(brute_satisfies(ts, cell, FormulaLit.of({a: True})) for a in alphabet)
            groups.setdefault(signature, []).append(cell)
        # a set of cells covers every formula exactly when it meets every group
        assert covers_all_formulas(ts, [group[0] for group in groups.values()]), ts
        for group in groups.values():
            assert not covers_all_formulas(ts, [c for c in cells if c not in group]), (ts, group)


def test_atoms_outside_the_space_are_refused():
    # out-of-range atoms raise before any cell is read, whichever literal
    # would have settled the answer first
    cases = [
        (TypeSpace("sdup", 2), {("S", "2"): True}),
        (TypeSpace("sdup", 2), {("S", "000"): False}),
        (TypeSpace("iup", 3), {("P", 3): True}),
        (TypeSpace("iup", 3), {("S", ""): True}),
        (TypeSpace("colored", 2, 1), {("P", 0): False, ("P", 1): False}),
        (TypeSpace("colored", 2, 2), {("C", 3): True}),
        (TypeSpace("colored", 2, 2), {("X", 0): True}),
    ]
    for ts, lits in cases:
        for check in (consistent, classify_formula):
            with pytest.raises(ValueError, match="invalid for"):
                check(ts, FormulaLit.of(lits))


def test_an_atom_outside_the_space_is_refused_by_name_in_each_family():
    # an atom is checked by its shape, however many calls read it
    cases = [
        (TypeSpace("iup", 3), ("P", 3), "atom ('P', 3) invalid for iup depth 3"),
        (TypeSpace("sdup", 2), ("S", "000"), "atom ('S', '000') invalid for sdup depth 2"),
        (TypeSpace("colored", 2, 2), ("C", 3), "atom ('C', 3) invalid for colored depth 2"),
    ]
    for ts, atom, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                consistent(ts, FormulaLit.of({atom: True}))
            assert str(err.value) == message


def test_parse_formula_reads_atom_names():
    sdup = TypeSpace("sdup", 2)
    assert parse_formula(sdup, "Se, !S0,!S01") == FormulaLit.of(
        {("S", ""): True, ("S", "0"): False, ("S", "01"): False}
    )
    colored = TypeSpace("colored", 2, 3)
    assert parse_formula(colored, "P2,!C0,C2") == FormulaLit.of(
        {("P", 2): True, ("C", 0): False, ("C", 2): True}
    )
    assert parse_formula(TypeSpace("iup", 3), "P0,P0") == FormulaLit.of({("P", 0): True})
    # the command-line tests cover both signs, non-atoms and non-canonical names
    for ts, text in [
        (TypeSpace("iup", 3), "p0"),
        (TypeSpace("iup", 3), ""),
        (sdup, "S0,!S0"),
        (colored, "C4"),
        (colored, "Cinf"),
    ]:
        with pytest.raises(ValueError):
            parse_formula(ts, text)
    # a repeated literal is one literal, as in dict input
    assert FormulaLit.of([(("P", 1), True), (("P", 1), True)]) == FormulaLit.of({("P", 1): True})


def test_coverage_groups_shape():
    # sdup depth 2: each stopped cell above the frontier is a group of its
    # own, and each frontier node's stopped and continuing cells share one
    ts = TypeSpace("sdup", 2)
    cells = enumerate_types(ts)
    for cell in cells:
        rest = [c for c in cells if c != cell]
        assert covers_all_formulas(ts, rest) == (len(cell.path) == 2), cell
    assert covers_all_formulas(ts, [c for c in cells if c.kind == "stop"])
    assert not covers_all_formulas(ts, [c for c in cells if c.kind == "cont"])


def test_valid_cell():
    ts = TypeSpace("sdup", 2)
    assert valid_cell(ts, SdupCell("stop", ""))
    assert valid_cell(ts, SdupCell("cont", "01"))
    assert not valid_cell(ts, SdupCell("cont", "0"))
    assert not valid_cell(ts, SdupCell("stop", "000"))


# every space the enumerating oracles scan in well under a second
ORACLE_SPACES = (
    [TypeSpace("iup", d) for d in range(1, 11)]
    + [TypeSpace("sdup", d) for d in range(1, 7)]
    + [TypeSpace("colored", d, m) for m in (1, 2, 3) for d in range(1, 7)]
)


def _neighbours(ts):
    """The spaces one step deeper, shallower or wider, and the other families at the same depth."""
    out = [TypeSpace(ts.family, ts.depth + 1, ts.parts)]
    if ts.depth > 1:
        out.append(TypeSpace(ts.family, ts.depth - 1, ts.parts))
    if ts.parts:
        out.append(TypeSpace("colored", ts.depth, ts.parts + 1))
    return out + [TypeSpace(f, ts.depth, 2 if f == "colored" else None) for f in ("iup", "sdup", "colored")
                  if f != ts.family]


@pytest.mark.parametrize("ts", ORACLE_SPACES, ids=lambda ts: f"{ts.family}-d{ts.depth}-m{ts.parts}")
def test_family_rules_agree_with_the_enumerating_oracles(ts):
    # cell count, validity, consistency and density, each against a scan
    rng = random.Random(f"{ts}")
    cells = enumerate_types(ts)
    assert cell_count(ts) == len(cells)
    own, alphabet = set(cells), brute_atoms(ts)
    assert all(valid_cell(ts, cell) for cell in cells)
    for other in _neighbours(ts):
        for cell in enumerate_types(other):
            assert valid_cell(ts, cell) == (cell in own), (other, cell)
        for atom in brute_atoms(other):
            if atom in alphabet:
                consistent(ts, FormulaLit.of({atom: True}))
            else:
                with pytest.raises(ValueError, match="invalid for"):
                    consistent(ts, FormulaLit.of({atom: True}))
    outcomes = set()
    for _ in range(300):
        picked = rng.sample(alphabet, rng.randint(0, min(5, len(alphabet))))
        phi = FormulaLit.of({a: rng.random() < 0.5 for a in picked})
        assert consistent(ts, phi) == brute_consistent(ts, phi), phi
        outcomes.add(brute_consistent(ts, phi))
    assert outcomes == {True, False} or ts.family == "iup"
    outcomes = set()
    for _ in range(100):
        if rng.random() < 0.5:  # all but a few cells, which may still meet every group
            sample = [c for c in cells if rng.random() > 3 / len(cells)]
        else:
            sample = rng.sample(cells, rng.randint(0, len(cells)))
        expected = brute_coverage(ts, sample)
        assert covers_all_formulas(ts, sample) == is_dense(ts, sample) == expected, sample
        outcomes.add(expected)
    assert outcomes == {True, False}
    assert covers_all_formulas(ts, cells) and brute_coverage(ts, cells)
    assert not covers_all_formulas(ts, []) and not brute_coverage(ts, [])


def test_the_cell_budget_guards_enumeration_alone():
    # the rules answer past the budget; building the cells is refused first
    for ts, count in ((TypeSpace("iup", 17), 131072), (TypeSpace("sdup", 15), 98303),
                      (TypeSpace("colored", 10, 10**7), 120000000)):
        assert cell_count(ts) == count
        with pytest.raises(BudgetError) as err:
            enumerate_types(ts)
        assert str(err.value) == f"{count} cells exceed the cell budget 65536"
    for ts in (TypeSpace("iup", 16), TypeSpace("sdup", 14), TypeSpace("colored", 2, 16384)):
        assert len(enumerate_types(ts)) == cell_count(ts) <= 2**16
    sdup = TypeSpace("sdup", 1000)
    deep = "0" * 999 + "1"
    assert consistent(sdup, parse_formula(sdup, f"S{deep},!S1"))
    assert not consistent(sdup, parse_formula(sdup, f"S{deep},!S{deep[:500]}"))
    assert is_dense(sdup, [parse_cell(sdup, "stop:e")]) is False
    with pytest.raises(BudgetError, match="^4097 levels exceed the depth bound 4096$"):
        TypeSpace("sdup", 4097)
    assert TypeSpace("colored", 1, 2**4096 - 1).parts.bit_length() == 4096
    with pytest.raises(BudgetError, match="^4097 binary digits of a part count exceed the part bound 4096$"):
        TypeSpace("colored", 1, 2**4096)
    assert cell_count(TypeSpace("sdup", 4096)) == 3 * 2**4096 - 1
