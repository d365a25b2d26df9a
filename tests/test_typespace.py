import pytest

from oracles import brute_classify, brute_dense
from rklab.models import explicit, full_base
from rklab.typespace import (
    ColorCell,
    FormulaClass,
    FormulaLit,
    IupCell,
    SdupCell,
    TypeSpace,
    classify_formula,
    consistent,
    coverage_groups,
    enumerate_formulas,
    enumerate_types,
    has_prime_model,
    is_dense,
    is_principal,
    npl_zero_check,
    parse_cell,
    render_cell,
    satisfies,
    valid_cell,
)


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
    colored = TypeSpace("colored", 2, 1)
    assert not consistent(colored, FormulaLit.of({("P", 0): False, ("P", 1): False}))
    assert not consistent(colored, FormulaLit.of({("C", 0): True, ("C", 1): True}))
    assert consistent(colored, FormulaLit.of({("C", 0): False, ("C", 1): False}))


def test_prime_model_family_answers():
    assert has_prime_model(TypeSpace("iup", 6)) is False
    assert has_prime_model(TypeSpace("sdup", 2)) is True
    assert has_prime_model(TypeSpace("colored", 3, 3)) is True
    # spaces past the formula budget get the same family answer
    assert has_prime_model(TypeSpace("iup", 16)) is False
    assert has_prime_model(TypeSpace("sdup", 3)) is True
    assert has_prime_model(TypeSpace("colored", 6, 3)) is True


def test_prime_model_agrees_with_exhaustive_classification():
    # every space whose 3^atoms candidates fit the formula budget; the
    # slowest take about 1.2 s each to enumerate and classify
    spaces = (
        [TypeSpace("iup", d) for d in range(1, 10)]
        + [TypeSpace("sdup", d) for d in (1, 2)]
        + [TypeSpace("colored", d, m) for m in range(1, 8) for d in range(1, 9 - m)]
    )
    for ts in spaces:
        exhaustive = all(
            brute_classify(ts, phi) is FormulaClass.I for phi in enumerate_formulas(ts)
        )
        assert has_prime_model(ts) == exhaustive, ts


def test_dense_examples():
    ts = TypeSpace("iup", 3)
    cells = enumerate_types(ts)
    assert is_dense(ts, cells, 3)
    half = [c for c in cells if c.bits[0] == 1]
    assert not is_dense(ts, half, 3)


def test_implicit_dense_set_survives_removal():
    ts = TypeSpace("iup", 3)
    spec = full_base(ts)
    removed = spec.with_delta(IupCell((0, 0, 0)), -1)
    assert is_dense(ts, removed.support(), 3)
    removed2 = removed.with_delta(IupCell((0, 0, 1)), -1)
    assert is_dense(ts, removed2.support(), 3)


def test_sdup_stopped_cells_are_dense():
    for depth in (1, 2, 3):
        ts = TypeSpace("sdup", depth)
        stopped = [c for c in enumerate_types(ts) if c.kind == "stop"]
        assert is_dense(ts, stopped, depth)


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
            assert is_dense(ts, sample, ts.depth) == brute_dense(
                ts, sample, formulas, satisfies
            )


def test_coverage_groups_shape():
    ts = TypeSpace("sdup", 2)
    groups = coverage_groups(ts)
    singletons = [g for g in groups if len(g) == 1]
    pairs = [g for g in groups if len(g) == 2]
    assert len(singletons) == 3  # stopped cells above the frontier
    assert len(pairs) == 4  # frontier choice groups


def test_npl_zero_check():
    sdup = TypeSpace("sdup", 2)
    stopped = {c: 1 for c in enumerate_types(sdup) if c.kind == "stop"}
    assert npl_zero_check(sdup, explicit(sdup, stopped), 2) is True
    iup = TypeSpace("iup", 3)
    assert npl_zero_check(iup, full_base(iup), 3) is False
    colored = TypeSpace("colored", 2, 3)
    finite_cells = {c: 1 for c in enumerate_types(colored) if c.color is not None}
    assert npl_zero_check(colored, explicit(colored, finite_cells), 3) is True
    with pytest.raises(ValueError):
        npl_zero_check(sdup, full_base(iup), 2)
    assert npl_zero_check(iup, full_base(iup), 12) is False
    assert npl_zero_check(sdup, explicit(sdup, stopped), 4) is True


def test_valid_cell():
    ts = TypeSpace("sdup", 2)
    assert valid_cell(ts, SdupCell("stop", ""))
    assert valid_cell(ts, SdupCell("cont", "01"))
    assert not valid_cell(ts, SdupCell("cont", "0"))
    assert not valid_cell(ts, SdupCell("stop", "000"))
