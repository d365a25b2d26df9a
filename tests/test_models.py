import random

import pytest

from rklab.models import (
    COUNT_CAP,
    CellCount,
    ModelSpec,
    RkSequence,
    cm_dominates,
    construct_model,
    explicit,
    full_base,
    is_elementary_submodel_sequence,
    perturb,
)
from rklab.typespace import (
    SdupCell,
    TypeSpace,
    enumerate_types,
    is_dense,
)

IUP3 = TypeSpace("iup", 3)
CELLS3 = enumerate_types(IUP3)


def random_spec(rng: random.Random, ts: TypeSpace) -> ModelSpec:
    if rng.random() < 0.5:
        spec = full_base(ts)
        for cell in enumerate_types(ts):
            if rng.random() < 0.3:
                spec = spec.with_delta(cell, rng.randint(-2, 2))
        return spec
    return explicit(ts, {c: rng.randint(1, 3) for c in enumerate_types(ts)})


def test_count_order():
    assert CellCount(False, 1) <= CellCount(False, 2)
    assert CellCount(False, 5) <= CellCount(True, -3)
    assert not CellCount(True, 0) <= CellCount(False, 9)
    assert CellCount(True, -1) <= CellCount(True, 0)


def test_dominates_pointwise_counts():
    ones = explicit(IUP3, {c: 1 for c in CELLS3})
    bumped = ones.with_delta(CELLS3[0], 1)
    assert cm_dominates(ones, bumped)
    assert not cm_dominates(bumped, ones)
    assert cm_dominates(ones, ones)


def test_dominates_incomparable_and_errors():
    a = full_base(IUP3).with_delta(CELLS3[0], 1).with_delta(CELLS3[1], -1)
    b = full_base(IUP3).with_delta(CELLS3[0], -1).with_delta(CELLS3[1], 1)
    assert not cm_dominates(a, b) and not cm_dominates(b, a)
    with pytest.raises(ValueError):
        cm_dominates(full_base(IUP3), full_base(TypeSpace("iup", 2)))


def test_dominates_support_inclusion_for_sdup():
    ts = TypeSpace("sdup", 1)
    cells = enumerate_types(ts)
    small = explicit(ts, {cells[0]: 1})
    big = explicit(ts, {cells[0]: 1, cells[1]: 1})
    assert cm_dominates(small, big)
    assert not cm_dominates(big, small)
    # multiplicities are ignored outside the independent-predicates family
    doubled = explicit(ts, {cells[0]: 2})
    assert cm_dominates(doubled, small)


def test_iup_explicit_spec_must_be_dense():
    with pytest.raises(ValueError):
        explicit(IUP3, {CELLS3[0]: 1})


def test_perturb_examples():
    base = full_base(IUP3)
    up = perturb(base, "up")
    assert cm_dominates(base, up) and not cm_dominates(up, base)
    assert perturb(up, "down") == base
    down = perturb(base, "down")
    assert cm_dominates(down, base) and not cm_dominates(base, down)
    down2 = perturb(down, "down")
    assert is_dense(IUP3, down2.support())
    assert len(down2.edits) == 2  # two distinct removed points


def test_perturb_random_specs_strict_and_dense():
    rng = random.Random(99)
    done = 0
    for _ in range(100):
        spec = random_spec(rng, IUP3)
        up = perturb(spec, "up")
        assert cm_dominates(spec, up) and not cm_dominates(up, spec)
        assert is_dense(IUP3, up.support())
        try:
            down = perturb(spec, "down")
        except ValueError:
            continue
        assert cm_dominates(down, spec) and not cm_dominates(spec, down)
        assert is_dense(IUP3, down.support())
        done += 1
    assert done > 50


def test_perturb_exhausted_representation():
    ts = TypeSpace("iup", 1)
    ones = explicit(ts, {c: 1 for c in enumerate_types(ts)})
    with pytest.raises(ValueError):
        perturb(ones, "down")
    capped = explicit(ts, {c: COUNT_CAP for c in enumerate_types(ts)})
    with pytest.raises(ValueError):
        perturb(capped, "up")
    with pytest.raises(ValueError):
        perturb(explicit(TypeSpace("sdup", 1), {SdupCell("stop", ""): 1}), "up")


def test_dominates_is_preorder_on_random_specs():
    rng = random.Random(4)
    ts = TypeSpace("iup", 4)
    specs = [random_spec(rng, ts) for _ in range(200)]
    for s in specs[:50]:
        assert cm_dominates(s, s)
    for _ in range(400):
        a, b, c = rng.choice(specs), rng.choice(specs), rng.choice(specs)
        if cm_dominates(a, b) and cm_dominates(b, c):
            assert cm_dominates(a, c)
        if cm_dominates(a, b) and cm_dominates(b, a):
            assert all(a.count(cell) == b.count(cell) for cell in enumerate_types(ts))


def test_elementary_sequence_coverage():
    seq = RkSequence((CELLS3[0], CELLS3[1]), ("w",))
    half0 = [c for c in CELLS3 if c.bits[0] == 0]
    half1 = [c for c in CELLS3 if c.bits[0] == 1]
    assert is_elementary_submodel_sequence(IUP3, seq, [half0, half1])
    assert not is_elementary_submodel_sequence(IUP3, seq, [half0, half0])
    single = RkSequence((CELLS3[0],))
    assert is_elementary_submodel_sequence(IUP3, single, [CELLS3])


def test_construct_model_support_equals_cone_union():
    seq = RkSequence((CELLS3[0], CELLS3[1]), ("w",))
    half0 = [c for c in CELLS3 if c.bits[0] == 0]
    half1 = [c for c in CELLS3 if c.bits[0] == 1]
    spec = construct_model(IUP3, seq, [half0, half1])
    assert spec.support() == frozenset(CELLS3)
    assert all(spec.count(c).k >= 1 for c in CELLS3)
    with pytest.raises(ValueError):
        construct_model(IUP3, seq, [half0, half0])


def test_construct_model_random_cones():
    rng = random.Random(12)
    ts = TypeSpace("iup", 3)
    cells = list(enumerate_types(ts))
    for _ in range(25):
        k = rng.randint(1, 3)
        cones = [set() for _ in range(k)]
        for c in cells:
            cones[rng.randrange(k)].add(c)
        cones = [cone or {cells[0]} for cone in cones]
        seq = RkSequence(tuple(cells[:k]))
        spec = construct_model(ts, seq, cones)
        assert spec.support() == frozenset().union(*cones)


def test_spec_edits_have_one_form():
    # ModelSpec drops zero edits and sorts the rest by rendered cell itself
    cells = enumerate_types(TypeSpace("sdup", 2))
    edits = ((cells[5], 2), (cells[0], 0), (cells[2], 1))
    spec = ModelSpec(TypeSpace("sdup", 2), False, edits)
    assert spec.edits == ((cells[2], 1), (cells[5], 2))
    assert spec == explicit(TypeSpace("sdup", 2), dict(edits))
    assert full_base(IUP3).with_delta(CELLS3[1], 1).with_delta(CELLS3[1], -1) == full_base(IUP3)


IUP2 = TypeSpace("iup", 2)
CELLS2 = enumerate_types(IUP2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: full_base(IUP2).with_delta(CELLS2[0], 9), "edit magnitude exceeds cap 8"),
        (lambda: full_base(IUP2).with_delta(CELLS2[0], 5).with_delta(CELLS2[1], 1).with_delta(CELLS2[0], 4),
         "edit magnitude exceeds cap 8"),
        (lambda: explicit(IUP2, {CELLS2[0]: 1, CELLS2[1]: -1, CELLS2[2]: 1}), "negative count on an explicit spec"),
        (lambda: explicit(IUP2, {CELLS2[0]: 1}), "support of an iup spec must be dense"),
        (lambda: ModelSpec(IUP2, True, ((CELLS2[0], 1), (CELLS2[0], 1))),
         "duplicate edit for cell IupCell(bits=(0, 0))"),
        (lambda: ModelSpec(IUP2, True, ((CELLS3[0], 1),)), "edit on invalid cell IupCell(bits=(0, 0, 0))"),
    ],
    ids=["over-cap", "over-cap-summed", "negative-on-explicit", "not-dense", "duplicate-cell", "invalid-cell"],
)
def test_model_spec_refusals(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message
