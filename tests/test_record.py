"""The record helper against the standard library's frozen dataclasses."""
import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rklab.cardinal import Card, fin
from rklab.distribution import BuildConfig
from rklab.record import record, replace


def _define(decorate):
    """The same record classes, built by ``decorate``."""

    @decorate
    class Pair:
        a: object
        b: object = 0

    @decorate
    class Twin:  # Pair's shape under another name
        a: object
        b: object = 0

    @decorate
    class Checked:
        n: int
        tag: object = None

        def __post_init__(self):
            if self.n < 0:
                raise ValueError("negative")

    @decorate
    class Single:
        a: object

    @decorate
    class Empty:
        pass

    @decorate
    class Shown:
        a: object

        def __repr__(self):
            return f"<{self.a}>"

    return Pair, Twin, Checked, Single, Empty, Shown


STD = _define(dataclasses.dataclass(frozen=True))
OURS = _define(record)

values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)


def _build(classes, a, b, n):
    pair, twin, checked, single, empty, shown = classes
    return [pair(a), pair(a, b), twin(a, b), checked(n, a), single(b), empty(), shown(b)]


@given(values, values, st.integers(min_value=0))
def test_records_compare_hash_and_show_as_dataclasses_do(a, b, n):
    std, ours = _build(STD, a, b, n), _build(OURS, a, b, n)
    for (s1, o1), (s2, o2) in itertools.product(zip(std, ours), repeat=2):
        assert (o1 == o2) == (s1 == s2)
        assert (o1 != o2) == (s1 != s2)
    for s, o in zip(std, ours):
        assert repr(o) == repr(s)
        assert hash(o) == hash(s)
    assert hash(OURS[1](a, b)) == hash((a, b)) and hash(OURS[4]()) == hash(())


@given(values, values)
def test_records_of_one_shape_never_compare_equal_across_classes(a, b):
    pair, twin = OURS[0](a, b), OURS[1](a, b)
    assert pair != twin and pair != (a, b) and (a, b) != pair


def test_records_refuse_assignment_and_deletion():
    for obj in (OURS[0](1), fin(3), BuildConfig()):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            obj.a = 2
        with pytest.raises(AttributeError, match="cannot delete field"):
            del obj.a
    with pytest.raises(dataclasses.FrozenInstanceError):
        STD[0](1).a = 2  # the standard error is an AttributeError too


def test_init_matches_dataclass_signature():
    for classes in (STD, OURS):
        pair, _, checked, _, empty, _ = classes
        assert pair(1).b == 0 and pair(b=2, a=1) == pair(1, 2)
        with pytest.raises(TypeError):
            pair()
        with pytest.raises(TypeError):
            pair(1, 2, 3)
        with pytest.raises(TypeError):
            empty(1)
        with pytest.raises(ValueError, match="negative"):
            checked(-1)


def test_replace_reruns_validation():
    with pytest.raises(ValueError, match="split depth"):
        replace(BuildConfig(), depth=0)
    assert replace(BuildConfig(), fan_out=5) == BuildConfig(fan_out=5)
    for classes, swap in ((STD, dataclasses.replace), (OURS, replace)):
        checked = classes[2](1, "t")
        assert swap(checked, n=4) == classes[2](4, "t")
        with pytest.raises(ValueError, match="negative"):
            swap(checked, n=-1)
        with pytest.raises(TypeError):
            swap(checked, size=2)


def test_card_keeps_its_own_repr_and_the_field_tuple_hash():
    assert repr(fin(3)) == "Card(3)" and repr(OURS[5](1)) == "<1>"
    assert hash(fin(3)) == hash(("fin", 3)) and fin(3) == Card("fin", 3)
