import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rklab.cardinal import (
    CONTINUUM,
    OMEGA,
    OMEGA1,
    ZERO,
    Card,
    card_eq,
    card_le,
    card_sum,
    fin,
    parse_card,
    render,
)

SYMBOLS = [fin(k) for k in range(21)] + [OMEGA, OMEGA1, CONTINUUM]

cards = st.sampled_from(SYMBOLS)


def test_sum_examples():
    assert card_sum(fin(2), fin(3)) == fin(5)
    assert card_sum(OMEGA, fin(7)) == OMEGA
    assert card_sum(OMEGA1, CONTINUUM) == CONTINUUM


def test_sum_commutative_associative_exhaustive():
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert card_sum(a, b) == card_sum(b, a)
    for a, b, c in itertools.product(SYMBOLS, repeat=3):
        assert card_sum(card_sum(a, b), c) == card_sum(a, card_sum(b, c))


def test_continuum_absorbs():
    for a in SYMBOLS:
        assert card_sum(a, CONTINUUM) == CONTINUUM


def test_le_examples():
    assert card_le(OMEGA, OMEGA1)
    assert not card_le(CONTINUUM, OMEGA1, ch=False)
    assert card_le(CONTINUUM, OMEGA1, ch=True)


@pytest.mark.parametrize("ch", [True, False])
def test_le_total_preorder(ch):
    for a in SYMBOLS:
        assert card_le(a, a, ch)
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert card_le(a, b, ch) or card_le(b, a, ch)
    for a, b, c in itertools.product(SYMBOLS, repeat=3):
        if card_le(a, b, ch) and card_le(b, c, ch):
            assert card_le(a, c, ch)


def test_ch_collapses_only_comparisons():
    assert card_eq(OMEGA1, CONTINUUM, ch=True)
    assert not card_eq(OMEGA1, CONTINUUM, ch=False)
    assert OMEGA1 != CONTINUUM  # stored values stay distinct


@given(cards, cards)
def test_sum_upper_bound(a, b):
    total = card_sum(a, b)
    assert card_le(a, total, ch=False)
    assert card_le(b, total, ch=False)


def test_render_parse_round_trip():
    for a in SYMBOLS:
        assert parse_card(render(a)) == a
    assert render(OMEGA) == "w"
    assert render(OMEGA1) == "w1"
    assert render(CONTINUUM) == "c"
    assert render(ZERO) == "0"
    with pytest.raises(ValueError):
        parse_card("aleph2")
    assert parse_card(" 12 ") == fin(12)


def test_invalid_cards_rejected():
    with pytest.raises(ValueError):
        Card("fin", -1)
    with pytest.raises(ValueError):
        Card("w", 3)
    with pytest.raises(ValueError):
        Card("weird")
