"""Symbolic cardinal arithmetic over finite values and w, w1, c.

The workbench never materialises infinite sets; it counts with symbols.
A value is either a finite natural or one of the three infinite symbols:
``w`` (first infinite), ``w1`` (first uncountable), ``c`` (continuum,
2^w).  Sums absorb into the larger infinite symbol, finite values add.
Comparisons take a CH flag: with ``ch=True`` (the default convention
here) ``w1`` and ``c`` compare equal, though they are always kept
distinct as stored values.

There is deliberately no product or exponentiation; every formula in
scope uses only sums.
"""
from __future__ import annotations

from typing import Iterable

from .record import record
from .report import Budget

_RANK = {"fin": 0, "w": 1, "w1": 2, "c": 3}


@record
class Card:
    kind: str
    value: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _RANK:
            raise ValueError(f"unknown cardinal kind {self.kind!r}")
        if self.kind == "fin":
            if self.value < 0:
                raise ValueError("finite cardinal must be non-negative")
        elif self.value != 0:
            raise ValueError("infinite cardinals carry no finite part")

    @property
    def finite(self) -> bool:
        return self.kind == "fin"

    def __repr__(self) -> str:
        return f"Card({render(self)})"


def fin(k: int) -> Card:
    return Card("fin", k)


OMEGA = Card("w")
OMEGA1 = Card("w1")
CONTINUUM = Card("c")

ZERO = fin(0)


def card_key(a: Card, ch: bool = True) -> tuple[int, int]:
    """The position of ``a`` on the cardinal line: keys compare as the
    cardinals do, and under CH the keys of w1 and c coincide."""
    r = _RANK[a.kind]
    return (3 if ch and r == 2 else r), a.value


def card_le(a: Card, b: Card, ch: bool = True) -> bool:
    """Total comparison; under CH w1 and c compare equal."""
    return card_key(a, ch) <= card_key(b, ch)


def card_eq(a: Card, b: Card, ch: bool = True) -> bool:
    return card_key(a, ch) == card_key(b, ch)


def card_sum(a: Card, b: Card) -> Card:
    """Commutative, associative; finite values add, infinite ones absorb."""
    if a.finite and b.finite:
        return fin(a.value + b.value)
    return a if _RANK[a.kind] >= _RANK[b.kind] else b


def card_sum_all(xs: Iterable[Card]) -> Card:
    total = ZERO
    for x in xs:
        total = card_sum(total, x)
    return total


_TOKENS = {"w": OMEGA, "w1": OMEGA1, "c": CONTINUUM}


def render(a: Card) -> str:
    if a.finite:
        return str(a.value)
    return a.kind


# the most digits a number may have: more than any cap of rklab needs, and
# fewer than the 4300 that Python's int() converts by default since 3.11
DIGIT_BOUND = Budget("digit bound", 4096, "digits")


def natural(text: str, what: str = "a natural number") -> int:
    """The number ``text`` names in the one grammar of every number rklab
    reads: ASCII digits, without sign, ``_`` or a leading zero but in ``0``.
    Past ``DIGIT_BOUND`` digits it is over every cap: a ``BudgetError``."""
    if not (text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")):
        raise ValueError(f"expected {what}, got {text!r}")
    DIGIT_BOUND.check(len(text))
    return int(text)


def parse_card(text: str) -> Card:
    tok = text.strip()
    return _TOKENS[tok] if tok in _TOKENS else fin(natural(tok, "a cardinal token"))


def check_limit_count(lam: Card) -> None:
    """Refuse a number of limit models outside 1..w, the counts the lmt and
    lms identity families size."""
    if lam.finite and lam.value < 1:
        raise ValueError("the finite case needs at least one limit model")
    if not lam.finite and lam != OMEGA:
        raise ValueError(f"limit-model count must be in w+1, got {render(lam)}")
