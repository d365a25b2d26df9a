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


def _rank(a: Card, ch: bool) -> int:
    r = _RANK[a.kind]
    if ch and r == 2:
        return 3
    return r


def card_le(a: Card, b: Card, ch: bool = True) -> bool:
    """Total comparison; under CH the ranks of w1 and c coincide."""
    ra, rb = _rank(a, ch), _rank(b, ch)
    if ra != rb:
        return ra < rb
    if a.finite and b.finite:
        return a.value <= b.value
    return True


def card_lt(a: Card, b: Card, ch: bool = True) -> bool:
    return card_le(a, b, ch) and not card_le(b, a, ch)


def card_eq(a: Card, b: Card, ch: bool = True) -> bool:
    return card_le(a, b, ch) and card_le(b, a, ch)


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


def parse_card(text: str) -> Card:
    tok = text.strip()
    if tok in _TOKENS:
        return _TOKENS[tok]
    if tok.isdecimal():
        return fin(int(tok))
    raise ValueError(f"not a cardinal token: {text!r}")


def check_limit_count(lam: Card) -> None:
    """Refuse a number of limit models outside 1..w, the counts the lmt and
    lms identity families size."""
    if lam.finite and lam.value < 1:
        raise ValueError("the finite case needs at least one limit model")
    if not lam.finite and lam != OMEGA:
        raise ValueError(f"limit-model count must be in w+1, got {render(lam)}")
