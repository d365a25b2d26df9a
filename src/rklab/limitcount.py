"""Bounded congruence closure over words, counting limit-model classes.

The limit-model operators reduce "how many limit models" to factoring
the set of infinite index sequences by a family of word identities.  At
desk scale we factor the nonempty words of length at most L over a
finite alphabet instead: the congruence generated by the ground
instances of the identity schemas, closed under two-sided concatenation
contexts that stay within the length bound.  Equations whose
application would leave the bound are skipped in both directions, so
small-L counts can carry truncation artifacts; the stabilization check
(compare L against L+1) is the supported evidence, and the symbolic
target attached to a system is displayed, never asserted, at finite L.

The empty word is excluded: the sequences being factored are infinite
paths, approximated here by their nonempty prefixes.
"""
from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import eq
from typing import Iterator

from .cardinal import CONTINUUM, Card, render
from .report import BudgetError

Word = tuple[int, ...]

WORD_BUDGET = 200_000


@dataclass(frozen=True)
class Schema:
    """One parameterized identity; ``kind`` selects the instance generator."""

    kind: str
    param: int | None = None


@dataclass(frozen=True)
class IdentitySystem:
    kind: str  # "lmt" | "lms" | "free"
    schemas: tuple[Schema, ...]
    target: Card
    n: int | None = None
    reading: str = "gt"
    seq_len: int | None = None

    def describe(self) -> str:
        tag = self.kind
        if self.n is not None:
            tag += f" n={self.n}"
        elif self.kind != "free":
            tag += " w-case"
        return f"{tag}, target {render(self.target)}"


FREE_SYSTEM = IdentitySystem("free", (), CONTINUUM)


def _words_up_to(alphabet: int, max_len: int) -> Iterator[Word]:
    for length in range(1, max_len + 1):
        yield from itertools.product(range(alphabet), repeat=length)


def _run(a: int, b: int) -> Word:
    return tuple(range(a, b + 1))


def schema_instances(schema: Schema, alphabet: int, max_len: int) -> Iterator[tuple[Word, Word]]:
    k = schema.kind
    if k == "single_rename":
        # n-1 ~ m for every m >= n
        n = schema.param
        assert n is not None
        for m in range(n, alphabet):
            yield (n - 1,), (m,)
    elif k == "idem_below":
        n = schema.param
        assert n is not None
        if max_len >= 2:
            for m in range(min(n, alphabet)):
                yield (m, m), (m,)
    elif k == "idem_all":
        if max_len >= 2:
            for m in range(alphabet):
                yield (m, m), (m,)
    elif k == "drop_to_min":
        # a strictly higher prefix collapses onto its last letter
        for u in _words_up_to(alphabet, max_len - 1):
            for last in range(min(u)):
                yield u + (last,), (last,)
    elif k == "pair_to_run":
        # a jump up fills in as the full ascending run
        for a in range(alphabet):
            for b in range(a + 1, alphabet):
                if b - a + 1 <= max_len:
                    yield (a, b), _run(a, b)
    elif k == "ascend_to_power":
        # a word topped by a strict maximum collapses to that letter repeated
        for u in _words_up_to(alphabet, max_len - 1):
            for last in range(max(u) + 1, alphabet):
                yield u + (last,), (last,) * (len(u) + 1)
    elif k == "ascend_to_run":
        for u in _words_up_to(alphabet, max_len - 1):
            s = len(u)
            for last in range(u[0] + s, alphabet):
                yield u + (last,), _run(u[0], u[0] + s)
    elif k == "ascend_to_capped_run":
        # first side condition is read as first+s > last ("gt") or >= ("geq");
        # combined with last = first + t and s > t both readings coincide
        for u in _words_up_to(alphabet, max_len - 1):
            s = len(u)
            for last in range(u[0] + 1, min(u[0] + s, alphabet)):
                yield u + (last,), _run(u[0], last) + (last,) * (s - (last - u[0]))
    else:
        raise ValueError(f"unknown schema kind {k!r}")


def instantiate(sys: IdentitySystem, alphabet: int, max_len: int) -> list[tuple[Word, Word]]:
    """All ground instances with both sides nonempty and within the bound."""
    if alphabet < 1 or max_len < 1:
        raise ValueError("alphabet and length bound must be positive")
    out: dict[tuple[Word, Word], None] = {}
    for schema in sys.schemas:
        for lhs, rhs in schema_instances(schema, alphabet, max_len):
            if lhs and rhs and lhs != rhs and len(lhs) <= max_len and len(rhs) <= max_len:
                out[lhs, rhs] = None
    return list(out)


def _word_count(alphabet: int, max_len: int, budget: int) -> int | None:
    """The number of nonempty words of length at most max_len, or None once
    it passes alphabet * (budget + 1), the most words one level past a
    table within the budget can have; the sum stops there, so a long bound
    costs nothing."""
    total, term = 0, 1
    for _ in range(max_len):
        term *= alphabet
        total += term
        if total > alphabet * (budget + 1):
            return None
    return total


def _code(w: Word, alphabet: int) -> int:
    """The bijective base-A numeral of w (digits letter + 1), minus one: code
    order is length-lex order, the words of length at most k hold the first
    codes, x.c has code A(x+1)+c and c.x has x+(c+1)A^|x|."""
    n = 0
    for letter in w:
        n = n * alphabet + letter + 1
    return n - 1


def _decode(code: int, alphabet: int) -> Word:
    letters = []
    n = code + 1
    while n:
        n, letter = divmod(n - 1, alphabet)
        letters.append(letter)
    return tuple(reversed(letters))


def _extensions(roots: list[int], alphabet: int, sizes: list[int]) -> Iterator[tuple[int, int]]:
    """Code pairs c.x ~ c.r and x.c ~ r.c for every letter c and every word
    x whose root r in ``roots`` is another word; ``sizes[k]`` counts the
    words of length at most k."""
    for x, r in enumerate(roots):
        if r != x:
            px, pr = alphabet ** bisect_right(sizes, x), alphabet ** bisect_right(sizes, r)
            for c in range(alphabet):
                yield x + (c + 1) * px, r + (c + 1) * pr
                yield alphabet * (x + 1) + c, alphabet * (r + 1) + c


@lru_cache(maxsize=64)
def _class_table(sys: IdentitySystem, alphabet: int, max_len: int, budget: int) -> array:
    """Every word's root: the code of its class's length-lex minimum.

    E_k, the congruence on words of length at most k, is generated by
    E_(k-1), by c.x ~ c.r and x.c ~ r.c for each word x with E_(k-1) root r
    and letter c, and by the instances whose longer side has length k: an
    instance in a nonempty context is c.g or g.c for a generator g of
    E_(k-1).  So E_1 .. E_L grow in one table with a few unions per word.
    Unions point at the smaller code, so ``parent[i] <= i``, one ascending
    pass finds every root, and a root is its class's length-lex minimum.
    """
    if alphabet < 1 or max_len < 1:
        raise ValueError("alphabet and length bound must be positive")
    total = _word_count(alphabet, max_len, budget)
    if total is None:
        raise BudgetError(f"the words of length at most {max_len} exceed the budget {budget}")
    if total > budget:
        raise BudgetError(f"{total} words exceed the budget {budget}")
    # sizes[k] counts the words of length at most k
    sizes = list(itertools.accumulate((alphabet**k for k in range(1, max_len + 1)), initial=0))
    new_pairs: list[list[tuple[int, int]]] = [[] for _ in sizes]
    for lhs, rhs in instantiate(sys, alphabet, max_len):
        new_pairs[max(len(lhs), len(rhs))].append((_code(lhs, alphabet), _code(rhs, alphabet)))
    parent = list(range(total))
    for k in range(1, max_len + 2):
        for i in range(sizes[k - 1]):
            parent[i] = parent[parent[i]]
        if k > max_len:
            break
        pairs = itertools.chain(_extensions(parent[: sizes[k - 1]], alphabet, sizes), new_pairs[k])
        for i, j in pairs:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j
    return array("I", parent)


def count_classes(
    sys: IdentitySystem, alphabet: int, max_len: int, budget: int = WORD_BUDGET
) -> tuple[int, list[Word]]:
    """Class count plus length-lex minimal representatives."""
    root = _class_table(sys, alphabet, max_len, budget)
    codes = itertools.compress(range(len(root)), map(eq, root, range(len(root))))
    reps = [_decode(c, alphabet) for c in codes]
    return len(reps), reps


def normal_form(
    sys: IdentitySystem,
    w: Word,
    max_len: int,
    alphabet: int | None = None,
    budget: int = WORD_BUDGET,
) -> Word:
    """Length-lex minimum of w's class at the given bound; idempotent."""
    if not w:
        raise ValueError("words are nonempty")
    if len(w) > max_len:
        raise ValueError("word exceeds the length bound")
    if alphabet is None:
        alphabet = max(w) + 1
    if any(not (0 <= letter < alphabet) for letter in w):
        raise ValueError("letter outside the alphabet")
    return _decode(_class_table(sys, alphabet, max_len, budget)[_code(w, alphabet)], alphabet)


def render_word(w: Word) -> str:
    return ".".join(str(x) for x in w)


def stabilization(
    sys: IdentitySystem, alphabet: int, max_len: int, budget: int = WORD_BUDGET
) -> dict[str, object]:
    """Counts at L and L+1 with the agreement flag the CLI reports; the L+1
    figures are None when only that table is over the word budget."""
    count_here, reps = count_classes(sys, alphabet, max_len, budget)
    words_next = _word_count(alphabet, max_len + 1, budget)
    count_next = None
    if words_next <= budget:
        count_next, _ = count_classes(sys, alphabet, max_len + 1, budget)
    return {
        "L": max_len,
        "count": count_here,
        "count_next": count_next,
        "stable": None if count_next is None else count_here == count_next,
        "words_next": words_next,
        "budget": budget,
        "representatives": reps,
        "target": sys.target,
    }
