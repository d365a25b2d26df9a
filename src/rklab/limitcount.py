"""Bounded congruence closure over words, counting limit-model classes.

The limit-model operators reduce "how many limit models" to factoring
the set of infinite index sequences by a family of word identities,
built here by ``lmt`` (over a type) and ``lms`` (over a sequence).  At
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
from functools import lru_cache
from operator import eq
from typing import Iterable, Iterator, Sequence

from .cardinal import CONTINUUM, OMEGA, Card, fin, render
from .record import record
from .report import BudgetError

Word = tuple[int, ...]

WORD_BUDGET = 200_000


@record
class Schema:
    """One parameterized identity; ``kind`` selects the instance generator."""

    kind: str
    param: int | None = None


@record
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


def lmt(lam: Card) -> IdentitySystem:
    """Identity family sizing the limit models over a single type."""
    if lam.finite:
        n = lam.value
        if n < 1:
            raise ValueError("the finite case needs at least one limit model")
        return IdentitySystem(
            "lmt",
            (
                Schema("single_rename", n),
                Schema("idem_below", n),
                Schema("drop_to_min"),
            ),
            fin(n),
            n=n,
        )
    if lam == OMEGA:
        return IdentitySystem(
            "lmt",
            (Schema("idem_all"), Schema("drop_to_min"), Schema("pair_to_run")),
            OMEGA,
        )
    raise ValueError(f"limit-model count must be in w+1, got {render(lam)}")


def lms(q_len: int, lam: Card, reading: str = "gt") -> IdentitySystem:
    """Identity family sizing the limit models over a domination sequence."""
    if q_len < 1:
        raise ValueError("sequence length must be positive")
    if reading not in ("gt", "geq"):
        raise ValueError("reading must be 'gt' or 'geq'")
    if lam.finite:
        n = lam.value
        if n < 1:
            raise ValueError("the finite case needs at least one limit model")
        return IdentitySystem(
            "lms",
            (Schema("single_rename", n), Schema("ascend_to_power")),
            fin(n),
            n=n,
            seq_len=q_len,
        )
    if lam == OMEGA:
        return IdentitySystem(
            "lms",
            (
                Schema("ascend_to_power"),
                Schema("ascend_to_run"),
                Schema("ascend_to_capped_run"),
            ),
            OMEGA,
            reading=reading,
            seq_len=q_len,
        )
    raise ValueError(f"limit-model count must be in w+1, got {render(lam)}")


def _sizes(alphabet: int, max_len: int) -> list[int]:
    """sizes[k] counts the words of length at most k."""
    return list(itertools.accumulate((alphabet**k for k in range(1, max_len + 1)), initial=0))


def _run_code(first: int, last: int, alphabet: int, length: int) -> int:
    """The code of first, first+1, .., last padded with copies of last to
    ``length`` letters: a run, a capped run, or (first == last) a power."""
    n = 0
    for i in range(length):
        n = n * alphabet + min(first + i, last) + 1
    return n - 1


def _codes_over(letters: range, length: int, alphabet: int) -> list[int]:
    """The codes of the words of the given length over ``letters``, in code order."""
    codes = [-1]
    for _ in range(length):
        codes = [alphabet * (x + 1) + c for x in codes for c in letters]
    return codes


def _level_blocks(
    sys: IdentitySystem, alphabet: int, k: int, sizes: list[int]
) -> Iterator[Iterable[tuple[int, int]]]:
    """The code pairs of the ground instances whose longer side has exactly
    k letters, in blocks; a pair may repeat or join a word to itself.

    A word-scanning schema appends a letter to a prefix u of k-1 letters,
    and u.c has code A(u+1)+c.  Which letters are admissible depends on
    u's minimum (drop_to_min), maximum (ascend_to_power) or first letter
    (the runs), so the prefixes come as words over a letter range or as
    the code block of one first letter.
    """
    a, s = alphabet, k - 1
    for schema in sys.schemas:
        kind, n = schema.kind, schema.param
        if kind == "single_rename":
            # n-1 ~ m for every m >= n
            if k == 1:
                yield [(n - 1, m) for m in range(n, a)]
        elif kind in ("idem_below", "idem_all"):
            if k == 2:
                yield [(a * (m + 1) + m, m) for m in range(a if n is None else min(n, a))]
        elif kind == "pair_to_run":
            # a jump up fills in as the full ascending run
            if k >= 2:
                yield [(a * (f + 1) + f + s, _run_code(f, f + s, a, k)) for f in range(a - s)]
        elif kind == "drop_to_min":
            # a strictly higher prefix collapses onto its last letter
            if k >= 2:
                for last in range(a - 1):
                    lhs = [a * (u + 1) + last for u in _codes_over(range(last + 1, a), s, a)]
                    yield zip(lhs, itertools.repeat(last))
        elif kind == "ascend_to_power":
            # a word topped by a strict maximum collapses to that letter repeated
            if k >= 2:
                for last in range(1, a):
                    lhs = [a * (u + 1) + last for u in _codes_over(range(last), s, a)]
                    yield zip(lhs, itertools.repeat(_run_code(last, last, a, k)))
        elif kind in ("ascend_to_run", "ascend_to_capped_run"):
            # the capped run's first side condition is read as first+s > last
            # ("gt") or >= ("geq"); combined with last = first + t and s > t
            # both readings coincide
            if k >= 2:
                block = a ** (s - 1)
                for f in range(a):
                    # the prefixes that start with f hold one block of codes
                    lo = a * (sizes[s - 1] + f * block + 1)
                    lasts = range(f + s, a) if kind == "ascend_to_run" else range(f + 1, min(f + s, a))
                    for last in lasts:
                        # a plain run stops at f+s <= last, before the cap
                        lhs = range(lo + last, lo + a * block + last, a)
                        yield zip(lhs, itertools.repeat(_run_code(f, last, a, k)))
        else:
            raise ValueError(f"unknown schema kind {kind!r}")


def instantiate(sys: IdentitySystem, alphabet: int, max_len: int) -> list[tuple[Word, Word]]:
    """All ground instances with both sides nonempty and within the bound,
    level by level: the decoded pairs of ``_level_blocks`` for k = 1 .. max_len."""
    if alphabet < 1 or max_len < 1:
        raise ValueError("alphabet and length bound must be positive")
    sizes = _sizes(alphabet, max_len)
    out: dict[tuple[Word, Word], None] = {}
    for k in range(1, max_len + 1):
        for lhs, rhs in itertools.chain.from_iterable(_level_blocks(sys, alphabet, k, sizes)):
            if lhs != rhs:
                out[_decode(lhs, alphabet), _decode(rhs, alphabet)] = None
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


def _extensions(
    roots: Sequence[int], older: Sequence[int], alphabet: int, sizes: list[int]
) -> Iterator[Iterable[tuple[int, int]]]:
    """Blocks of code pairs c.x ~ c.r and x.c ~ r.c, c a letter and r the
    root of x in ``roots``, for each word x that is new since ``older``, the
    table one level down, or was a root there: any other x reaches r
    through its older root, one of these.  A new x gets only c.x ~ c.r, as
    the caller starts x.c at r.c.  ``sizes[k]`` counts the words of length
    at most k."""
    a, m, n = alphabet, len(older), len(roots)
    for x in itertools.compress(range(m), map(eq, older, range(m))):
        r = roots[x]
        if r != x:
            px, pr = a ** bisect_right(sizes, x), a ** bisect_right(sizes, r)
            yield zip(range(x + px, x + (a + 1) * px, px), range(r + pr, r + (a + 1) * pr, pr))
            yield zip(range(a * (x + 1), a * (x + 2)), range(a * (r + 1), a * (r + 2)))
    # c.x for the new words x is one block of codes per letter c
    fresh = roots[m:]
    shifts = [a ** bisect_right(sizes, r) for r in fresh]
    for c in range(1, a + 1):
        yield zip(range(m + c * (n - m), n + c * (n - m)), [r + c * p for r, p in zip(fresh, shifts)])


@lru_cache(maxsize=64)
def _class_table(sys: IdentitySystem, alphabet: int, max_len: int, budget: int) -> array:
    """Every word's root: the code of its class's length-lex minimum.

    E_k, the congruence on words of length at most k, is generated by
    E_(k-1), by c.x ~ c.r and x.c ~ r.c for each word x with E_(k-1) root r
    and letter c, and by the instances whose longer side has length k: an
    instance in a nonempty context is c.g or g.c for a generator g of
    E_(k-1).  So the table for L is the cached table for L-1 plus the
    length-L words and a few unions per word, and the L+1 check costs one
    level.  Unions point at the smaller code, so ``parent[i] <= i``, one
    ascending pass finds every root, and a root is its class's length-lex
    minimum.
    """
    if alphabet < 1 or max_len < 1:
        raise ValueError("alphabet and length bound must be positive")
    total = _word_count(alphabet, max_len, budget)
    if total is None:
        raise BudgetError(f"the words of length at most {max_len} exceed the budget {budget}")
    if total > budget:
        raise BudgetError(f"{total} words exceed the budget {budget}")
    sizes = _sizes(alphabet, max_len)
    a = alphabet
    # one letter makes a level per word, too many to nest a call per level
    if a > 1 and max_len > 1:
        low, roots = max_len, _class_table(sys, a, max_len - 1, budget)
        older = _class_table(sys, a, max_len - 2, budget) if max_len > 2 else array("I")
    else:
        low, roots, older = 1, array("I"), array("I")
    for k in range(low, max_len + 1):
        # each new word x.c starts at r.c, r the root of x (the empty word,
        # code -1, for k = 1)
        prefix_roots = roots[sizes[k - 2] :] if k > 1 else (-1,)
        parent = list(roots)
        parent += [a * (r + 1) + c for r in prefix_roots for c in range(a)]
        blocks = itertools.chain(_extensions(roots, older, a, sizes), _level_blocks(sys, a, k, sizes))
        for i, j in itertools.chain.from_iterable(blocks):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j
        for i in range(sizes[k]):
            parent[i] = parent[parent[i]]
        older, roots = roots, parent
    return array("I", roots)


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
