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

from array import array
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

from .cardinal import CONTINUUM, OMEGA, Card, fin, render
from .record import record
from .report import BudgetError

Word = tuple[int, ...]

WORD_BUDGET = 200_000
SHOWN_REPRESENTATIVES = 20


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


def _sizes(alphabet: int, max_len: int, budget: float = float("inf")) -> list[int]:
    """sizes[k] counts the nonempty words of length at most k, k = 0 .. max_len.
    The list stops once it passes alphabet * (budget + 1), the most words one
    level past a table within the budget can have, so a long bound costs nothing."""
    sizes = [0]
    while len(sizes) <= max_len and sizes[-1] <= alphabet * (budget + 1):
        sizes.append(alphabet * (sizes[-1] + 1))
    return sizes


def _run_code(first: int, last: int, alphabet: int, length: int) -> int:
    """The code of first, first+1, .., last padded with copies of last to
    ``length`` letters: a run, a capped run, or (first == last) a power."""
    n = 0
    for letter in range(first, first + length):
        n = n * alphabet + (letter if letter < last else last) + 1
    return n - 1


def _codes_over(letters: range, length: int, alphabet: int) -> list[int]:
    """The codes of the words of the given length over ``letters``, in code order."""
    codes = [-1]
    for _ in range(length):
        codes = [alphabet * (x + 1) + c for x in codes for c in letters]
    return codes


def _level_blocks(
    sys: IdentitySystem, alphabet: int, k: int, sizes: list[int]
) -> Iterator[tuple[Sequence[int], int, int]]:
    """The ground instances whose longer side has exactly k letters, in
    blocks (prefixes, last, rhs): each word u.last, u in the codes
    ``prefixes`` (-1 is the empty word), is equated with the word ``rhs``.

    A word-scanning schema appends a letter to a prefix u of k-1 letters,
    and u.c has code A(u+1)+c.  Which letters are admissible depends on
    u's minimum (drop_to_min), maximum (ascend_to_power) or first letter
    (the runs), so the prefixes come as words over a letter range or as the
    code range of one first letter.  A block may repeat an instance or
    join a word to itself.
    """
    a, s = alphabet, k - 1
    for schema in sys.schemas:
        kind, n = schema.kind, schema.param
        if kind == "single_rename":
            # n-1 ~ m for every m >= n
            if k == 1:
                yield from (((-1,), n - 1, m) for m in range(n, a))
        elif kind in ("idem_below", "idem_all"):
            if k == 2:
                yield from (((m,), m, m) for m in range(a if n is None else min(n, a)))
        elif kind == "pair_to_run":
            # a jump up fills in as the full ascending run
            if k >= 2:
                yield from (((f,), f + s, _run_code(f, f + s, a, k)) for f in range(a - s))
        elif kind == "drop_to_min":
            # a strictly higher prefix collapses onto its last letter
            if k >= 2:
                for last in range(a - 1):
                    yield _codes_over(range(last + 1, a), s, a), last, last
        elif kind == "ascend_to_power":
            # a word topped by a strict maximum collapses to that letter repeated
            if k >= 2:
                for last in range(1, a):
                    yield _codes_over(range(last), s, a), last, _run_code(last, last, a, k)
        elif kind in ("ascend_to_run", "ascend_to_capped_run"):
            # the capped run's first side condition is read as first+s > last
            # ("gt") or >= ("geq"); combined with last = first + t and s > t
            # both readings coincide
            if k >= 2:
                block = a ** (s - 1)
                for f in range(a):
                    # the prefixes that start with f hold one block of codes
                    lo = sizes[s - 1] + f * block
                    lasts = range(f + s, a) if kind == "ascend_to_run" else range(f + 1, min(f + s, a))
                    for last in lasts:
                        # a plain run stops at f+s <= last, before the cap
                        yield range(lo, lo + block), last, _run_code(f, last, a, k)
        else:
            raise ValueError(f"unknown schema kind {kind!r}")


def instantiate(sys: IdentitySystem, alphabet: int, max_len: int) -> list[tuple[Word, Word]]:
    """All ground instances with both sides nonempty and within the bound,
    level by level: the decoded blocks of ``_level_blocks`` for k = 1 .. max_len."""
    if alphabet < 1 or max_len < 1:
        raise ValueError("alphabet and length bound must be positive")
    sizes = _sizes(alphabet, max_len)
    out: dict[tuple[Word, Word], None] = {}
    for k in range(1, max_len + 1):
        for prefixes, last, rhs in _level_blocks(sys, alphabet, k, sizes):
            for u in prefixes:
                lhs = alphabet * (u + 1) + last
                if lhs != rhs:
                    out[_decode(lhs, alphabet), _decode(rhs, alphabet)] = None
    return list(out)


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


def _merge(
    sys: IdentitySystem, a: int, k: int, roots: array, mus: Iterable[int], merged: Iterable[int],
    sizes: list[int],
) -> tuple[dict[int, int], dict[int, Sequence[int]], int]:
    """Level k over nodes, from the table for k-1, ``mus``, the roots at k-2
    of the words of k-2 letters that have k-2 letters themselves, and
    ``merged``, the roots at k-2 that merged at k-1.  A new word x.c starts
    at r.c, r the root of x, so the nodes are the old roots and r.c for each
    root r of k-1 letters.  Returns the root of each node that merged, the
    nodes q.c of each root q of a word of k-1 letters, and the classes added.
    """
    low, top = sizes[k - 2] if k > 1 else -1, sizes[k - 1]
    up = roots.__getitem__ if k > 1 else int  # a prefix's root; int keeps the empty word, -1
    # the nodes q.c for the roots q of the words of k-1 letters: old words unless q has k-1 letters
    rows = {q: roots[a * q + a : a * q + 2 * a] if q < low else range(a * q + a, a * q + 2 * a)
            for q in set(roots[low:] if k > 1 else (-1,))}

    def node(w: int) -> int:
        return rows[up(w // a - 1)][w % a] if w >= top else roots[w]

    pairs: list[tuple[int, int]] = []
    # c.x ~ c.r for the words x = y.d new at k-1, r the root of x.  The root
    # mu of y at k-2 fixes the roots of c.y and x, so one pair per (c, mu, d)
    # stands for every such y; none is needed if x = mu.d is a root, or if
    # mu is shorter than y (c.y.d ~ c.mu.d ~ c.r follow from the rest)
    for mu in mus:
        pm = a ** bisect_right(sizes, mu)
        heads = roots[mu + pm : mu + (a + 1) * pm : pm]  # the roots of c.mu and c.y
        for d in range(a):
            x = a * (mu + 1) + d
            r = roots[x]
            if r < x:
                pr = a ** bisect_right(sizes, r)
                for c in range(a):
                    pairs.append((rows[heads[c]][d], node(r + (c + 1) * pr)))
    # c.x ~ c.r and x.c ~ r.c for the roots x at k-2 that merged at k-1; any
    # other word reaches its root through its root at k-2
    for x in merged:
        r = roots[x]
        px, pr = a ** bisect_right(sizes, x), a ** bisect_right(sizes, r)
        pairs += zip(roots[x + px : x + (a + 1) * px : px], roots[r + pr : r + (a + 1) * pr : pr])
        pairs += zip(roots[a * x + a : a * x + 2 * a], roots[a * r + a : a * r + 2 * a])
    for prefixes, last, rhs in _level_blocks(sys, a, k, sizes):
        # one pair per distinct node of the words u.last, not per word
        j = node(rhs)
        if isinstance(prefixes, range):
            heads = {rows[q][last] for q in set(roots[prefixes.start : prefixes.stop])}
        else:  # listed prefixes may be shorter than k-1 letters (pair_to_run)
            heads = {node(a * (u + 1) + last) for u in prefixes}
        pairs += ((i, j) for i in heads)
    parent: dict[int, int] = {}  # unions point at the smaller node
    for i, j in pairs:
        while i in parent:
            p = parent[i]
            parent[i] = i = parent.get(p, p)
        while j in parent:
            p = parent[j]
            parent[j] = j = parent.get(p, p)
        if i != j:
            parent[max(i, j)] = min(i, j)
    for i in sorted(parent):
        parent[i] = parent.get(parent[i], parent[i])
    return parent, rows, a * sum(q >= low for q in rows) - len(parent)


# the last level built per (system, alphabet): L, its roots, and what level L+1
# reads besides them, the roots of the words of L letters that have L letters
# themselves (its mus) and the roots at L-1 that merged at L; at most 64 entries,
# the least recently used dropped (the table does not depend on the budget)
_LEVELS: dict[tuple[IdentitySystem, int], tuple[int, array, list[int], list[int]]] = {}


def _class_table(
    sys: IdentitySystem, alphabet: int, max_len: int, budget: int
) -> tuple[array, list[int], list[int]]:
    """Every word's root, the code of its class's length-lex minimum, with
    the mus and merged roots ``_merge`` reads for level L+1.

    E_k, the congruence on words of length at most k, is generated by
    E_(k-1), by c.x ~ c.r and x.c ~ r.c for each word x with E_(k-1) root r
    and letter c, and by the instances whose longer side has length k: an
    instance in a nonempty context is c.g or g.c for a generator g of
    E_(k-1).  So the table for L is the one for L-1 plus level L, which
    ``_merge`` unites per class, not per word, toward smaller codes.  A
    bound above the kept level continues from it; one below starts again at
    level 1.  A level that merges nothing grows the table in place, so a
    caller must not keep the array past its call.
    """
    if alphabet < 1 or max_len < 1:
        raise ValueError("alphabet and length bound must be positive")
    sizes = _sizes(alphabet, max_len, budget)
    if sizes[-1] > alphabet * (budget + 1):
        raise BudgetError(f"the words of length at most {max_len} exceed the budget {budget}")
    if sizes[-1] > budget:
        raise BudgetError(f"{sizes[-1]} words exceed the budget {budget}")
    start = 0, array("I"), [], []
    k, roots, mus, merged = _LEVELS.pop((sys, alphabet), start)
    if k > max_len:
        k, roots, mus, merged = start
    while k < max_len:
        k += 1
        parent, rows, _ = _merge(sys, alphabet, k, roots, mus, merged, sizes)
        low = sizes[k - 2] if k > 1 else -1
        table = array("I", map(parent.get, roots, roots)) if parent else roots
        fresh = {q: array("I", map(parent.get, row, row) if parent else row).tobytes() for q, row in rows.items()}
        table.frombytes(b"".join(map(fresh.__getitem__, roots[low:] if k > 1 else (-1,))))
        roots, mus, merged = table, [q for q in rows if q >= low], [x for x in parent if x < sizes[k - 1]]
    while len(_LEVELS) >= 64:
        del _LEVELS[next(iter(_LEVELS))]
    _LEVELS[sys, alphabet] = k, roots, mus, merged
    return roots, mus, merged


def count_classes(
    sys: IdentitySystem, alphabet: int, max_len: int, budget: int = WORD_BUDGET
) -> tuple[int, list[Word]]:
    """Class count plus length-lex minimal representatives, the distinct roots."""
    reps = [_decode(c, alphabet) for c in sorted(set(_class_table(sys, alphabet, max_len, budget)[0]))]
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
    return _decode(_class_table(sys, alphabet, max_len, budget)[0][_code(w, alphabet)], alphabet)


def render_word(w: Word) -> str:
    return ".".join(str(x) for x in w)


def stabilization(
    sys: IdentitySystem, alphabet: int, max_len: int, budget: int = WORD_BUDGET
) -> dict[str, object]:
    """Counts at L and L+1 with the agreement flag the CLI reports, and the
    first ``SHOWN_REPRESENTATIVES`` representatives; the L+1 figures are None
    when only that table is over the word budget."""
    roots, mus, merged = _class_table(sys, alphabet, max_len, budget)
    classes = sorted(set(roots))
    sizes = _sizes(alphabet, max_len + 1, budget)
    count_next = None
    if sizes[-1] <= budget:
        # level L+1 on the kept level, counted without building its table
        count_next = len(classes) + _merge(sys, alphabet, max_len + 1, roots, mus, merged, sizes)[2]
    return {
        "L": max_len,
        "count": len(classes),
        "count_next": count_next,
        "stable": None if count_next is None else len(classes) == count_next,
        "words_next": sizes[-1],
        "budget": budget,
        "representatives": [_decode(c, alphabet) for c in classes[:SHOWN_REPRESENTATIVES]],
        "target": sys.target,
    }
