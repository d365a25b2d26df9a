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
from itertools import compress, islice
from typing import Iterator

from .cardinal import OMEGA, Card, check_limit_count, fin, render
from .record import record
from .report import Budget

Word = tuple[int, ...]
Run = tuple[int, int, int]

NODE_BUDGET = Budget("node budget", 200_000, "nodes")
SHOWN_REPRESENTATIVES = 20


@record
class Schema:
    """One parameterized identity; ``kind`` selects the instance generator."""

    kind: str
    param: int | None = None


@record
class IdentitySystem:
    kind: str  # "lmt" | "lms"
    schemas: tuple[Schema, ...]
    target: Card
    n: int | None = None
    reading: str = "gt"

    def describe(self) -> str:
        tag = " w-case" if self.n is None else f" n={self.n}"
        return f"{self.kind}{tag}, target {render(self.target)}"


def lmt(lam: Card) -> IdentitySystem:
    """Identity family sizing the limit models over a single type."""
    check_limit_count(lam)
    if lam.finite:
        n = lam.value
        schemas = (Schema("single_rename", n), Schema("idem_below", n), Schema("drop_to_min"))
        return IdentitySystem("lmt", schemas, fin(n), n=n)
    return IdentitySystem("lmt", (Schema("idem_all"), Schema("drop_to_min"), Schema("pair_to_run")), OMEGA)


def lms(lam: Card, reading: str = "gt") -> IdentitySystem:
    """Identity family sizing the limit models over a domination sequence;
    the family is the same for every sequence length."""
    if reading not in ("gt", "geq"):
        raise ValueError("reading must be 'gt' or 'geq'")
    check_limit_count(lam)
    if lam.finite:
        n = lam.value
        schemas = (Schema("single_rename", n), Schema("ascend_to_power"))
        return IdentitySystem("lms", schemas, fin(n), n=n)
    schemas = (Schema("ascend_to_power"), Schema("ascend_to_run"), Schema("ascend_to_capped_run"))
    return IdentitySystem("lms", schemas, OMEGA, reading=reading)


def _level_blocks(sys: IdentitySystem, alphabet: int, k: int) -> Iterator[tuple[tuple[str, object], int, Run]]:
    """The ground instances whose longer side has exactly k letters, in
    blocks (prefixes, last, run): each word u.last, u in the prefix family,
    is equated with the run.  A family is one word ("word", u), or the words
    of k-1 letters whose letters all lie above t ("above", t) or below t
    ("below", t), or that start with f ("from", f).  A run (f, top, n) is f,
    f+1, .., top padded with copies of top to n letters.  A block may repeat
    an instance or join a word to itself.
    """
    a, s = alphabet, k - 1
    for schema in sys.schemas:
        kind, n = schema.kind, schema.param
        if kind == "single_rename":
            # n-1 ~ m for every m >= n
            if k == 1:
                yield from ((("word", ()), n - 1, (m, m, 1)) for m in range(n, a))
        elif kind in ("idem_below", "idem_all"):
            if k == 2:
                yield from ((("word", (m,)), m, (m, m, 1)) for m in range(a if n is None else min(n, a)))
        elif kind == "pair_to_run":
            # a jump up fills in as the run f..f+s, the first k letters of the run from f up
            if k >= 2:
                yield from ((("word", (f,)), f + s, (f, a - 1, k)) for f in range(a - s))
        elif kind == "drop_to_min":
            # a strictly higher prefix collapses onto its last letter
            if k >= 2:
                yield from ((("above", last), last, (last, last, 1)) for last in range(a - 1))
        elif kind == "ascend_to_power":
            # a word topped by a strict maximum collapses to that letter repeated
            if k >= 2:
                yield from ((("below", last), last, (last, last, k)) for last in range(1, a))
        elif kind in ("ascend_to_run", "ascend_to_capped_run"):
            # the capped run's first side condition is read as first+s > last
            # ("gt") or >= ("geq"); combined with last = first + t and s > t
            # both readings coincide
            if k >= 2:
                for f in range(a):
                    # a plain run stops at f+s <= last, before the cap
                    lasts = range(f + s, a) if kind == "ascend_to_run" else range(f + 1, min(f + s, a))
                    yield from ((("from", f), last, (f, last, k)) for last in lasts)
        else:
            raise ValueError(f"unknown schema kind {kind!r}")


class _Automaton:
    """The classes of E_1, E_2, .. for one system over one alphabet.

    E_k, the congruence on words of length at most k, is generated by
    E_(k-1), by c.x ~ c.r and x.c ~ r.c for each word x with E_(k-1) root r
    and letter c, and by the instances whose longer side has k letters.  A
    word x.c of k letters lies in the class of r.c, r the root of x at k-1,
    so level k adds a row of nodes q.c only for each root q of k-1 letters:
    node 0 is the empty word and q.c is ``first[q] + c``.  Unions point at
    the smaller node, so a class's root is its length-lex least word, and a
    level costs its classes, not its words.  Roots do not fold over letters
    (root_L(x.c) = root_L(root_(L-1)(x).c) holds, root_L(root_L(x).c) may
    not), so a level reads the roots as they stood one level down: ``lvl``
    and ``log`` keep the level a node merged at (0 while a root) and its root
    there, and ``left[first[q] + c]`` the root of c.q at level |q|+1.
    """

    def __init__(self, sys: IdentitySystem, alphabet: int) -> None:
        self.sys, self.a = sys, alphabet
        # per node: its prefix's root, its row's first node (-1: no row), left, lvl and log
        self.pre, self.first, self.left, self.lvl, self.log = (array("i", [v]) for v in (0, -1, 0, 0, 0))
        self.made, self.counts = array("i", [1]), array("i", [0])  # nodes (with the empty word), classes
        self.fresh, self.rows = [0], []  # the roots of the last level's length, and the last rows
        self.merged: list[int] = []  # the nodes that merged at the last level, their roots logged
        self.families: dict[object, tuple[int, dict[int, int]]] = {}  # level, {root: letter statistic}
        self.runs: dict[tuple[int, int], tuple[int, int]] = {}  # level, the root of the run's prefix

    def root(self, n: int, level: int) -> int:
        while 0 < self.lvl[n] <= level:
            n = self.log[n]
        return n

    def walk(self, w: Word) -> int:
        """The root of w at level |w|: each prefix's node, rooted at its own length."""
        r = 0
        for j, c in enumerate(w, 1):
            r = self.root(self.first[r] + c, j)
        return r

    def word(self, n: int) -> Word:
        letters = []
        while n:
            letters.append(n - self.first[self.pre[n]])
            n = self.pre[n]
        return tuple(reversed(letters))

    def roots(self, level: int) -> Iterator[int]:  # the classes at a level, in length-lex order
        return (n for n in range(1, self.made[level]) if not 0 < self.lvl[n] <= level)

    def grow(self, max_len: int) -> None:
        """Build the levels up to ``max_len``, each checked against the node budget before it
        allocates; a level counts at least one node per letter, so a long bound is refused at once."""
        NODE_BUDGET.check(self.a * max_len)
        known = min(max_len + 1, len(self.made))
        # the first built level over the budget, if any, else the last one asked for
        over = bisect_right(self.made, NODE_BUDGET.limit + 1, 0, known)
        NODE_BUDGET.check(self.made[min(over, known - 1)] - 1)
        for k in range(len(self.made), max_len + 1):
            NODE_BUDGET.check(len(self.pre) - 1 + self.a * len(self.fresh))
            self._level(k)

    def _family(self, key: object, level: int) -> dict[int, int]:
        """The roots at ``level`` of the family's words of that many letters, each with a statistic
        of the class's words: the least greatest letter for "below", else the greatest least letter."""
        fold, pick = (max, min) if key == "below" else (min, max)
        have, state = self.families.get(key, (0, {}))
        if not have:
            # the letters' roots at level 1; a later letter overwrites an earlier one
            lvl, log = self.lvl, self.log
            letters = [key[1]] if isinstance(key, tuple) else range(self.a)[:: -1 if key == "below" else 1]
            have, state = 1, {(log[1 + c] if lvl[1 + c] == 1 else 1 + c): c for c in letters}
        for i in range(have + 1, level + 1):
            # the words u.c of i letters lie in the classes of the nodes q.c
            grown: dict[int, int] = {}
            for q, v in state.items():
                for c in range(self.a):
                    r, w = self.root(self.first[q] + c, i), fold(v, c)
                    grown[r] = pick(grown.get(r, w), w)
            state = grown
        self.families[key] = level, state
        return state

    def _run_node(self, f: int, top: int, n: int) -> int:
        """The node of the run (f, top, n) at level n; each run keeps its prefix's root."""
        have, r = self.runs.get((f, top), (0, 0))
        for i in range(have + 1, n):
            r = self.root(self.first[r] + min(f + i - 1, top), i)
        self.runs[f, top] = n - 1, r
        return self.first[r] + min(f + n - 1, top)

    def _level(self, k: int) -> None:
        a, pre, first, left, lvl, log = self.a, self.pre, self.first, self.left, self.lvl, self.log
        # the last rows' left roots, c.q at level k-1, read before this level's unions
        for q in self.rows:
            fq, pq = first[q], first[pre[q]]
            row = list(range(fq, fq + a)) if q == 0 else [first[u] + q - pq for u in left[pq : pq + a]]
            while any(map(lvl.__getitem__, row)):
                row = [log[n] if lvl[n] else n for n in row]
            left[fq : fq + a] = array("i", row)
        self.rows = rows = self.fresh
        start, grown = len(pre), a * len(rows)
        if rows:
            for i, q in enumerate(rows):
                first[q] = start + a * i
            pre.extend(q for q in rows for _ in range(a))
            first.extend(array("i", [-1]) * grown)
            for arr in (left, lvl, log):
                arr.extend(array("i", bytes(4 * grown)))
        ii, jj = array("i"), array("i")  # the pairs of nodes to unite
        # c.x ~ c.r and, below k-1 letters, x.c ~ r.c for each node x that
        # merged at k-1 into r; any other word reaches its class through these.
        # c.x is the node first[left[px + c]] + x - px, px = first[pre[x]], so
        # the merges with the same two prefixes share their distinct left roots
        merges: dict[tuple[int, int], array] = {}
        for x in self.merged:
            r = log[x]
            key = first[pre[x]], first[pre[r]]
            if key not in merges:
                merges[key] = array("i")
            merges[key].append(x)
            if first[x] >= 0:
                ii.extend(range(first[x], first[x] + a))
                jj.extend(range(first[r], first[r] + a))
        for (px, pr), xs in merges.items():
            for u, v in set(zip(left[px : px + a], left[pr : pr + a])):
                ii.extend(map((first[u] - px).__add__, xs))
                jj.extend(map((first[v] - pr).__add__, map(log.__getitem__, xs)))
        # one pair per class of a family's words, not per word: a family's blocks wait for its
        # roots as (letter bound, last, run node); the words from a letter are bounded by -1
        blocks: dict[object, array] = {}
        for (kind, p), last, (f, top, n) in _level_blocks(self.sys, a, k):
            j = 1 + f if n == 1 else self._run_node(f, top, n)
            if kind == "word":
                ii.append(first[self.walk(p)] + last)
                jj.append(j)
                continue
            key = ("from", p) if kind == "from" else kind
            if key not in blocks:
                blocks[key] = array("i")
            blocks[key].extend((-1 if kind == "from" else p, last, j))
        for key, triples in blocks.items():
            bounds, lasts, js = triples[::3], triples[1::3], triples[2::3]
            for q, v in self._family(key, k - 1).items():
                # "above t" holds for the classes with v > t, "below t" for v < t
                fits = list(map(v.__lt__ if key == "below" else v.__gt__, bounds))
                ii.extend(compress(map(first[q].__add__, lasts), fits))
                jj.extend(compress(js, fits))
        # unions point at the smaller node; a loser logs level k and its parent, halved within the level
        xs: list[int] = []
        for i, j in zip(ii, jj):
            while lvl[i]:
                p = log[i]
                if lvl[p] == k == lvl[i]:
                    log[i] = p = log[p]
                i = p
            while lvl[j]:
                p = log[j]
                if lvl[p] == k == lvl[j]:
                    log[j] = p = log[p]
                j = p
            if i != j:
                i, j = max(i, j), min(i, j)
                lvl[i], log[i] = k, j
                xs.append(i)
        xs.sort()  # ascending, a parent's root is final before its children's
        for x in xs:
            if lvl[log[x]] == k:
                log[x] = log[log[x]]
        self.merged = xs
        self.counts.append(self.counts[-1] + grown - len(xs))
        self.made.append(len(pre))
        self.fresh = [n for n in range(start, len(pre)) if not lvl[n]]


# the automaton per (system, alphabet), grown to the longest bound asked for;
# at most 64, the least recently used dropped (none depends on the node budget)
_AUTOMATA: dict[tuple[IdentitySystem, int], _Automaton] = {}


def _automaton(sys: IdentitySystem, alphabet: int, max_len: int) -> _Automaton:
    if alphabet < 1 or max_len < 1:
        raise ValueError("alphabet and length bound must be positive")
    auto = _AUTOMATA.pop((sys, alphabet), None) or _Automaton(sys, alphabet)
    auto.grow(max_len)
    while len(_AUTOMATA) >= 64:
        del _AUTOMATA[next(iter(_AUTOMATA))]
    _AUTOMATA[sys, alphabet] = auto
    return auto


def count_classes(sys: IdentitySystem, alphabet: int, max_len: int) -> tuple[int, list[Word]]:
    """Class count plus length-lex minimal representatives, the roots at the bound."""
    auto = _automaton(sys, alphabet, max_len)
    reps = [auto.word(n) for n in auto.roots(max_len)]
    return len(reps), reps


def normal_form(sys: IdentitySystem, w: Word, max_len: int, alphabet: int | None = None) -> Word:
    """Length-lex minimum of w's class at the given bound; idempotent."""
    if not w:
        raise ValueError("words are nonempty")
    if len(w) > max_len:
        raise ValueError("word exceeds the length bound")
    alphabet = max(w) + 1 if alphabet is None else alphabet
    if any(not (0 <= letter < alphabet) for letter in w):
        raise ValueError("letter outside the alphabet")
    auto = _automaton(sys, alphabet, max_len)
    return auto.word(auto.root(auto.walk(w), max_len))


def render_word(w: Word) -> str:
    return ".".join(str(x) for x in w)


def stabilization(sys: IdentitySystem, alphabet: int, max_len: int) -> dict[str, object]:
    """Counts at L and L+1 with the agreement flag the CLI reports, and the first
    ``SHOWN_REPRESENTATIVES`` representatives; the L+1 figures are None if only L+1 is over the budget."""
    auto = _automaton(sys, alphabet, max_len)
    count, count_next = auto.counts[max_len], None
    built = len(auto.made) > max_len + 1  # the nodes of level L+1, counted before it allocates
    nodes = auto.made[max_len + 1] if built else len(auto.pre) + alphabet * len(auto.fresh)
    nodes_next = max(nodes - 1, alphabet * (max_len + 1))
    if nodes_next <= NODE_BUDGET.limit:
        auto.grow(max_len + 1)
        count_next = auto.counts[max_len + 1]
    reps = [auto.word(n) for n in islice(auto.roots(max_len), SHOWN_REPRESENTATIVES)]
    stable = None if count_next is None else count == count_next
    return {"L": max_len, "count": count, "count_next": count_next, "stable": stable, "nodes_next": nodes_next,
            "representatives": reps, "target": sys.target}
