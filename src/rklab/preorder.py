"""Finite preorders, their quotient posets, and the premodel axiom checker.

A preorder on 0..n-1 is stored as bitset rows: bit j of ``rows[i]``
says i <= j for j != i, and the diagonal is implied, so memory grows
with the pairs present, not with n^2.  A ``Preorder`` keeps the
reflexive-transitive closure of the rows it is built from, so every
preorder is closed.  The quotient identifies mutually related elements
(the strongly connected components of the relation) and is always a
genuine partial order.  Heights and widths are computed exactly on the
quotient, which is what the chain/antichain definitions range over once
equivalent elements are ruled out.
"""
from __future__ import annotations

from .cardinal import CONTINUUM, OMEGA, ZERO, Card, render
from .record import record
from .report import Report, ReportBuilder


def _bits(x: int) -> list[int]:
    """The positions of the set bits of ``x``, ascending."""
    s = bin(x)[:1:-1]
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


def _mask(positions) -> int:
    """The int whose set bits are ``positions``, built in linear time."""
    positions = list(positions)
    buf = bytearray(max(positions, default=-1) // 8 + 1)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


@record
class Preorder:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative element count")
        if len(self.rows) != self.n or any(
            r >> self.n or r >> i & 1 for i, r in enumerate(self.rows)
        ):
            raise ValueError("relation shape does not match element count")
        # the closure: each row grows breadth first, ORing in the rows of
        # the elements it newly reaches until it reaches nothing new
        rows = list(self.rows)
        for i, row in enumerate(rows):
            reach = frontier = row
            while frontier:
                new = 0
                for j in _bits(frontier):
                    new |= rows[j]
                frontier = new & ~reach
                reach |= new
            rows[i] = reach ^ 1 << i if reach >> i & 1 else reach
        object.__setattr__(self, "rows", tuple(rows))

    def le(self, i: int, j: int) -> bool:
        return i == j or bool(self.rows[i] >> j & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.rows) for j in sorted(_bits(row) + [i])]


def from_pairs(n: int, pairs) -> Preorder:
    succ: dict[int, list[int]] = {}
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i},{j}) out of range for {n} elements")
        if i != j:
            succ.setdefault(i, []).append(j)
    rows = [0] * n
    for i, js in succ.items():
        rows[i] = _mask(js)
    return Preorder(n, tuple(rows))


def induced(p: Preorder, elements: list[int]) -> Preorder:
    """The relation restricted to ``elements``, renumbered in list order."""
    pos = {e: a for a, e in enumerate(elements)}
    rows = tuple(
        _mask(pos[j] for j in _bits(p.rows[e]) if j in pos) for e in elements
    )
    return Preorder(len(elements), rows)


@record
class QuotientPoset:
    """Partition into mutual-domination classes plus the induced order.

    Classes are numbered in the order of their least element, which
    comes first in each.  Bit b of ``above[a]`` says class a lies
    strictly below class b; the order is reflexive, so the diagonal is
    not stored.  ``index[e]`` is the class of element e.
    """

    classes: tuple[tuple[int, ...], ...]
    above: tuple[int, ...]
    index: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    def le(self, a: int, b: int) -> bool:
        return a == b or bool(self.above[a] >> b & 1)

    def class_of(self, element: int) -> int:
        return self.index[element]

    def minima(self) -> list[int]:
        covered = 0
        for row in self.above:
            covered |= row
        return [i for i in range(self.size) if not covered >> i & 1]

    def maxima(self) -> list[int]:
        return [i for i, row in enumerate(self.above) if not row]

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for a, row in enumerate(self.above):
            if row:  # a class with nothing above it covers nothing
                through = 0
                for c in _bits(row):
                    through |= self.above[c]
                out.extend((a, b) for b in _bits(row & ~through))
        return out


def sim_quotient(p: Preorder) -> QuotientPoset:
    n = p.n
    rows = p.rows
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for i, row in enumerate(rows):
        if class_of[i] >= 0:
            continue
        # an element with an empty row is alone in its class, below nothing
        members = (i, *(j for j in _bits(row) if rows[j] >> i & 1)) if row else (i,)
        for j in members:
            class_of[j] = len(classes)
        classes.append(members)
    above = tuple(
        _mask(b for b in (class_of[j] for j in _bits(rows[members[0]])) if b != a)
        if rows[members[0]] else 0
        for a, members in enumerate(classes)
    )
    return QuotientPoset(tuple(classes), above, tuple(class_of))


def components(q: QuotientPoset) -> list[tuple[list[int], list[int]]]:
    """The connected components of the order, in the order of their least
    element: each as its elements and, ascending, the least element of
    each of its maximal classes.

    Comparable classes lie below one maximal class, so joining each class
    to the maximal classes above it connects each component.
    """
    root = list(range(q.size))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    tops = _mask(q.maxima())
    for a, row in enumerate(q.above):
        for m in _bits(row & tops):
            root[find(m)] = find(a)
    comps: dict[int, tuple[list[int], list[int]]] = {}
    for c, members in enumerate(q.classes):
        elements, reps = comps.setdefault(find(c), ([], []))
        elements.extend(members)
        if not q.above[c]:
            reps.append(members[0])
    return list(comps.values())


def cones(p: Preorder, a: int) -> tuple[frozenset[int], frozenset[int]]:
    if not (0 <= a < p.n):
        raise IndexError(f"element {a} out of range")
    lower = frozenset(x for x in range(p.n) if p.le(x, a))
    upper = frozenset(_bits(p.rows[a])) | {a}
    return lower, upper


def ranks(q: QuotientPoset) -> list[int]:
    """Per class, the most classes strictly below it on one chain."""
    # a class has more classes above it than any class above it: this
    # order puts every class with a class above it before those classes
    order = sorted((c for c in range(q.size) if q.above[c]), key=lambda c: -q.above[c].bit_count())
    rank = [0] * q.size
    for c in order:
        for d in _bits(q.above[c]):
            if rank[c] + 1 > rank[d]:
                rank[d] = rank[c] + 1
    return rank


def height(q: QuotientPoset) -> int:
    """Longest chain of pairwise non-equivalent elements (element count)."""
    return max(ranks(q), default=-1) + 1


def width(q: QuotientPoset) -> int:
    """Maximum antichain of the quotient.

    By Dilworth's theorem this is the fewest chains that cover the
    quotient, which is its class count minus a maximum matching of the
    pairs a < b (Fulkerson 1956): each class that no matched pair enters
    starts one chain.  The matching grows by augmenting paths, searched
    depth first on an explicit stack.
    """
    k = q.size
    above = [_bits(row) if row else () for row in q.above]
    below = [-1] * k  # below[b] is the class matched to b, if any
    seen = [-1] * k  # seen[b] == a: b was tried in the search from a
    for a in (c for c in range(k) if above[c]):  # a class with none above it matches none
        stack, via = [(a, iter(above[a]))], []
        while stack:
            u, options = stack[-1]
            b = next((b for b in options if seen[b] != a), None)
            if b is None:
                stack.pop()
                del via[-1:]  # the b that led to the dead end, if any
            elif below[b] < 0:
                # flip the path: each stacked class takes the b it went through
                for (v, _), c in zip(stack, via + [b]):
                    below[c] = v
                break
            else:
                seen[b] = a
                via.append(b)
                stack.append((below[b], iter(above[below[b]])))
    return below.count(-1)


def is_upward_directed(q: QuotientPoset) -> bool:
    """Every pair has a common upper bound; for a finite preorder, that is
    a single maximal class."""
    return len(q.maxima()) <= 1


# -- premodel profiles -------------------------------------------------------

@record
class ConeCase:
    """One claimed joint upper cone: its size, co-size, and whether it is X."""

    cone_card: Card
    complement_card: Card
    equals_x: bool


@record
class PremodelProfile:
    size: Card
    directed: bool
    lower_cone_card: Card
    class_card: Card
    joint_upper_cone_cases: tuple[ConeCase, ...]
    height: Card


def classify_cone_case(case: ConeCase) -> int | None:
    """Which of the four admissible joint-upper-cone shapes this is.

    1: countable cone; 2: continual cone equal to the whole set;
    3: proper continual cone with countable complement; 4: proper
    continual cone with continual complement.  None when inconsistent.
    """
    cards = (case.cone_card, case.complement_card)
    if case.equals_x:
        return 2 if cards == (CONTINUUM, ZERO) else None
    return {(OMEGA, CONTINUUM): 1, (CONTINUUM, OMEGA): 3, (CONTINUUM, CONTINUUM): 4}.get(cards)


def check_premodel(profile: PremodelProfile) -> Report:
    """Validate the premodel axioms on a symbolic profile.

    The profile is a witness shape, not a materialised object: the
    checker validates that the claimed cardinalities have the axioms'
    form.  On full success the report also records the two derived
    facts: the width is continual and the set is upward directed.
    """
    rb = ReportBuilder("premodel")
    rb.check(
        "size-continual",
        profile.size == CONTINUUM,
        f"size = {render(profile.size)}, must be c",
    )
    rb.check("upward-directed", profile.directed, "set must be upward directed")
    rb.check(
        "lower-cones-countable",
        profile.lower_cone_card == OMEGA,
        f"|lower cone| = {render(profile.lower_cone_card)}, must be w",
    )
    rb.check(
        "sim-classes-countable",
        profile.class_card == OMEGA,
        f"|class| = {render(profile.class_card)}, must be w",
    )
    for idx, case in enumerate(profile.joint_upper_cone_cases):
        shape = classify_cone_case(case)
        rb.check(
            f"upper-cone-case-{idx}",
            shape is not None,
            f"case {idx} matches shape {shape}"
            if shape is not None
            else f"case {idx} fits none of the four admissible shapes",
        )
    rb.check(
        "height-countable",
        profile.height == OMEGA,
        "height must be w; a finite height is impossible"
        if profile.height.finite
        else f"height = {render(profile.height)}, must be w",
    )
    if rb.done().ok:
        rb.fact("width", render(CONTINUUM))
        rb.fact("upward-directed", "confirmed")
    return rb.done()


# -- helpers used by tests and the demo script ------------------------------

def random_preorder(rng, n: int, density: float = 0.3) -> Preorder:
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    return from_pairs(n, pairs)
