"""Finite preorders, their quotient posets, and the premodel axiom checker.

A preorder on 0..n-1 is stored as bitset rows: bit j of ``rows[i]``
says i <= j for j != i, and the diagonal is the one mask ``loops``, so
memory grows with the pairs present, not with n^2.  ``close`` takes the
reflexive-transitive closure and everything downstream requires closed
input.  The quotient identifies mutually related elements (the strongly
connected components of the relation) and is always a genuine partial
order.  Heights and widths are computed exactly on the quotient, which
is what the chain/antichain definitions range over once equivalent
elements are ruled out.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cardinal import CONTINUUM, OMEGA, ZERO, Card, card_eq, render
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


@dataclass(frozen=True)
class Preorder:
    n: int
    rows: tuple[int, ...]
    loops: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative element count")
        if len(self.rows) != self.n or any(
            r >> self.n or r >> i & 1 for i, r in enumerate(self.rows)
        ) or self.loops >> self.n:
            raise ValueError("relation shape does not match element count")

    def le(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j if i != j else self.loops >> i) & 1)

    def sim(self, i: int, j: int) -> bool:
        return self.le(i, j) and self.le(j, i)

    def pairs(self) -> list[tuple[int, int]]:
        loops = set(_bits(self.loops))
        return [
            (i, j)
            for i, row in enumerate(self.rows)
            for j in sorted(_bits(row) + [i] * (i in loops))
        ]


def from_pairs(n: int, pairs) -> Preorder:
    succ: list[list[int]] = [[] for _ in range(n)]
    loops = []
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i},{j}) out of range for {n} elements")
        if i == j:
            loops.append(i)
        else:
            succ[i].append(j)
    return Preorder(n, tuple(_mask(js) for js in succ), _mask(loops))


def close(p: Preorder) -> Preorder:
    """Reflexive-transitive closure; idempotent.

    Each row grows breadth first: the rows of the elements it newly
    reaches are ORed in until it reaches nothing new.
    """
    rows = list(p.rows)
    for i, row in enumerate(rows):
        reach = frontier = row
        while frontier:
            new = 0
            for j in _bits(frontier):
                new |= rows[j]
            frontier = new & ~reach
            reach |= new
        rows[i] = reach ^ 1 << i if reach >> i & 1 else reach
    return Preorder(p.n, tuple(rows), (1 << p.n) - 1)


def is_closed(p: Preorder) -> bool:
    if p.loops != (1 << p.n) - 1:
        return False
    rows = p.rows
    for i, row in enumerate(rows):
        reached = 0
        for j in _bits(row):
            reached |= rows[j]
        extra = reached & ~row  # i itself may appear, through i <= j <= i
        if extra and (extra & (extra - 1) or extra.bit_length() != i + 1):
            return False
    return True


def _require_closed(p: Preorder) -> None:
    if not is_closed(p):
        raise ValueError("preorder must be reflexively and transitively closed")


def induced(p: Preorder, elements: list[int]) -> Preorder:
    """The relation restricted to ``elements``, renumbered in list order."""
    pos = {e: a for a, e in enumerate(elements)}
    rows = tuple(
        _mask(pos[j] for j in _bits(p.rows[e]) if j in pos) for e in elements
    )
    return Preorder(
        len(elements), rows, _mask(a for a, e in enumerate(elements) if p.loops >> e & 1)
    )


@dataclass(frozen=True)
class QuotientPoset:
    """Partition into mutual-domination classes plus the induced order.

    Bit b of ``above[a]`` says class a lies strictly below class b; the
    order is reflexive, so the diagonal is not stored.
    """

    classes: tuple[tuple[int, ...], ...]
    above: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    def le(self, a: int, b: int) -> bool:
        return a == b or bool(self.above[a] >> b & 1)

    def class_of(self, element: int) -> int:
        for ci, members in enumerate(self.classes):
            if element in members:
                return ci
        raise ValueError(f"element {element} not in any class")

    def minima(self) -> list[int]:
        covered = 0
        for row in self.above:
            covered |= row
        return [i for i in range(self.size) if not covered >> i & 1]

    def maxima(self) -> list[int]:
        return [i for i, row in enumerate(self.above) if not row]

    def least(self) -> int | None:
        # every class lies above some minimal one, so a sole minimum is least
        minima = self.minima()
        return minima[0] if len(minima) == 1 else None

    def greatest(self) -> int | None:
        maxima = self.maxima()
        return maxima[0] if len(maxima) == 1 else None

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for a, row in enumerate(self.above):
            through = 0
            for c in _bits(row):
                through |= self.above[c]
            out.extend((a, b) for b in _bits(row & ~through))
        return out


def sim_quotient(p: Preorder) -> QuotientPoset:
    _require_closed(p)
    n = p.n
    rows = p.rows
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for i in range(n):
        if class_of[i] >= 0:
            continue
        members = (i, *(j for j in _bits(rows[i]) if rows[j] >> i & 1))
        for j in members:
            class_of[j] = len(classes)
        classes.append(members)
    above = tuple(
        _mask(b for b in (class_of[j] for j in _bits(rows[members[0]])) if b != a)
        for a, members in enumerate(classes)
    )
    return QuotientPoset(tuple(classes), above)


def cones(p: Preorder, a: int) -> tuple[frozenset[int], frozenset[int]]:
    if not (0 <= a < p.n):
        raise IndexError(f"element {a} out of range")
    lower = frozenset(x for x in range(p.n) if p.le(x, a))
    upper = frozenset(_bits(p.rows[a])) | ({a} if p.le(a, a) else set())
    return lower, upper


def ranks(q: QuotientPoset) -> list[int]:
    """Per class, the most classes strictly below it on one chain."""
    # a class has more classes above it than any class above it: this
    # order puts every class before the classes above it
    order = sorted(range(q.size), key=lambda c: -q.above[c].bit_count())
    rank = [0] * q.size
    for c in order:
        for d in _bits(q.above[c]):
            if rank[c] + 1 > rank[d]:
                rank[d] = rank[c] + 1
    return rank


def height(p: Preorder) -> int:
    """Longest chain of pairwise non-equivalent elements (element count)."""
    return max(ranks(sim_quotient(p)), default=-1) + 1


def width(p: Preorder) -> int:
    """Maximum antichain of the quotient.

    By Dilworth's theorem this is the fewest chains that cover the
    quotient, which is its class count minus a maximum matching of the
    pairs a < b (Fulkerson 1956): each class that no matched pair enters
    starts one chain.  The matching grows by augmenting paths, searched
    depth first on an explicit stack.
    """
    q = sim_quotient(p)
    k = q.size
    above = [_bits(row) for row in q.above]
    below = [-1] * k  # below[b] is the class matched to b, if any
    seen = [-1] * k  # seen[b] == a: b was tried in the search from a
    for a in range(k):
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


def is_upward_directed(p: Preorder) -> bool:
    """Every pair has a common upper bound; for a finite preorder, that is
    a single maximal class."""
    return len(sim_quotient(p).maxima()) <= 1


# -- premodel profiles -------------------------------------------------------

@dataclass(frozen=True)
class ConeCase:
    """One claimed joint upper cone: its size, co-size, and whether it is X."""

    cone_card: Card
    complement_card: Card
    equals_x: bool


@dataclass(frozen=True)
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
    exact = lambda a, b: card_eq(a, b, ch=False)
    if case.equals_x:
        if exact(case.cone_card, CONTINUUM) and exact(case.complement_card, ZERO):
            return 2
        return None
    if exact(case.cone_card, OMEGA) and exact(case.complement_card, CONTINUUM):
        return 1
    if exact(case.cone_card, CONTINUUM) and exact(case.complement_card, OMEGA):
        return 3
    if exact(case.cone_card, CONTINUUM) and exact(case.complement_card, CONTINUUM):
        return 4
    return None


def check_premodel(profile: PremodelProfile) -> Report:
    """Validate the premodel axioms on a symbolic profile.

    The profile is a witness shape, not a materialised object: the
    checker validates that the claimed cardinalities have the axioms'
    form.  On full success the report also records the two derived
    facts: the width is continual and the set is upward directed.
    """
    rb = ReportBuilder("premodel")
    exact = lambda a, b: card_eq(a, b, ch=False)
    rb.check(
        "size-continual",
        exact(profile.size, CONTINUUM),
        f"size = {render(profile.size)}, must be c",
    )
    rb.check("upward-directed", profile.directed, "set must be upward directed")
    rb.check(
        "lower-cones-countable",
        exact(profile.lower_cone_card, OMEGA),
        f"|lower cone| = {render(profile.lower_cone_card)}, must be w",
    )
    rb.check(
        "sim-classes-countable",
        exact(profile.class_card, OMEGA),
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
    if profile.height.finite:
        rb.check(
            "height-countable", False, "height must be w; a finite height is impossible"
        )
    else:
        rb.check(
            "height-countable",
            exact(profile.height, OMEGA),
            f"height = {render(profile.height)}, must be w",
        )
    report = rb.done()
    if report.ok:
        rb2 = ReportBuilder("premodel")
        for e in report.entries:
            rb2.check(e.code, e.ok, e.detail)
        rb2.fact("width", render(CONTINUUM))
        rb2.fact("upward-directed", "confirmed")
        return rb2.done()
    return report


# -- helpers used by tests and the demo script ------------------------------

def random_preorder(rng, n: int, density: float = 0.3) -> Preorder:
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    return close(from_pairs(n, pairs))
