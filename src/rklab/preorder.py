"""Finite preorders, their quotient posets, and the premodel axiom checker.

A preorder is an n x n boolean relation; ``close`` takes the
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


@dataclass(frozen=True)
class Preorder:
    n: int
    rel: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative element count")
        if len(self.rel) != self.n or any(len(r) != self.n for r in self.rel):
            raise ValueError("relation shape does not match element count")

    def le(self, i: int, j: int) -> bool:
        return self.rel[i][j]

    def sim(self, i: int, j: int) -> bool:
        return self.rel[i][j] and self.rel[j][i]

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.rel[i][j]]


def from_pairs(n: int, pairs) -> Preorder:
    rel = [[False] * n for _ in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i},{j}) out of range for {n} elements")
        rel[i][j] = True
    return Preorder(n, tuple(tuple(r) for r in rel))


def close(p: Preorder) -> Preorder:
    """Reflexive-transitive closure (Warshall); idempotent."""
    rel = [list(row) for row in p.rel]
    n = p.n
    for i in range(n):
        rel[i][i] = True
    for k in range(n):
        rk = rel[k]
        for i in range(n):
            if rel[i][k]:
                ri = rel[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return Preorder(n, tuple(tuple(r) for r in rel))


def is_closed(p: Preorder) -> bool:
    n = p.n
    for i in range(n):
        if not p.rel[i][i]:
            return False
    for i in range(n):
        for k in range(n):
            if p.rel[i][k]:
                for j in range(n):
                    if p.rel[k][j] and not p.rel[i][j]:
                        return False
    return True


def _require_closed(p: Preorder) -> None:
    if not is_closed(p):
        raise ValueError("preorder must be reflexively and transitively closed")


@dataclass(frozen=True)
class QuotientPoset:
    """Partition into mutual-domination classes plus the induced order."""

    classes: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    def class_of(self, element: int) -> int:
        for ci, members in enumerate(self.classes):
            if element in members:
                return ci
        raise ValueError(f"element {element} not in any class")

    def minima(self) -> list[int]:
        return [
            i
            for i in range(self.size)
            if all(i == j or not self.leq[j][i] for j in range(self.size))
        ]

    def maxima(self) -> list[int]:
        return [
            i
            for i in range(self.size)
            if all(i == j or not self.leq[i][j] for j in range(self.size))
        ]

    def least(self) -> int | None:
        for i in range(self.size):
            if all(self.leq[i][j] for j in range(self.size)):
                return i
        return None

    def greatest(self) -> int | None:
        for i in range(self.size):
            if all(self.leq[j][i] for j in range(self.size)):
                return i
        return None

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a < b and nothing strictly between."""
        out = []
        k = self.size
        for a in range(k):
            for b in range(k):
                if a == b or not self.leq[a][b]:
                    continue
                between = any(
                    c not in (a, b) and self.leq[a][c] and self.leq[c][b]
                    for c in range(k)
                )
                if not between:
                    out.append((a, b))
        return out


def sim_quotient(p: Preorder) -> QuotientPoset:
    _require_closed(p)
    n = p.n
    seen = [False] * n
    classes: list[tuple[int, ...]] = []
    for i in range(n):
        if seen[i]:
            continue
        members = tuple(j for j in range(n) if p.sim(i, j))
        for j in members:
            seen[j] = True
        classes.append(members)
    k = len(classes)
    leq = [
        [p.rel[classes[a][0]][classes[b][0]] for b in range(k)] for a in range(k)
    ]
    for a in range(k):
        for b in range(k):
            if a != b and leq[a][b] and leq[b][a]:
                raise AssertionError("quotient order failed antisymmetry")
    return QuotientPoset(tuple(classes), tuple(tuple(r) for r in leq))


def cones(p: Preorder, a: int) -> tuple[frozenset[int], frozenset[int]]:
    if not (0 <= a < p.n):
        raise IndexError(f"element {a} out of range")
    lower = frozenset(x for x in range(p.n) if p.rel[x][a])
    upper = frozenset(x for x in range(p.n) if p.rel[a][x])
    return lower, upper


def height(p: Preorder) -> int:
    """Longest chain of pairwise non-equivalent elements (element count)."""
    q = sim_quotient(p)
    k = q.size
    # minimal classes have the most successors; process them first
    order = sorted(range(k), key=lambda c: -sum(q.leq[c]))
    best = [1] * k
    for c in order:
        for d in range(k):
            if d != c and q.leq[c][d] and best[c] + 1 > best[d]:
                best[d] = best[c] + 1
    return max(best, default=0)


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
    above = [[b for b in range(k) if b != a and q.leq[a][b]] for a in range(k)]
    below = [-1] * k  # below[b] is the class matched to b, if any
    for a in range(k):
        seen = [False] * k
        stack, via = [(a, iter(above[a]))], []
        while stack:
            u, options = stack[-1]
            b = next((b for b in options if not seen[b]), None)
            if b is None:
                stack.pop()
                del via[-1:]  # the b that led to the dead end, if any
            elif below[b] < 0:
                # flip the path: each stacked class takes the b it went through
                for (v, _), c in zip(stack, via + [b]):
                    below[c] = v
                break
            else:
                seen[b] = True
                via.append(b)
                stack.append((below[b], iter(above[below[b]])))
    return below.count(-1)


def is_upward_directed(p: Preorder) -> bool:
    _require_closed(p)
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if not any(p.rel[i][u] and p.rel[j][u] for u in range(p.n)):
                return False
    return True


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
