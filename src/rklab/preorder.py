"""Finite preorders, stored as their condensation, and the premodel axiom checker.

A ``Preorder`` on 0..n-1 is its quotient by mutual relation, a partial
order: its classes, by least element with members ascending; per class,
a bitset of the classes strictly above it; and per element, its class.
Equal relations give equal records, and heights and widths are exact on
the classes, which is what the chain/antichain definitions range over.
A row's memory follows its highest set bit, so a chain's or a star's
rows hold about n^2 bits; their total is checked against ``ROW_BUDGET``
before each row is built.
"""
from __future__ import annotations

from .cardinal import CONTINUUM, OMEGA, ZERO, Card, render
from .record import record
from .report import Budget, Report, ReportBuilder

ROW_BUDGET = Budget("row budget", 1 << 30, "row bits")  # 128 MiB per preorder


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
    """Bit b of ``above[a]`` says class a lies strictly below class b;
    ``index[e]`` is the class of element e."""

    classes: tuple[tuple[int, ...], ...]
    above: tuple[int, ...]
    index: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def size(self) -> int:
        return len(self.classes)

    def le(self, i: int, j: int) -> bool:
        a, b = self.index[i], self.index[j]
        return a == b or bool(self.above[a] >> b & 1)

    def class_of(self, element: int) -> int:
        return self.index[element]

    def _upper(self, a: int) -> list[int]:
        """The elements of class a and of the classes above it, ascending."""
        return sorted([*self.classes[a], *(x for b in _bits(self.above[a]) for x in self.classes[b])])

    def pairs(self) -> list[tuple[int, int]]:
        ups = [self._upper(a) for a in range(self.size)]
        return [(i, j) for i, a in enumerate(self.index) for j in ups[a]]

    def minima(self) -> list[int]:
        covered = 0
        for row in self.above:
            covered |= row
        return _bits(~covered & (1 << self.size) - 1)

    def maxima(self) -> list[int]:
        return [i for i, row in enumerate(self.above) if not row]

    def covers(self) -> list[tuple[int, int]]:
        """Class pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for a, row in enumerate(self.above):
            if row:  # a class with nothing above it covers nothing
                through = 0
                for c in _bits(row):
                    through |= self.above[c]
                out.extend((a, b) for b in _bits(row & ~through))
        return out


def from_pairs(n: int, pairs) -> Preorder:
    """The preorder the pairs generate on 0..n-1: their reflexive-transitive closure."""
    succ: dict[int, list[int]] = {}
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i},{j}) out of range for {n} elements")
        if i != j:
            succ.setdefault(i, []).append(j)
    return _condense(n, succ)


def _condense(n: int, succ: dict[int, list[int]]) -> Preorder:
    """The record of the relation ``succ`` generates, in one pass: an iterative Tarjan search
    completes each strongly connected component after every one it reaches, so in completion order
    each class's row is the OR of the rows and bits of the classes it reaches directly (Purdom 1970;
    Nuutila 1995)."""
    num, low = [0] * n, [0] * n  # 0 until reached; on the stack, an element's place there plus 1
    comp: list[tuple[int, ...] | None] = [None] * n  # each element's component, members ascending
    done = []  # the components the search reached, in completion order
    for root in succ:  # an element in no pair is never reached, and alone in its class
        if num[root]:
            continue
        num[root] = low[root] = 1
        stack, path, tried = [root], [root], [0]  # per step, the successors tried: a count, smaller than an iterator
        while path:
            v = path[-1]
            edges = succ.get(v, ())
            for i in range(tried[-1], len(edges)):
                w = edges[i]
                if not num[w]:
                    tried[-1] = i + 1
                    num[w] = low[w] = len(stack) + 1
                    stack.append(w)
                    path.append(w)
                    tried.append(0)
                    break
                if comp[w] is None and num[w] < low[v]:  # w is on the stack
                    low[v] = num[w]
            else:
                del path[-1], tried[-1]
                if low[v] < num[v]:  # v's component goes on below it
                    low[path[-1]] = min(low[path[-1]], low[v])
                    continue
                members = tuple(sorted(stack[num[v] - 1:]))
                del stack[num[v] - 1:]
                for e in members:
                    comp[e] = members
                done.append(members)
    del num, low
    index, classes = [0] * n, []  # classes by least element
    for e, members in enumerate(comp):
        if members is None:
            members = (e,)
        if members[0] == e:
            for x in members:
                index[x] = len(classes)
            classes.append(members)
    above, spent = [0] * len(classes), 0
    for members in done:
        a = index[members[0]]
        heads = {index[j] for e in members if e in succ for j in succ[e]} - {a}
        if heads:
            spent = ROW_BUDGET.check(spent + max(max(above[b].bit_length(), b + 1) for b in heads))
            row = _mask(heads)
            for b in heads:
                row |= above[b]
            above[a] = row
    return Preorder(tuple(classes), tuple(above), tuple(index))


def induced(p: Preorder, elements: list[int]) -> Preorder:
    """The relation restricted to ``elements``, renumbered in list order: the
    classes they meet, in the order ``p`` has between them."""
    new = {c: a for a, c in enumerate(dict.fromkeys(p.index[e] for e in elements))}  # p's class -> its class here
    index = tuple(new[p.index[e]] for e in elements)
    classes: list[list[int]] = [[] for _ in new]
    for x, a in enumerate(index):
        classes[a].append(x)
    above, spent, present = [], 0, _mask(new)
    for c in new:
        heads = [new[b] for b in _bits(p.above[c] & present)]
        spent = ROW_BUDGET.check(spent + max(heads, default=-1) + 1)
        above.append(_mask(heads))
    return Preorder(tuple(map(tuple, classes)), tuple(above), index)


def components(p: Preorder) -> list[tuple[list[int], list[int]]]:
    """The connected components of the order, by least element: each as its elements and,
    ascending, the least element of each of its maximal classes.  Comparable classes lie
    below one maximal class, so joining each class to the maximal classes above it
    connects each component."""
    root = list(range(p.size))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    tops = _mask(p.maxima())
    for a, row in enumerate(p.above):
        for m in _bits(row & tops):
            root[find(m)] = find(a)
    comps: dict[int, tuple[list[int], list[int]]] = {}
    for c, members in enumerate(p.classes):
        elements, reps = comps.setdefault(find(c), ([], []))
        elements.extend(members)
        if not p.above[c]:
            reps.append(members[0])
    return list(comps.values())


def cones(p: Preorder, a: int) -> tuple[frozenset[int], frozenset[int]]:
    if not (0 <= a < p.n):
        raise IndexError(f"element {a} out of range")
    c = p.index[a]
    lower = (x for d, row in enumerate(p.above) if d == c or row >> c & 1 for x in p.classes[d])
    return frozenset(lower), frozenset(p._upper(c))


def ranks(p: Preorder) -> list[int]:
    """Per class, the most classes strictly below it on one chain."""
    # a class has more classes above it than any class above it: this
    # order puts every class with a class above it before those classes
    order = sorted((c for c in range(p.size) if p.above[c]), key=lambda c: -p.above[c].bit_count())
    rank = [0] * p.size
    for c in order:
        for d in _bits(p.above[c]):
            if rank[c] + 1 > rank[d]:
                rank[d] = rank[c] + 1
    return rank


def height(p: Preorder) -> int:
    """Longest chain of pairwise non-equivalent elements (element count)."""
    return max(ranks(p), default=-1) + 1


def width(p: Preorder) -> int:
    """Maximum antichain of the quotient: by Dilworth's theorem, the fewest
    chains that cover it, which is its class count minus a maximum matching
    of the pairs a < b (Fulkerson 1956).  The matching grows by augmenting
    paths, searched depth first over the rows as bitsets: a class on the
    path takes an unmatched class above it if it has one, or else steps
    through the first matched one this search has not tried."""
    below = [-1] * p.size  # below[b] is the class matched to b, if any
    matched = 0  # the classes matched to some class
    for a, row in enumerate(p.above):
        if not row:  # a class with none above it matches none
            continue
        seen, stack, via = 0, [a], []  # the classes this search tried; its path
        while row:
            free = row & ~matched
            if free:
                b = (free & -free).bit_length() - 1
                # flip the path: each stacked class takes the b it went through
                for v, c in zip(stack, via + [b]):
                    below[c] = v
                matched |= 1 << b
                break
            rest = row & ~seen
            if rest:
                b = (rest & -rest).bit_length() - 1
                seen |= 1 << b
                via.append(b)
                stack.append(below[b])
            else:
                stack.pop()
                del via[-1:]  # the b that led to the dead end, if any
            row = p.above[stack[-1]] if stack else 0
    return p.size - matched.bit_count()


def is_upward_directed(p: Preorder) -> bool:
    """Every pair has a common upper bound; for a finite preorder, that is
    a single maximal class."""
    return len(p.maxima()) <= 1


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
    size, lower, cls, height = map(render, (profile.size, profile.lower_cone_card, profile.class_card, profile.height))
    rb.check("size-continual", profile.size == CONTINUUM, f"size = {size}, must be c")
    rb.check("upward-directed", profile.directed, "set must be upward directed")
    rb.check("lower-cones-countable", profile.lower_cone_card == OMEGA, f"|lower cone| = {lower}, must be w")
    rb.check("sim-classes-countable", profile.class_card == OMEGA, f"|class| = {cls}, must be w")
    for idx, case in enumerate(profile.joint_upper_cone_cases):
        shape = classify_cone_case(case)
        found = f"matches shape {shape}" if shape is not None else "fits none of the four admissible shapes"
        rb.check(f"upper-cone-case-{idx}", shape is not None, f"case {idx} {found}")
    finite = profile.height.finite
    why = "height must be w; a finite height is impossible" if finite else f"height = {height}, must be w"
    rb.check("height-countable", profile.height == OMEGA, why)
    if rb.done().ok:
        rb.fact("width", render(CONTINUUM))
        rb.fact("upward-directed", "confirmed")
    return rb.done()


# -- helpers used by tests and the demo script ------------------------------

def random_preorder(rng, n: int, density: float = 0.3) -> Preorder:
    return from_pairs(n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density])
