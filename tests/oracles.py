"""Independent brute-force oracles the test suite checks the library against.

Deliberately dumb implementations: saturation over boolean matrices for
closures and covers, every labeled preorder on a few points built point
by point (and one per isomorphism type, as the least relation over all
relabellings), exhaustive subset enumeration for chains and
antichains, a search over every element pair for connected components,
a permutation search for isomorphism, a pairwise comparison
of saturated principal reachability for the isomorphism classes of prime
models, a saturating union-find over explicit word lists for the bounded
congruence, the identity schemas' ground instances built as word
tuples, a sum over every tuple of colors for the witnesses a split
needs, a comparison of every two extent pairs for the bu
disjoint-images check, direct formula enumeration over all 3^atoms
signed conjunctions for density and classification, a scan of every
cell for consistency and coverage, the formula-by-formula
round-robin witness construction for submodels, and the triple
classifier written out branch by branch.
They share no code with the library paths they certify.

The last section holds what only tests call: writers of the formats
rklab reads and never writes, a reader of the structure format it
writes and never reads, and two read-backs of a replayed registry.
They build the library's own records.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math


def matrix(p) -> list[list[bool]]:
    """A preorder's relation as an n x n boolean matrix, read through ``le``."""
    return [[p.le(i, j) for j in range(p.n)] for i in range(p.n)]


def brute_close(rel) -> list[list[bool]]:
    """Reflexive-transitive closure: add i <= j for every i <= k <= j
    until nothing changes."""
    n = len(rel)
    out = [[bool(x) or i == j for j, x in enumerate(row)] for i, row in enumerate(rel)]
    changed = True
    while changed:
        changed = False
        for i, k, j in itertools.product(range(n), repeat=3):
            if out[i][k] and out[k][j] and not out[i][j]:
                out[i][j] = changed = True
    return out


def all_preorders(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """Every reflexive, transitive relation on 0..n-1 as a boolean matrix: each
    one on n-1 points extended by point n-1 with a down-closed set D below it
    and an up-closed set U above it, every element of D below every one of U."""
    if n == 0:
        return [()]
    out, sets = [], [[x for x in range(n - 1) if bits >> x & 1] for bits in range(1 << n - 1)]
    for rel in all_preorders(n - 1):
        downs = [d for d in sets if all(y in d for x in d for y in range(n - 1) if rel[y][x])]
        ups = [u for u in sets if all(y in u for x in u for y in range(n - 1) if rel[x][y])]
        for d in downs:
            for u in ups:
                if all(rel[x][y] for x in d for y in u):
                    rows = [(*row, i in d) for i, row in enumerate(rel)]
                    out.append((*rows, (*(i in u for i in range(n - 1)), True)))
    return out


def preorder_types(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """One preorder on 0..n-1 per isomorphism type: the least, as a tuple of rows,
    of its relabellings under every permutation."""
    least = {
        min(tuple(tuple(rel[p[i]][p[j]] for j in range(n)) for i in range(n)) for p in itertools.permutations(range(n)))
        for rel in all_preorders(n)
    }
    return sorted(least)


def brute_classes(rel) -> set[frozenset[int]]:
    """The mutual-domination classes of a closed relation."""
    n = len(rel)
    return {frozenset(j for j in range(n) if rel[i][j] and rel[j][i]) for i in range(n)}


def brute_covers(rel) -> set[tuple[frozenset[int], frozenset[int]]]:
    """Class pairs (A, B) with A < B and no element strictly between."""
    n = len(rel)
    cls = [frozenset(j for j in range(n) if rel[i][j] and rel[j][i]) for i in range(n)]
    less = lambda a, b: rel[a][b] and not rel[b][a]
    return {
        (cls[a], cls[b])
        for a in range(n)
        for b in range(n)
        if less(a, b) and not any(less(a, c) and less(c, b) for c in range(n))
    }


def brute_extremes(rel) -> tuple[set[frozenset[int]], set[frozenset[int]]]:
    """The minimal and the maximal mutual-domination classes of a closed relation:
    those with no element strictly below, and strictly above."""
    n = len(rel)
    cls = [frozenset(j for j in range(n) if rel[i][j] and rel[j][i]) for i in range(n)]
    less = lambda a, b: rel[a][b] and not rel[b][a]
    return ({cls[a] for a in range(n) if not any(less(b, a) for b in range(n))},
            {cls[a] for a in range(n) if not any(less(a, b) for b in range(n))})


def brute_directed(rel) -> bool:
    """Every pair of elements has a common upper bound."""
    n = len(rel)
    return all(any(rel[i][u] and rel[j][u] for u in range(n)) for i in range(n) for j in range(n))


def brute_components(rel) -> list[list[int]]:
    """The connected components of the comparability graph, each sorted,
    in the order of their least element: a search from each unseen
    element that tries every element at each step."""
    n = len(rel)
    seen = [False] * n
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            a = queue.pop()
            for b in range(n):
                if not seen[b] and (rel[a][b] or rel[b][a]):
                    seen[b] = True
                    comp.append(b)
                    queue.append(b)
        comps.append(sorted(comp))
    return comps


def brute_height(rel) -> int:
    """Longest chain of pairwise non-equivalent elements of a closed relation:
    the largest element subset whose elements are pairwise strictly
    comparable, which sorted is such a chain, by trying all subsets."""
    n = len(rel)
    best = 0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(rel[a][b] != rel[b][a] for a, b in itertools.combinations(subset, 2)):
                best = size
                break
    return best


def brute_width(rel) -> int:
    """Largest subset of pairwise incomparable, non-equivalent elements."""
    n = len(rel)
    best = 0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            ok = True
            for a, b in itertools.combinations(subset, 2):
                if rel[a][b] or rel[b][a]:
                    ok = False
                    break
            if ok:
                best = max(best, size)
    return best


def brute_isomorphic(rel_p, rel_q) -> bool:
    """Whether some relabelling of the elements carries one relation onto
    the other, by trying every permutation."""
    n = len(rel_p)
    if len(rel_q) != n:
        return False
    return any(
        all(rel_p[i][j] == rel_q[perm[i]][perm[j]] for i in range(n) for j in range(n))
        for perm in itertools.permutations(range(n))
    )


def brute_iso_classes(graph) -> list[frozenset[str]]:
    """The strong-equivalence classes of a domination graph's prime nodes in
    node order: principal edges closed by saturation, then every two prime
    nodes compared for reachability both ways."""
    idx = {node.name: i for i, node in enumerate(graph.nodes)}
    rel = [[False] * len(idx) for _ in idx]
    for e in graph.edges:
        if e.principal:
            rel[idx[e.dst]][idx[e.src]] = True
    reach = brute_close(rel)
    prime = [node.name for node in graph.nodes if node.prime]
    out: list[frozenset[str]] = []
    for a in prime:
        if not any(a in members for members in out):
            out.append(frozenset(b for b in prime if reach[idx[a]][idx[b]] and reach[idx[b]][idx[a]]))
    return out


def brute_congruence_count(instances, alphabet: int, max_len: int):
    """Classes of nonempty words of length <= max_len under the congruence
    generated by the instances, via repeated full rewriting sweeps."""
    words = []
    for length in range(1, max_len + 1):
        words.extend(itertools.product(range(alphabet), repeat=length))
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    changed = True
    while changed:
        changed = False
        for w in words:
            for lhs, rhs in instances:
                for i in range(len(w) - len(lhs) + 1):
                    if w[i : i + len(lhs)] == lhs:
                        w2 = w[:i] + rhs + w[i + len(lhs) :]
                        if len(w2) <= max_len and find(w) != find(w2):
                            union(w, w2)
                            changed = True
    classes: dict = {}
    for w in words:
        classes.setdefault(find(w), []).append(w)
    return len(classes), classes


def _words_up_to(alphabet: int, max_len: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(alphabet), repeat=length)


def _run(a: int, b: int):
    return tuple(range(a, b + 1))


def _schema_instances(schema, alphabet: int, max_len: int):
    k = schema.kind
    if k == "single_rename":
        n = schema.param
        for m in range(n, alphabet):
            yield (n - 1,), (m,)
    elif k == "idem_below":
        if max_len >= 2:
            for m in range(min(schema.param, alphabet)):
                yield (m, m), (m,)
    elif k == "idem_all":
        if max_len >= 2:
            for m in range(alphabet):
                yield (m, m), (m,)
    elif k == "drop_to_min":
        for u in _words_up_to(alphabet, max_len - 1):
            for last in range(min(u)):
                yield u + (last,), (last,)
    elif k == "pair_to_run":
        for a in range(alphabet):
            for b in range(a + 1, alphabet):
                if b - a + 1 <= max_len:
                    yield (a, b), _run(a, b)
    elif k == "ascend_to_power":
        for u in _words_up_to(alphabet, max_len - 1):
            for last in range(max(u) + 1, alphabet):
                yield u + (last,), (last,) * (len(u) + 1)
    elif k == "ascend_to_run":
        for u in _words_up_to(alphabet, max_len - 1):
            s = len(u)
            for last in range(u[0] + s, alphabet):
                yield u + (last,), _run(u[0], u[0] + s)
    elif k == "ascend_to_capped_run":
        for u in _words_up_to(alphabet, max_len - 1):
            s = len(u)
            for last in range(u[0] + 1, min(u[0] + s, alphabet)):
                yield u + (last,), _run(u[0], last) + (last,) * (s - (last - u[0]))
    else:
        raise ValueError(f"unknown schema kind {k!r}")


def brute_instantiate(system, alphabet: int, max_len: int) -> list:
    """The ground instances of every schema as word tuples, scanning all
    words below the bound, with both sides nonempty, distinct and within
    the bound, in schema order without duplicates."""
    out: dict = {}
    for schema in system.schemas:
        for lhs, rhs in _schema_instances(schema, alphabet, max_len):
            if lhs and rhs and lhs != rhs and len(lhs) <= max_len and len(rhs) <= max_len:
                out[lhs, rhs] = None
    return list(out)


def brute_split_need(spec, subs, depth: int, fan_out: int) -> int:
    """The witnesses an icp or bu split of the extents of ``subs`` gives, summed
    over every tuple of colors: the tuple's elements times 2 to its least finite
    color, or to ``depth`` if it has none, ``fan_out`` each."""
    counts = [collections.Counter(map(spec.color, spec.extent(sub))).items() for sub in subs]
    total = 0
    for combo in itertools.product(*counts):
        colors, sizes = zip(*combo)
        finite = [c for c in colors if c is not None]
        total += math.prod(sizes) << (min(finite) if finite else depth)
    return total * fan_out


def brute_disjoint(spec, op, params) -> list[str]:
    """Every disjoint-images violation of an icp, css or bu record: each two
    keys of the record (elements of its extent, or pairs of elements of its
    two extents) that share no coordinate are compared on each layer the
    check reads, R0 for icp and every layer otherwise.  Listed in the order
    of layer, key a, key b for css and of key a, key b, layer for icp and bu."""
    subs = (params["sub1"], params["sub2"]) if op == "bu" else (params["sub"],)
    table = spec.ternary if op == "bu" else spec.binary
    rels = params["rels"][:1] if op == "icp" else params["rels"]
    images = []
    for rel in rels:
        index: dict = {}
        for row in table.get(rel, ()):
            index.setdefault(row[:-1], set()).add(row[-1])
        images.append(index)
    keys = list(itertools.product(*(sorted(spec.extent(sub)) for sub in subs)))
    found = []
    for a, b in itertools.combinations(range(len(keys)), 2):
        if any(u == v for u, v in zip(keys[a], keys[b])):
            continue
        for i, index in enumerate(images):
            if index.get(keys[a], set()) & index.get(keys[b], set()):
                found.append((i, a, b) if op == "css" else (a, b, i))

    def label(key):
        return key[0] if len(key) == 1 else "(" + ",".join(key) + ")"

    bad = []
    for entry in sorted(found):
        i, a, b = entry if op == "css" else (entry[2], entry[0], entry[1])
        if op == "icp":
            bad.append(f"{label(keys[a])},{label(keys[b])}")
        elif op == "css":
            bad.append(f"{label(keys[a])},{label(keys[b])}/R{i}")
        else:
            bad.append(f"{label(keys[a])}~{label(keys[b])}/R{i}")
    return bad


@functools.lru_cache(maxsize=None)
def _principal_cells_below(ts):
    from rklab.typespace import TypeSpace, enumerate_types, is_principal

    deeper = TypeSpace(ts.family, ts.depth + 1, ts.parts)
    return deeper, [cell for cell in enumerate_types(deeper) if is_principal(deeper, cell)]


def brute_atoms(ts) -> list:
    """The space's atoms: iup's P_k by k, sdup's S_q by tree node in
    breadth-first order, and colored's parts P then colors C."""
    if ts.family == "iup":
        return [("P", k) for k in range(ts.depth)]
    if ts.family == "sdup":
        nodes = ["".join(bits) for n in range(ts.depth + 1) for bits in itertools.product("01", repeat=n)]
        return [("S", q) for q in nodes]
    return [("P", k) for k in range(ts.parts)] + [("C", j) for j in range(ts.depth + 1)]


def brute_satisfies(ts, cell, phi) -> bool:
    """The family rule literal by literal, apart from the library's
    ``cell_atoms``: an iup cell has P_k when bit k is set, an sdup cell has
    S_q when q is a prefix of its path, a colored cell has its own part and
    color."""
    for (tag, k), sign in phi.literals:
        if ts.family == "iup":
            true = cell.bits[k] == 1
        elif ts.family == "sdup":
            true = cell.path.startswith(k)
        else:
            true = (cell.part if tag == "P" else cell.color) == k
        if true != sign:
            return False
    return True


def brute_classify(ts, phi):
    """I when some isolated type of the family contains phi, by scanning
    the principal cells one level deeper than the space: a colored
    formula that only the infinite color satisfies at depth d holds in
    the finite color d + 1."""
    from rklab.typespace import FormulaClass

    deeper, cells = _principal_cells_below(ts)
    isolated = any(brute_satisfies(deeper, cell, phi) for cell in cells)
    return FormulaClass.I if isolated else FormulaClass.NI


def brute_consistent(ts, phi) -> bool:
    """Some cell of the space satisfies phi, by scanning every cell."""
    from rklab.typespace import enumerate_types

    return any(brute_satisfies(ts, cell, phi) for cell in enumerate_types(ts))


@functools.lru_cache(maxsize=None)
def _true_atoms(ts) -> dict:
    """Each cell of the space, mapped to the atoms true in it."""
    from rklab.typespace import FormulaLit, enumerate_types

    singles = [(a, FormulaLit.of({a: True})) for a in brute_atoms(ts)]
    return {
        cell: frozenset(a for a, phi in singles if brute_satisfies(ts, cell, phi))
        for cell in enumerate_types(ts)
    }


def brute_coverage(ts, cells) -> bool:
    """Every cell of the space makes true the same atoms as one of the
    cells, by comparing the true atoms of every cell."""
    true = _true_atoms(ts)
    hit = {true[cell] for cell in cells}
    return all(atoms in hit for atoms in true.values())


def brute_dense(space, cells, formulas) -> bool:
    """Density by direct quantification over every consistent formula."""
    return all(
        any(brute_satisfies(space, cell, phi) for cell in cells) for phi in formulas
    )


def enumerate_formulas(ts):
    """Every consistent signed-atom conjunction, including the empty one, in
    the order of all 3^atoms candidates: a candidate is consistent when its
    literals are among those the family rule gives one cell."""
    from rklab.typespace import FormulaLit, enumerate_types

    alphabet = brute_atoms(ts)
    consistent = set()
    for cell in enumerate_types(ts):
        full = [(a, brute_satisfies(ts, cell, FormulaLit.of({a: True}))) for a in alphabet]
        for keep in itertools.product((False, True), repeat=len(full)):
            consistent.add(frozenset(itertools.compress(full, keep)))
    for assignment in itertools.product((None, True, False), repeat=len(alphabet)):
        literals = frozenset((a, s) for a, s in zip(alphabet, assignment) if s is not None)
        if literals in consistent:
            yield FormulaLit.of(literals)


def round_robin_counts(ts, cells, formulas, cap: int) -> dict | None:
    """Witness counts by formula: each formula in turn gives one realization
    to the least-used of the cells that satisfy each of its literals (ties
    to the least rendered name) while that cell is under the cap; a cell no
    formula picked gets one.  None when some formula has no witness."""
    from rklab.typespace import FormulaLit, render_cell

    order = sorted(set(cells), key=render_cell)
    where = {
        (a, s): {i for i, cell in enumerate(order) if brute_satisfies(ts, cell, FormulaLit.of({a: s}))}
        for a in brute_atoms(ts)
        for s in (True, False)
    }
    every = set(range(len(order)))
    counts = [0] * len(order)
    for phi in formulas:
        witnesses = every.intersection(*(where[lit] for lit in phi.literals))
        if not witnesses:
            return None
        pick = min(witnesses, key=lambda i: (counts[i], i))
        if counts[pick] < cap:
            counts[pick] += 1
    return {cell: k or 1 for cell, k in zip(order, counts)}


def brute_classify_triple(t, theory_class: str = "tc", ch: bool = True):
    """The admissibility of a distribution triple, decided branch by branch
    and comparing coordinates by their symbols alone: a coordinate is the
    continuum when it is ``c``, or ``w1`` under the CH flag."""
    from rklab.cardinal import CONTINUUM, OMEGA, OMEGA1, ZERO, fin
    from rklab.distribution import Verdict

    flags = []
    if OMEGA1 in (t.p, t.l, t.npl):
        flags.append("omega1-coordinate")
        if theory_class == "small":
            flags.append("omega1-value-unrealized")
        elif not ch:
            flags.append("outside-ch-hypothesis")

    def verdict(status, case=None, reason=None):
        return Verdict(status, case, reason, tuple(flags))

    if theory_class == "small":
        if t.npl != ZERO:
            return verdict("inadmissible", reason="small-npl-nonzero")
        if t.p == fin(1):
            if t.l == ZERO:
                return verdict("admissible-small", case=1)
            return verdict("inadmissible", reason="p-categorical-forces-zero-limits")
        if t.p == ZERO:
            return verdict("inadmissible", reason="small-needs-prime-model")
        if t.p.finite or t.p == OMEGA:
            if t.l == ZERO:
                return verdict("inadmissible", reason="multiple-primes-need-limits")
            return verdict("admissible-small", case=2)
        return verdict("inadmissible", reason="small-prime-count-at-most-countable")
    if theory_class != "tc":
        raise ValueError(f"unknown theory class {theory_class!r}")

    def is_c(v):
        return v == CONTINUUM or (ch and v == OMEGA1)

    if is_c(t.p) and is_c(t.l):
        return verdict("admissible-tc", case=1)
    if t.p == ZERO and t.l == ZERO and is_c(t.npl):
        return verdict("admissible-tc", case=2)
    if t.p != ZERO and is_c(t.npl):
        return verdict("admissible-tc", case=3)
    if is_c(t.l) and not is_c(t.p) and not is_c(t.npl):
        return verdict("inadmissible", reason="continuum-limits-need-continuum-primes-or-npl")
    if is_c(t.p) and not is_c(t.l) and not is_c(t.npl):
        return verdict("inadmissible", reason="continuum-primes-force-continuum-limits")
    if t.p == ZERO and t.l != ZERO:
        return verdict("inadmissible", reason="limits-need-primes")
    return verdict("inadmissible", reason="no-continuum-coordinate")


# -- writers, a reader and read-backs that only tests call -------------------

def serialize_domination(g) -> str:
    from rklab.formats import _edge_words, _node_words

    lines = [f"type {_node_words(n)}" for n in g.nodes]
    lines.extend(_edge_words(e) for e in g.edges)
    return "\n".join(lines) + "\n"


def serialize_typespace(ts) -> str:
    lines = [f"family: {ts.family}"]
    if ts.parts is not None:
        lines.append(f"m: {ts.parts}")
    lines.append(f"depth: {ts.depth}")
    return "\n".join(lines) + "\n"


def serialize_distribution(spec) -> str:
    from rklab.cardinal import render
    from rklab.distribution import key_label
    from rklab.formats import serialize_preorder

    lines = [serialize_preorder(spec.order).rstrip(), f"mode: {spec.mode}"]
    lines.extend(f"f: {key_label(key)} = {render(value)}" for key, value in spec.values)
    if spec.partition is not None:
        lines.extend(f"partition: {elem} {label}" for elem, label in spec.partition)
    return "\n".join(lines) + "\n"


def _tuples(value):
    """A JSON value with its lists read back as the tuples they were written from."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def read_struct(text: str):
    """The structure a ``serialize_struct`` text describes.  It checks
    nothing: the node and edge lines go through ``parse_domination`` as
    the domination-graph lines they are behind their keywords."""
    import json

    from rklab.cardinal import parse_card
    from rklab.formats import parse_domination
    from rklab.operators import OpRecord, StructSpec

    universe: tuple[str, ...] = ()
    tables: dict[str, dict] = {"unary": {}, "color": {}, "rel2": {}, "rel3": {}, "target": {}}
    graph, notes, history = [], [], []
    for line in text.splitlines():
        keyword, _, rest = line.partition(" ")
        if keyword == "universe:":
            universe = tuple(rest.split())
        elif keyword in ("unary", "rel2", "rel3"):
            name, _, body = rest.partition(":")
            words = body.split()
            tables[keyword][name] = tuple(words) if keyword == "unary" else tuple(
                tuple(chunk[1:-1].split(",")) for chunk in words
            )
        elif keyword == "color":
            el, _, value = rest.partition(" = ")
            tables["color"][el] = None if value == "inf" else int(value)
        elif keyword == "target":
            key, _, value = rest.rpartition(" = ")
            tables["target"][key] = parse_card(value)
        elif keyword == "node":
            graph.append(f"type {rest}")
        elif keyword == "edge":
            graph.append(rest)
        elif keyword == "note":
            notes.append(rest)
        elif keyword == "applied":
            payload = json.loads(rest)
            history.append(OpRecord(payload["op"], {k: _tuples(v) for k, v in payload["params"].items()}))
    g = parse_domination("\n".join(graph))
    return StructSpec(
        universe, tables["unary"], tables["color"], tables["rel2"], tables["rel3"],
        g.nodes, g.edges, tables["target"], notes, history,
    )


def limit_obligations(g) -> dict[frozenset[str], bool]:
    """Per mutual-domination class of prime nodes: does it force a limit
    model (two or more isomorphism types in one class)?"""
    from rklab.domination import iso_classes, prime_node_order, rk_structure

    prime = prime_node_order(g)
    iso_of = {name: i for i, cls in enumerate(iso_classes(g)) for name in cls}
    out: dict[frozenset[str], bool] = {}
    for members in rk_structure(g).classes:
        names = frozenset(prime[i] for i in members)
        out[names] = len({iso_of[n] for n in names}) > 1
    return out


def replayed_prime_flags(struct, predicates: tuple[str, ...]) -> dict[int, bool]:
    """Whether each part's type node has a prime model after replay."""
    from rklab.operators import pnode

    return {i: struct.nodes[pnode(p)].prime for i, p in enumerate(predicates)}
