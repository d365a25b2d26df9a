"""Independent brute-force oracles the test suite checks the library against.

Deliberately dumb implementations: saturation over boolean matrices for
closures and covers, exhaustive subset enumeration for chains and
antichains, a search over every element pair for connected components,
a permutation search for isomorphism, a pairwise comparison
of saturated principal reachability for the isomorphism classes of prime
models, a saturating union-find over explicit word lists for the bounded
congruence, the identity schemas' ground instances built as word
tuples, a comparison of every two extent pairs for the bu
disjoint-images check, direct formula enumeration over all 3^atoms
signed conjunctions for density and classification, and the
formula-by-formula round-robin witness construction for submodels.
They share no code with the library paths they certify.
"""
from __future__ import annotations

import functools
import itertools


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
    """Longest chain of pairwise non-equivalent elements, by trying all
    element subsets in every order."""
    n = len(rel)
    best = 0
    elements = range(n)
    for size in range(1, n + 1):
        for subset in itertools.combinations(elements, size):
            for perm in itertools.permutations(subset):
                ok = True
                for a, b in zip(perm, perm[1:]):
                    if not rel[a][b] or (rel[a][b] and rel[b][a]):
                        ok = False
                        break
                if ok:
                    best = max(best, size)
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
    from rklab.typespace import enumerate_types, is_principal, space_at

    deeper = space_at(ts, ts.depth + 1)
    return deeper, [cell for cell in enumerate_types(deeper) if is_principal(deeper, cell)]


def brute_satisfies(ts, cell, phi) -> bool:
    """The family rule literal by literal, apart from the library's atom
    table: an iup cell has P_k when bit k is set, an sdup cell has S_q when
    q is a prefix of its path, a colored cell has its own part and color."""
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


def brute_dense(space, cells, formulas) -> bool:
    """Density by direct quantification over every consistent formula."""
    return all(
        any(brute_satisfies(space, cell, phi) for cell in cells) for phi in formulas
    )


def enumerate_formulas(ts):
    """Every consistent signed-atom conjunction, including the empty one, in
    the order of all 3^atoms candidates: a candidate is consistent when its
    literals are among those the family rule gives one cell."""
    from rklab.typespace import FormulaLit, atoms, enumerate_types

    alphabet = atoms(ts)
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
    from rklab.typespace import FormulaLit, atoms, render_cell

    order = sorted(set(cells), key=render_cell)
    where = {
        (a, s): {i for i, cell in enumerate(order) if brute_satisfies(ts, cell, FormulaLit.of({a: s}))}
        for a in atoms(ts)
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
