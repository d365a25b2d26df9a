"""Independent brute-force oracles the test suite checks the library against.

Deliberately dumb implementations: exhaustive subset enumeration for
chains and antichains, a permutation search for isomorphism, a
saturating union-find over explicit word lists for the bounded
congruence, and direct formula enumeration for density.
They share no code with the library paths they certify.
"""
from __future__ import annotations

import itertools


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


def brute_dense(space, cells, formulas, satisfies) -> bool:
    """Density by direct quantification over every consistent formula."""
    return all(
        any(satisfies(space, cell, phi) for cell in cells) for phi in formulas
    )
