import pytest

from rklab.domination import (
    DomEdge,
    DominationGraph,
    RealEdge,
    RealizationDigraph,
    TypeNode,
    iso_classes,
    limit_exists_over,
    prime_node_order,
    rk_preorder,
    rk_size,
    rk_structure,
    strong_equiv,
)
from rklab.preorder import sim_quotient


def graph(nodes, edges):
    return DominationGraph(tuple(nodes), tuple(edges))


def test_rk_preorder_colored_pair_shape():
    # two colored parts, the higher type dominating the lower one only
    g = graph(
        [TypeNode("p0"), TypeNode("p1")],
        [DomEdge("p1", "p0", "Q")],
    )
    p = rk_preorder(g)
    assert p.le(0, 1)  # p0 <= p1
    assert not p.le(1, 0)


def test_rk_preorder_closure():
    g = graph(
        [TypeNode("a"), TypeNode("b"), TypeNode("c"), TypeNode("d")],
        [DomEdge("b", "a", "f"), DomEdge("c", "b", "g"), DomEdge("d", "c", "h")],
    )
    p = rk_preorder(g)
    assert p.le(0, 3)
    empty = graph([TypeNode("x"), TypeNode("y")], [])
    assert rk_preorder(empty).pairs() == [(0, 0), (1, 1)]


def test_strong_equiv():
    g = graph(
        [
            TypeNode("p", prime=True),
            TypeNode("q", prime=True),
            TypeNode("r", prime=True),
        ],
        [
            DomEdge("p", "q", "f", principal=True),
            DomEdge("q", "p", "g", principal=True),
            DomEdge("q", "r", "h", principal=False),
            DomEdge("r", "q", "k", principal=False),
        ],
    )
    assert strong_equiv(g, "p", "q")
    assert not strong_equiv(g, "q", "r")  # mutual but not principal
    assert strong_equiv(g, "p", "p")
    with pytest.raises(KeyError):
        strong_equiv(g, "p", "zz")


def test_strong_equiv_is_equivalence_and_refines_sim():
    g = graph(
        [TypeNode(n, prime=True) for n in "abc"],
        [
            DomEdge("a", "b", "1", principal=True),
            DomEdge("b", "c", "2", principal=True),
            DomEdge("c", "a", "3", principal=True),
        ],
    )
    # principal cycle: all pairs strongly equivalent via composition
    for x in "abc":
        for y in "abc":
            assert strong_equiv(g, x, y)
    p = rk_preorder(g)
    names = g.names()
    for x in "abc":
        for y in "abc":
            if strong_equiv(g, x, y):
                assert p.sim(names.index(x), names.index(y))


def test_rk_structure_examples():
    g = graph(
        [TypeNode("a", prime=True), TypeNode("b", prime=True)],
        [DomEdge("b", "a", "f")],
    )
    q = rk_structure(g)
    assert q.size == 2 and len(q.covers()) == 1
    # no prime models anywhere: empty structure
    g2 = graph([TypeNode("a"), TypeNode("b")], [DomEdge("b", "a", "f")])
    assert rk_structure(g2).size == 0
    assert rk_size(g2) == 0
    # strongly equivalent prime nodes merge
    g3 = graph(
        [TypeNode("a", prime=True), TypeNode("b", prime=True)],
        [
            DomEdge("a", "b", "f", principal=True),
            DomEdge("b", "a", "g", principal=True),
        ],
    )
    assert rk_structure(g3).size == 1
    assert rk_size(g3) == 1


def test_iso_classes_vs_sim_classes():
    # mutual domination without principal witnesses: one sim class,
    # two isomorphism types
    g = graph(
        [TypeNode("a", prime=True), TypeNode("b", prime=True)],
        [DomEdge("a", "b", "f"), DomEdge("b", "a", "g")],
    )
    assert rk_structure(g).size == 1
    assert rk_size(g) == 2
    assert sorted(len(c) for c in iso_classes(g)) == [1, 1]


def test_rkt_structure():
    g = graph(
        [TypeNode("a"), TypeNode("b", prime=True)],
        [DomEdge("b", "a", "f")],
    )
    full = rk_preorder(g)  # the RKT structure: every type node, prime or not
    assert full.n == 2 and full.le(0, 1) and not full.le(1, 0)
    assert rk_structure(g).size == 1  # only the prime node
    assert prime_node_order(g) == ["b"]


def test_minimal_but_not_least_detectable():
    g = graph(
        [TypeNode("a"), TypeNode("b"), TypeNode("c")],
        [DomEdge("c", "a", "f"), DomEdge("c", "b", "g")],
    )
    q = sim_quotient(rk_preorder(g))
    assert len(q.minima()) == 2
    assert q.least() is None


def test_node_invariants():
    with pytest.raises(ValueError):
        DominationGraph((TypeNode("a", principal=True, prime=False),), ())
    with pytest.raises(ValueError):
        DominationGraph(
            (TypeNode("a"),), (DomEdge("a", "zz", "f"),)
        )
    with pytest.raises(ValueError):
        DominationGraph((TypeNode("a"), TypeNode("a")), ())


def rdigraph(prime, nodes, edges):
    return RealizationDigraph(prime, tuple(nodes), tuple(edges))


def test_limit_exists_over():
    r = rdigraph(
        True,
        ["a", "b"],
        [RealEdge("a", "b", principal=True, semi_isolates=True)],
    )
    assert limit_exists_over(r)
    sym = rdigraph(
        True,
        ["a", "b"],
        [
            RealEdge("a", "b", principal=True, semi_isolates=True),
            RealEdge("b", "a", principal=False, semi_isolates=True),
        ],
    )
    assert not limit_exists_over(sym)
    assert not limit_exists_over(rdigraph(True, ["a"], []))
    with pytest.raises(ValueError):
        limit_exists_over(rdigraph(False, ["a"], []))
    with pytest.raises(ValueError):
        RealEdge("a", "b", principal=True, semi_isolates=False)


def test_rk_preorder_idempotent_and_extends_edges():
    g = graph(
        [TypeNode("a"), TypeNode("b"), TypeNode("c")],
        [DomEdge("b", "a", "f"), DomEdge("c", "b", "g")],
    )
    p = rk_preorder(g)
    from rklab.preorder import close

    assert close(p) == p
    idx = {n.name: i for i, n in enumerate(g.nodes)}
    for e in g.edges:
        assert p.le(idx[e.dst], idx[e.src])


def test_rk_structure_matches_direct_definition_on_random_graphs():
    import random

    from rklab.domination import prime_node_order, rk_preorder, rk_structure

    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        nodes = [
            TypeNode(f"t{i}", prime=rng.random() < 0.7) for i in range(n)
        ]
        for i, node in enumerate(nodes):
            if node.prime and rng.random() < 0.3:
                nodes[i] = TypeNode(node.name, principal=True, prime=True)
        edges = [
            DomEdge(f"t{i}", f"t{j}", f"e{i}{j}", rng.random() < 0.4)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.3
        ]
        g = graph(nodes, edges)
        q = rk_structure(g)
        prime = prime_node_order(g)
        order = rk_preorder(g)
        idx = g.index()
        # direct mutual-domination partition of the prime nodes
        classes = []
        seen = set()
        for a in prime:
            if a in seen:
                continue
            members = {
                b
                for b in prime
                if order.le(idx[a], idx[b]) and order.le(idx[b], idx[a])
            }
            seen |= members
            classes.append(frozenset(members))
        got = {frozenset(prime[i] for i in members) for members in q.classes}
        assert got == set(classes)
        # induced order agrees with the underlying preorder
        for ca, amembers in enumerate(q.classes):
            for cb, bmembers in enumerate(q.classes):
                expect = order.le(idx[prime[amembers[0]]], idx[prime[bmembers[0]]])
                assert q.le(ca, cb) == expect
