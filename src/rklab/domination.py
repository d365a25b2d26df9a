"""Witnessed domination graphs over abstract type identifiers.

Edges are syntactic certificates: an edge q -> p with a formula label
says p is dominated by q, and the edge may carry a principal-witness
flag.  Nothing here inspects type contents; the graph is the record of
certificates the caller (or the operator pipeline) supplies.

Strong equivalence is computed on the principal-witness subrelation,
closed transitively: principal certificates compose, so mutual
principal reachability is the working notion and it is an equivalence
by construction.  Restricted to nodes with prime models it groups the
isomorphism types; the coarser mutual-domination quotient on top of it
is the partially ordered structure the decomposition formulas range
over.
"""
from __future__ import annotations

from .preorder import Preorder, QuotientPoset, close, from_pairs, induced, sim_quotient
from .record import record


@record
class TypeNode:
    name: str
    principal: bool = False
    prime: bool = False


@record
class DomEdge:
    """src dominates dst, witnessed by the labelled formula."""

    src: str
    dst: str
    label: str
    principal: bool = False


@record
class DominationGraph:
    nodes: tuple[TypeNode, ...]
    edges: tuple[DomEdge, ...]

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names")
        known = set(names)
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge {e.src} -> {e.dst} references unknown node")
        for n in self.nodes:
            if n.principal and not n.prime:
                raise ValueError(
                    f"principal node {n.name} must have a prime model"
                )

    def names(self) -> list[str]:
        return [n.name for n in self.nodes]

    def index(self) -> dict[str, int]:
        return {n.name: i for i, n in enumerate(self.nodes)}


def rk_preorder(g: DominationGraph) -> Preorder:
    """Closure of the certificates, in <= orientation over g.nodes order.

    ``le(p, q)`` holds when p is dominated by q.
    """
    idx = g.index()
    pairs = [(idx[e.dst], idx[e.src]) for e in g.edges]
    return close(from_pairs(len(g.nodes), pairs))


def _principal_closure(g: DominationGraph) -> Preorder:
    idx = g.index()
    pairs = [(idx[e.dst], idx[e.src]) for e in g.edges if e.principal]
    return close(from_pairs(len(g.nodes), pairs))


def strong_equiv(g: DominationGraph, p: str, q: str) -> bool:
    """Principal-witness domination in both directions.

    Identity counts: a node is strongly equivalent to itself via the
    equality formula.  When both nodes carry prime models this is the
    isomorphism criterion for those models.
    """
    idx = g.index()
    if p not in idx or q not in idx:
        raise KeyError(f"unknown node in ({p!r}, {q!r})")
    if p == q:
        return True
    pc = _principal_closure(g)
    return pc.sim(idx[p], idx[q])


def iso_classes(g: DominationGraph) -> list[frozenset[str]]:
    """Isomorphism classes of prime-model nodes under strong equivalence,
    in the order of their first members."""
    prime = prime_node_order(g)
    idx = g.index()
    q = sim_quotient(induced(_principal_closure(g), [idx[name] for name in prime]))
    return [frozenset(prime[a] for a in members) for members in q.classes]


def prime_node_order(g: DominationGraph) -> list[str]:
    return [n.name for n in g.nodes if n.prime]


def rk_structure(g: DominationGraph) -> QuotientPoset:
    """Mutual-domination quotient of the prime-model nodes.

    Classes are indexed against prime_node_order(g); strongly equivalent
    nodes land in one class (strong equivalence refines mutual
    domination), and the induced order is a partial order.
    """
    idx = g.index()
    order = rk_preorder(g)
    return sim_quotient(induced(order, [idx[name] for name in prime_node_order(g)]))


def rk_size(g: DominationGraph) -> int:
    """Number of isomorphism types of prime models over tuples."""
    return len(iso_classes(g))


# -- limit models over a single type -----------------------------------------

@record
class RealEdge:
    """src isolates / semi-isolates dst among realizations of one type."""

    src: str
    dst: str
    principal: bool = False
    semi_isolates: bool = False

    def __post_init__(self) -> None:
        if self.principal and not self.semi_isolates:
            raise ValueError("a principal edge always semi-isolates")


@record
class RealizationDigraph:
    prime: bool
    nodes: tuple[str, ...]
    edges: tuple[RealEdge, ...]

    def __post_init__(self) -> None:
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate realization names")
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge {e.src} -> {e.dst} references unknown node")


def limit_exists_over(r: RealizationDigraph) -> bool:
    """Non-symmetry criterion: some principal step whose reverse does not
    semi-isolate.  Requires the prime model over the type to exist."""
    if not r.prime:
        raise ValueError("limit criterion needs the prime model over the type")
    semi = {(e.src, e.dst) for e in r.edges if e.semi_isolates}
    for e in r.edges:
        if e.principal and (e.dst, e.src) not in semi:
            return True
    return False
