"""Witnessed domination graphs over abstract type identifiers.

Edges are syntactic certificates: an edge q -> p with a formula label
says p is dominated by q, and the edge may carry a principal-witness
flag.  Nothing here inspects type contents; the graph is the record of
certificates the caller supplies.  The operator registry is built from
these node and edge records, so this module imports ``preorder`` only
in the functions that close a graph.

Strong equivalence is mutual reachability through principal
certificates, closed transitively: principal certificates compose, so
it is an equivalence by construction.  Restricted to nodes with prime
models it groups the isomorphism types (``iso_classes``); the coarser
mutual-domination quotient on top of it (``rk_structure``) is the
partially ordered structure the decomposition formulas range over.
"""
from __future__ import annotations

from .record import record


@record
class TypeNode:
    """A type.  The operator registry marks the continuation stubs an icp
    step registers with ``stub_of`` and ``stub_bits``, and a css step sets
    ``realized`` on those it realizes."""

    name: str
    principal: bool = False
    prime: bool = False
    stub_of: str | None = None
    stub_bits: str = ""
    realized: bool = False

    def __post_init__(self) -> None:
        if self.principal and not self.prime:
            raise ValueError(f"principal node {self.name} must have a prime model")


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

    def names(self) -> list[str]:
        return [n.name for n in self.nodes]

    def index(self) -> dict[str, int]:
        return {n.name: i for i, n in enumerate(self.nodes)}


def rk_preorder(g: DominationGraph, principal: bool = False) -> Preorder:
    """Closure of the certificates, in <= orientation over g.nodes order;
    with ``principal`` set, of the principal certificates only.

    ``le(p, q)`` holds when p is dominated by q.
    """
    from .preorder import from_pairs

    idx = g.index()
    pairs = [(idx[e.dst], idx[e.src]) for e in g.edges if e.principal or not principal]
    return from_pairs(len(g.nodes), pairs)


def prime_node_order(g: DominationGraph) -> list[str]:
    return [n.name for n in g.nodes if n.prime]


def _prime_quotient(g: DominationGraph, order: Preorder) -> Preorder:
    """``order`` restricted to the prime-model nodes, with classes indexed
    against prime_node_order(g)."""
    from .preorder import induced

    idx = g.index()
    return induced(order, [idx[name] for name in prime_node_order(g)])


def iso_classes(g: DominationGraph) -> list[frozenset[str]]:
    """Isomorphism classes of prime-model nodes under strong equivalence,
    in the order of their first members."""
    prime = prime_node_order(g)
    q = _prime_quotient(g, rk_preorder(g, principal=True))
    return [frozenset(prime[a] for a in members) for members in q.classes]


def rk_structure(g: DominationGraph) -> Preorder:
    """Mutual-domination quotient of the prime-model nodes.

    Classes are indexed against prime_node_order(g); strongly equivalent
    nodes land in one class (strong equivalence refines mutual
    domination), and the induced order is a partial order.
    """
    return _prime_quotient(g, rk_preorder(g))
