"""Distribution triples, admissibility, and buildable blueprints.

The triple of a theory counts (prime-over-tuple, limit, other) countable
models.  The classifier accepts exactly the admissible families: the
small-theory value list on one side and, for theories with a continuum
of types, the three families whose union is forced once some coordinate
must be the continuum; the two impossible patterns are rejected with
reason codes naming the obstruction.

A distribution spec is a finite preorder plus the limit-count function,
either per mutual-domination class (finite mode) or per domination
sequence (countable-truncated mode, where finite tuples stand for
eventually-constant sequences unless marked extendable, in which case
they continue strictly through fresh elements of their own).  Builders
turn a validated spec into an operator pipeline; running it through
``operators.run_pipeline`` reproduces the spec's preorder as the
registry's prime-model structure and the f values as limit targets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .cardinal import (
    CONTINUUM,
    OMEGA,
    OMEGA1,
    ZERO,
    Card,
    card_eq,
    card_le,
    card_lt,
    card_sum_all,
    fin,
    render,
)
from .domination import (
    DominationGraph,
    iso_classes,
    prime_node_order,
    rk_preorder,
    rk_structure,
)
from .operators import PipelineStep, StructSpec, pnode, run_pipeline
from .preorder import (
    Preorder,
    close,
    from_pairs,
    induced,
    is_closed,
    ranks,
    sim_quotient,
)
from .report import Report, ReportBuilder


@dataclass(frozen=True)
class Cm3Triple:
    p: Card
    l: Card
    npl: Card

    def __iter__(self):
        return iter((self.p, self.l, self.npl))

    def render(self) -> str:
        return f"({render(self.p)},{render(self.l)},{render(self.npl)})"


@dataclass(frozen=True)
class Verdict:
    status: str  # "admissible-small" | "admissible-tc" | "inadmissible"
    case: int | None = None
    reason: str | None = None
    flags: tuple[str, ...] = ()

    @property
    def admissible(self) -> bool:
        return self.status != "inadmissible"

    def render(self) -> str:
        if self.status == "admissible-small":
            out = f"AdmissibleSmall case {self.case}"
        elif self.status == "admissible-tc":
            out = f"AdmissibleTc family {self.case}"
        else:
            out = f"Inadmissible({self.reason})"
        if self.flags:
            out += " [" + ", ".join(self.flags) + "]"
        return out


# Three admissible families once the type space is a continuum, as data:
# (family id, p shape, l shape, npl shape); "c" means equal to the
# continuum under the active CH flag, "0" exactly zero, ">=1" at least
# one, "any" unrestricted.
TC_FAMILIES: tuple[tuple[int, str, str, str], ...] = (
    (1, "c", "c", "any"),
    (2, "0", "0", "c"),
    (3, ">=1", "any", "c"),
)


def _shape_ok(shape: str, value: Card, ch: bool) -> bool:
    if shape == "c":
        return card_eq(value, CONTINUUM, ch)
    if shape == "0":
        return card_eq(value, ZERO, ch)
    if shape == ">=1":
        return card_le(fin(1), value, ch)
    return True  # "any"


def classify_triple(t: Cm3Triple, theory_class: str = "tc", ch: bool = True) -> Verdict:
    """Admissibility of a distribution triple.

    ``theory_class`` selects the small-theory value list or the
    continuum-types families.  Under the CH flag the first uncountable
    cardinal participates in continuum comparisons; without it, triples
    mentioning it are still classified against the same families but
    flagged, since the family list assumes the continuum hypothesis.
    """
    flags: list[str] = []
    if any(v == OMEGA1 for v in t):
        flags.append("omega1-coordinate")
        if theory_class == "small":
            flags.append("omega1-value-unrealized")
        elif not ch:
            flags.append("outside-ch-hypothesis")

    if theory_class == "small":
        exact = lambda a, b: card_eq(a, b, ch=False)
        if not exact(t.npl, ZERO):
            return Verdict("inadmissible", reason="small-npl-nonzero", flags=tuple(flags))
        if exact(t.p, fin(1)):
            if exact(t.l, ZERO):
                return Verdict("admissible-small", case=1, flags=tuple(flags))
            return Verdict(
                "inadmissible", reason="p-categorical-forces-zero-limits", flags=tuple(flags)
            )
        if exact(t.p, ZERO):
            return Verdict("inadmissible", reason="small-needs-prime-model", flags=tuple(flags))
        if t.p.finite or exact(t.p, OMEGA):
            if exact(t.l, ZERO):
                return Verdict(
                    "inadmissible", reason="multiple-primes-need-limits", flags=tuple(flags)
                )
            return Verdict("admissible-small", case=2, flags=tuple(flags))
        return Verdict(
            "inadmissible", reason="small-prime-count-at-most-countable", flags=tuple(flags)
        )

    if theory_class != "tc":
        raise ValueError(f"unknown theory class {theory_class!r}")

    for fam, sp, sl, snpl in TC_FAMILIES:
        if (
            _shape_ok(sp, t.p, ch)
            and _shape_ok(sl, t.l, ch)
            and _shape_ok(snpl, t.npl, ch)
        ):
            return Verdict("admissible-tc", case=fam, flags=tuple(flags))
    is_c = lambda v: card_eq(v, CONTINUUM, ch)
    below_c = lambda v: card_lt(v, CONTINUUM, ch)
    if is_c(t.l) and below_c(t.p) and below_c(t.npl):
        return Verdict(
            "inadmissible",
            reason="continuum-limits-need-continuum-primes-or-npl",
            flags=tuple(flags),
        )
    if is_c(t.p) and below_c(t.l) and below_c(t.npl):
        return Verdict(
            "inadmissible",
            reason="continuum-primes-force-continuum-limits",
            flags=tuple(flags),
        )
    if card_eq(t.p, ZERO, ch) and not card_eq(t.l, ZERO, ch):
        return Verdict("inadmissible", reason="limits-need-primes", flags=tuple(flags))
    return Verdict("inadmissible", reason="no-continuum-coordinate", flags=tuple(flags))


def decompose(rk: Card, il: list[Card] | tuple[Card, ...], npl: Card) -> Card:
    """Total countable-model count: prime types plus limit counts plus rest."""
    return card_sum_all([rk, *il, npl])


def decompose_tc(
    rk: Card, il: list[Card] | tuple[Card, ...], npl: Card, ch: bool = True
) -> tuple[Card, bool]:
    total = decompose(rk, il, npl)
    return total, card_eq(total, CONTINUUM, ch)


# -- distribution specs -------------------------------------------------------

@dataclass(frozen=True)
class SeqKey:
    """A finite chain standing for a domination sequence.

    Without the marker the sequence repeats its last element forever;
    with it, the sequence keeps growing strictly through fresh elements
    of its own beyond the truncation.
    """

    entries: tuple[int, ...]
    extendable: bool = False

    def render(self) -> str:
        body = "<".join(str(e) for e in self.entries)
        return body + ("<..." if self.extendable else "")


@dataclass(frozen=True)
class DistributionSpec:
    order: Preorder
    mode: str  # "finite" | "countable-truncated"
    class_values: tuple[tuple[frozenset[int], Card], ...] | None = None
    seq_values: tuple[tuple[SeqKey, Card], ...] | None = None
    partition: tuple[tuple[int, str], ...] | None = None
    extendable: bool = False
    npl_residual: Card | None = None
    triple: Cm3Triple | None = None

    def __post_init__(self) -> None:
        if not is_closed(self.order):
            raise ValueError("spec order must be closed")
        if self.mode not in ("finite", "countable-truncated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "finite":
            if self.class_values is None:
                raise ValueError("finite mode needs per-class values")
            q = sim_quotient(self.order)
            expected = {frozenset(c) for c in q.classes}
            got = {k for k, _ in self.class_values}
            if expected != got:
                raise ValueError("class values must cover exactly the quotient classes")
        else:
            if self.seq_values is None:
                raise ValueError("countable-truncated mode needs per-sequence values")
            for key, _ in self.seq_values:
                if not key.entries:
                    raise ValueError("empty sequence key")
                for a in key.entries:
                    if not (0 <= a < self.order.n):
                        raise ValueError(f"sequence entry {a} out of range")
                for a, b in zip(key.entries, key.entries[1:]):
                    if not self.order.le(a, b):
                        raise ValueError(f"sequence {key.render()} is not a chain")
        if self.partition is not None:
            labels = dict(self.partition)
            if set(labels) != set(range(self.order.n)):
                raise ValueError("partition must label every element")
            if not set(labels.values()) <= {"P", "NPL"}:
                raise ValueError("partition labels are P or NPL")

    def class_map(self) -> dict[frozenset[int], Card]:
        assert self.class_values is not None
        return dict(self.class_values)

    def seq_map(self) -> dict[SeqKey, Card]:
        assert self.seq_values is not None
        return dict(self.seq_values)

    def partition_map(self) -> dict[int, str]:
        assert self.partition is not None
        return dict(self.partition)


def finite_spec(
    order: Preorder,
    values: dict[frozenset[int], Card],
    partition: dict[int, str] | None = None,
) -> DistributionSpec:
    return DistributionSpec(
        close(order),
        "finite",
        class_values=tuple(sorted(values.items(), key=lambda kv: sorted(kv[0]))),
        partition=tuple(sorted(partition.items())) if partition else None,
    )


def sequence_spec(
    order: Preorder,
    values: dict[SeqKey, Card],
    partition: dict[int, str] | None = None,
    extendable: bool = True,
) -> DistributionSpec:
    return DistributionSpec(
        close(order),
        "countable-truncated",
        seq_values=tuple(sorted(values.items(), key=lambda kv: kv[0].render())),
        partition=tuple(sorted(partition.items())) if partition else None,
        extendable=extendable,
    )


# -- f validation -------------------------------------------------------------

_BUILDABLE_VALUES = "value must lie in w or be w or c"


def _value_buildable(v: Card) -> bool:
    return v.finite or v == OMEGA or v == CONTINUUM


def subsequence_of(y1: SeqKey, y2: SeqKey) -> bool:
    """Is y1 a subsequence of y2, read on the completed sequences?

    Eventually-constant completions need the final letters to agree;
    extendable sequences grow through fresh elements of their own, so
    among those only equality embeds.
    """
    if y1.extendable != y2.extendable:
        return False
    if y1.extendable:
        return y1 == y2
    if y1.entries[-1] != y2.entries[-1]:
        return False
    it = iter(y2.entries)
    return all(any(e == x for x in it) for e in y1.entries)


def tail_equal(y1: SeqKey, y2: SeqKey) -> bool:
    if y1.extendable != y2.extendable:
        return False
    if y1.extendable:
        return y1 == y2
    return y1.entries[-1] == y2.entries[-1]


def nonrepeating_cofinite(y: SeqKey) -> bool:
    """Some cofinite tail of the completion has pairwise distinct entries."""
    return y.extendable


def validate_f(spec: DistributionSpec, profile: str = "tc") -> Report:
    """Check the limit-count function against its buildability conditions.

    ``profile`` is "tc" for the continuum-types builder conditions and
    "small" for the stricter small-theory list (least element excluded
    from sequences, zero at the bottom, positive at the top and on fat
    classes, cofinal sequences positive).
    """
    if profile not in ("tc", "small"):
        raise ValueError(f"unknown profile {profile!r}")
    rb = ReportBuilder(f"f-validation:{profile}:{spec.mode}")
    q = sim_quotient(spec.order)

    if spec.mode == "finite":
        values = spec.class_map()
        for key, v in sorted(values.items(), key=lambda kv: sorted(kv[0])):
            rb.check(
                f"value-range:{_class_label(key)}",
                _value_buildable(v),
                f"f = {render(v)}; {_BUILDABLE_VALUES}",
            )
        for ci, members in enumerate(q.classes):
            key = frozenset(members)
            if len(members) > 1:
                rb.check(
                    f"fat-class-positive:{_class_label(key)}",
                    card_le(fin(1), values[key], ch=False),
                    f"class has {len(members)} elements, f = {render(values[key])}",
                )
        if profile == "small":
            least = q.least()
            rb.check("least-class-exists", least is not None)
            if least is not None:
                lkey = frozenset(q.classes[least])
                rb.check(
                    "least-class-zero",
                    card_eq(values[lkey], ZERO, ch=False),
                    f"f at the least class is {render(values[lkey])}",
                )
            greatest = q.greatest()
            if spec.order.n > 1:
                rb.check("greatest-class-exists", greatest is not None)
                if greatest is not None:
                    gkey = frozenset(q.classes[greatest])
                    rb.check(
                        "greatest-class-positive",
                        card_le(fin(1), values[gkey], ch=False),
                        f"f at the greatest class is {render(values[gkey])}",
                    )
        return rb.done()

    values = spec.seq_map()
    for key, v in values.items():
        rb.check(
            f"value-range:{key.render()}",
            _value_buildable(v),
            f"f = {render(v)}; {_BUILDABLE_VALUES}",
        )
    if profile == "small":
        least = q.least()
        rb.check("least-class-exists", least is not None)
        least_members = set(q.classes[least]) if least is not None else set()
        for key in values:
            rb.check(
                f"avoids-least:{key.render()}",
                not (set(key.entries) & least_members),
                "sequences range over the non-least elements",
            )
            cofinal = all(
                any(spec.order.le(x, e) for e in key.entries)
                for x in range(spec.order.n)
            )
            if cofinal:
                rb.check(
                    f"cofinal-positive:{key.render()}",
                    card_le(fin(1), values[key], ch=False),
                    f"cofinal sequence has f = {render(values[key])}",
                )
    for key, v in values.items():
        if nonrepeating_cofinite(key):
            rb.check(
                f"growing-positive:{key.render()}",
                card_le(fin(1), v, ch=False),
                f"strictly growing sequence has f = {render(v)}",
            )
    items = sorted(values.items(), key=lambda kv: kv[0].render())
    for (k1, v1), (k2, v2) in itertools.permutations(items, 2):
        if k1 == k2:
            continue
        if subsequence_of(k2, k1):
            rb.check(
                f"subsequence-monotone:{k1.render()}>={k2.render()}",
                card_le(v1, v2, ch=False),
                f"f({k1.render()}) = {render(v1)} exceeds f({k2.render()}) = {render(v2)}",
            )
        if tail_equal(k1, k2):
            rb.check(
                f"tail-equal:{k1.render()}~{k2.render()}",
                card_eq(v1, v2, ch=False),
                f"{render(v1)} vs {render(v2)} on tail-equal sequences",
            )
    return rb.done()


def _class_label(key: frozenset[int]) -> str:
    return "{" + ",".join(str(x) for x in sorted(key)) + "}"


def limit_obligations(g: DominationGraph) -> dict[frozenset[str], bool]:
    """Per mutual-domination class of prime nodes: does it force a limit
    model (two or more isomorphism types in one class)?"""
    prime = prime_node_order(g)
    q = rk_structure(g)
    iso = iso_classes(g)
    iso_of = {name: i for i, cls in enumerate(iso) for name in cls}
    out: dict[frozenset[str], bool] = {}
    for members in q.classes:
        names = frozenset(prime[i] for i in members)
        kinds = {iso_of[n] for n in names}
        out[names] = len(kinds) > 1
    return out


# -- blueprints ---------------------------------------------------------------

@dataclass(frozen=True)
class BuildConfig:
    colors: int = 1
    per_color: int = 1
    depth: int = 1
    fan_out: int = 2

    def __post_init__(self) -> None:
        if self.depth < max(1, self.colors - 1):
            raise ValueError("split depth must cover the finite colors")


@dataclass(frozen=True)
class TheoryBlueprint:
    predicates: tuple[str, ...]
    q_edges: tuple[tuple[int, int, bool], ...]
    pipeline: tuple[PipelineStep, ...]  # base, one qedge per q edge, operator steps
    config: BuildConfig
    partition: tuple[tuple[int, str], ...] | None
    variant: str
    notes: tuple[str, ...] = ()

    @property
    def operator_plan(self) -> tuple[PipelineStep, ...]:
        return self.pipeline[1 + len(self.q_edges):]


def _components(order: Preorder) -> list[list[int]]:
    n = order.n
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
                if not seen[b] and (order.le(a, b) or order.le(b, a)):
                    seen[b] = True
                    comp.append(b)
                    queue.append(b)
        comps.append(sorted(comp))
    return comps


def build_blueprint(
    spec: DistributionSpec, variant: str, config: BuildConfig = BuildConfig()
) -> TheoryBlueprint:
    """Emit predicates, domination links, and the pipeline that builds them.

    The config's sizes are written into the steps.  The plan realizes
    the spec's preorder on the non-principal types of the parts, sizes
    limit targets by f, and differs between variants in the order of
    partition versus allocation: the allocation-first order pins the
    prime side of the partition exactly, the partition-first order pins
    the prime-less side exactly.
    """
    if variant not in ("t77", "t84", "t91", "t92"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "t77" and spec.mode != "finite":
        raise ValueError("the finite builder needs a finite-mode spec")
    if variant in ("t91", "t92") and spec.partition is None:
        raise ValueError(f"{variant} needs the P/NPL partition")
    report = validate_f(spec, "tc")
    if not report.ok:
        bad = ", ".join(e.code for e in report.violations())
        raise ValueError(f"f validation failed: {bad}")

    order = spec.order
    m = order.n
    predicates = tuple(f"P{i}" for i in range(m))
    q = sim_quotient(order)
    rank = ranks(q)

    q_edges: list[tuple[int, int, bool]] = []
    for members in q.classes:
        ring = sorted(members)
        if len(ring) > 1:
            for a, b in zip(ring, ring[1:] + ring[:1]):
                q_edges.append((a, b, False))
    for ca, cb in q.covers():
        q_edges.append((min(q.classes[ca]), min(q.classes[cb]), True))

    partition = spec.partition_map() if spec.partition is not None else None
    p_elems = [i for i in range(m) if partition is None or partition[i] == "P"]
    npl_elems = [i for i in range(m) if partition is not None and partition[i] == "NPL"]

    def elem_sort(elems: list[int]) -> list[int]:
        return sorted(elems, key=lambda e: (rank[q.class_of(e)], e))

    fan, depth = str(config.fan_out), str(config.depth)

    def icp_step(e: int) -> PipelineStep:
        return PipelineStep("icp", {"sub": f"P{e}", "depth": depth, "fan": fan, "y": "auto"})

    def css_step(e: int, source: int) -> PipelineStep:
        return PipelineStep("css", {"sub": f"P{e}", "source": f"P{source}", "fan": fan})

    def bu_step(a: int, b: int) -> PipelineStep:
        return PipelineStep(
            "bu", {"sub1": f"P{a}", "sub2": f"P{b}", "depth": depth, "fan": fan, "z": "auto"}
        )

    plan = [
        PipelineStep(
            "base",
            {"parts": str(m), "colors": str(config.colors), "per_color": str(config.per_color)},
        )
    ]
    for low, high, principal in q_edges:
        plan.append(
            PipelineStep(
                "qedge", {"low": str(low), "high": str(high), "principal": str(principal).lower()}
            )
        )
    if variant in ("t77", "t84"):
        source = 0
        plan.append(icp_step(source))
        for comp in _components(order):
            for e in elem_sort(comp):
                plan.append(css_step(e, source))
    elif variant == "t91":
        source = 0
        plan.append(icp_step(source))
        for e in elem_sort(p_elems):
            plan.append(css_step(e, source))
        for e in elem_sort(npl_elems):
            if e != source or source in p_elems:
                plan.append(icp_step(e))
    else:  # t92: partition first, then allocation
        icp_elems = elem_sort(npl_elems) or [0]
        source = icp_elems[0]
        for e in icp_elems:
            plan.append(icp_step(e))
        for e in elem_sort(p_elems):
            plan.append(css_step(e, source))

    comps = _components(order)
    comp_max_reps: list[list[int]] = []
    for comp in comps:
        classes = sorted({q.class_of(e) for e in comp})
        maxima = [
            c
            for c in classes
            if not any(d != c and q.le(c, d) for d in classes)
        ]
        comp_max_reps.append(sorted(min(q.classes[c]) for c in maxima))
    for a, b in itertools.combinations(range(len(comps)), 2):
        plan.append(bu_step(comp_max_reps[a][0], comp_max_reps[b][0]))
    for reps in comp_max_reps:
        for a, b in itertools.combinations(reps, 2):
            plan.append(bu_step(a, b))

    if spec.mode == "finite":
        for members in q.classes:
            f_val = spec.class_map()[frozenset(members)]
            if not card_eq(f_val, ZERO, ch=False):
                node = pnode(f"P{min(members)}")
                plan.append(PipelineStep("lmt", {"node": node, "lam": render(f_val)}))
    else:
        for key, f_val in sorted(spec.seq_map().items(), key=lambda kv: kv[0].render()):
            if not card_eq(f_val, ZERO, ch=False):
                nodes = ",".join(pnode(f"P{e}") for e in key.entries)
                plan.append(PipelineStep("lms", {"nodes": nodes, "lam": render(f_val)}))

    notes: list[str] = []
    if variant == "t92":
        if spec.npl_residual is not None and card_eq(
            spec.npl_residual, CONTINUUM, ch=False
        ):
            notes.append("residual continuum of types kept prime-less")
        else:
            notes.append(
                "allocation over tuples gives prime models over the residual types"
            )
        # a pipeline argument is one token
        plan.append(PipelineStep("note", {"text": notes[-1].replace(" ", "_")}))

    return TheoryBlueprint(
        predicates,
        tuple(q_edges),
        tuple(plan),
        config,
        spec.partition,
        variant,
        tuple(notes),
    )


def replay_blueprint(
    bp: TheoryBlueprint, config: BuildConfig = BuildConfig(), check: bool = False
) -> StructSpec:
    """Run the blueprint's pipeline on a freshly seeded structure.

    ``config`` must be the one the blueprint was built with, since its
    sizes are baked into the pipeline.  With ``check`` set, every
    operator record is verified as soon as it is applied and a
    violation raises immediately.
    """
    if config != bp.config:
        raise ValueError(f"blueprint was built with {bp.config}, not {config}")
    return run_pipeline(bp.pipeline, check)


def replayed_prime_preorder(struct: StructSpec, predicates: tuple[str, ...]) -> Preorder:
    """The domination preorder on the parts' type nodes after replay."""
    g = struct.registry.to_domination_graph()
    idx = g.index()
    return induced(rk_preorder(g), [idx[pnode(p)] for p in predicates])


def replayed_il(struct: StructSpec, spec: DistributionSpec) -> dict[frozenset[int], Card]:
    """Read the per-class limit targets back out of the replayed registry."""
    q = sim_quotient(spec.order)
    targets = struct.registry.limit_targets
    out: dict[frozenset[int], Card] = {}
    for members in q.classes:
        rep = min(members)
        out[frozenset(members)] = targets.get(pnode(f"P{rep}"), ZERO)
    return out


def replayed_prime_flags(struct: StructSpec, predicates: tuple[str, ...]) -> dict[int, bool]:
    return {
        i: struct.registry.nodes[pnode(p)].prime for i, p in enumerate(predicates)
    }


# -- corollary witnesses ------------------------------------------------------

def _check_range(value: Card, allow_zero: bool, what: str) -> None:
    ok = (value.finite and (allow_zero or value.value >= 1)) or value in (
        OMEGA,
        CONTINUUM,
    )
    if not ok:
        raise ValueError(f"{what} out of range: {render(value)}")


def realize_corollary(kind: str, params: tuple[Card, ...]) -> DistributionSpec:
    """A distribution spec witnessing one of the realizability patterns.

    c78: finitely many primes, any limit count, continuum rest.
    c85: countably many primes, any limit count, continuum rest.
    c93: continuum primes and limits, chosen count of other models.
    """
    if kind == "c78":
        lam1, lam2 = params
        if not (lam1.finite and lam1.value >= 1):
            raise ValueError(f"first parameter must be a positive natural, got {render(lam1)}")
        _check_range(lam2, allow_zero=True, what="second parameter")
        n = lam1.value
        order = close(from_pairs(n, []))
        q = sim_quotient(order)
        values = {frozenset(c): ZERO for c in q.classes}
        values[frozenset(q.classes[0])] = lam2
        spec = finite_spec(order, values)
        return replace(spec, triple=Cm3Triple(lam1, lam2, CONTINUUM))
    if kind == "c85":
        (lam,) = params
        _check_range(lam, allow_zero=True, what="limit count")
        order = close(from_pairs(3, [(0, 1), (1, 2)]))
        key = SeqKey((0, 1, 2), extendable=not card_eq(lam, ZERO, ch=False))
        spec = sequence_spec(order, {key: lam}, extendable=True)
        return replace(spec, triple=Cm3Triple(OMEGA, lam, CONTINUUM))
    if kind == "c93":
        (lam,) = params
        _check_range(lam, allow_zero=True, what="npl count")
        npl_count = 2 if lam in (OMEGA, CONTINUUM) else lam.value
        n = 3 + npl_count
        order = close(from_pairs(n, [(0, 1), (1, 2)]))
        partition = {i: ("P" if i < 3 else "NPL") for i in range(n)}
        key = SeqKey((0, 1, 2), extendable=True)
        spec = sequence_spec(order, {key: CONTINUUM}, partition=partition)
        residual = CONTINUUM if card_eq(lam, CONTINUUM, ch=False) else None
        return replace(
            spec,
            npl_residual=residual,
            triple=Cm3Triple(CONTINUUM, CONTINUUM, lam),
        )
    raise ValueError(f"unknown corollary kind {kind!r}")


def target_triple(spec: DistributionSpec) -> Cm3Triple:
    """The distribution triple the spec is built to realize."""
    if spec.triple is not None:
        return spec.triple
    p = OMEGA if spec.extendable else fin(spec.order.n)
    if spec.mode == "finite":
        l = card_sum_all(v for _, v in spec.class_values or ())
    else:
        l = card_sum_all(v for _, v in spec.seq_values or ())
    return Cm3Triple(p, l, CONTINUUM)
