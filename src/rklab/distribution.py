"""Distribution triples, admissibility, and buildable blueprints.

The triple of a theory counts (prime-over-tuple, limit, other) countable
models.  The classifier reads one ordered table, ``RULES``: the first row
whose theory class and coordinate shapes fit a triple decides it, as a
small-theory case, one of the three families whose union is forced once
a theory has a continuum of types, or a reason code naming the
obstruction.

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
from math import comb, inf

from .cardinal import (
    CONTINUUM,
    OMEGA,
    OMEGA1,
    ZERO,
    Card,
    card_eq,
    card_key,
    card_le,
    card_sum_all,
    fin,
    render,
)
from .record import record
from .report import Report, ReportBuilder  # preorder, domination, operators: imported where used


@record
class Cm3Triple:
    p: Card
    l: Card
    npl: Card

    def __iter__(self):
        return iter((self.p, self.l, self.npl))

    def render(self) -> str:
        return f"({render(self.p)},{render(self.l)},{render(self.npl)})"


@record
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


# A shape is an interval [least, bound) of the cardinal line, unbounded
# above for None: w1 follows w under either CH flag, and nothing follows c.
SHAPES: dict[str, tuple[Card, Card | None]] = {
    "any": (ZERO, None),
    "0": (ZERO, fin(1)),
    "1": (fin(1), fin(2)),
    ">=1": (fin(1), None),
    "<=w": (ZERO, OMEGA1),
    "c": (CONTINUUM, None),
    "<c": (ZERO, CONTINUUM),
}
_INTERVALS = {
    ch: {
        shape: (card_key(lo, ch), (inf,) if hi is None else card_key(hi, ch))
        for shape, (lo, hi) in SHAPES.items()
    }
    for ch in (False, True)
}

# (theory class, p shape, l shape, npl shape, status, case or reason): the
# first row whose class and three shapes fit a triple decides it.
RULES: tuple[tuple[str, str, str, str, str, int | str], ...] = (
    ("small", "any", "any", ">=1", "inadmissible", "small-npl-nonzero"),
    ("small", "1", "0", "any", "admissible-small", 1),
    ("small", "1", "any", "any", "inadmissible", "p-categorical-forces-zero-limits"),
    ("small", "0", "any", "any", "inadmissible", "small-needs-prime-model"),
    ("small", "<=w", "0", "any", "inadmissible", "multiple-primes-need-limits"),
    ("small", "<=w", "any", "any", "admissible-small", 2),
    ("small", "any", "any", "any", "inadmissible", "small-prime-count-at-most-countable"),
    ("tc", "c", "c", "any", "admissible-tc", 1),
    ("tc", "0", "0", "c", "admissible-tc", 2),
    ("tc", ">=1", "any", "c", "admissible-tc", 3),
    ("tc", "<c", "c", "<c", "inadmissible", "continuum-limits-need-continuum-primes-or-npl"),
    ("tc", "c", "<c", "<c", "inadmissible", "continuum-primes-force-continuum-limits"),
    ("tc", "0", ">=1", "any", "inadmissible", "limits-need-primes"),
    ("tc", "any", "any", "any", "inadmissible", "no-continuum-coordinate"),
)


def classify_triple(t: Cm3Triple, theory_class: str = "tc", ch: bool = True) -> Verdict:
    """Admissibility of a distribution triple: the first row of ``RULES``
    for ``theory_class`` that the triple fits.

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
    interval = _INTERVALS[ch]
    kp, kl, knpl = (card_key(v, ch) for v in t)
    for cls, sp, sl, snpl, status, outcome in RULES:
        (plo, phi), (llo, lhi), (nlo, nhi) = interval[sp], interval[sl], interval[snpl]
        if cls == theory_class and plo <= kp < phi and llo <= kl < lhi and nlo <= knpl < nhi:
            case, reason = (None, outcome) if status == "inadmissible" else (outcome, None)
            return Verdict(status, case, reason, tuple(flags))
    raise ValueError(f"unknown theory class {theory_class!r}")


def decompose(rk: Card, il: list[Card] | tuple[Card, ...], npl: Card) -> Card:
    """Total countable-model count: prime types plus limit counts plus rest."""
    return card_sum_all([rk, *il, npl])


def decompose_tc(
    rk: Card, il: list[Card] | tuple[Card, ...], npl: Card, ch: bool = True
) -> tuple[Card, bool]:
    total = decompose(rk, il, npl)
    return total, card_eq(total, CONTINUUM, ch)


# -- distribution specs -------------------------------------------------------

@record
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


@record
class DistributionSpec:
    order: Preorder
    mode: str  # "finite" | "countable-truncated"
    # f, sorted by key: per class (a frozenset) in finite mode, per SeqKey otherwise
    values: tuple[tuple[frozenset[int] | SeqKey, Card], ...] = ()
    partition: tuple[tuple[int, str], ...] | None = None
    npl_residual: Card | None = None
    triple: Cm3Triple | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("finite", "countable-truncated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        finite = self.mode == "finite"
        for key, _ in self.values:
            if not isinstance(key, frozenset if finite else SeqKey):
                kind = "class" if finite else "sequence"
                raise ValueError(f"{self.mode} mode keys f by {kind}, got {key!r}")
        keys = {key for key, _ in self.values}
        if len(keys) != len(self.values):
            raise ValueError("f gives each key one value")
        by = (lambda kv: sorted(kv[0])) if finite else (lambda kv: kv[0].render())
        object.__setattr__(self, "values", tuple(sorted(self.values, key=by)))
        if finite:
            if keys != {frozenset(c) for c in self.order.classes}:
                raise ValueError("class values must cover exactly the quotient classes")
        else:
            for key, _ in self.values:
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
        """f per class, of a finite-mode spec."""
        assert self.mode == "finite"
        return dict(self.values)


def key_label(key: frozenset[int] | SeqKey) -> str:
    """A key of f as spec files, reports and the CLI write it: ``{i,j}``
    for a class, ``i<j`` for a sequence."""
    if isinstance(key, SeqKey):
        return key.render()
    return "{" + ",".join(str(x) for x in sorted(key)) + "}"


def finite_spec(
    order: Preorder,
    values: dict[frozenset[int], Card],
    partition: dict[int, str] | None = None,
    **fields,
) -> DistributionSpec:
    """A finite-mode spec; ``fields`` sets the remaining ``DistributionSpec`` fields."""
    return DistributionSpec(
        order,
        "finite",
        tuple(values.items()),
        tuple(sorted(partition.items())) if partition else None,
        **fields,
    )


def sequence_spec(
    order: Preorder,
    values: dict[SeqKey, Card],
    partition: dict[int, str] | None = None,
    **fields,
) -> DistributionSpec:
    """A sequence-mode spec; ``fields`` sets the remaining ``DistributionSpec`` fields."""
    return DistributionSpec(
        order,
        "countable-truncated",
        tuple(values.items()),
        tuple(sorted(partition.items())) if partition else None,
        **fields,
    )


# -- f validation -------------------------------------------------------------

_BUILDABLE_VALUES = "value must lie in w or be w or c"


def _value_buildable(v: Card) -> bool:
    """Every cardinal but w1: the values a blueprint or witness can build."""
    return v != OMEGA1


def subsequence_of(y1: SeqKey, y2: SeqKey) -> bool:
    """Is y1 a subsequence of y2, read on the completed sequences?

    Eventually-constant completions need the final letters to agree;
    extendable sequences grow through fresh elements of their own, so
    among those only equality embeds.
    """
    if not tail_equal(y1, y2):
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


def validate_f(spec: DistributionSpec) -> Report:
    """Check the limit-count function against the continuum-types builder
    conditions."""
    rb = ReportBuilder(f"f-validation:tc:{spec.mode}")
    for key, v in spec.values:
        rb.check(
            f"value-range:{key_label(key)}",
            _value_buildable(v),
            f"f = {render(v)}; {_BUILDABLE_VALUES}",
        )

    if spec.mode == "finite":
        values = spec.class_map()
        for members in spec.order.classes:
            key = frozenset(members)
            if len(members) > 1:
                rb.check(
                    f"fat-class-positive:{key_label(key)}",
                    card_le(fin(1), values[key], ch=False),
                    f"class has {len(members)} elements, f = {render(values[key])}",
                )
        return rb.done()

    for key, v in spec.values:
        if nonrepeating_cofinite(key):
            rb.check(
                f"growing-positive:{key.render()}",
                card_le(fin(1), v, ch=False),
                f"strictly growing sequence has f = {render(v)}",
            )
    for (k1, v1), (k2, v2) in itertools.permutations(spec.values, 2):
        if subsequence_of(k2, k1):
            rb.check(
                f"subsequence-monotone:{k1.render()}>={k2.render()}",
                card_le(v1, v2, ch=False),
                f"f({k1.render()}) = {render(v1)} exceeds f({k2.render()}) = {render(v2)}",
            )
        if tail_equal(k1, k2):
            rb.check(
                f"tail-equal:{k1.render()}~{k2.render()}",
                v1 == v2,
                f"{render(v1)} vs {render(v2)} on tail-equal sequences",
            )
    return rb.done()


# -- blueprints ---------------------------------------------------------------

@record
class BuildConfig:
    colors: int = 1
    per_color: int = 1
    depth: int = 1
    fan_out: int = 2

    def __post_init__(self) -> None:
        if self.colors < 1:
            raise ValueError("colors must be positive")
        if self.depth < max(1, self.colors - 1):
            raise ValueError("split depth must cover the finite colors")
        if self.fan_out < 1:
            raise ValueError("fan-out must be positive")


@record
class TheoryBlueprint:
    predicates: tuple[str, ...]
    pipeline: tuple[PipelineStep, ...]  # base, one qedge per q edge, operator steps
    config: BuildConfig

    @property
    def operator_plan(self) -> tuple[PipelineStep, ...]:
        return tuple(step for step in self.pipeline if step.op not in ("base", "qedge"))


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
    from .operators import UNIVERSE_CAP, PipelineStep, pnode
    from .preorder import components, ranks

    if variant not in ("t77", "t84", "t91", "t92"):
        raise ValueError(f"unknown variant {variant!r}")
    if spec.order.n == 0:
        raise ValueError("a blueprint needs at least one element")
    if variant == "t77" and spec.mode != "finite":
        raise ValueError("the finite builder needs a finite-mode spec")
    if variant in ("t91", "t92") and spec.partition is None:
        raise ValueError(f"{variant} needs the P/NPL partition")
    report = validate_f(spec)
    if not report.ok:
        bad = ", ".join(e.code for e in report.violations())
        raise ValueError(f"f validation failed: {bad}")

    m = spec.order.n
    predicates = tuple(f"P{i}" for i in range(m))
    q = spec.order
    rank = ranks(q)
    comps = components(q)

    labels = dict(spec.partition or ())
    p_elems = [i for i in range(m) if labels.get(i, "P") == "P"]
    npl_elems = [i for i in range(m) if labels.get(i) == "NPL"]

    def elem_sort(elems: list[int]) -> list[int]:
        return sorted(elems, key=lambda e: (rank[q.class_of(e)], e))

    fan, depth = config.fan_out, config.depth

    def icp_step(e: int) -> PipelineStep:
        return PipelineStep("icp", {"sub": f"P{e}", "depth": depth, "fan": fan, "y": None})

    def css_step(e: int, source: int) -> PipelineStep:
        return PipelineStep("css", {"sub": f"P{e}", "source": f"P{source}", "fan": fan})

    def bu_step(a: int, b: int) -> PipelineStep:
        return PipelineStep(
            "bu", {"sub1": f"P{a}", "sub2": f"P{b}", "depth": depth, "fan": fan, "z": None}
        )

    def qedge_step(low: int, high: int, principal: bool) -> PipelineStep:
        return PipelineStep("qedge", {"low": low, "high": high, "principal": principal})

    plan = [
        PipelineStep("base", {"parts": m, "colors": config.colors, "per_color": config.per_color})
    ]
    # a ring of q edges through each class of two or more, a principal one per cover
    for members in q.classes:
        ring = sorted(members)
        if len(ring) > 1:
            plan += (qedge_step(a, b, False) for a, b in zip(ring, ring[1:] + ring[:1]))
    plan += (qedge_step(min(q.classes[a]), min(q.classes[b]), True) for a, b in q.covers())
    # the partition and allocation steps, as (operator, part) in plan order
    if variant in ("t77", "t84"):
        source = 0
        splits = [("icp", source)]
        splits += [("css", e) for elements, _ in comps for e in elem_sort(elements)]
    elif variant == "t91":
        source = 0
        splits = [("icp", source)] + [("css", e) for e in elem_sort(p_elems)]
        splits += [("icp", e) for e in elem_sort(npl_elems) if e != source or source in p_elems]
    else:  # t92: partition first, then allocation
        icp_elems = elem_sort(npl_elems) or [0]
        source = icp_elems[0]
        splits = [("icp", e) for e in icp_elems] + [("css", e) for e in elem_sort(p_elems)]
    # a bu step per two components and per two maximal classes of one; each
    # icp, css and bu step adds an element, so a longer plan never applies
    steps = len(splits) + comb(len(comps), 2) + sum(comb(len(reps), 2) for _, reps in comps)
    UNIVERSE_CAP.check(steps, "icp, css and bu steps")
    plan += (icp_step(e) if op == "icp" else css_step(e, source) for op, e in splits)

    for (_, reps_a), (_, reps_b) in itertools.combinations(comps, 2):
        plan.append(bu_step(reps_a[0], reps_b[0]))
    for _, reps in comps:
        for a, b in itertools.combinations(reps, 2):
            plan.append(bu_step(a, b))

    # a limit target per class of nonzero f (finite mode), or per sequence
    if spec.mode == "finite":
        values = spec.class_map()
        targets = [("lmt", "node", pnode(f"P{min(c)}"), values[frozenset(c)]) for c in q.classes]
    else:
        targets = [("lms", "nodes", tuple(pnode(f"P{e}") for e in k.entries), v) for k, v in spec.values]
    for op, arg, nodes, f_val in targets:
        if f_val != ZERO:
            plan.append(PipelineStep(op, {arg: nodes, "lam": f_val}))

    if variant == "t92":
        # a pipeline argument is one token
        if spec.npl_residual == CONTINUUM:
            note = "residual_continuum_of_types_kept_prime-less"
        else:
            note = "allocation_over_tuples_gives_prime_models_over_the_residual_types"
        plan.append(PipelineStep("note", {"text": note}))

    return TheoryBlueprint(predicates, tuple(plan), config)


def replay_blueprint(
    bp: TheoryBlueprint, config: BuildConfig = BuildConfig(), check: bool = False
) -> StructSpec:
    """Run the blueprint's pipeline on a freshly seeded structure.

    ``config`` must be the one the blueprint was built with, since its
    sizes are baked into the pipeline.  With ``check`` set, every
    operator record is verified as soon as it is applied and a
    violation raises immediately.
    """
    from .operators import run_pipeline

    if config != bp.config:
        raise ValueError(f"blueprint was built with {bp.config}, not {config}")
    return run_pipeline(bp.pipeline, check)


def replayed_prime_preorder(struct: StructSpec, predicates: tuple[str, ...]) -> Preorder:
    """The domination preorder on the parts' type nodes after replay."""
    from .domination import rk_preorder
    from .operators import pnode
    from .preorder import induced

    g = struct.to_domination_graph()
    idx = g.index()
    return induced(rk_preorder(g), [idx[pnode(p)] for p in predicates])


def replayed_il(struct: StructSpec, spec: DistributionSpec) -> dict[frozenset[int], Card]:
    """Read the per-class limit targets back out of the replayed registry."""
    from .operators import pnode

    targets = struct.limit_targets
    out: dict[frozenset[int], Card] = {}
    for members in spec.order.classes:
        rep = min(members)
        out[frozenset(members)] = targets.get(pnode(f"P{rep}"), ZERO)
    return out


# -- corollary witnesses ------------------------------------------------------

def _check_range(value: Card, what: str) -> None:
    if not _value_buildable(value):
        raise ValueError(f"{what} out of range: {render(value)}")


def realize_corollary(kind: str, params: tuple[Card, ...]) -> DistributionSpec:
    """A distribution spec witnessing one of the realizability patterns.

    c78: finitely many primes, any limit count, continuum rest.
    c85: countably many primes, any limit count, continuum rest.
    c93: continuum primes and limits, chosen count of other models.
    """
    from .preorder import from_pairs

    if kind == "c78":
        lam1, lam2 = params
        if not (lam1.finite and lam1.value >= 1):
            raise ValueError(f"first parameter must be a positive natural, got {render(lam1)}")
        _check_range(lam2, "second parameter")
        n = lam1.value
        values = {frozenset({i}): ZERO for i in range(n)}
        values[frozenset({0})] = lam2
        return finite_spec(from_pairs(n, []), values, triple=Cm3Triple(lam1, lam2, CONTINUUM))
    if kind == "c85":
        (lam,) = params
        _check_range(lam, "limit count")
        order = from_pairs(3, [(0, 1), (1, 2)])
        key = SeqKey((0, 1, 2), extendable=lam != ZERO)
        return sequence_spec(order, {key: lam}, triple=Cm3Triple(OMEGA, lam, CONTINUUM))
    if kind == "c93":
        (lam,) = params
        _check_range(lam, "npl count")
        npl_count = 2 if lam in (OMEGA, CONTINUUM) else lam.value
        n = 3 + npl_count
        order = from_pairs(n, [(0, 1), (1, 2)])
        partition = {i: ("P" if i < 3 else "NPL") for i in range(n)}
        key = SeqKey((0, 1, 2), extendable=True)
        residual = CONTINUUM if lam == CONTINUUM else None
        return sequence_spec(
            order,
            {key: CONTINUUM},
            partition=partition,
            npl_residual=residual,
            triple=Cm3Triple(CONTINUUM, CONTINUUM, lam),
        )
    raise ValueError(f"unknown corollary kind {kind!r}")


def target_triple(spec: DistributionSpec) -> Cm3Triple:
    """The distribution triple the spec is built to realize."""
    if spec.triple is not None:
        return spec.triple
    p = fin(spec.order.n) if spec.mode == "finite" else OMEGA
    return Cm3Triple(p, card_sum_all(v for _, v in spec.values), CONTINUUM)
