"""Countable models as realized-cell specifications, and their domination.

A model spec records how many realizations each cell gets.  For the
independent-predicates family the canonical representation is implicit:
a base that realizes every cell infinitely often plus finitely many
named edits.  A cell count is therefore either a plain finite number or
"infinite plus a finite offset"; the offset ordering is what makes
"add one realization" strictly larger even on top of the infinite base,
matching the realization-count comparison the family's domination uses.

Supports of independent-predicates specs must be dense: every countable
model of that family realizes a dense set of types, and density there
survives adding or removing single points, which is exactly what the
implicit base provides at finite depth.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .record import record
from .typespace import (
    Cell,
    TypeSpace,
    covers_all_formulas,
    enumerate_types,
    is_dense,
    render_cell,
    valid_cell,
)

COUNT_CAP = 8  # bounds an input count, not a computation: past it is a ValueError (exit 2)


@record
class CellCount:
    """Either a finite count k, or (infinite base) + offset k."""

    infinite: bool
    k: int

    def __le__(self, other: "CellCount") -> bool:  # type: ignore[override]
        if self.infinite and not other.infinite:
            return False
        if not self.infinite and other.infinite:
            return True
        return self.k <= other.k

    def __lt__(self, other: "CellCount") -> bool:  # type: ignore[override]
        return self.__le__(other) and self != other


@record
class ModelSpec:
    space: TypeSpace
    base_all: bool
    edits: tuple[tuple[Cell, int], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for cell, delta in self.edits:
            if not valid_cell(self.space, cell):
                raise ValueError(f"edit on invalid cell {cell!r}")
            if cell in seen:
                raise ValueError(f"duplicate edit for cell {cell!r}")
            seen.add(cell)
            if abs(delta) > COUNT_CAP:
                raise ValueError(f"edit magnitude exceeds cap {COUNT_CAP}")
            if not self.base_all and delta < 0:
                raise ValueError("negative count on an explicit spec")
        # one form per spec: the nonzero edits, sorted by rendered cell
        edits = sorted(((c, d) for c, d in self.edits if d != 0), key=lambda cd: render_cell(cd[0]))
        object.__setattr__(self, "edits", tuple(edits))
        object.__setattr__(self, "_deltas", dict(edits))
        if self.space.family == "iup" and not covers_all_formulas(self.space, self.support()):
            raise ValueError("support of an iup spec must be dense")

    def delta(self, cell: Cell) -> int:
        return self._deltas.get(cell, 0)

    def count(self, cell: Cell) -> CellCount:
        return CellCount(self.base_all, self.delta(cell))

    def support(self) -> frozenset[Cell]:
        return frozenset(enumerate_types(self.space) if self.base_all else self._deltas)  # explicit edits are > 0

    def with_delta(self, cell: Cell, change: int) -> "ModelSpec":
        edits = dict(self.edits)
        edits[cell] = edits.get(cell, 0) + change
        return ModelSpec(self.space, self.base_all, tuple(edits.items()))


def full_base(ts: TypeSpace) -> ModelSpec:
    return ModelSpec(ts, base_all=True)


def explicit(ts: TypeSpace, counts: Mapping[Cell, int]) -> ModelSpec:
    return ModelSpec(ts, base_all=False, edits=tuple(counts.items()))


def cm_dominates(m1: ModelSpec, m2: ModelSpec) -> bool:
    """Realized-type domination between countable-model specs.

    For the independent-predicates family realization counts compare
    pointwise; for the other families inclusion of realized cells is the
    whole condition.
    """
    if m1.space != m2.space:
        raise ValueError("specs live in different type spaces")
    if m1.space.family == "iup":
        return all(
            m1.count(cell) <= m2.count(cell) for cell in enumerate_types(m1.space)
        )
    return m1.support() <= m2.support()


def perturb(m: ModelSpec, direction: str) -> ModelSpec:
    """A strict neighbor below or above, support kept dense."""
    if m.space.family != "iup":
        raise ValueError("perturb applies to the independent-predicates family")
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    cells = enumerate_types(m.space)
    if direction == "up":
        lowest = min(m.delta(c) for c in cells)
        if lowest >= COUNT_CAP:
            raise ValueError("no strict upper neighbor within the count cap")
        for cell in cells:
            if m.delta(cell) == lowest:
                return m.with_delta(cell, +1)
    highest = max(m.delta(c) for c in cells)
    if m.base_all:
        if highest <= -COUNT_CAP:
            raise ValueError("no strict lower neighbor within the count cap")
        for cell in cells:
            if m.delta(cell) == highest:
                return m.with_delta(cell, -1)
    removable = [c for c in cells if m.delta(c) >= 2]
    if not removable:
        raise ValueError(
            "no strict lower neighbor: every realized cell is down to one point"
        )
    target = max(removable, key=lambda c: (m.delta(c), render_cell(c)))
    return m.with_delta(target, -1)


# -- domination sequences and the finite-depth submodel construction ---------

@record
class RkSequence:
    """Cells q_0 <= q_1 <= ... with a witness label for each adjacent pair."""

    entries: tuple[Cell, ...]
    witnesses: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("sequence must be nonempty")
        if self.witnesses and len(self.witnesses) != len(self.entries) - 1:
            raise ValueError("need one witness per adjacent pair")


def is_elementary_submodel_sequence(
    ts: TypeSpace, seq: RkSequence, lower_cones: Sequence[Iterable[Cell]]
) -> bool:
    """Finite-depth rendering of the elementary-submodel condition.

    Every consistent one-variable formula of the space must lie in
    some cell dominated by an entry, i.e. in the union of the supplied
    lower cones.  The existential-extension clause is vacuous for the
    literal-conjunction fragment (no quantified formulas are
    represented) and is deliberately not claimed.
    """
    if len(lower_cones) != len(seq.entries):
        raise ValueError("need one lower cone per sequence entry")
    return is_dense(ts, (cell for cone in lower_cones for cell in cone))


def construct_model(
    ts: TypeSpace, seq: RkSequence, lower_cones: Sequence[Iterable[Cell]]
) -> ModelSpec:
    """Build the witness model over a covering sequence: one realization
    for each cell of the union of the lower cones.

    A formula holds in a cell exactly when it holds in every cell of that
    cell's coverage group, so every consistent formula has a witness in
    the union exactly when every group meets the union, which is what
    ``is_elementary_submodel_sequence`` checks.  One realization per cell
    of the union therefore witnesses every formula, the support is the
    union, and every count is within ``COUNT_CAP``.
    """
    cones = [list(cone) for cone in lower_cones]
    if not is_elementary_submodel_sequence(ts, seq, cones):
        raise ValueError("sequence is not elementary-submodel at this depth")
    return explicit(ts, {cell: 1 for cone in cones for cell in cone})
