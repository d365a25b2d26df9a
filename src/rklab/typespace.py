"""Depth-truncated type spaces for the three concrete theory families.

Families:

* ``iup``     -- independent unary predicates P_0, P_1, ...  A depth-d
  cell fixes the signs of the first d predicates; every cell keeps
  splitting forever, so no cell is principal and every consistent
  formula is an ni-formula.
* ``sdup``    -- sequentially divisible unary predicates S_delta indexed
  by binary tree nodes.  An element either stops at a node (an isolated,
  principal cell) or continues past the truncation frontier.
* ``colored`` -- m parts, each carrying a coloring into w plus a single
  infinite color; the infinite-color cell of each part is the
  non-principal type of that part.

Cells stand for the true infinite types compatible with the first d
decisions; principality is decided by the family rule, not by finite
isolation in the truncated signature, which would spuriously isolate
everything.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .report import BudgetError

IUP_DEPTH_CAP = 16
FORMULA_BUDGET = 30000


class IupCell(NamedTuple):
    bits: tuple[int, ...]


class SdupCell(NamedTuple):
    kind: str  # "stop" | "cont"
    path: str  # over the alphabet "01"


class ColorCell(NamedTuple):
    part: int
    color: int | None  # None is the infinite color


Cell = IupCell | SdupCell | ColorCell

Atom = tuple[str, object]


@dataclass(frozen=True)
class TypeSpace:
    family: str
    depth: int
    parts: int | None = None

    def __post_init__(self) -> None:
        if self.family not in ("iup", "sdup", "colored"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if self.family == "iup" and self.depth > IUP_DEPTH_CAP:
            raise ValueError(f"iup depth capped at {IUP_DEPTH_CAP}")
        if self.family == "colored":
            if self.parts is None or self.parts < 1:
                raise ValueError("colored family needs a positive part count")
        elif self.parts is not None:
            raise ValueError("parts only applies to the colored family")


def space_at(ts: TypeSpace, depth: int) -> TypeSpace:
    if depth == ts.depth:
        return ts
    return TypeSpace(ts.family, depth, ts.parts)


@dataclass(frozen=True)
class FormulaLit:
    """Consistent-conjunction candidate: signed atoms in one free variable."""

    literals: tuple[tuple[Atom, bool], ...]

    @staticmethod
    def of(signed_atoms: dict[Atom, bool] | Iterable[tuple[Atom, bool]]) -> "FormulaLit":
        if isinstance(signed_atoms, dict):
            items = signed_atoms.items()
        else:
            items = list(signed_atoms)
            keys = [a for a, _ in items]
            if len(set(keys)) != len(keys):
                raise ValueError("an atom appears with both signs")
        return FormulaLit(tuple(sorted(items, key=lambda kv: repr(kv[0]))))

    def as_dict(self) -> dict[Atom, bool]:
        return dict(self.literals)


class FormulaClass(enum.Enum):
    I = "i-formula"
    NI = "ni-formula"


# -- cells --------------------------------------------------------------------

def _tree_nodes(max_len: int) -> list[str]:
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(bits) for bits in itertools.product("01", repeat=length))
    return out


def enumerate_types(ts: TypeSpace) -> tuple[Cell, ...]:
    """All consistent complete cells at the truncation depth."""
    if ts.family == "iup":
        return tuple(
            IupCell(bits) for bits in itertools.product((0, 1), repeat=ts.depth)
        )
    if ts.family == "sdup":
        cells: list[Cell] = [SdupCell("stop", p) for p in _tree_nodes(ts.depth)]
        cells.extend(
            SdupCell("cont", "".join(bits))
            for bits in itertools.product("01", repeat=ts.depth)
        )
        return tuple(cells)
    assert ts.parts is not None
    cells = []
    for part in range(ts.parts):
        for color in range(ts.depth + 1):
            cells.append(ColorCell(part, color))
        cells.append(ColorCell(part, None))
    return tuple(cells)


def is_principal(ts: TypeSpace, cell: Cell) -> bool:
    if ts.family == "iup":
        return False
    if ts.family == "sdup":
        assert isinstance(cell, SdupCell)
        return cell.kind == "stop"
    assert isinstance(cell, ColorCell)
    return cell.color is not None


def valid_cell(ts: TypeSpace, cell: Cell) -> bool:
    if ts.family == "iup":
        return (
            isinstance(cell, IupCell)
            and len(cell.bits) == ts.depth
            and all(b in (0, 1) for b in cell.bits)
        )
    if ts.family == "sdup":
        if not isinstance(cell, SdupCell) or any(ch not in "01" for ch in cell.path):
            return False
        if cell.kind == "stop":
            return len(cell.path) <= ts.depth
        return cell.kind == "cont" and len(cell.path) == ts.depth
    if not isinstance(cell, ColorCell):
        return False
    assert ts.parts is not None
    if not (0 <= cell.part < ts.parts):
        return False
    return cell.color is None or 0 <= cell.color <= ts.depth


def render_cell(cell: Cell) -> str:
    if isinstance(cell, IupCell):
        return "".join(str(b) for b in cell.bits)
    if isinstance(cell, SdupCell):
        return f"{cell.kind}:{cell.path or 'e'}"
    color = "inf" if cell.color is None else str(cell.color)
    return f"({cell.part},{color})"


def parse_cell(ts: TypeSpace, text: str) -> Cell:
    tok = text.strip()
    if ts.family == "iup":
        if not tok or any(ch not in "01" for ch in tok):
            raise ValueError(f"bad iup cell address {text!r}")
        cell: Cell = IupCell(tuple(int(ch) for ch in tok))
    elif ts.family == "sdup":
        kind, _, path = tok.partition(":")
        if kind not in ("stop", "cont"):
            raise ValueError(f"bad sdup cell address {text!r}")
        cell = SdupCell(kind, "" if path == "e" else path)
    else:
        if not (tok.startswith("(") and tok.endswith(")")):
            raise ValueError(f"bad colored cell address {text!r}")
        part_s, _, color_s = tok[1:-1].partition(",")
        color = None if color_s.strip() == "inf" else int(color_s)
        cell = ColorCell(int(part_s), color)
    if not valid_cell(ts, cell):
        raise ValueError(f"cell {text!r} invalid for {ts.family} at depth {ts.depth}")
    return cell


# -- formulas -----------------------------------------------------------------

def atoms(ts: TypeSpace) -> list[Atom]:
    if ts.family == "iup":
        return [("P", k) for k in range(ts.depth)]
    if ts.family == "sdup":
        return [("S", p) for p in _tree_nodes(ts.depth)]
    assert ts.parts is not None
    out: list[Atom] = [("P", i) for i in range(ts.parts)]
    out.extend(("C", j) for j in range(ts.depth + 1))
    return out


def satisfies(ts: TypeSpace, cell: Cell, phi: FormulaLit) -> bool:
    lits = phi.as_dict()
    if ts.family == "iup":
        assert isinstance(cell, IupCell)
        for (tag, k), sign in lits.items():
            if tag != "P" or not isinstance(k, int) or not (0 <= k < ts.depth):
                raise ValueError(f"atom {(tag, k)!r} invalid for iup depth {ts.depth}")
            if (cell.bits[k] == 1) != sign:
                return False
        return True
    if ts.family == "sdup":
        assert isinstance(cell, SdupCell)
        prefixes = {cell.path[:i] for i in range(len(cell.path) + 1)}
        for (tag, p), sign in lits.items():
            if tag != "S" or not isinstance(p, str) or len(p) > ts.depth:
                raise ValueError(f"atom {(tag, p)!r} invalid for sdup depth {ts.depth}")
            if (p in prefixes) != sign:
                return False
        return True
    assert isinstance(cell, ColorCell)
    for (tag, k), sign in lits.items():
        if tag == "P":
            assert ts.parts is not None
            if not isinstance(k, int) or not (0 <= k < ts.parts):
                raise ValueError(f"part atom {(tag, k)!r} out of range")
            if (cell.part == k) != sign:
                return False
        elif tag == "C":
            if not isinstance(k, int) or not (0 <= k <= ts.depth):
                raise ValueError(f"color atom {(tag, k)!r} out of range")
            if (cell.color == k) != sign:
                return False
        else:
            raise ValueError(f"unknown atom tag {tag!r}")
    return True


def consistent(ts: TypeSpace, phi: FormulaLit) -> bool:
    return any(satisfies(ts, cell, phi) for cell in enumerate_types(ts))


def enumerate_formulas(
    ts: TypeSpace, budget: int = FORMULA_BUDGET
) -> Iterator[FormulaLit]:
    """Every consistent signed-atom conjunction, including the empty one."""
    alphabet = atoms(ts)
    total = 3 ** len(alphabet)
    if total > budget:
        raise BudgetError(
            f"formula enumeration needs {total} candidates, budget is {budget}"
        )
    cells = enumerate_types(ts)
    for assignment in itertools.product((None, True, False), repeat=len(alphabet)):
        phi = FormulaLit.of(
            {a: s for a, s in zip(alphabet, assignment) if s is not None}
        )
        if any(satisfies(ts, cell, phi) for cell in cells):
            yield phi


def classify_formula(ts: TypeSpace, phi: FormulaLit) -> FormulaClass:
    """Family rule for whether some isolated type of the true family contains phi.

    iup has no isolated types at all; in sdup every consistent literal
    conjunction is realized by a stopped element (``cont:p`` and
    ``stop:p`` satisfy the same atoms); in colored no finite conjunction
    can exclude all the finite colors.
    """
    if not consistent(ts, phi):
        raise ValueError("formula is inconsistent in this space")
    # colored: a literal conjunction mentions finitely many colors and the
    # family always has deeper finite colors, so a consistent formula is
    # compatible with some finite-color (isolated) type even when only the
    # infinite-color cell witnesses it at this truncation depth
    return FormulaClass.NI if ts.family == "iup" else FormulaClass.I


def has_prime_model(ts: TypeSpace) -> bool:
    """Whether no consistent formula is an ni-formula, by the family rule.

    iup has no isolated types.  A consistent sdup formula holds in a
    stopped cell: ``cont:p`` and ``stop:p`` satisfy the same atoms.  Every
    consistent colored formula is an i-formula (see ``classify_formula``).
    """
    return ts.family != "iup"


# -- density ------------------------------------------------------------------

def coverage_groups(ts: TypeSpace) -> list[frozenset[Cell]]:
    """Groups of cells such that hitting every group equals hitting every
    consistent formula's class at this depth.

    For iup and colored every cell is pinned by its own complete
    description.  For sdup a frontier node's stopped and continuing
    cells satisfy exactly the same depth-bounded atoms, so either one
    covers that node's formulas.
    """
    if ts.family != "sdup":
        return [frozenset((cell,)) for cell in enumerate_types(ts)]
    groups: list[frozenset[Cell]] = []
    for p in _tree_nodes(ts.depth - 1):
        groups.append(frozenset((SdupCell("stop", p),)))
    for bits in itertools.product("01", repeat=ts.depth):
        p = "".join(bits)
        groups.append(frozenset((SdupCell("stop", p), SdupCell("cont", p))))
    return groups


def covers_all_formulas(ts: TypeSpace, cells: Iterable[Cell]) -> bool:
    have = set(cells)
    return all(group & have for group in coverage_groups(ts))


def is_dense(ts: TypeSpace, x: Iterable[Cell], depth: int) -> bool:
    """True when every consistent formula at the given depth is contained
    in some member of x."""
    space = space_at(ts, depth)
    members = set(x)
    for cell in members:
        if not valid_cell(space, cell):
            raise ValueError(f"cell {cell!r} invalid at depth {depth}")
    return covers_all_formulas(space, members)


def npl_zero_check(ts: TypeSpace, spec, depth: int) -> bool:
    """Truncated rendering of the prime-or-limit criterion.

    True when every tuple over the realized cells extends, within the
    realized cells, to one over which every consistent one-variable
    formula is an i-formula.  The represented families are unary, so a
    formula's class does not depend on the parameter tuple: the empty
    extension decides, and the check holds exactly when every formula is
    an i-formula or no cell is realized.
    """
    if spec.space.family != ts.family or (
        ts.family == "colored" and spec.space.parts != ts.parts
    ):
        raise ValueError("model spec belongs to a different family")
    space = space_at(ts, depth)
    return has_prime_model(space) or not spec.support()
