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
everything.  The cell count, validity, consistency and density are
family rules too, so only ``enumerate_types`` builds cells.
"""
from __future__ import annotations

import enum
import functools
import itertools
from typing import Iterable, NamedTuple

from .cardinal import natural
from .record import record
from .report import Budget, BudgetError

# enumerate_types builds at most the 2^16 cells of iup depth 16 or sdup depth 14; the
# rules answer up to depth 4096, where sdup's 3*2^d - 1 cells print in 1,234 digits,
# and fewer than 2^4096 colored parts
CELL_BUDGET = Budget("cell budget", 2**16, "cells")
DEPTH_BOUND = Budget("depth bound", 4096, "levels")
PART_BOUND = Budget("part bound", 4096, "binary digits of a part count")


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


@record
class TypeSpace:
    family: str
    depth: int
    parts: int | None = None

    def __post_init__(self) -> None:
        if self.family not in ("iup", "sdup", "colored"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if self.family == "colored":
            if self.parts is None or self.parts < 1:
                raise ValueError("colored family needs a positive part count")
        elif self.parts is not None:
            raise ValueError("parts only applies to the colored family")
        DEPTH_BOUND.check(self.depth)
        PART_BOUND.check((self.parts or 0).bit_length())


@record
class FormulaLit:
    """Consistent-conjunction candidate: signed atoms in one free variable."""

    literals: tuple[tuple[Atom, bool], ...]

    @staticmethod
    def of(signed_atoms: dict[Atom, bool] | Iterable[tuple[Atom, bool]]) -> "FormulaLit":
        """The conjunction of the signed atoms; an atom given with both signs is refused."""
        items = signed_atoms.items() if isinstance(signed_atoms, dict) else signed_atoms
        signs: dict[Atom, bool] = {}
        for atom, sign in items:
            if signs.setdefault(atom, sign) != sign:
                raise ValueError(f"atom {atom!r} appears with both signs")
        return FormulaLit(tuple(sorted(signs.items(), key=lambda kv: repr(kv[0]))))


class FormulaClass(enum.Enum):
    I = "i-formula"
    NI = "ni-formula"


# -- cells --------------------------------------------------------------------

def cell_count(ts: TypeSpace) -> int:
    """2^d cells (iup), 2^(d+1) - 1 stopped and 2^d continuing (sdup), and
    d + 1 finite colors and the infinite one per part (colored)."""
    if ts.family == "iup":
        return 2**ts.depth
    if ts.family == "sdup":
        return 3 * 2**ts.depth - 1
    return ts.parts * (ts.depth + 2)


@functools.lru_cache(maxsize=8)
def enumerate_types(ts: TypeSpace) -> tuple[Cell, ...]:
    """All consistent complete cells at the truncation depth, cached; a
    space of more than ``CELL_BUDGET`` cells is refused before any is built."""
    CELL_BUDGET.check(cell_count(ts))
    if ts.family == "iup":
        return tuple(IupCell(bits) for bits in itertools.product((0, 1), repeat=ts.depth))
    if ts.family == "sdup":  # the tree nodes breadth first, the frontier last
        paths = ["".join(bits) for n in range(ts.depth + 1) for bits in itertools.product("01", repeat=n)]
        return (*(SdupCell("stop", p) for p in paths), *(SdupCell("cont", p) for p in paths[-2**ts.depth:]))
    return tuple(ColorCell(part, color) for part in range(ts.parts) for color in [*range(ts.depth + 1), None])


def is_principal(ts: TypeSpace, cell: Cell) -> bool:
    return ts.family != "iup" and (cell.kind == "stop" if ts.family == "sdup" else cell.color is not None)


def _below(k: object, bound: int) -> bool:
    return isinstance(k, int) and 0 <= k < bound


def _is_path(path: object, depth: int) -> bool:
    return isinstance(path, str) and len(path) <= depth and not path.strip("01")


def valid_cell(ts: TypeSpace, cell: Cell) -> bool:
    """Whether the cell is one of the space's, by the shape of its address."""
    if ts.family == "iup":
        return isinstance(cell, IupCell) and len(cell.bits) == ts.depth and all(b in (0, 1) for b in cell.bits)
    if ts.family == "sdup":
        return isinstance(cell, SdupCell) and _is_path(cell.path, ts.depth) and (
            cell.kind == "stop" or cell.kind == "cont" and len(cell.path) == ts.depth)
    return (isinstance(cell, ColorCell) and _below(cell.part, ts.parts)
            and (cell.color is None or _below(cell.color, ts.depth + 1)))


def render_cell(cell: Cell) -> str:
    if isinstance(cell, IupCell):
        return "".join(map(str, cell.bits))
    if isinstance(cell, SdupCell):
        return f"{cell.kind}:{cell.path or 'e'}"
    return f"({cell.part},{'inf' if cell.color is None else cell.color})"


def parse_cell(ts: TypeSpace, text: str) -> Cell:
    """A cell address as ``render_cell`` writes it: bits (iup), ``stop:`` or
    ``cont:`` then a path or ``e`` (sdup), ``(k,j)`` or ``(k,inf)`` (colored)."""
    tok = text.strip()
    cell: Cell | None = None
    if ts.family == "iup":
        if tok and not tok.strip("01"):
            cell = IupCell(tuple(int(ch) for ch in tok))
    elif ts.family == "sdup":
        kind, sep, path = tok.partition(":")
        if sep and kind in ("stop", "cont") and (path == "e" or path and not path.strip("01")):
            cell = SdupCell(kind, "" if path == "e" else path)
    elif tok[:1] + tok[-1:] == "()" and "," in tok:
        part_s, _, color_s = tok[1:-1].partition(",")
        try:
            cell = ColorCell(natural(part_s), None if color_s == "inf" else natural(color_s))
        except BudgetError:
            raise
        except ValueError:
            pass
    if cell is None:
        raise ValueError(f"bad {ts.family} cell address {text!r}")
    if not valid_cell(ts, cell):
        raise ValueError(f"cell {text!r} invalid for {ts.family} at depth {ts.depth}")
    return cell


# -- formulas -----------------------------------------------------------------

def _valid_atom(ts: TypeSpace, atom: Atom) -> bool:
    """iup's P_k (k < d), sdup's S_q (tree node q), colored's P_k (k < m) and C_j (j <= d)."""
    tag, arg = atom
    if ts.family == "sdup":
        return tag == "S" and _is_path(arg, ts.depth)
    if ts.family == "iup":
        return tag == "P" and _below(arg, ts.depth)
    return tag == "P" and _below(arg, ts.parts) or tag == "C" and _below(arg, ts.depth + 1)


def cell_atoms(ts: TypeSpace, cell: Cell) -> tuple[Atom, ...]:
    """The atoms true in a cell, the one family rule that satisfaction
    reads: P_k for each set bit of an iup cell, S_q for every prefix q of
    an sdup path (the root included), and a colored cell's part P and,
    unless it is infinite, its color C."""
    if ts.family == "iup":
        return tuple(("P", k) for k, bit in enumerate(cell.bits) if bit)
    if ts.family == "sdup":
        return tuple(("S", cell.path[:i]) for i in range(len(cell.path) + 1))
    return (("P", cell.part),) if cell.color is None else (("P", cell.part), ("C", cell.color))


def consistent(ts: TypeSpace, phi: FormulaLit) -> bool:
    """Whether some cell satisfies phi: the one cell its literals force
    does.  iup sets the positive bits; sdup stops at the deepest positive
    node (the root when there is none); colored takes the positive part,
    or else the first part no literal excludes, with the positive color,
    or else the infinite one."""
    for atom, _ in phi.literals:
        if not _valid_atom(ts, atom):
            raise ValueError(f"atom {atom!r} invalid for {ts.family} depth {ts.depth}")
    signs = dict(phi.literals)
    if ts.family == "iup":
        cell: Cell = IupCell(tuple(int(signs.get(("P", k), False)) for k in range(ts.depth)))
    elif ts.family == "sdup":
        cell = SdupCell("stop", max((arg for (_, arg), sign in phi.literals if sign), key=len, default=""))
    else:
        positive = {tag: arg for (tag, arg), sign in phi.literals if sign}
        part = positive.get("P", next(k for k in itertools.count() if signs.get(("P", k), True)))
        if part >= ts.parts:
            return False
        cell = ColorCell(part, positive.get("C"))
    true = cell_atoms(ts, cell)
    return all((atom in true) == sign for atom, sign in phi.literals)


def parse_formula(ts: TypeSpace, text: str) -> FormulaLit:
    """A comma-separated conjunction of literals, each an optional ``!``
    then an atom's name: its tag and its index or path (``P3``, ``C0``,
    ``S01``, and ``Se`` for the empty path), an index a natural number."""
    literals = []
    for chunk in text.split(","):
        tok = chunk.strip()
        name = tok.removeprefix("!")
        tag, arg = name[:1], name[1:]
        try:  # an index, or an sdup path with "e" for the empty one
            atom = (tag, ("" if arg == "e" else arg or None) if ts.family == "sdup" else natural(arg))
        except BudgetError:
            raise
        except ValueError:
            atom = (tag, None)
        if not _valid_atom(ts, atom):
            raise ValueError(f"bad literal {chunk!r} for family {ts.family}")
        literals.append((atom, not tok.startswith("!")))
    return FormulaLit.of(literals)


def classify_formula(ts: TypeSpace, phi: FormulaLit) -> FormulaClass:
    """Family rule for whether some isolated type of the true family contains phi.

    iup has no isolated types at all; in sdup every consistent literal
    conjunction is realized by a stopped element (``cont:p`` and
    ``stop:p`` satisfy the same atoms); in colored a conjunction names
    finitely many colors, so a deeper finite color satisfies it even when
    only the infinite color does at this depth.
    """
    if not consistent(ts, phi):
        raise ValueError("formula is inconsistent in this space")
    return FormulaClass.NI if ts.family == "iup" else FormulaClass.I


def has_prime_model(ts: TypeSpace) -> bool:
    """Whether no consistent formula is an ni-formula, by the family rule.

    iup has no isolated types.  A consistent sdup formula holds in a
    stopped cell: ``cont:p`` and ``stop:p`` satisfy the same atoms.  Every
    consistent colored formula is an i-formula (see ``classify_formula``).
    """
    return ts.family != "iup"


# -- density ------------------------------------------------------------------

def covers_all_formulas(ts: TypeSpace, cells: Iterable[Cell]) -> bool:
    """Whether the cells, all valid, meet every coverage group: the cells
    that make the same atoms true, so that a formula holds in all of a
    group or in none of it.  Each cell is its own group, except that an
    sdup frontier node's ``stop`` and ``cont`` cells share one: there a
    group is a path, and there are 2^d fewer groups than cells."""
    if ts.family == "sdup":
        return len({cell.path for cell in cells}) == cell_count(ts) - 2**ts.depth
    return len(set(cells)) == cell_count(ts)


def is_dense(ts: TypeSpace, x: Iterable[Cell]) -> bool:
    """True when every consistent formula of the space is contained in
    some member of x."""
    members = set(x)
    for cell in members:
        if not valid_cell(ts, cell):
            raise ValueError(f"cell {cell!r} invalid at depth {ts.depth}")
    return covers_all_formulas(ts, members)
