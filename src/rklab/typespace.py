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
import functools
import itertools
from typing import Iterable, NamedTuple

from .record import record

# every family's cell count stays within the 2^16 cells of the deepest iup space
IUP_DEPTH_CAP = 16
SDUP_DEPTH_CAP = 14  # 3 * 2^14 - 1 cells
CELL_CAP = 2**IUP_DEPTH_CAP


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
        if self.family == "iup" and self.depth > IUP_DEPTH_CAP:
            raise ValueError(f"iup depth capped at {IUP_DEPTH_CAP}")
        if self.family == "sdup" and self.depth > SDUP_DEPTH_CAP:
            raise ValueError(f"sdup depth capped at {SDUP_DEPTH_CAP}")
        if self.family == "colored":
            if self.parts is None or self.parts < 1:
                raise ValueError("colored family needs a positive part count")
            cells = self.parts * (self.depth + 2)
            if cells > CELL_CAP:
                raise ValueError(f"colored space capped at {CELL_CAP} cells, got {cells}")
        elif self.parts is not None:
            raise ValueError("parts only applies to the colored family")


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

def _tree_nodes(max_len: int) -> list[str]:
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(bits) for bits in itertools.product("01", repeat=length))
    return out


@functools.lru_cache(maxsize=8)
def enumerate_types(ts: TypeSpace) -> tuple[Cell, ...]:
    """All consistent complete cells at the truncation depth, cached."""
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
    colors = [*range(ts.depth + 1), None]
    return tuple(ColorCell(part, color) for part in range(ts.parts) for color in colors)


def is_principal(ts: TypeSpace, cell: Cell) -> bool:
    if ts.family == "iup":
        return False
    if ts.family == "sdup":
        assert isinstance(cell, SdupCell)
        return cell.kind == "stop"
    assert isinstance(cell, ColorCell)
    return cell.color is not None


@functools.lru_cache(maxsize=8)
def cell_set(ts: TypeSpace) -> frozenset[Cell]:
    """The space's cells, as the one set validity, coverage and supports read."""
    return frozenset(enumerate_types(ts))


def valid_cell(ts: TypeSpace, cell: Cell) -> bool:
    return cell in cell_set(ts)


def render_cell(cell: Cell) -> str:
    if isinstance(cell, IupCell):
        return "".join(map(str, cell.bits))
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

@functools.lru_cache(maxsize=8)
def atoms(ts: TypeSpace) -> tuple[Atom, ...]:
    """The space's atoms, cached so that cells share them: iup's P_k by k,
    sdup's S_q by tree node in breadth-first order, and colored's parts P
    then colors C."""
    if ts.family == "iup":
        return tuple(("P", k) for k in range(ts.depth))
    if ts.family == "sdup":
        return tuple(("S", p) for p in _tree_nodes(ts.depth))
    assert ts.parts is not None
    return (*(("P", i) for i in range(ts.parts)), *(("C", j) for j in range(ts.depth + 1)))


def cell_atoms(ts: TypeSpace, cell: Cell) -> tuple[Atom, ...]:
    """The atoms true in a cell, the one family rule that satisfaction and
    coverage read: P_k for each set bit of an iup cell, S_q for every
    prefix q of an sdup path (the root included), and a colored cell's
    part P and, unless it is infinite, its color C.

    The atoms are the space's own objects in ``atoms(ts)`` order, so two
    cells with the same true atoms give equal tuples."""
    own = atoms(ts)
    if ts.family == "iup":
        return tuple(itertools.compress(own, cell.bits))
    if ts.family == "sdup":
        # breadth-first order puts node i's children at 2i + 1 and 2i + 2
        true, i = [own[0]], 0
        for ch in cell.path:
            i = 2 * i + 1 + (ch == "1")
            true.append(own[i])
        return tuple(true)
    if cell.color is None:
        return (own[cell.part],)
    return (own[cell.part], own[ts.parts + cell.color])


@functools.lru_cache(maxsize=8)
def _atom_set(ts: TypeSpace) -> frozenset[Atom]:
    return frozenset(atoms(ts))


def _check_atoms(ts: TypeSpace, phi: FormulaLit) -> None:
    known = _atom_set(ts)
    for atom, _ in phi.literals:
        if atom not in known:
            raise ValueError(f"atom {atom!r} invalid for {ts.family} depth {ts.depth}")


def _holds(true: tuple[Atom, ...], phi: FormulaLit) -> bool:
    return all((atom in true) == sign for atom, sign in phi.literals)


def consistent(ts: TypeSpace, phi: FormulaLit) -> bool:
    _check_atoms(ts, phi)
    return any(_holds(cell_atoms(ts, cell), phi) for cell in enumerate_types(ts))


def parse_formula(ts: TypeSpace, text: str) -> FormulaLit:
    """A comma-separated conjunction of literals, each an optional ``!``
    then an atom's name: its tag and its index or path (``P3``, ``C0``,
    ``S01``, and ``Se`` for the empty path)."""
    names = {f"{tag}{'e' if arg == '' else arg}": (tag, arg) for tag, arg in atoms(ts)}
    literals = []
    for chunk in text.split(","):
        tok = chunk.strip()
        atom = names.get(tok.removeprefix("!"))
        if atom is None:
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
    """Whether the cells meet every coverage group: whether each cell of
    the space makes true the same atoms as one of them.

    A coverage group is the cells that make the same atoms true.  A
    formula that holds in one cell of a group holds in all of them, so
    meeting every group is meeting every consistent formula at this
    depth.  In sdup a frontier node's stopped and continuing cells share
    a group."""
    hit = {cell_atoms(ts, cell) for cell in cells}
    return all(cell_atoms(ts, cell) in hit for cell in cell_set(ts))


def is_dense(ts: TypeSpace, x: Iterable[Cell]) -> bool:
    """True when every consistent formula of the space is contained in
    some member of x."""
    members = set(x)
    for cell in members:
        if not valid_cell(ts, cell):
            raise ValueError(f"cell {cell!r} invalid at depth {ts.depth}")
    return covers_all_formulas(ts, members)
