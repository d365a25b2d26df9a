"""Line-oriented pass/fail reports shared by the checkers.

Failures are report content, not exceptions: a check that finds
violations still returns normally and the caller decides what to do.
A computation that would exceed one of its budgets, each a ``Budget``
in the module that owns it, raises ``BudgetError`` instead of running.
"""
from __future__ import annotations

from .record import record


class BudgetError(ValueError):
    """A computation's size exceeds its budget; the input itself is valid.
    An amount past 64 bits prints as at least its highest power of two."""

    def __init__(self, budget: Budget, asked: int, unit: str | None = None):
        self.budget, self.asked = budget, asked
        amount = asked if asked.bit_length() <= 64 else f"at least 2^{asked.bit_length() - 1}"
        super().__init__(f"{amount} {unit or budget.unit} exceed the {budget.name} {budget.limit}")


@record
class Budget:
    """A cap of ``limit`` ``unit`` on one computation, named as in "the <name> <limit>"."""

    name: str
    limit: int
    unit: str

    def check(self, asked: int, unit: str | None = None) -> int:
        """``asked``, or past the limit a BudgetError counting it in ``unit`` if given."""
        if asked > self.limit:
            raise BudgetError(self, asked, unit)
        return asked


@record
class Entry:
    code: str
    ok: bool
    detail: str = ""


@record
class Report:
    title: str
    entries: tuple[Entry, ...] = ()
    facts: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def violations(self) -> list[Entry]:
        return [e for e in self.entries if not e.ok]

    def records(self) -> list[tuple[str, object, str]]:
        """One ``(key, value, plain line)`` per line of the report: the
        title, each check, each fact and the verdict."""
        out: list[tuple[str, object, str]] = [("report", self.title, f"[{self.title}]")]
        for e in self.entries:
            plain = f"  {'pass' if e.ok else 'FAIL'}  {e.code}" + (f": {e.detail}" if e.detail else "")
            out.append((f"check.{e.code}", "ok" if e.ok else "fail", plain))
        out += [(f"fact.{k}", v, f"  note  {k} = {v}") for k, v in self.facts]
        out.append(("ok", self.ok, f"  => {'pass' if self.ok else 'FAIL'}"))
        return out


class ReportBuilder:
    def __init__(self, title: str):
        self.title = title
        self._entries: list[Entry] = []
        self._facts: list[tuple[str, str]] = []

    def check(self, code: str, ok: bool, detail: str = "") -> bool:
        self._entries.append(Entry(code, bool(ok), detail))
        return bool(ok)

    def fact(self, key: str, value: object) -> None:
        self._facts.append((key, str(value)))

    def done(self) -> Report:
        return Report(self.title, tuple(self._entries), tuple(self._facts))
