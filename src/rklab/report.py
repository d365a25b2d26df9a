"""Line-oriented pass/fail reports shared by the checkers.

Failures are report content, not exceptions: a check that finds
violations still returns normally and the caller decides what to do.
A computation that would exceed one of its budgets raises
``BudgetError`` instead of running.
"""
from __future__ import annotations

from .record import record


class BudgetError(ValueError):
    """A computation's size exceeds its budget; the input itself is valid."""


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

    def render(self) -> str:
        lines = [f"[{self.title}]"]
        for e in self.entries:
            mark = "pass" if e.ok else "FAIL"
            line = f"  {mark}  {e.code}"
            if e.detail:
                line += f": {e.detail}"
            lines.append(line)
        for k, v in self.facts:
            lines.append(f"  note  {k} = {v}")
        lines.append(f"  => {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def machine(self) -> list[str]:
        lines = [f"report={self.title}"]
        for e in self.entries:
            lines.append(f"check.{e.code}={'ok' if e.ok else 'fail'}")
        for k, v in self.facts:
            lines.append(f"fact.{k}={v}")
        lines.append(f"ok={'true' if self.ok else 'false'}")
        return lines


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
