"""Command-line frontend with bit-stable text output.

Every subcommand reads the module file formats and prints a
human-readable report by default.  Under ``--machine`` each line is the
``key=value`` record of the plain line in the same position; ``limits``
and ``classify`` have records that print in one form only, so theirs do
not pair line for line.
Exit status 0 means the analysis completed (violations are report
content); 2 means an input failed to parse or validate; 3 means the
analysis needs more than one of its budgets allows.
"""
from __future__ import annotations

import argparse
import sys

COMMANDS = (
    ("preorder", "analyse a preorder file"),
    ("types", "inspect a truncated type space"),
    ("dominate", "analyse a domination graph"),
    ("apply", "run an operator pipeline"),
    ("limits", "count limit-model classes"),
    ("classify", "classify a distribution triple"),
    ("build", "blueprint a distribution spec"),
    ("decompose", "fold a decomposition sum"),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand by name and help line, with
    arguments only for the one ``argv`` invokes, its first token that does
    not start with ``-``.  Only that subcommand's module is imported."""
    invoked = next((a for a in argv if not a.startswith("-")), None)
    ap = argparse.ArgumentParser(prog="rklab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_line in COMMANDS:
        p = sub.add_parser(name, help=help_line)
        if name == invoked:
            # through __import__, which -X importtime reports
            command = getattr(__import__(f"{__package__}.commands", fromlist=[name]), name)
            command.arguments(p)
            p.add_argument("--machine", action="store_true")
            p.set_defaults(fn=command.run)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # a number option is read as it is parsed
        args = build_parser(argv).parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        from .report import BudgetError  # loaded by the layer that raised one

        return 3 if isinstance(exc, BudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
