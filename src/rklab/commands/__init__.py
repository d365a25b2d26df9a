"""One module per ``rklab`` subcommand, each with ``arguments(p)``, which
fills in its subparser, and ``run(args)``, which runs it; ``cli`` imports
only the module of the subcommand a command line invokes."""
import argparse
from typing import Iterable


class Natural(argparse.Action):
    """An option ``cardinal.natural`` reads, an action so that its refusal reaches
    ``cli.main`` as raised: argparse makes any ``type=`` refusal exit 2, a budget's too."""

    def __call__(self, parser, namespace, values, option_string=None):
        from ..cardinal import natural

        setattr(namespace, self.dest, natural(values, f"a natural number for {option_string}"))


def _emit(args, records: Iterable[tuple[str | None, object, str | None]]) -> None:
    """Print each record ``(key, value, plain)`` as it comes: its plain-text
    line, or ``key=value`` under ``--machine``, a bool as ``true``/``false``.
    A record whose ``plain`` is None prints only under ``--machine``, and
    one whose ``key`` is None only in plain text."""
    for key, value, plain in records:
        if not args.machine and plain is not None:
            print(plain)
        elif args.machine and key is not None:
            print(f"{key}={str(value).lower() if isinstance(value, bool) else value}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
