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


def _emit(args, records: Iterable[tuple[str, object, str]]) -> None:
    """Print each record ``(key, value, plain)`` as it comes: its plain-text
    line, or ``key=value`` under ``--machine``, a bool as ``true``/``false``."""
    for key, value, plain in records:
        if not args.machine:
            print(plain)
        elif isinstance(value, bool):
            print(f"{key}={'true' if value else 'false'}")
        else:
            print(f"{key}={value}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
