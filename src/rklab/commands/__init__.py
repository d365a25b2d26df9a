"""One module per ``rklab`` subcommand, each with ``arguments(p)``, which
fills in its subparser, and ``run(args)``, which runs it; ``cli`` imports
only the module of the subcommand a command line invokes."""


def _emit(lines: list[str]) -> None:
    for line in lines:
        print(line)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
