"""Every top-level name of the library is reached from what users run.

The roots are the command modules, ``cli.py``, the scripts, the
``perfbench/`` modules and the acceptance suite.  A root reaches a name
when one of its identifiers, or a whole word of one of its string
literals other than a docstring, spells it; a reached definition reaches
further names the same way, so helpers count through their callers.
Imports inside the library reach nothing: a name that only another
library module imports is not yet used.  Code that only the other tests
call belongs in ``tests/``.
"""
import ast
import re
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rklab"
ROOTS = [
    *sorted((PACKAGE / "commands").glob("*.py")),
    PACKAGE / "cli.py",
    PACKAGE / "__main__.py",
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def words(tree: ast.AST) -> set[str]:
    """The identifiers of ``tree``, with the whole words of its string
    literals that are not docstrings (``getattr`` and ``monkeypatch`` name
    attributes in strings)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(re.findall(r"\w+", f"{node.name} {node.asname or ''}"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            out.update(re.findall(r"\w+", node.value))
    return out


def definitions() -> dict[str, list[ast.AST]]:
    """The top-level definitions of the library modules, by name: every
    function, class and assigned name outside the roots."""
    out: dict[str, list[ast.AST]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path in ROOTS:
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                out.setdefault(f"{path.stem}.{name}", []).append(node)
    return out


def unreached() -> list[str]:
    """The ``module.name`` of each library definition no root reaches."""
    defs = definitions()
    by_name: dict[str, list[str]] = {}
    for qualified in defs:
        by_name.setdefault(qualified.split(".", 1)[1], []).append(qualified)
    seen: set[str] = set()
    todo = set().union(*(words(ast.parse(p.read_text(encoding="utf-8"))) for p in ROOTS))
    reached: set[str] = set()
    while todo:
        word = todo.pop()
        seen.add(word)
        for qualified in by_name.get(word, ()):
            if qualified not in reached:
                reached.add(qualified)
                for node in defs[qualified]:
                    todo |= words(node) - seen
    return sorted(set(defs) - reached)


def test_every_library_name_is_reached_from_a_command_script_or_the_acceptance_suite():
    start = time.perf_counter()
    missing = unreached()
    elapsed = time.perf_counter() - start
    assert not missing, f"reached only from tests, if at all: {', '.join(missing)}"
    assert elapsed < 1.0, f"the scan took {elapsed:.2f}s"
