"""Every number rklab reads, on the command line or in a file, follows one
grammar (``cardinal.natural``): each spelling below gets one verdict at
every entry point."""
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rklab.cardinal import DIGIT_BOUND, natural
from rklab.cli import main
from rklab.report import BudgetError

LONG = "9" * 5000
BUDGET = f"{len(LONG)} digits exceed the digit bound {DIGIT_BOUND.limit}"

# each spelling: read as a number, refused by the grammar, or over the digit bound
SPELLINGS = {
    "0": "read",
    "3": "read",
    "1_0": "refused",
    "+3": "refused",
    "٣": "refused",  # ARABIC-INDIC DIGIT THREE
    "²": "refused",  # SUPERSCRIPT TWO, which passes str.isdigit
    "1²": "refused",
    "①": "refused",  # CIRCLED DIGIT ONE
    "03": "refused",
    "-1": "refused",
    LONG: "over the bound",
}

SPEC_HEAD = "elements: 4\n0 <= 1\n1 <= 2\n2 <= 3\n3 <= 0\nmode: finite\n"
SPEC_PARTS = "elements: 4\nmode: finite\nf: {0} = 1\nf: {1} = 1\nf: {2} = 1\nf: {3} = 1\n"

# name: (command line, its file or None, the refusal of the spelling "@");
# a file is (name, text), and "@" stands for the spelling in all three
ENTRY_POINTS = {
    "limits-n": ("limits --system lmt --n @ --alphabet 2 --len 2", None,
                   "expected a natural number for --n, got '@'"),
    "limits-alphabet": ("limits --system lmt --n 1 --alphabet @ --len 2", None,
                          "expected a natural number for --alphabet, got '@'"),
    "limits-len": ("limits --system lmt --n 1 --alphabet 2 --len @", None,
                     "expected a natural number for --len, got '@'"),
    "preorder-cone": ("preorder --in four.po --cone @", ("four.po", "elements: 4\n0 <= 1\n"),
                        "expected a natural number for --cone, got '@'"),
    "types-depth": ("types --family iup --depth @ --prime", None,
                      "expected a natural number for --depth, got '@'"),
    "types-m": ("types --family colored --m @ --depth 2 --prime", None,
                  "expected a natural number for --m, got '@'"),
    "build-colors": ("build --spec one.ds --colors @", ("one.ds", "elements: 1\nmode: finite\nf: {0} = 1\n"),
                       "expected a natural number for --colors, got '@'"),
    "build-depth": ("build --spec one.ds --depth @", ("one.ds", "elements: 1\nmode: finite\nf: {0} = 1\n"),
                      "expected a natural number for --depth, got '@'"),
    "build-fan-out": ("build --spec one.ds --fan-out @", ("one.ds", "elements: 1\nmode: finite\nf: {0} = 1\n"),
                        "expected a natural number for --fan-out, got '@'"),
    "preorder-elements": ("preorder --in e.po", ("e.po", "elements: @\n"),
                          "e.po:1: expected integer element count, got 'elements: @'"),
    "preorder-pair": ("preorder --in p.po", ("p.po", "elements: 4\n@ <= 1\n"),
                      "p.po:2: expected integer pair '<i> <= <j>', got '@ <= 1'"),
    "type-space-depth": ("types --in t.ts --prime", ("t.ts", "family: iup\ndepth: @\n"),
                         "t.ts:2: expected integer depth, got '@'"),
    "type-space-m": ("types --in t.ts --prime", ("t.ts", "family: colored\nm: @\ndepth: 2\n"),
                     "t.ts:2: expected integer m, got '@'"),
    "class-key": ("build --spec c.ds", ("c.ds", SPEC_HEAD + "f: {0,1,2,3,@} = 1\n"),
                  "c.ds:7: expected '{i,j,...}' class key, got '{0,1,2,3,@}'"),
    "sequence-key": ("build --spec s.ds --variant t84",
                     ("s.ds", "elements: 4\n0 <= 3\nmode: countable-truncated\nf: 0<@ = 1\n"),
                     "s.ds:4: expected 'i<j<k' sequence key, got '0<@'"),
    "partition-element": ("build --spec q.ds --variant t91",
                          ("q.ds", SPEC_PARTS + "partition: 0 P\npartition: 1 P\npartition: 2 P\n"
                                   "partition: @ NPL\n"),
                          "q.ds:10: expected an integer partition element, got '@'"),
    "f-value": ("build --spec v.ds", ("v.ds", SPEC_HEAD + "f: {0,1,2,3} = @\n"),
                "v.ds:7: expected a cardinal token, got '@'"),
    "pipeline-integer": ("apply --pipeline n.pipe", ("n.pipe", "base parts=1 colors=@\n"),
                         "n.pipe:1: expected 'colors=<integer>', got 'colors=@'"),
    "pipeline-y": ("apply --pipeline y.pipe", ("y.pipe", "base parts=1 colors=1\nicp sub=P0 y=@\n"),
                   "y.pipe:2: expected 'y=<integer>|auto', got 'y=@'"),
    "pipeline-lam": ("apply --pipeline l.pipe",
                     ("l.pipe", "base parts=1 colors=1\nicp sub=P0\nlmt node=p(P0) lam=@\n"),
                     "l.pipe:3: expected 'lam=<integer>|w|w1|c', got 'lam=@'"),
    "cell-address": ("types --family colored --m 4 --depth 3 --dense (@,0)", None,
                     "bad colored cell address '(@,0)'"),
    "cell-color": ("types --family colored --m 1 --depth 3 --dense (0,@)", None,
                   "bad colored cell address '(0,@)'"),
    "atom-index": ("types --family iup --depth 4 --classify P@", None, "bad literal 'P@' for family iup"),
    "classify-triple": ("classify --tc --triple 0,0,@", None, "expected a cardinal token, got '@'"),
    "decompose-il": ("decompose --rk 2 --il 1,@ --npl 0", None, "expected a cardinal token, got '@'"),
    "limits-lam": ("limits --system lmt --lam @ --alphabet 2 --len 2", None, "expected a cardinal token, got '@'"),
}


def _fill(entry: str, spelling: str) -> tuple[list[str], tuple[str, str] | None, str]:
    argv, file, refusal = ENTRY_POINTS[entry]
    if file is not None:
        file = (file[0], file[1].replace("@", spelling))
    return [word.replace("@", spelling) for word in argv.split()], file, refusal.replace("@", spelling)


def _verdict(status: int, out: str, err: str, refusal: str) -> str:
    if (status, out, err) == (2, "", f"error: {refusal}\n"):
        return "refused"
    if status == 3 and out == "" and err.startswith("error: ") and err.endswith(f"{BUDGET}\n"):
        return "over the bound"
    assert status in (0, 2, 3) and refusal not in err, (status, err)
    return "read"


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_reads_one_number_grammar(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for spelling, verdict in SPELLINGS.items():
        argv, file, refusal = _fill(entry, spelling)
        if file is not None:
            Path(file[0]).write_text(file[1], encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert _verdict(status, out.getvalue(), err.getvalue(), refusal) == verdict, (spelling[:8], err.getvalue())


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_number_past_the_digit_bound_is_refused_alike_by_every_interpreter(entry, tmp_path):
    # Python 3.11 and later convert at most 4300 digits by default, 3.10 any
    # number; the digit bound refuses the number before int() is called
    argv, file, refusal = _fill(entry, LONG)
    if file is not None:
        (tmp_path / file[0]).write_text(file[1], encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "rklab", *argv], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=60)
        for flags in ([], ["-X", "int_max_str_digits=0"])
    ]
    assert [(p.returncode, p.stdout, p.stderr) for p in runs[1:]] == [(runs[0].returncode, runs[0].stdout,
                                                                       runs[0].stderr)]
    assert _verdict(runs[0].returncode, runs[0].stdout, runs[0].stderr, refusal) == "over the bound"


def test_natural_reads_ascii_digits_alone():
    bound = DIGIT_BOUND.limit
    assert [natural(s) for s in ("0", "3", "10", "9" * bound)] == [0, 3, 10, 10**bound - 1]
    for spelling in ("", " 3", "3 ", "1_0", "+3", "-0", "03", "00", "3.0", "0x3", "٣", "²"):
        with pytest.raises(ValueError, match="^expected a natural number, got ") as err:
            natural(spelling)
        assert not isinstance(err.value, BudgetError)
    with pytest.raises(BudgetError, match=f"^{bound + 1} digits exceed the digit bound {bound}$") as err:
        natural("1" + "0" * bound)
    assert (err.value.budget, err.value.asked) == (DIGIT_BOUND, bound + 1)


def test_an_option_value_that_begins_with_a_dash_needs_the_equals_form(capsys):
    # argparse takes "-1,0,0" for an option of its own, so --triple has no value
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--tc", "--triple", "-1,0,0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --triple: expected one argument\n")
    # written --triple=-1,0,0, the value reaches the number grammar
    assert main(["classify", "--tc", "--triple=-1,0,0"]) == 2
    assert capsys.readouterr() == ("", "error: expected a cardinal token, got '-1'\n")
