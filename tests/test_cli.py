import argparse
import contextlib
import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import read_struct
from rklab import cli
from rklab.cli import COMMANDS, build_parser, main
from rklab.distribution import BuildConfig, build_blueprint, replay_blueprint
from rklab.formats import parse_distribution, serialize_struct
from rklab.record import replace
from rklab.report import Budget, BudgetError


COMMAND_NAMES = [name for name, _ in COMMANDS]


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_preorder_command(tmp_path, capsys):
    po = tmp_path / "chain4.po"
    po.write_text("elements: 4\n0 <= 1\n1 <= 2\n2 <= 3\n")
    code, out, _ = run_cli(
        "preorder", "--in", str(po), "--quotient", "--height", capsys=capsys
    )
    assert code == 0
    assert "height: 4" in out


def test_preorder_machine_deterministic(tmp_path, capsys):
    po = tmp_path / "p.po"
    po.write_text("elements: 3\n0 <= 1\n1 <= 0\n0 <= 2\n")
    first = run_cli(
        "preorder", "--in", str(po), "--quotient", "--width", "--machine", capsys=capsys
    )
    second = run_cli(
        "preorder", "--in", str(po), "--quotient", "--width", "--machine", capsys=capsys
    )
    assert first == second
    assert first[0] == 0
    assert all("=" in line for line in first[1].strip().splitlines())


def test_preorder_dot_export(tmp_path, capsys):
    po = tmp_path / "p.po"
    po.write_text("elements: 2\n0 <= 1\n")
    dot = tmp_path / "q.dot"
    code, out, _ = run_cli("preorder", "--in", str(po), "--dot", str(dot), capsys=capsys)
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_parse_error_exit_code(tmp_path, capsys):
    po = tmp_path / "bad.po"
    po.write_text("elements: 2\n0 < 1\n")
    code, out, err = run_cli("preorder", "--in", str(po), capsys=capsys)
    assert code == 2
    assert "bad.po:2" in err


def test_types_command(capsys):
    code, out, _ = run_cli(
        "types", "--family", "iup", "--depth", "3", "--enumerate", capsys=capsys
    )
    assert code == 0
    assert "cells: 8" in out
    code, out, _ = run_cli(
        "types", "--family", "sdup", "--depth", "2", "--prime", capsys=capsys
    )
    assert "prime model: True" in out
    code, out, _ = run_cli(
        "types",
        "--family",
        "iup",
        "--depth",
        "3",
        "--classify",
        "P0",
        "--machine",
        capsys=capsys,
    )
    assert "formula=ni-formula" in out


@pytest.mark.parametrize(
    "family, depth, literals, message",
    [
        ("iup", "3", "P0,!P0", "atom ('P', 0) appears with both signs"),
        ("sdup", "2", "!S2", "bad literal '!S2' for family sdup"),
        ("sdup", "2", "S", "bad literal 'S' for family sdup"),
        ("iup", "3", "P01", "bad literal 'P01' for family iup"),
        ("iup", "3", "!!P0", "bad literal '!!P0' for family iup"),
        ("iup", "3", "P3", "bad literal 'P3' for family iup"),
        ("iup", "3", "", "bad literal '' for family iup"),
    ],
    ids=["both-signs", "not-an-atom", "bare-S", "leading-zero", "double-bang", "out-of-range", "empty"],
)
def test_types_classify_refuses_literals_outside_the_grammar(capsys, family, depth, literals, message):
    result = run_cli("types", "--family", family, "--depth", depth, "--classify", literals, capsys=capsys)
    assert result == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "options, message",
    [
        (("--family", "iup"), "need --in or both --family and --depth"),
        (("--family", "iup", "--depth", "0"), "depth must be positive"),
    ],
    ids=["no-depth", "depth-zero"],
)
def test_types_refuses_a_space_it_cannot_build(capsys, options, message):
    assert run_cli("types", *options, capsys=capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "space, cells, message",
    [
        (("sdup", "2"), "stop", "bad sdup cell address 'stop'"),
        (("sdup", "2"), "stop:e;stop:", "bad sdup cell address 'stop:'"),
        (("sdup", "2"), "stop:x", "bad sdup cell address 'stop:x'"),
        (("sdup", "2"), "cont:0", "cell 'cont:0' invalid for sdup at depth 2"),
        (("colored", "2", "--m", "2"), "(0,x)", "bad colored cell address '(0,x)'"),
        (("colored", "2", "--m", "2"), "(0, 1)", "bad colored cell address '(0, 1)'"),
        (("colored", "2", "--m", "2"), "(01,1)", "bad colored cell address '(01,1)'"),
        (("colored", "2", "--m", "2"), "(2,inf)", "cell '(2,inf)' invalid for colored at depth 2"),
        (("iup", "3"), "0a1", "bad iup cell address '0a1'"),
        (("iup", "3"), "01", "cell '01' invalid for iup at depth 3"),
    ],
    ids=["stop", "stop-colon", "stop-x", "cont-short", "color-x", "space", "leading-zero", "part-out-of-range",
         "iup-letter", "iup-short"],
)
def test_types_dense_reads_one_cell_address_grammar_per_family(capsys, space, cells, message):
    family, depth, *m = space
    result = run_cli("types", "--family", family, "--depth", depth, *m, "--dense", cells, capsys=capsys)
    assert result == (2, "", f"error: {message}\n")


def test_types_in_reports_a_budget(tmp_path, capsys):
    # a well-formed file whose space is too big to enumerate, or too deep
    # for any query, is refused as a budget (exit 3), not as a parse error
    deep = tmp_path / "deep.ts"
    deep.write_text("family: sdup\ndepth: 30\n")
    assert run_cli("types", "--in", str(deep), "--prime", "--machine", capsys=capsys) == (
        0, "cells=3221225471\nprime_model=true\n", "")
    assert run_cli("types", "--in", str(deep), "--enumerate", capsys=capsys) == (
        3, "", "error: 3221225471 cells exceed the cell budget 65536\n")
    deep.write_text("family: sdup\ndepth: 5000\n")
    assert run_cli("types", "--in", str(deep), "--prime", capsys=capsys) == (
        3, "", "error: 5000 levels exceed the depth bound 4096\n")


def test_types_refuses_a_repeated_type_space_key(tmp_path, capsys):
    ts = tmp_path / "twice.ts"
    ts.write_text("family: iup\ndepth: 3\ndepth: 4\n")
    result = run_cli("types", "--in", str(ts), "--prime", capsys=capsys)
    assert result == (2, "", f"error: {ts}:3: expected one 'depth:' line, got 'depth: 4'\n")


@pytest.mark.parametrize("options", [(), ("--n", "1", "--lam", "w")], ids=["neither", "both"])
def test_limits_takes_exactly_one_of_n_and_lam(capsys, options):
    argv = ("limits", "--system", "lmt", "--alphabet", "3", "--len", "4") + options
    result = run_cli(*argv, capsys=capsys)
    assert result == (2, "", "error: limits takes exactly one of --n and --lam\n")


def test_limits_has_no_seq_len_option(capsys):
    argv = ["limits", "--system", "lms", "--n", "2", "--alphabet", "3", "--len", "4", "--seq-len", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seq-len 3" in capsys.readouterr().err


def test_dominate_command(tmp_path, capsys):
    dg = tmp_path / "g.dg"
    dg.write_text(
        "type p0 prime\ntype p1 prime\np1 dominates p0 via Q principal\n"
    )
    code, out, _ = run_cli("dominate", "--in", str(dg), capsys=capsys)
    assert code == 0
    assert "prime nodes: 2" in out
    code, out, _ = run_cli("dominate", "--in", str(dg), "--rkt", capsys=capsys)
    assert "p0<=p1" in out


def test_limits_command(capsys):
    code, out, _ = run_cli(
        "limits",
        "--system",
        "lmt",
        "--n",
        "1",
        "--alphabet",
        "3",
        "--len",
        "4",
        "--machine",
        capsys=capsys,
    )
    assert code == 0
    assert "classes=1" in out
    assert "stable=true" in out
    code, out, _ = run_cli(
        "limits",
        "--system",
        "lms",
        "--lam",
        "w",
        "--alphabet",
        "3",
        "--len",
        "3",
        capsys=capsys,
    )
    assert "side-condition reading: gt" in out


def test_classify_command(capsys):
    code, out, _ = run_cli("classify", "--tc", "--triple", "0,0,c", capsys=capsys)
    assert code == 0
    assert "AdmissibleTc family 2" in out
    code, out, _ = run_cli(
        "classify", "--small", "--triple", "1,0,0", "--machine", capsys=capsys
    )
    assert "status=admissible-small" in out
    code, _, err = run_cli("classify", "--tc", "--triple", "1,2", capsys=capsys)
    assert code == 2


def test_decompose_command(capsys):
    code, out, _ = run_cli(
        "decompose", "--rk", "4", "--il", "1,0,2,1", "--npl", "0", capsys=capsys
    )
    assert code == 0 and "total: 8" in out
    code, out, _ = run_cli(
        "decompose", "--rk", "2", "--il", "1", "--npl", "c", "--tc", capsys=capsys
    )
    assert "continuum check: pass" in out


@pytest.mark.parametrize("variant", ["t77", "t84", "t91", "t92"])
def test_build_and_apply_round_trip(tmp_path, capsys, variant):
    ds = tmp_path / "spec.ds"
    ds.write_text(
        "elements: 3\n0 <= 1\n1 <= 0\nmode: finite\nf: {0,1} = 2\nf: {2} = 0\n"
        "partition: 0 P\npartition: 1 P\npartition: 2 NPL\n"
    )
    pipe = tmp_path / "bp.pipe"
    code, out, _ = run_cli(
        "build",
        "--spec",
        str(ds),
        "--variant",
        variant,
        "--replay",
        "--out",
        str(pipe),
        "--fan-out",
        "1",
        capsys=capsys,
    )
    assert code == 0
    assert "rk quotient classes: 2" in out
    assert "IL{0,1} = 2" in out
    struct_file = tmp_path / "out.struct"
    code, out, _ = run_cli(
        "apply",
        "--pipeline",
        str(pipe),
        "--verify",
        "--out",
        str(struct_file),
        capsys=capsys,
    )
    assert code == 0
    assert "=> pass" in out
    text = struct_file.read_text()
    parsed = read_struct(text)
    assert parsed.limit_targets["p(P0)"].value == 2
    # apply on the written pipeline reproduces build --replay exactly
    cfg = BuildConfig(colors=1, per_color=1, depth=1, fan_out=1)
    spec = parse_distribution(ds.read_text(), str(ds))
    assert text == serialize_struct(replay_blueprint(build_blueprint(spec, variant, cfg), cfg))


def test_machine_apply_stable(tmp_path, capsys):
    pipe = tmp_path / "p.pipe"
    pipe.write_text(
        "base colors=1 parts=1 per_color=1\n"
        "icp depth=1 fan=1 sub=P0 y=auto\n"
        "css fan=1 source=P0 sub=P0\n"
    )
    a = run_cli("apply", "--pipeline", str(pipe), "--verify", "--machine", capsys=capsys)
    b = run_cli("apply", "--pipeline", str(pipe), "--verify", "--machine", capsys=capsys)
    assert a == b and a[0] == 0


def test_bd_alias_in_pipeline(tmp_path, capsys):
    pipe = tmp_path / "p.pipe"
    pipe.write_text(
        "base colors=1 parts=1 per_color=1\n"
        "icp depth=1 fan=1 sub=P0 y=auto\n"
        "bd fan=1 source=P0 sub=P0\n"
    )
    out_file = tmp_path / "o.struct"
    code, out, _ = run_cli(
        "apply", "--pipeline", str(pipe), "--out", str(out_file), capsys=capsys
    )
    assert code == 0
    assert "linked" in out_file.read_text()


@pytest.mark.parametrize(
    "fan, message",
    [("0", "fan-out must be positive"), ("-1", "expected a natural number for --fan-out, got '-1'")],
    ids=["0", "-1"],
)
def test_build_refuses_fan_out_below_one(tmp_path, capsys, fan, message):
    ds = tmp_path / "spec.ds"
    ds.write_text(
        "elements: 3\n0 <= 1\n1 <= 0\nmode: finite\nf: {0,1} = 2\nf: {2} = 0\n"
        "partition: 0 P\npartition: 1 P\npartition: 2 NPL\n"
    )
    result = run_cli(
        "build", "--spec", str(ds), "--variant", "t77", "--replay", "--fan-out", fan,
        capsys=capsys,
    )
    assert result == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "mode,variant", [("finite", "t77"), ("countable-truncated", "t84")], ids=["finite", "countable"]
)
@pytest.mark.parametrize("extra", [[], ["--replay"]], ids=["out", "replay"])
def test_build_refuses_a_spec_with_no_elements(tmp_path, capsys, mode, variant, extra):
    # planned, it would split a part P0 that does not exist
    ds, pipe = tmp_path / "empty.ds", tmp_path / "empty.pipe"
    ds.write_text(f"elements: 0\nmode: {mode}\n")
    result = run_cli(
        "build", "--spec", str(ds), "--variant", variant, "--out", str(pipe), *extra, capsys=capsys
    )
    assert result == (2, "", "error: a blueprint needs at least one element\n")
    assert not pipe.exists()


def test_build_without_replay_refuses_fan_out_below_one(tmp_path, capsys):
    # the config is checked where it is given, so no pipeline of fan=0 or
    # colors=0 steps is written for apply to refuse later
    ds = tmp_path / "spec.ds"
    ds.write_text(
        "elements: 3\n0 <= 1\n1 <= 0\nmode: finite\nf: {0,1} = 2\nf: {2} = 0\n"
        "partition: 0 P\npartition: 1 P\npartition: 2 NPL\n"
    )
    pipe = tmp_path / "zero.pipe"
    for option, message in (("--fan-out", "fan-out"), ("--colors", "colors")):
        result = run_cli(
            "build", "--spec", str(ds), "--variant", "t77", option, "0", "--out", str(pipe),
            capsys=capsys,
        )
        assert result == (2, "", f"error: {message} must be positive\n")
        assert not pipe.exists()


@pytest.mark.parametrize(
    "steps, message",
    [
        ("icp depth=1 fan=0 sub=P0 y=auto\n", "p.pipe:2: fan-out must be positive"),
        # a negative number is not one the pipeline grammar spells
        ("icp depth=1 fan=1 sub=P0 y=auto\ncss fan=-2 source=P0 sub=P0\n",
         "p.pipe:3: expected 'fan=<integer>', got 'fan=-2'"),
        ("bu depth=1 fan=0 sub1=P0 sub2=P1 z=auto\n", "p.pipe:2: fan-out must be positive"),
    ],
    ids=["icp", "css", "bu"],
)
def test_apply_refuses_fan_out_below_one(tmp_path, monkeypatch, capsys, steps, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.pipe").write_text("base colors=1 parts=2 per_color=1\n" + steps)
    result = run_cli("apply", "--pipeline", "p.pipe", "--verify", "--machine", capsys=capsys)
    assert result == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "step, message",
    [
        ("base colors=1", "p.pipe:1: base step needs parts="),
        ("qedge low=0", "p.pipe:2: qedge step needs high="),
        ("icp depth=1", "p.pipe:2: icp step needs sub="),
        ("css sub=P0", "p.pipe:2: css step needs source= or stubs="),
        ("bd sub=P1", "p.pipe:2: bd step needs source= or stubs="),
        ("bu sub1=P0", "p.pipe:2: bu step needs sub2="),
        ("lmt lam=1", "p.pipe:2: lmt step needs node="),
        ("lms nodes=p(P0)", "p.pipe:2: lms step needs lam="),
        ("icp sub=P9", "p.pipe:2: no unary predicate 'P9'"),
        ("lmt node=nosuch lam=2", "p.pipe:2: no type node 'nosuch'"),
        ("lms nodes=p(P0),nosuch lam=2", "p.pipe:2: no type node 'nosuch'"),
    ],
    ids=["base", "qedge", "icp", "css", "bd", "bu", "lmt", "lms", "icp-unknown-sub", "lmt-unknown-node",
         "lms-unknown-node"],
)
def test_apply_names_a_missing_step_argument(tmp_path, monkeypatch, capsys, step, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.pipe").write_text(("" if step.startswith("base") else "base colors=1 parts=2\n") + step + "\n")
    result = run_cli("apply", "--pipeline", "p.pipe", capsys=capsys)
    assert result == (2, "", f"error: {message}\n")


def test_lms_names_a_joint_type(tmp_path, monkeypatch, capsys):
    # a node list splits only at commas outside parentheses
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.pipe").write_text(
        "base parts=2 colors=1\nbu sub1=P0 sub2=P1\nlms nodes=p(P0),q(p(P0),p(P1)) lam=2\n"
    )
    code, _, _ = run_cli("apply", "--pipeline", "p.pipe", "--out", "p.struct", capsys=capsys)
    assert code == 0
    assert "target p(P0)>q(p(P0),p(P1)) = 2" in (tmp_path / "p.struct").read_text().splitlines()


@pytest.mark.parametrize("op", ["css", "bd"])
def test_a_stub_named_twice_is_refused(tmp_path, monkeypatch, capsys, op):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.pipe").write_text(f"base parts=1 colors=1\nicp sub=P0\n{op} sub=P0 stubs=p(P0)[0],p(P0)[0]\n")
    result = run_cli("apply", "--pipeline", "p.pipe", capsys=capsys)
    assert result == (2, "", "error: p.pipe:3: stub 'p(P0)[0]' is named twice\n")


def test_types_dense_flag(capsys):
    code, out, _ = run_cli(
        "types",
        "--family",
        "colored",
        "--m",
        "2",
        "--depth",
        "1",
        "--dense",
        "(0,0);(0,1);(1,0);(1,1);(0,inf);(1,inf)",
        capsys=capsys,
    )
    assert code == 0 and "dense: True" in out
    code, out, _ = run_cli(
        "types",
        "--family",
        "iup",
        "--depth",
        "2",
        "--dense",
        "00;01;10",
        capsys=capsys,
    )
    assert "dense: False" in out


def test_dominate_dot_export(tmp_path, capsys):
    dg = tmp_path / "g.dg"
    dg.write_text("type a prime\ntype b prime\nb dominates a via Q\n")
    for flags in ((), ("--rkt",)):
        dot = tmp_path / f"rk{len(flags)}.dot"
        code, out, _ = run_cli("dominate", "--in", str(dg), *flags, "--dot", str(dot), capsys=capsys)
        assert code == 0 and out.endswith(f"dot written to {dot}\n")
        text = dot.read_text()
        assert text.startswith("digraph") and "{a}" in text and "{b}" in text


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        ("g.dg", "type a prime\ntype b prime\nb dominates a via Q\nb dominates a via Q\n", ["dominate", "--in"],
         "g.dg:4: expected one line per edge, got 'b dominates a via Q'"),
        ("p.pipe", "base parts=1 colors=1\nicp sub=P0 dpth=2\n", ["apply", "--pipeline"],
         "p.pipe:2: expected a key of 'icp' among sub, depth, fan, y, got 'dpth=2'"),
        ("b.ds", "elements: 2\n0 <= 1\nmode: bogus\nf: {0} = 1\n", ["build", "--spec"],
         "b.ds:3: expected 'mode: finite|countable-truncated', got 'bogus'"),
        ("n.ds", "elements: 2\n0 <= 1\nf: {0} = 1\n", ["build", "--spec"],
         "n.ds: distribution spec needs a 'mode: finite|countable-truncated' line"),
    ],
    ids=["repeated-dg-edge", "unknown-pipeline-key", "bad-mode", "no-mode"],
)
def test_input_refusals_exit_2_citing_the_line(tmp_path, monkeypatch, capsys, name, text, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert run_cli(*argv, name, capsys=capsys) == (2, "", f"error: {message}\n")


def test_limits_next_table_over_budget(capsys):
    # 1000 letters: the 1000 level-1 roots would give level 2 a million nodes
    argv = ["limits", "--system", "lmt", "--lam", "w", "--alphabet", "1000", "--len", "1"]
    code, out, err = run_cli(*argv, "--machine", capsys=capsys)
    assert code == 0 and err == ""
    rec = dict(line.split("=", 1) for line in out.splitlines())
    assert rec["classes"] == "1000"
    assert rec["classes_next"] == "unknown" and rec["stable"] == "unknown"
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert "L=1: 1000 classes\nL=2: over the node budget (1001000 > 200000)\nstable: unknown\n" in out
    code, out, err = run_cli(*argv[:-1], "2", capsys=capsys)
    assert code == 3 and out == ""
    assert err == "error: 1001000 nodes exceed the node budget 200000\n"


def test_limits_next_level_counted_per_class(capsys):
    # level 9 holds 349524 words but only 352 nodes
    argv = ["limits", "--system", "lms", "--lam", "w", "--alphabet", "4", "--len", "8"]
    code, out, err = run_cli(*argv, "--machine", capsys=capsys)
    assert code == 0 and err == ""
    rec = dict(line.split("=", 1) for line in out.splitlines())
    assert (rec["classes"], rec["classes_next"], rec["stable"]) == ("87", "103", "false")
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert "L=8: 87 classes\nL=9: 103 classes\nstable: False\n" in out


def test_limits_long_bound_refused_quickly(capsys):
    code, out, err = run_cli(
        "limits", "--system", "lmt", "--n", "1", "--alphabet", "2", "--len", "100000", "--machine",
        capsys=capsys,
    )
    assert code == 0 and err == ""
    assert "classes=1\n" in out
    start = time.perf_counter()
    code, out, err = run_cli(
        "limits", "--system", "lmt", "--n", "1", "--alphabet", "2", "--len", "3000000", capsys=capsys
    )
    elapsed = time.perf_counter() - start
    assert code == 3 and out == ""
    assert err == "error: 6000000 nodes exceed the node budget 200000\n"
    assert elapsed < 0.5, f"--len 3000000 took {elapsed:.2f}s"


def test_limits_huge_alphabet(capsys):
    # a level costs its classes times the alphabet, not the words: one class
    # of 100000 letters, and 1000 letter classes whose level 2 is refused;
    # timed in CPU seconds, which a busy host does not stretch
    for argv, classes in (
        (("--n", "1", "--alphabet", "100000", "--len", "1"), "1"),
        (("--lam", "w", "--alphabet", "1000", "--len", "1"), "1000"),
    ):
        start = time.process_time()
        code, out, err = run_cli("limits", "--system", "lmt", *argv, "--machine", capsys=capsys)
        elapsed = time.process_time() - start
        assert code == 0 and err == ""
        assert f"classes={classes}\n" in out
        assert elapsed < 1, f"{argv} took {elapsed:.2f}s"
    start = time.perf_counter()
    code, out, err = run_cli(
        "limits", "--system", "lmt", "--n", "1", "--alphabet", "100000", "--len", "4", capsys=capsys
    )
    elapsed = time.perf_counter() - start
    assert code == 3 and out == ""
    assert err == "error: 400000 nodes exceed the node budget 200000\n"
    assert elapsed < 0.5, f"--len 4 took {elapsed:.2f}s"


def test_limits_one_letter_long_bound_fits_in_memory():
    # 200000 classes of one-letter words up to 200000 letters: only the
    # representatives printed are decoded, and the levels cost linear time
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["limits", "--system", "lms", "--lam", "w", "--alphabet", "1", "--len", "200000", "--machine"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rklab", *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=300, preexec_fn=cap_address_space,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    rec = dict(line.split("=", 1) for line in proc.stdout.splitlines())
    assert rec["classes"] == "200000"
    assert rec["classes_next"] == "unknown" and rec["stable"] == "unknown"
    assert rec["representatives"].split(";") == [".".join("0" * n) for n in range(1, 21)]
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_prime_model_past_formula_budget(capsys):
    for argv, cells in (
        (("--family", "sdup", "--depth", "3"), 23),
        (("--family", "colored", "--m", "3", "--depth", "6"), 24),
    ):
        code, out, err = run_cli("types", *argv, "--prime", "--machine", capsys=capsys)
        assert code == 0 and err == ""
        assert out == f"cells={cells}\nprime_model=true\n"


def test_preorder_width_past_twenty_classes(tmp_path, capsys):
    # 24 classes: three 8-element chains, one of them with a 2-cycle on top
    pairs = [(c * 8 + i, c * 8 + i + 1) for c in range(3) for i in range(7)]
    pairs += [(23, 24), (24, 23)]
    po = tmp_path / "wide.po"
    po.write_text("elements: 25\n" + "".join(f"{a} <= {b}\n" for a, b in pairs))
    code, out, err = run_cli("preorder", "--in", str(po), "--width", "--machine", capsys=capsys)
    assert code == 0 and err == ""
    assert out == "elements=25\nwidth=3\n"


def test_preorder_cone_out_of_range(tmp_path, capsys):
    po = tmp_path / "p.po"
    po.write_text("elements: 3\n0 <= 1\n")
    code, out, err = run_cli("preorder", "--in", str(po), "--cone", "7", capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: element 7 out of range\n"


def test_preorder_many_elements_fits_in_memory(tmp_path):
    # 99999 elements and five pairs: memory and time follow the pairs, not n^2
    po = tmp_path / "big.po"
    po.write_text("elements: 99999\n0 <= 1\n1 <= 0\n5 <= 99998\n99998 <= 7\n50000 <= 50001\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rklab", "preorder", "--in", str(po), "--height", "--width", "--machine"],
        capture_output=True, text=True, env=env, timeout=300, preexec_fn=cap_address_space,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    # 99998 classes; the chain 5 < 99998 < 7 and the pair 50000 < 50001 match 3
    assert proc.stdout == "elements=99999\nheight=3\nwidth=99995\n"
    assert elapsed < 60, f"took {elapsed:.1f}s"


# per budget: its module and constant, the limit to patch it to (None: as
# shipped), a command line that asks for one more, and the file it reads
ONE_PAST = [
    ("cardinal", "DIGIT_BOUND", None, "limits --system lmt --n 1 --alphabet " + "1" * 4097 + " --len 1", None),
    ("formats", "ELEMENT_CAP", None, "preorder --in {path}", "elements: 1000001\n"),
    # a star on 4 elements: 3 rows of 4 bits
    ("preorder", "ROW_BUDGET", 11, "preorder --in {path} --height", "elements: 4\n0 <= 3\n1 <= 3\n2 <= 3\n"),
    ("operators", "UNIVERSE_CAP", None, "apply --pipeline {path}", "base parts=1 colors=250000\n"),
    ("typespace", "CELL_BUDGET", 2**17 - 1, "types --family iup --depth 17 --enumerate", None),
    ("typespace", "DEPTH_BOUND", None, "types --family iup --depth 4097 --prime", None),
    ("typespace", "PART_BOUND", None, f"types --family colored --m {2**4096} --depth 1 --prime", None),
    ("limitcount", "NODE_BUDGET", None, "limits --system lmt --n 1 --alphabet 200001 --len 1", None),
]


@pytest.mark.parametrize("module, constant, limit, line, text", ONE_PAST, ids=[c for _, c, *_ in ONE_PAST])
def test_each_budget_refuses_one_past_its_limit(module, constant, limit, line, text, tmp_path, capsys, monkeypatch):
    layer = importlib.import_module(f"rklab.{module}")
    budget = getattr(layer, constant)
    if limit is not None:
        budget = replace(budget, limit=limit)
        monkeypatch.setattr(layer, constant, budget)
    raised, check = [], Budget.check

    def spy(self, asked, unit=None):
        try:
            return check(self, asked, unit)
        except BudgetError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(Budget, "check", spy)
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(*line.format(path=path).split(), capsys=capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.endswith(f" exceed the {budget.name} {budget.limit}\n")
    [exc] = raised
    assert exc.budget is budget and exc.asked == budget.limit + 1


def _budgets() -> dict[str, Budget]:
    """Every ``Budget`` of the layer modules, by ``module.CONSTANT``."""
    import pkgutil

    import rklab

    found = {}
    for info in pkgutil.iter_modules(rklab.__path__):
        if info.name != "__main__" and not info.ispkg:
            layer = importlib.import_module(f"rklab.{info.name}")
            found.update((f"{info.name}.{k}", v) for k, v in vars(layer).items() if isinstance(v, Budget))
    return found


def test_the_readme_budget_table_lists_every_budget():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| ([^|]+) \| `(\w+\.\w+)` \| (\d+) \| ([^|]+) \| [^|]+ \| `([^`]+)` \|$", readme, re.M)
    budgets = _budgets()
    assert len(budgets) == 8
    assert sorted(row[1] for row in rows) == sorted(budgets)
    for name, constant, limit, unit, example in rows:
        budget = budgets[constant]
        assert (name, int(limit), unit) == (budget.name, budget.limit, budget.unit)
        assert re.fullmatch(rf"error: (\S+: )?\d+ [a-z ,-]+ exceed the {name} {limit}", example), example


def test_a_star_past_the_row_budget_exits_3(tmp_path, capsys, monkeypatch):
    # every element below the last: n - 1 rows of n bits, one bit over the budget
    import rklab.preorder

    n = 50
    budget = (n - 1) * n - 1
    row_budget = rklab.preorder.ROW_BUDGET
    monkeypatch.setattr(rklab.preorder, "ROW_BUDGET", replace(row_budget, limit=budget))
    star = "".join(f"{i} <= {n - 1}\n" for i in range(n - 1))
    (tmp_path / "star.po").write_text(f"elements: {n}\n{star}")
    values = "".join(f"f: {{{i}}} = 0\n" for i in range(n))
    (tmp_path / "star.ds").write_text(f"elements: {n}\n{star}mode: finite\n{values}")
    nodes = "".join(f"type t{i} prime\n" for i in range(n))
    edges = "".join(f"t{n - 1} dominates t{i} via f\n" for i in range(n - 1))
    (tmp_path / "star.dg").write_text(nodes + edges)
    for argv in (["preorder", "--in", "star.po", "--height"], ["build", "--spec", "star.ds"],
                 ["dominate", "--in", "star.dg", "--rkt"], ["dominate", "--in", "star.dg"]):
        argv[2] = str(tmp_path / argv[2])
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (3, ""), argv
        assert err == f"error: {budget + 1} row bits exceed the row budget {budget}\n"
    monkeypatch.setattr(rklab.preorder, "ROW_BUDGET", replace(row_budget, limit=budget + 1))
    code, out, _ = run_cli("preorder", "--in", str(tmp_path / "star.po"), "--height", capsys=capsys)
    assert (code, out) == (0, f"elements: {n}\nheight: 2\n")


def _subprocess_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


ELEMENT_CAP_ERROR = "300000000 elements exceed the element cap 1000000"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("preorder", "--in", "{path}", "--quotient", "--height"), "elements: 300000000\n0 <= 1\n",
         ELEMENT_CAP_ERROR),
        (("build", "--spec", "{path}", "--replay"),
         "elements: 300000000\n0 <= 1\nmode: finite\nf: {0,1} = 0\n", ELEMENT_CAP_ERROR),
        (("apply", "--pipeline", "{path}"),
         "base colors=1 parts=1 per_color=1\nicp depth=1000000 fan=1 sub=P0 y=auto\n",
         "{path}:2: at least 2^64 elements exceed the universe cap 250000"),
        (("apply", "--pipeline", "{path}"),
         "base colors=1 parts=1 per_color=1\nicp depth=1 fan=100000000 sub=P0\n",
         "{path}:2: 300000002 elements exceed the universe cap 250000"),
        (("apply", "--pipeline", "{path}"), "base colors=1 parts=1000000 per_color=1000\n",
         "{path}:1: 1001000000 elements exceed the universe cap 250000"),
        # 200,002 elements, but about 5*10^9 q-edge pairs
        (("apply", "--pipeline", "{path}"), "base colors=100000 parts=2 per_color=1\nqedge low=0 high=1\n",
         "{path}:2: 5000050001 q-edge pairs exceed the universe cap 250000"),
        # 2000 discrete parts: a bu step per two of them
        (("build", "--spec", "{path}", "--out", "{path}.pipe"),
         "elements: 2000\nmode: finite\n" + "".join(f"f: {{{i}}} = 0\n" for i in range(2000)),
         "2001001 icp, css and bu steps exceed the universe cap 250000"),
    ],
    ids=["preorder", "build", "apply-deep", "apply-fan", "apply-base", "apply-qedge", "build-steps"],
)
def test_element_count_over_the_cap_refused_before_allocating(tmp_path, argv, text, message):
    path = tmp_path / "huge.txt"
    path.write_text(text)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rklab", *(a.format(path=path) for a in argv)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=300,
        preexec_fn=cap_address_space,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message.format(path=path)}\n"
    assert elapsed < 1, f"took {elapsed:.2f}s"


def _count_preorder_calls(monkeypatch, names):
    """Count the calls to the named ``rklab.preorder`` functions, in every
    module that bound them."""
    import rklab.preorder

    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(rklab.preorder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("rklab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_preorder_builds_one_quotient(tmp_path, capsys, monkeypatch):
    po = tmp_path / "chain.po"
    po.write_text("elements: 4\n0 <= 1\n1 <= 2\n2 <= 3\n")
    counts = _count_preorder_calls(monkeypatch, ("from_pairs", "_condense", "height", "width"))
    code, out, _ = run_cli(
        "preorder", "--in", str(po), "--quotient", "--height", "--width", "--directed",
        "--dot", str(tmp_path / "q.dot"), "--machine", capsys=capsys,
    )
    assert code == 0 and "height=4\nwidth=1\ndirected=true\n" in out
    assert counts == {"from_pairs": 1, "_condense": 1, "height": 1, "width": 1}


def test_build_replay_builds_one_quotient_per_order(tmp_path, capsys, monkeypatch):
    ds = tmp_path / "spec.ds"
    ds.write_text(
        "elements: 3\n0 <= 1\n1 <= 0\nmode: finite\nf: {0,1} = 2\nf: {2} = 0\n"
        "partition: 0 P\npartition: 1 P\npartition: 2 NPL\n"
    )
    counts = _count_preorder_calls(monkeypatch, ("from_pairs", "_condense"))
    code, out, _ = run_cli("build", "--spec", str(ds), "--replay", "--machine", capsys=capsys)
    assert code == 0 and "rk_classes=2\n" in out
    # the spec's order and the replayed registry's: each built in one pass,
    # and the replayed prime order restricted from the registry's, not rebuilt
    assert counts == {"from_pairs": 2, "_condense": 2}


def test_oversized_type_spaces_refused_before_allocating():
    # enumeration is refused past the cell budget, and every query past the
    # depth bound, before anything is allocated; the family rules answer
    # the other queries at any size within the bound
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    deep = "1" * 1000
    for argv, code, out, err in (
        (("--family", "sdup", "--depth", "30", "--enumerate"), 3, "",
         "error: 3221225471 cells exceed the cell budget 65536\n"),
        (("--family", "colored", "--m", "10000000", "--depth", "10", "--enumerate"), 3, "",
         "error: 120000000 cells exceed the cell budget 65536\n"),
        (("--family", "iup", "--depth", "4097", "--prime"), 3, "", "error: 4097 levels exceed the depth bound 4096\n"),
        (("--family", "sdup", "--depth", "30", "--prime"), 0, "cells=3221225471\nprime_model=true\n", ""),
        (("--family", "colored", "--m", "10000000", "--depth", "10", "--prime", "--classify", "P9999999,!C3",
          "--dense", "(0,inf)"), 0, "cells=120000000\nformula=i-formula\nprime_model=true\ndense=false\n", ""),
        (("--family", "iup", "--depth", "1000", "--classify", "P999,!P0", "--dense", deep), 0,
         f"cells={2**1000}\nformula=ni-formula\ndense=false\n", ""),
        (("--family", "sdup", "--depth", "1000", "--classify", f"S{deep},!S0", "--dense", f"cont:{deep}"), 0,
         f"cells={3 * 2**1000 - 1}\nformula=i-formula\ndense=false\n", ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "rklab", "types", *argv, "--machine"],
            capture_output=True, text=True, env=_subprocess_env(), timeout=300,
            preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


# prints, as the last line, the rklab modules loaded by the run that follows it
# and which of the slow-to-import dataclasses and inspect are loaded
_PROBE_HEAD = (
    "import atexit, json, runpy, sys\n"
    "atexit.register(lambda: print(json.dumps({\n"
    "    'rklab': sorted(m for m in sys.modules if m.startswith('rklab')),\n"
    "    'std': [m for m in ('dataclasses', 'inspect') if m in sys.modules]})))\n"
)
# runs ``python -m rklab ARGV``
_MODULE_PROBE = _PROBE_HEAD + "runpy.run_module('rklab', run_name='__main__', alter_sys=True)\n"


def _probe(code, *args):
    """The rklab layers and the slow standard modules that ``python -c code args`` loads."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    return {m.removeprefix("rklab.") for m in seen["rklab"]}, set(seen["std"])


@pytest.fixture(scope="module")
def bare_std():
    """What a bare interpreter already loads (site hooks may import either module)."""
    return _probe(_PROBE_HEAD + "pass\n")[1]


@pytest.mark.parametrize(
    "argv, forbidden",
    [
        (("--help",),
         {"cardinal", "distribution", "domination", "formats", "limitcount", "models",
          "operators", "preorder", "typespace", "report", "record"}),
        (("classify", "--tc", "--triple", "0,0,c"),
         {"operators", "domination", "preorder", "limitcount", "typespace", "formats"}),
        (("decompose", "--rk", "1", "--il", "1,w", "--npl", "c", "--tc"),
         {"operators", "domination", "preorder", "limitcount", "typespace", "formats"}),
        (("types", "--family", "sdup", "--depth", "2", "--prime", "--enumerate"),
         {"distribution", "operators", "domination", "preorder", "limitcount", "formats"}),
        (("limits", "--system", "lmt", "--n", "2", "--alphabet", "2", "--len", "3"),
         {"distribution", "formats", "typespace", "operators", "domination", "preorder"}),
        (("preorder", "--in", "{dir}/chain.po", "--quotient", "--height", "--width"),
         {"distribution", "operators", "typespace", "limitcount"}),
        (("dominate", "--in", "{dir}/graph.dg"), {"distribution", "operators", "typespace", "limitcount"}),
        (("apply", "--pipeline", "{dir}/plan.pipe"), {"distribution", "preorder", "typespace"}),
        (("build", "--spec", "{dir}/spec.ds"), {"typespace"}),
    ],
    ids=["help", "classify", "decompose", "types", "limits", "preorder", "dominate", "apply", "build"],
)
def test_subcommand_imports_only_its_layers(tmp_path, bare_std, argv, forbidden):
    (tmp_path / "chain.po").write_text("elements: 3\n0 <= 1\n1 <= 2\n")
    (tmp_path / "graph.dg").write_text("type p0 prime\ntype p1 prime\np1 dominates p0 via Q principal\n")
    (tmp_path / "plan.pipe").write_text("base parts=2 colors=1\nicp sub=P0\n")
    (tmp_path / "spec.ds").write_text("elements: 2\n0 <= 1\nmode: finite\nf: {0} = 1\nf: {1} = 0\n")
    loaded, std = _probe(_MODULE_PROBE, *(a.format(dir=tmp_path) for a in argv))
    assert "cli" in loaded and not loaded & forbidden, sorted(loaded & forbidden)
    # the dispatcher imports the invoked subcommand's module and no other
    commands = {m for m in loaded if m.startswith("commands")}
    assert commands == ({"commands", f"commands.{argv[0]}"} if argv[0] in COMMAND_NAMES else set())
    assert std <= bare_std, sorted(std - bare_std)


def test_limit_census_imports_only_its_layers(bare_std):
    script = Path(__file__).resolve().parent.parent / "scripts" / "limit_census.py"
    probe = _PROBE_HEAD + f"runpy.run_path({str(script)!r}, run_name='__main__')\n"
    loaded, std = _probe(probe, "--alphabets", "2", "--max-len", "3")
    assert loaded == {"rklab", "cardinal", "limitcount", "record", "report"}, sorted(loaded)
    assert std <= bare_std, sorted(std - bare_std)


README_EXAMPLES = [
    "preorder --in chain4.po --quotient --height --width --dot out.dot",
    "types --family iup --depth 3 --enumerate --prime",
    "types --family sdup --depth 2 --classify Se,!S0,!S1",
    "dominate --in graph.dg --rkt --dot out.dot",
    "apply --pipeline build.pipe --verify --out out.struct",
    "limits --system lmt --n 1 --alphabet 3 --len 4",
    "limits --system lms --lam w --alphabet 3 --len 3 --reading gt",
    "classify --tc --triple 0,0,c",
    "classify --small --triple 1,0,0",
    "build --spec spec.ds --variant t77 --replay --out build.pipe",
    "decompose --rk 2 --il 1,0,2 --npl c --tc",
]
FUZZ_TOKENS = [
    "0", "1", "2", "3", "7", "-1", "99", "100000", "3000000", "", "x", "w", "c", "1,2", "0,w,c",
    "S0", "!Se", "gt", "geq", "t92", "--machine", "--help", "chain4.po", "graph.dg", "spec.ds",
    "build.pipe", "out.struct",
]


def _mutate(rng, argv):
    """Delete, insert, replace or swap one to three tokens."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        op, i = rng.randrange(4), rng.randrange(len(argv) + 1)
        if op == 0 and i < len(argv):
            del argv[i]
        elif op == 1:
            argv.insert(i, rng.choice(FUZZ_TOKENS))
        elif op == 2 and i < len(argv):
            argv[i] = rng.choice(FUZZ_TOKENS)
        elif op == 3 and argv:
            j = rng.randrange(len(argv))
            argv[i % len(argv)], argv[j] = argv[j], argv[i % len(argv)]
    return argv


# the input files the README examples name
README_FILES = {
    "chain4.po": "elements: 4\n0 <= 1\n1 <= 2\n2 <= 3\n",
    "graph.dg": "type p0 prime\ntype p1 prime\np1 dominates p0 via Q principal\n",
    "spec.ds": "elements: 3\n0 <= 1\n1 <= 0\nmode: finite\nf: {0,1} = 2\nf: {2} = 0\n"
               "partition: 0 P\npartition: 1 P\npartition: 2 NPL\n",
}


def test_mutated_readme_examples_exit_cleanly(tmp_path, monkeypatch, capsys):
    # every mutated command line ends in exit 0, 2 or 3, never a traceback
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(README_EXAMPLES[-2].split()) == 0
    rng = random.Random(2024)
    slowest = (0.0, None)
    for _ in range(1000):
        argv = _mutate(rng, rng.choice(README_EXAMPLES).split())
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        slowest = max(slowest, (time.perf_counter() - start, argv))
        capsys.readouterr()
        assert code in (0, 2, 3), argv
    assert slowest[0] < 10, slowest


# one input file of each format, and the commands that read it
FUZZ_FILES = {
    "order.po": ("elements: 6\n0 <= 1\n1 <= 2\n2 <= 0\n3 <= 4\n4 <= 5\n",
                 [["preorder", "--in", "order.po", "--quotient", "--height", "--width", "--directed"]]),
    "graph.dg": ("type p0 prime\ntype p1 prime\ntype p2\np1 dominates p0 via Q principal\n"
                 "p2 dominates p1 via R\n", [["dominate", "--in", "graph.dg", "--rkt"]]),
    "finite.ds": ("elements: 3\n0 <= 1\n1 <= 0\nmode: finite\nf: {0,1} = 2\nf: {2} = 0\n"
                  "partition: 0 P\npartition: 1 P\npartition: 2 NPL\n",
                  [["build", "--spec", "finite.ds", "--variant", "t91", "--replay", "--out", "out.pipe"],
                   ["apply", "--pipeline", "out.pipe", "--verify"]]),
    "seq.ds": ("elements: 4\n0 <= 1\n1 <= 2\nmode: countable-truncated\nf: 0<1<2<... = c\nf: 1<2 = 2\n",
               [["build", "--spec", "seq.ds", "--variant", "t84", "--replay", "--out", "out.pipe"],
                ["apply", "--pipeline", "out.pipe", "--verify"]]),
    "plan.pipe": ("base colors=2 parts=3 per_color=1\nqedge high=1 low=0 principal=true\n"
                  "icp depth=2 fan=2 sub=P0 y=auto\ncss fan=2 source=P0 sub=P1\n"
                  "bu depth=1 fan=1 sub1=P1 sub2=P2 z=auto\nlmt lam=2 node=p(P1)\n"
                  "lms lam=w nodes=p(P0),p(P1)\n", [["apply", "--pipeline", "plan.pipe", "--verify"]]),
    "space.ts": ("family: colored\nm: 2\ndepth: 3\n", [["types", "--in", "space.ts", "--prime"]]),
}

# runs each [directory, argv] of the JSON list on stdin and prints the exit
# statuses, or the traceback of a run that raised
_FUZZ_CHILD = """
import contextlib, io, json, os, sys, traceback
from rklab.cli import main
codes = []
for cwd, argv in json.load(sys.stdin):
    os.chdir(cwd)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception:
            codes.append(traceback.format_exc())
print(json.dumps(codes))
"""


def _mutate_file(rng, text):
    """Change a number (times 10^1..7, negated, zeroed or off by one), swap,
    drop or duplicate a line, or write an f: key in the other mode's form;
    one or two of these."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        op, i, j = rng.randrange(5), rng.randrange(len(lines)), rng.randrange(len(lines))
        numbers = [(k, m) for k, line in enumerate(lines) for m in re.finditer(r"\d+", line)]
        if op == 0 and numbers:
            k, m = rng.choice(numbers)
            n = int(m.group())
            new = rng.choice([n * 10 ** rng.randint(1, 7), -n, 0, n + 1, n - 1])
            lines[k] = lines[k][: m.start()] + str(new) + lines[k][m.end():]
        elif op == 1:
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 2 and len(lines) > 1:
            del lines[i]
        elif op == 3:
            lines.insert(i, lines[i])
        elif op == 4 and any(line.startswith("f:") for line in lines):
            i = rng.choice([k for k, line in enumerate(lines) if line.startswith("f:")])
            key, _, value = lines[i][2:].partition("=")
            key = key.strip()
            if key.startswith("{"):
                key = key[1:-1].replace(",", "<")
            else:
                key = "{" + key.removesuffix("<...").replace("<", ",") + "}"
            lines[i] = f"f: {key} ={value}"
    return "\n".join(lines) + "\n"


def test_mutated_input_files_exit_cleanly(tmp_path):
    # every command on every mutated file ends in exit 0, 2 or 3, in one
    # process capped at 1 GB of address space: no traceback, no memory kill
    rng = random.Random(1)
    runs = []
    for k in range(60):
        for name, (text, commands) in FUZZ_FILES.items():
            case = tmp_path / f"{name}.{k}"
            case.mkdir()
            (case / name).write_text(_mutate_file(rng, text))
            runs += [[str(case), argv] for argv in commands]

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _FUZZ_CHILD], input=json.dumps(runs), capture_output=True,
        text=True, env=_subprocess_env(), timeout=120, preexec_fn=cap_address_space,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    bad = [(run, code) for run, code in zip(runs, codes) if code not in (0, 2, 3)]
    assert not bad, bad[:3]
    assert len(codes) == len(runs) and {0, 2} <= set(codes)
    assert elapsed < 10, elapsed


# command lines past the README examples that reach every other record a
# command prints, run in this order after them
GOLDEN_EXTRA = [
    "preorder --in chain4.po --directed --cone 1",
    "preorder --in antichain.po --quotient --directed",
    "types --family iup --depth 2 --dense 00;01;10",
    "dominate --in graph.dg --dot out.dot",
    "dominate --in antichain.dg",
    "dominate --in antichain.dg --rkt",
    "limits --system lms --n 2 --alphabet 2 --len 3",
    "limits --system lmt --lam w --alphabet 1000 --len 1",
    "build --spec seq.ds --variant t84 --replay --out seq.pipe",
    "apply --pipeline seq.pipe --verify",
    "decompose --rk 2 --il 1,0,2 --npl c",
]
GOLDEN_FILES = {
    **README_FILES,
    "antichain.po": "elements: 2\n",
    "antichain.dg": "type a prime\ntype b prime\n",
    "seq.ds": FUZZ_FILES["seq.ds"][0],
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """(command line, exit status, stdout) of each README example and each
    GOLDEN_EXTRA line, plain and then with --machine."""
    cwd = tmp_path_factory.mktemp("golden")
    for name, text in GOLDEN_FILES.items():
        (cwd / name).write_text(text)
    runs, home = [], os.getcwd()
    os.chdir(cwd)
    try:
        for line in [README_EXAMPLES[-2]] + README_EXAMPLES + GOLDEN_EXTRA:  # build writes build.pipe
            for argv in (line.split(), line.split() + ["--machine"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                runs.append((" ".join(argv), code, out.getvalue()))
    finally:
        os.chdir(home)
    return runs[2:]


def test_output_matches_the_golden_file(golden_runs):
    # the CLI text and --machine records stay bit-stable
    text = "".join(f"$ rklab {argv}\nexit {code}\n{out}" for argv, code, out in golden_runs)
    assert text == (Path(__file__).parent / "cli_golden.txt").read_text()


def test_machine_output_has_one_record_per_plain_line(golden_runs):
    # limits and classify print records in one form only, so theirs do not pair up
    for (argv, _, plain), (_, _, machine) in zip(golden_runs[::2], golden_runs[1::2]):
        if argv.split()[0] in ("limits", "classify"):
            continue
        records = machine.splitlines()
        assert len(records) == len(plain.splitlines()), argv
        assert all(re.match(r"[a-z_][^\s=]*=", line) for line in records), records


def _full_parser():
    """Every subcommand filled in from its module, whatever the command line:
    the parser the lazy one must act like."""
    ap = argparse.ArgumentParser(prog="rklab", description=cli.__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_line in COMMANDS:
        p = sub.add_parser(name, help=help_line)
        command = importlib.import_module(f"rklab.commands.{name}")
        command.arguments(p)
        p.add_argument("--machine", action="store_true")
        p.set_defaults(fn=command.run)
    return ap


def _parse(parser, argv):
    """The namespace ``parser`` gives ``argv``, its exit status, stdout and
    stderr, or the refusal of a number option, which ``main`` reports."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
        except ValueError as exc:
            return type(exc), str(exc)


def test_lazy_parser_acts_like_the_full_one(monkeypatch):
    rng = random.Random(2024)  # the command lines the mutation test draws
    argvs = [_mutate(rng, rng.choice(README_EXAMPLES).split()) for _ in range(1000)]
    argvs += [example.split() for example in README_EXAMPLES]
    argvs += [[], ["--help"], ["-h"], ["bogus"], ["--help", "limits"]]
    argvs += [["--", "limits", "--system", "lmt", "--n", "1", "--alphabet", "2", "--len", "3"]]
    argvs += [[name, "--help"] for name in COMMAND_NAMES]
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        full = _full_parser()
        for argv in argvs:
            assert _parse(build_parser(argv), argv) == _parse(full, argv), argv
