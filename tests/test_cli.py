import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rklab.cli import main
from rklab.distribution import BuildConfig, build_blueprint, replay_blueprint
from rklab.formats import parse_distribution, parse_struct, serialize_struct


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
    parsed = parse_struct(text, str(struct_file))
    assert parsed.registry.limit_targets["p(P0)"].value == 2
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
    dot = tmp_path / "rk.dot"
    code, out, _ = run_cli("dominate", "--in", str(dg), "--dot", str(dot), capsys=capsys)
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "{a}" in text and "{b}" in text


def test_limits_next_table_over_budget(capsys):
    # the L=8 table fits the word budget, the L=9 one does not
    argv = ["limits", "--system", "lms", "--lam", "w", "--alphabet", "4", "--len", "8"]
    code, out, err = run_cli(*argv, "--machine", capsys=capsys)
    assert code == 0 and err == ""
    rec = dict(line.split("=", 1) for line in out.splitlines())
    assert rec["classes"] == "87"
    assert rec["classes_next"] == "unknown" and rec["stable"] == "unknown"
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert "L=8: 87 classes\nL=9: over the word budget (349524 > 200000)\nstable: unknown\n" in out
    code, out, err = run_cli(*argv[:-1], "9", capsys=capsys)
    assert code == 3 and out == ""
    assert err == "error: 349524 words exceed the budget 200000\n"


def test_limits_long_bound_refused_quickly(capsys):
    for length in ("100000", "3000000"):
        start = time.perf_counter()
        code, out, err = run_cli(
            "limits", "--system", "lmt", "--n", "1", "--alphabet", "2", "--len", length,
            capsys=capsys,
        )
        elapsed = time.perf_counter() - start
        assert code == 3 and out == ""
        assert err == f"error: the words of length at most {length} exceed the budget 200000\n"
        assert elapsed < 0.5, f"--len {length} took {elapsed:.2f}s"


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
