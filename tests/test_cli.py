"""Command-line interface: exit codes, JSON output, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kakeya.cli import build_parser, main
from kakeya import construction
from kakeya.construction import save_seed
from kakeya.errors import DegenerateSeed
from kakeya.projgeom import PointSet, ProjPoint, Subspace
from kakeya.scalar import PrimeField, RealField
from kakeya.seeds import SeedPoint, dual_conic_seed, line_walk_start, regular_ngon_seed, seed_report, walk_point

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err



def test_construct_and_verify_keep_their_record_loops_off_the_field_methods(tmp_path, capsys, monkeypatch):
    # the exact record loops (PointSet.on, the padding walk, the lift; verify's point-at-infinity test and
    # grid_values_from_direction) compute on raw values; a loop routed back through the PrimeField methods adds
    # hundreds of calls here: both commands made 2,871 when construct's three loops still called them, and verify
    # made 355 when its two did; verify keeps only ProjPoint's 24 inversions normalizing the directions it works out
    calls = []
    for name in ("add", "sub", "mul", "neg", "inv", "div", "pow", "eq", "is_zero"):
        method = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name, lambda self, *args, _method=method: calls.append(_method) or _method(self, *args))
    out = str(tmp_path / "k.json")
    assert run(capsys, "construct", "--seed", "conic", "--q", "7", "--dim", "3", "--out", out)[0] == 0
    assert 0 < len(calls) <= 903
    calls.clear()
    assert run(capsys, "verify", out, "--r", "1")[0] == 0
    assert len(calls) <= 24


def test_real_construct_and_verify_keep_their_record_loops_off_the_field_methods(tmp_path, capsys, monkeypatch):
    # the real twin: ProjPoint, Subspace.contains, PointSet, walk_point, the writer and verify's checks compare and
    # divide on floats inline.  With those loops on the RealField methods, ngon N=9 n=3 made 3,935 calls in construct
    # and 2,826 in verify; construct keeps 680 (line_walk_start, the lift's embedding, the seed's nullspace, the
    # lifted points' infinity test) and verify none
    calls = []
    for name in ("add", "sub", "mul", "neg", "inv", "div", "pow", "eq", "is_zero"):
        method = getattr(RealField, name)
        monkeypatch.setattr(RealField, name, lambda self, *args, _method=method: calls.append(_method) or _method(self, *args))
    out = str(tmp_path / "k.json")
    assert run(capsys, "construct", "--seed", "ngon", "--N", "9", "--dim", "3", "--out", out)[0] == 0
    assert 0 < len(calls) <= 680
    calls.clear()
    assert run(capsys, "verify", out, "--r", "1")[0] == 0
    assert calls == []


def test_construct_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "k.json"
    code, stdout, _ = run(
        capsys, "construct", "--seed", "conic", "--q", "7", "--dim", "3", "--out", str(out)
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["lines"] == 49 and summary["points"] > 49
    assert out.exists()

    code, stdout, _ = run(capsys, "verify", str(out), "--r", "1")
    assert code == 0
    reports = json.loads(stdout)
    assert [r["check"] for r in reports] == [
        "incidence",
        "directions",
        "size",
        "bound_consistency",
    ]
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_fails_on_corrupted_file(tmp_path, capsys):
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["points"] = doc["points"][:-3]
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 1
    reports = json.loads(stdout)
    assert any(r["verdict"] == "fail" for r in reports)


def test_verify_with_r_fails_on_an_incomplete_grid(tmp_path, capsys):
    # an uncovered grid cell is a failing verdict, not bad input
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["lines"] = doc["lines"][:-1]
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(out), "--r", "1")
    assert code == 1 and not stderr
    reports = {r["check"]: r for r in json.loads(stdout)}
    assert list(reports) == ["incidence", "directions", "size", "bound_consistency"]
    assert reports["bound_consistency"]["verdict"] == "fail"
    assert reports["bound_consistency"]["witnesses"] == ["grid covers 24 of 25 cells"]


def test_certify_refuses_a_family_that_does_not_cover_the_grid(tmp_path, capsys):
    # no lines and no points, or one line dropped: the lower bound's hypothesis fails, so no certificate
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "3", "--out", str(out))
    good = json.loads(out.read_text())
    for bad, covered in (({**good, "lines": [], "points": []}, 0), ({**good, "lines": good["lines"][:-1]}, 24)):
        out.write_text(json.dumps(bad))
        code, stdout, stderr = run(capsys, "certify", str(out), "--r", "1")
        assert code == 2 and not stdout
        assert stderr == f"error: grid covers {covered} of 25 cells\n"


@pytest.mark.parametrize("q,n", [("5", "2"), ("5", "3"), ("7", "2")])
def test_certify_refuses_a_line_that_does_not_have_its_stored_direction(tmp_path, capsys, q, n):
    # line 0 takes line 1's basis and keeps its own direction: the stored directions still cover the
    # grid, the lines' real directions miss a cell, so verify fails and certify refuses
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", q, "--dim", n, "--out", str(out))
    doc = json.loads(out.read_text())
    doc["lines"][0]["basis"] = doc["lines"][1]["basis"]
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(out), "--r", "1")
    assert code == 1 and not stderr
    directions = next(r for r in json.loads(stdout) if r["check"] == "directions")
    assert "line 0 stores a direction it does not have" in directions["witnesses"]
    code, stdout, stderr = run(capsys, "certify", str(out), "--r", "1")
    assert code == 2 and not stdout
    assert stderr == "error: line 0 stores a direction it does not have\n"


def test_one_line_stored_under_every_grid_direction_fails_the_grid_bound(tmp_path, capsys):
    # conic q=5 n=2 with every line given line 0's basis and only its 5 points: each line carries N = 5
    # points and the stored directions cover the 5 grid cells, so the bound's hypothesis holds as stored
    # and the bound is evaluated, binomial(2, 2) * 5 = 5 < binomial(6, 2) = 15; the lines do not have the
    # directions they store, so directions fails and certify refuses on the first such line
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    for line in doc["lines"]:
        line["basis"] = doc["lines"][0]["basis"]
    doc["points"] = [p for p in doc["points"] if p["coords"][1] == p["coords"][2]]  # line 0 is c1 = c2
    assert len(doc["points"]) == 5
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(out), "--r", "1")
    assert code == 1 and not stderr
    reports = {r["check"]: r for r in json.loads(stdout)}
    assert {c: r["verdict"] for c, r in reports.items()} == {
        "incidence": "pass", "directions": "fail", "size": "pass", "bound_consistency": "fail"
    }
    assert reports["directions"]["witnesses"] == [f"line {i} stores a direction it does not have" for i in range(1, 5)]
    assert reports["bound_consistency"]["witnesses"] == ["binomial(2r+n-2, n)*|S| = 5 < binomial(rN+n-1, n) = 15"]
    assert reports["bound_consistency"]["measured"] == {"r": 1, "size": 5, "lhs": 5, "rhs": 15, "bound": "15"}
    assert run(capsys, "certify", str(out), "--r", "1") == (2, "", "error: line 1 stores a direction it does not have\n")


@pytest.mark.parametrize("command", ["verify", "certify"])
@pytest.mark.parametrize("r", ["0", "-1"])
def test_an_r_below_one_is_input_error(conic5_files, tmp_path, capsys, command, r):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(conic5_files[0]))
    assert run(capsys, command, str(path), "--r", r) == (2, "", "error: r must be at least 1\n")


@pytest.mark.parametrize("direction", [["1", "2", "3", "1"], ["0", "1", "0", "0"]], ids=["affine", "first-zero"])
def test_a_stored_direction_in_no_grid_fails_verify_and_certify_refuses_it(conic5_files, tmp_path, capsys, direction):
    # an affine direction, or one with first coordinate 0, has no grid coordinates
    doc = json.loads(json.dumps(conic5_files[0]))
    doc["lines"][0]["direction"] = direction
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(path), "--r", "1")
    assert code == 1 and not stderr
    directions = next(r for r in json.loads(stdout) if r["check"] == "directions")
    assert directions["witnesses"][:2] == ["line 0 stores a direction it does not have", "direction of line 0 lies outside the grid"]
    assert run(capsys, "certify", str(path), "--r", "1") == (2, "", "error: line 0 stores a direction it does not have\n")


def test_an_unknown_field_kind_is_named(conic5_files, tmp_path, capsys):
    path = tmp_path / "doc.json"
    for doc, command in zip(conic5_files, ("verify", "seed-report")):
        path.write_text(json.dumps({**doc, "field": {"kind": "foo"}}))
        assert run(capsys, command, str(path)) == (2, "", "error: unknown field kind 'foo'\n")


def test_verify_fails_on_a_file_without_lines(tmp_path, capsys):
    # lifted points and no lines: failing verdicts, not a crash on the empty per-line counts
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["lines"] = []
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 1 and not stderr
    reports = {r["check"]: r for r in json.loads(stdout)}
    assert reports["incidence"]["verdict"] == "pass" and reports["incidence"]["measured"]["lines"] == 0
    assert reports["incidence"]["measured"]["max_lifted_on_line"] == 0


def test_construct_rejects_undersized_seed(tmp_path, capsys):
    code, _, stderr = run(
        capsys,
        "construct",
        "--seed",
        "conic",
        "--q",
        "5",
        "--dim",
        "4",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "2(n-1)" in stderr


def test_construct_rejects_a_seed_whose_n_is_not_its_line_count(tmp_path, capsys):
    # the grid would hold one slope per line, which the loader refuses for a different N
    spath = tmp_path / "seed.json"
    save_seed(dual_conic_seed(7), str(spath))
    doc = json.loads(spath.read_text())
    spath.write_text(json.dumps({**doc, "N": 6}))
    code, stdout, stderr = run(capsys, "construct", "--seed", f"file:{spath}", "--dim", "3", "--out", str(tmp_path / "k.json"))
    assert code == 2 and not stdout
    assert stderr == "error: the seed declares N = 6 but holds 7 lines\n"
    assert not (tmp_path / "k.json").exists()


def test_construct_refuses_a_seed_file_that_fails_its_audit(tmp_path, capsys, monkeypatch):
    # the q=5 conic seed read over the rationals lifts, but its lines lose points and its epsilon no longer holds
    def lift(*args):
        raise AssertionError("a seed failing its audit is lifted")

    monkeypatch.setattr(construction, "Lifting", lift)
    spath = tmp_path / "seed.json"
    save_seed(dual_conic_seed(5), str(spath))
    doc = json.loads(spath.read_text())
    spath.write_text(json.dumps({**doc, "field": {"kind": "rational"}}))
    out = tmp_path / "k.json"
    code, stdout, stderr = run(capsys, "construct", "--seed", f"file:{spath}", "--dim", "3", "--out", str(out))
    assert code == 2 and not stdout
    assert stderr == "error: the seed fails its audit: line 1 holds only 2 distinct points, needs 5\n"
    assert not out.exists()


def test_construct_refuses_a_seed_file_with_a_repeated_measuring_line(tmp_path, capsys):
    # assemble files each double point under the first measuring line through it, so the lift would lose points
    seed = dual_conic_seed(7)
    seed.m_lines[1] = seed.m_lines[0]
    seed.epsilon = seed_report(seed).epsilon_measured
    spath = tmp_path / "seed.json"
    save_seed(seed, str(spath))
    out = tmp_path / "k.json"
    code, stdout, stderr = run(capsys, "construct", "--seed", f"file:{spath}", "--dim", "3", "--out", str(out))
    assert code == 2 and not stdout
    assert stderr == "error: the seed fails its audit: measuring lines 0 and 1 coincide\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "edit,problem",
    [
        (lambda s: s["lines"].__setitem__(0, s["m_lines"][0]), "line 0 passes through the measuring direction (0,1,0)"),
        (lambda s: s["lines"].__setitem__(0, s["lines"][1]), "lines 0 and 1 share an infinite point"),
        (lambda s: s["m_lines"].__setitem__(0, s["lines"][0]), "measuring line 0 misses the common point (0,1,0)"),
        (lambda s: s["m_lines"].pop(), "expected 5 measuring lines, found 4"),
        (lambda s: s["epsilon"].pop(), "epsilon list length does not match the measuring lines"),
    ],
    ids=["vertical seed line", "repeated seed line", "seed line as measuring line", "missing measuring line", "missing epsilon"],
)
def test_seed_file_audit_problems(tmp_path, capsys, edit, problem):
    # seed-report lists the problem with a failing verdict; construct refuses the seed with it as the first problem
    spath = tmp_path / "seed.json"
    save_seed(dual_conic_seed(5), str(spath))
    doc = json.loads(spath.read_text())
    edit(doc)
    spath.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "seed-report", str(spath))
    report = json.loads(stdout)
    assert code == 1 and report["verdict"] == "fail"
    assert report["problems"][0] == problem
    out = tmp_path / "k.json"
    code, stdout, stderr = run(capsys, "construct", "--seed", f"file:{spath}", "--dim", "3", "--out", str(out))
    assert (code, stdout, stderr) == (2, "", f"error: the seed fails its audit: {problem}\n")
    assert not out.exists()


def test_construct_unknown_seed(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "construct", "--seed", "pentagon", "--dim", "3", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "unknown seed" in stderr


def test_construct_conic_requires_q(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "construct", "--seed", "conic", "--dim", "3", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "--q" in stderr


def test_construct_ngon_requires_n(tmp_path, capsys):
    argv = ["construct", "--seed", "ngon", "--dim", "3", "--out", str(tmp_path / "x.json")]
    assert run(capsys, *argv) == (2, "", "error: --seed ngon requires --N\n")


def test_bound_single_and_optimized(capsys):
    code, stdout, _ = run(capsys, "bound", "--N", "7", "--dim", "3", "--r", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["bound"] == "84"

    code, stdout, _ = run(capsys, "bound", "--N", "16", "--dim", "4", "--optimize")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["best_r"] == 1 and doc["bound"] == "3876"


def test_bound_defaults_to_r1(capsys):
    code, stdout, _ = run(capsys, "bound", "--N", "8", "--dim", "2")
    assert code == 0
    assert json.loads(stdout)["bound"] == "36"


def test_certify_writes_certificate(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "2", "--out", str(kpath))
    cpath = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "certify", str(kpath), "--r", "1", "--out", str(cpath))
    assert code == 0
    cert = json.loads(cpath.read_text())
    assert cert["verdict"] == "pass-vacuous"
    assert json.loads(stdout)["verdict"] == "pass-vacuous"


def test_certify_stdout_without_out(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "2", "--out", str(kpath))
    code, stdout, _ = run(capsys, "certify", str(kpath), "--r", "2")
    assert code == 0
    assert json.loads(stdout)["r"] == 2


def test_seed_report_subcommand(tmp_path, capsys):
    spath = tmp_path / "seed.json"
    save_seed(dual_conic_seed(7), str(spath))
    code, stdout, _ = run(capsys, "seed-report", str(spath))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["verdict"] == "pass"
    assert doc["N"] == 7


def test_construct_from_seed_file(tmp_path, capsys):
    spath = tmp_path / "seed.json"
    save_seed(dual_conic_seed(5), str(spath))
    out = tmp_path / "k.json"
    code, stdout, _ = run(
        capsys, "construct", "--seed", f"file:{spath}", "--dim", "3", "--out", str(out)
    )
    assert code == 0
    assert json.loads(stdout)["lines"] == 25


def test_missing_file_is_input_error(capsys):
    code, _, stderr = run(capsys, "verify", "/nonexistent/k.json")
    assert code == 2
    assert stderr


def test_truncated_json_is_input_error(tmp_path, capsys):
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "2", "--out", str(out))
    out.write_text(out.read_text()[:200])
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 2 and not stdout
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "-Infinity", "NaN"])
def test_non_finite_real_coordinate_is_input_error(tmp_path, capsys, bad):
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "ngon", "--N", "9", "--dim", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["points"].append({"coords": ["1.0", bad, bad, bad], "provenance": {"kind": "padding", "line": 0, "lam": 99}})
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(out), "--r", "1")
    assert code == 2 and not stdout
    assert stderr.startswith("error: ") and stderr.count("\n") == 1

    seed_path = tmp_path / "seed.json"
    save_seed(regular_ngon_seed(9), str(seed_path))
    seed = json.loads(seed_path.read_text())
    seed["points"][0]["coords"][1] = bad
    seed_path.write_text(json.dumps(seed))
    for argv in (["seed-report", str(seed_path)], ["construct", "--seed", f"file:{seed_path}", "--dim", "3", "--out", str(out)]):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2 and not stdout, argv[0]
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_rational_zero_denominator_is_input_error(tmp_path, capsys):
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["field"] = {"kind": "rational"}
    doc["points"][0]["coords"] = ["1/1", "1/0", "1/1"]
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 2 and not stdout
    assert stderr == "error: point entry '1/0' has denominator 0\n"


def test_a_zero_epsilon_denominator_is_named_as_an_epsilon(tmp_path, capsys):
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["seed_meta"]["epsilon"][0] = "1/0"
    out.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(out)) == (2, "", "error: seed_meta epsilon entry '1/0' has denominator 0\n")

    spath = tmp_path / "seed.json"
    save_seed(dual_conic_seed(5), str(spath))
    seed = json.loads(spath.read_text())
    seed["epsilon"][0] = "1/0"
    spath.write_text(json.dumps(seed))
    assert run(capsys, "seed-report", str(spath)) == (2, "", "error: epsilon entry '1/0' has denominator 0\n")


@pytest.fixture(scope="module")
def conic5_files(tmp_path_factory):
    """The construction file of conic q=5 n=3 and the q=5 seed file, as JSON documents."""
    files = tmp_path_factory.mktemp("files")
    out, spath = files / "k.json", files / "seed.json"
    assert main(["construct", "--seed", "conic", "--q", "5", "--dim", "3", "--out", str(out)]) == 0
    save_seed(dual_conic_seed(5), str(spath))
    return json.loads(out.read_text()), json.loads(spath.read_text())


_NOT_A_NUMBER = {"prime": "is not an integer", "rational": "is not a rational number", "real": "is not a real number"}


def _set_x(doc, slot):
    """Write the coordinate string "x" into one slot of a construction or seed document."""
    if slot in ("point", "seed point"):
        doc["points"][0]["coords"][1] = "x"
    elif slot == "flat row":
        doc["lines"][0]["basis"][0][1] = "x"
    elif slot == "direction":
        doc["lines"][0]["direction"][1] = "x"
    elif slot == "grid axis":
        doc["grid"][0][1] = "x"
    elif slot == "seed_meta epsilon":
        doc["seed_meta"]["epsilon"][1] = "x"
    else:
        doc["epsilon"][1] = "x"


@pytest.mark.parametrize("kind", ["prime", "rational", "real"])
@pytest.mark.parametrize(
    "slot, what",
    [
        ("point", "point"),
        ("flat row", "flat row"),
        ("direction", "point"),
        ("grid axis", "grid axis"),
        ("seed_meta epsilon", "seed_meta epsilon"),
        ("seed point", "point"),
        ("seed epsilon", "epsilon"),
    ],
)
def test_a_coordinate_that_does_not_parse_is_named(conic5_files, tmp_path, capsys, kind, slot, what):
    # every file holds its coordinates as strings; an epsilon is always rational, a coordinate of the file's field
    doc = json.loads(json.dumps(conic5_files[slot.startswith("seed ")]))
    doc["field"] = {"prime": {"kind": "prime", "p": 5}, "rational": {"kind": "rational"}, "real": {"kind": "real"}}[kind]
    _set_x(doc, slot)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    noun = _NOT_A_NUMBER["rational" if "epsilon" in slot else kind]
    command = "seed-report" if slot.startswith("seed ") else "verify"
    assert run(capsys, command, str(path)) == (2, "", f"error: {what} entry 'x' {noun}\n")


@pytest.mark.parametrize("extra", ["no", 0, None, [1]], ids=["str", "int", "null", "list"])
def test_a_seed_point_extra_must_be_a_boolean(conic5_files, tmp_path, capsys, extra):
    spath, out = tmp_path / "seed.json", tmp_path / "k.json"
    seed = json.loads(json.dumps(conic5_files[1]))
    seed["points"][0]["extra"] = extra
    spath.write_text(json.dumps(seed))
    want = (2, "", f"error: point extra has the wrong type ({type(extra).__name__})\n")
    assert run(capsys, "seed-report", str(spath)) == want
    assert run(capsys, "construct", "--seed", f"file:{spath}", "--dim", "3", "--out", str(out)) == want
    del seed["points"][0]["extra"]  # a missing extra means false
    spath.write_text(json.dumps(seed))
    code, stdout, _ = run(capsys, "seed-report", str(spath))
    assert code == 0 and json.loads(stdout)["verdict"] == "pass"


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def kakeya(*argv):
    return _python("-m", "kakeya", *argv)


def test_the_process_entry_point_exits_with_the_cli_codes(conic5_files, tmp_path):
    # python -m kakeya runs __main__.py, which hands main's code to sys.exit
    done = kakeya("bound", "--N", "7", "--dim", "3", "--optimize")
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())["sha256"]
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == golden["bound N=7 n=3 optimize"]

    doc = json.loads(json.dumps(conic5_files[0]))
    doc["points"][0]["coords"] = doc["points"][1]["coords"]  # point 0 moved onto point 1
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(doc))
    assert kakeya("verify", str(path)).returncode == 1

    done = kakeya("verify", str(tmp_path / "missing.json"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command pays for the package import; -S keeps site's own imports out of sys.modules
    done = _python("-S", "-c", "import sys, kakeya.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_commands_in_one_process_print_what_each_prints_alone(conic5_files, tmp_path, capsys):
    # main reuses its parser: no option value, default or flag carries over to the next call
    path = tmp_path / "k.json"
    path.write_text(json.dumps(conic5_files[0]))
    sequence = [
        ("verify", str(path), "--r", "1", "--verbose"),
        ("bound", "--N", "7", "--dim", "3", "--r", "2"),
        ("bound", "--N", "7"),  # argparse refuses it: --dim is required
        ("verify", str(path), "--r", "1"),
        ("bound", "--N", "7", "--dim", "3", "--optimize"),
    ]
    codes = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        alone = kakeya(*argv)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 2, 0, 0]


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
        "import kakeya.cli\n"
        "print(len(made))\n"
    )
    done = _python("-c", probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


@pytest.mark.parametrize(
    "argv,name",
    [
        (("--N", "7", "--dim", "1000"), "limit"),
        (("--N", "7", "--dim", "600", "--optimize"), "limit"),
        (("--N", "100000", "--dim", "400", "--r", "3"), "bound"),
    ],
)
def test_bound_too_large_for_a_float_is_input_error(capsys, argv, name):
    code, stdout, stderr = run(capsys, "bound", *argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: the {name} is too large for its float approximation {name}_approx\n"


@pytest.mark.parametrize("n, N", [(1800, 3), (1100, 4)])
@pytest.mark.parametrize("r", [[], ["--r", "1"]], ids=["no r", "r=1"])
def test_verify_size_too_large_for_a_float_is_input_error(tmp_path, capsys, n, N, r):
    # the header alone, with a leading term N^n / 2^(n-1) beyond the float range
    doc = {"field": {"kind": "prime", "p": 5}, "n": n, "N": N, "grid": [[str(i) for i in range(N)]] * (n - 1), "lines": [], "points": []}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    error = "error: the leading_term is too large for its float approximation leading_term_approx\n"
    assert run(capsys, "verify", str(path), *r) == (2, "", error)


def test_bound_refuses_r_with_optimize(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--N", "7", "--dim", "3", "--r", "3", "--optimize"])
    _, stderr = capsys.readouterr()
    assert exc.value.code == 2
    assert stderr.startswith("usage: kakeya bound ")
    assert stderr.endswith("error: argument --optimize: not allowed with argument --r\n")


def test_bound_refuses_r_max_without_optimize(capsys):
    # --r-max bounds the sweep of --optimize; unset, the sweep stops at 64, as the golden output records
    for argv in (["--r", "2", "--r-max", "1"], ["--r-max", "0"]):
        assert run(capsys, "bound", "--N", "7", "--dim", "3", *argv) == (2, "", "error: --r-max needs --optimize\n")
    assert run(capsys, "bound", "--N", "7", "--dim", "3", "--r-max", "0", "--optimize")[0] == 2
    code, stdout, _ = run(capsys, "bound", "--N", "7", "--dim", "3", "--optimize")
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())["sha256"]
    assert code == 0 and hashlib.sha256(stdout.encode()).hexdigest() == golden["bound N=7 n=3 optimize"]


def test_missing_key_is_input_error(tmp_path, capsys):
    out = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "2", "--out", str(out))
    good = json.loads(out.read_text())
    doc = dict(good)
    del doc["grid"]
    out.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "verify", str(out))
    assert code == 2
    assert stderr == "error: missing key 'grid'\n"

    # valid JSON of the wrong shape is bad input as well
    point = good["points"][0]
    wrong = [
        [],
        {**good, "lines": 5},
        {**good, "points": None},
        {**good, "field": "x"},
        {**good, "field": {"kind": "prime", "p": "5"}},
        {**good, "points": [{**point, "coords": [1, 0, 1]}]},
        {**good, "points": [{**point, "provenance": []}]},
        {**good, "lines": [[]]},
        {**good, "grid": [["0", 1]]},
        {**good, "grid": []},
        {**good, "grid": good["grid"] * 2},
        {**good, "grid": [good["grid"][0][:-1]]},
        {**good, "N": 0},
        {**good, "N": True},
        {**good, "points": [{**point, "coords": "1234"}]},
        {**good, "points": [{**point, "coords": [["1"], "0", "1"]}]},
        {**good, "lines": [{**good["lines"][0], "basis": [[{"1": 1}, "0", "0"]]}]},
        {**good, "grid": [[["0"]] * 5]},
    ]
    wrong += [{**good, "seed_meta": {**good["seed_meta"], "epsilon": e}} for e in (5, [None], [["1"]], ["1/0"], [1.5], [True])]
    for bad in wrong:
        out.write_text(json.dumps(bad))
        for argv in (["verify", str(out)], ["certify", str(out), "--r", "1"]):
            code, stdout, stderr = run(capsys, *argv)
            assert code == 2 and not stdout, (argv[0], bad)
            assert stderr.startswith("error: ") and stderr.count("\n") == 1

    seed_path = tmp_path / "seed.json"
    save_seed(dual_conic_seed(5), str(seed_path))
    seed = json.loads(seed_path.read_text())
    wrong_seeds = [
        [],
        {**seed, "points": {}},
        {**seed, "epsilon": [0.5]},
        {**seed, "lines": [["1", "0", "0"]]},
        {**seed, "N": 0},
        {**seed, "N": True},
        {**seed, "lines": [[["1", "0", "0"], ["0", "1", "0"]]] + seed["lines"][1:]},
    ]
    for bad in wrong_seeds:
        seed_path.write_text(json.dumps(bad))
        code, stdout, stderr = run(capsys, "seed-report", str(seed_path))
        assert code == 2 and not stdout, bad
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert stderr == "error: seed line coincides with the line at infinity\n"  # the last entry
    for rows in ([["0", "0", "1"]], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]):  # a point, the plane
        seed_path.write_text(json.dumps({**seed, "lines": seed["lines"][:1] + [rows] + seed["lines"][2:]}))
        code, stdout, stderr = run(capsys, "seed-report", str(seed_path))
        assert code == 2 and not stdout
        assert stderr == "error: seed line 1 is not a line\n"


def test_bound_rejects_nonpositive_n(capsys):
    code, stdout, stderr = run(capsys, "bound", "--N", "0", "--dim", "3")
    assert code == 2 and not stdout
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "--seed", "conic", "--q", "7", "--dim", "3", "--out", str(a))
    run(capsys, "construct", "--seed", "conic", "--q", "7", "--dim", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()

    na, nb = tmp_path / "na.json", tmp_path / "nb.json"
    run(capsys, "construct", "--seed", "ngon", "--N", "8", "--dim", "2", "--out", str(na))
    run(capsys, "construct", "--seed", "ngon", "--N", "8", "--dim", "2", "--out", str(nb))
    assert na.read_bytes() == nb.read_bytes()


def test_kakeya_tol_env_reaches_the_field(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KAKEYA_TOL", "1e-7")
    out = tmp_path / "n.json"
    code, _, _ = run(
        capsys, "construct", "--seed", "ngon", "--N", "8", "--dim", "2", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["field"]["tol"] == 1e-7


def test_bad_kakeya_tol_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KAKEYA_TOL", "soon")
    code, _, stderr = run(
        capsys, "construct", "--seed", "ngon", "--N", "8", "--dim", "2", "--out", str(tmp_path / "n.json")
    )
    assert code == 2
    assert "KAKEYA_TOL" in stderr


def test_a_kakeya_tol_that_leaves_no_extra_seed_point_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KAKEYA_TOL", "0.5")
    out = tmp_path / "n.json"
    code, _, stderr = run(capsys, "construct", "--seed", "ngon", "--N", "7", "--dim", "3", "--out", str(out))
    # every step of line 0's walk equals a known point up to tol, as the walk nears
    # the line's infinite point, so the walk is cut at 4N + 1 steps
    assert code == 2 and not out.exists()
    assert stderr == "error: seed line 0 has no new point within 29 steps at tolerance 0.5\n"


def test_a_lifted_line_that_cannot_be_padded_is_input_error(tmp_path, capsys, monkeypatch):
    # at tol 0.1 the 5-gon seed passes, but the walk along lifted line 3 finds too few new points in 4N + 1 steps
    monkeypatch.setenv("KAKEYA_TOL", "0.1")
    out = tmp_path / "n.json"
    code, stdout, stderr = run(capsys, "construct", "--seed", "ngon", "--N", "5", "--dim", "3", "--out", str(out))
    assert (code, stdout, stderr) == (2, "", "error: cannot pad line 3 up to 5 points\n")
    assert not out.exists()


def test_a_file_construct_writes_at_a_small_kakeya_tol_passes_verify(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KAKEYA_TOL", "1e-14")
    out = tmp_path / "n.json"
    code, _, stderr = run(capsys, "construct", "--seed", "ngon", "--N", "7", "--dim", "3", "--out", str(out))
    # the seed misses a double point on measuring line 0 and measures epsilon (7/2, 1/2, ..., 1/2); a file
    # written with it failed verify's size check ("42 lifted points, the deficiency formula gives 36")
    assert code == 2 and not out.exists()
    assert stderr == "error: the measured epsilon is not the regular 7-gon's closed form at tolerance 1e-14\n"


_TOL_LADDER = [(N, tol) for N in range(5, 12) for tol in ("1e-12", "1e-13", "1e-14")]


@pytest.mark.parametrize("N, tol", _TOL_LADDER)
def test_construct_at_a_small_kakeya_tol_refuses_or_writes_a_file_verify_passes(N, tol, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KAKEYA_TOL", tol)
    out = tmp_path / "n.json"
    code, _, _ = run(capsys, "construct", "--seed", "ngon", "--N", str(N), "--dim", "3", "--out", str(out))
    assert code == 2 or (code == 0 and run(capsys, "verify", str(out), "--r", "1")[0] == 0)


@pytest.mark.parametrize(
    "dim, witness", [(3, "lifted point 86 lies on 3 lifted lines, expected 4"), (4, "lifted point 168 lies on 4 lifted lines, expected 8")]
)
def test_construct_refuses_a_lifted_point_off_its_lifted_lines_with_verifys_witness(dim, witness, tmp_path, capsys, monkeypatch):
    # at N=9 tol 1e-13 the seed's epsilon is right, but a lifted point lies on fewer than 2^(n-1) lifted
    # lines; construct used to write both files, and verify failed them on this witness
    monkeypatch.setenv("KAKEYA_TOL", "1e-13")
    out = tmp_path / "n.json"
    code, stdout, stderr = run(capsys, "construct", "--seed", "ngon", "--N", "9", "--dim", str(dim), "--out", str(out))
    assert (code, stdout, stderr) == (2, "", f"error: {witness}\n")
    assert not out.exists()


def test_ngon_seed_report_via_file(tmp_path, capsys):
    spath = tmp_path / "ngon.json"
    save_seed(regular_ngon_seed(9), str(spath))
    code, stdout, _ = run(capsys, "seed-report", str(spath))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["epsilon_sorted"] == ["1/2"] * 9


def test_seed_report_fails_on_a_repeated_point(tmp_path, capsys):
    seed = regular_ngon_seed(7)
    extra = next(i for i, sp in enumerate(seed.points) if sp.extra and seed.lines[0].contains(sp.point))
    seed.points[extra] = SeedPoint(seed.points[0].point, extra=True)
    spath = tmp_path / "seed.json"
    save_seed(seed, str(spath))
    code, stdout, _ = run(capsys, "seed-report", str(spath))
    assert code == 1
    doc = json.loads(stdout)
    assert doc["line_point_counts"][:2] == [6, 7]
    assert f"points 0 and {extra} coincide" in doc["problems"]


def test_verify_decides_a_loaded_modulus_quickly(tmp_path, capsys):
    # primality of the loaded modulus is decided without trial division
    kpath = tmp_path / "k.json"
    run(capsys, "construct", "--seed", "conic", "--q", "5", "--dim", "3", "--out", str(kpath))
    doc = json.loads(kpath.read_text())
    start = time.monotonic()
    for p, want in ((2**61 - 1, 1), ((2**31 - 1) * (2**61 - 1), 2)):
        doc["field"]["p"] = p
        kpath.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "verify", str(kpath))
        assert code == want, stderr
    assert time.monotonic() - start < 10


def _remeasured(seed):
    seed.epsilon = seed_report(seed).epsilon_measured
    return seed


def _flag_extra(seed, points):
    """The seed with the given points of S flagged extra, epsilon re-measured."""
    seed.points = [SeedPoint(sp.point, sp.extra or sp.point in points) for sp in seed.points]
    return _remeasured(seed)


def _ngon_without_chords(N: int, pairs):
    """The regular N-gon seed without the chord points of the given pairs of lines, each line topped up with
    one new point of its walk (flagged extra) per chord point it lost, epsilon re-measured."""
    seed = regular_ngon_seed(N)
    fld, lines = seed.field, seed.lines
    on_pair = [lambda p, a=a, b=b: lines[a].contains(p) and lines[b].contains(p) for a, b in pairs]
    seed.points = [sp for sp in seed.points if sp.extra or not any(on(sp.point) for on in on_pair)]
    known = PointSet(fld, [sp.point for sp in seed.points])
    for a in sorted(a for pair in pairs for a in pair):
        base, step = line_walk_start(lines[a])
        lam = 0
        while not known.add(p := walk_point(fld, base, step, lam)):
            lam += 1
        seed.points.append(SeedPoint(p, extra=True))
    return _remeasured(seed)


def _file_lift_failures(seed, n: int, tmp_path, capsys) -> list:
    """The witnesses of each check `verify --r 1` fails on the file `construct --seed file:` writes for seed."""
    spath, out = tmp_path / "seed.json", tmp_path / "k.json"
    save_seed(seed, str(spath))
    code, _, stderr = run(capsys, "construct", "--seed", f"file:{spath}", "--dim", str(n), "--out", str(out))
    assert code == 0, stderr
    code, stdout, _ = run(capsys, "verify", str(out), "--r", "1")
    failures = [r["witnesses"] for r in json.loads(stdout) if r["verdict"] != "pass"]
    assert code == (1 if failures else 0)
    return failures


@pytest.mark.parametrize("n", [3, 4])
def test_a_double_point_flagged_extra_is_not_lifted(tmp_path, capsys, n):
    # (4, 0), where tangents 0 and 1 meet, flagged extra: epsilon_4 is 3/2, and the lift must skip that pair,
    # or verify's size check finds 42 lifted points against the 38 (n=3) or 36 (n=4) of the deficiency formula
    seed = dual_conic_seed(7)
    _flag_extra(seed, [ProjPoint(seed.field, [4, 0, 1])])
    assert seed.epsilon[4] == Fraction(3, 2)
    assert seed_report(seed).verdict == "pass"
    assert _file_lift_failures(seed, n, tmp_path, capsys) == []


def test_a_chord_point_missing_from_s_is_not_lifted(tmp_path, capsys):
    # without the chord point of lines 0 and 1 the lift must skip that pair ("42 lifted points ... gives 38")
    seed = _ngon_without_chords(7, [(0, 1)])
    assert seed_report(seed).verdict == "pass"
    assert _file_lift_failures(seed, 3, tmp_path, capsys) == []


def test_three_seed_lines_through_one_point_of_s_are_refused(tmp_path, capsys):
    # tangent 6 of the q=7 conic replaced by y = 5x + 1, its slope through (4, 0), where tangents 0 and 1 meet:
    # lifted, the triple point gave "lifted point 2 lies on 6 lifted lines, expected 4"
    seed = dual_conic_seed(7)
    fld = seed.field
    seed.lines[6] = Subspace.from_equations(fld, 2, [[fld(-5), fld.one, fld(-1)]])
    known = PointSet(fld)
    for line in seed.lines:
        base, step = line_walk_start(line)
        for lam in range(7):
            known.add(walk_point(fld, base, step, lam))
    seed.points = [SeedPoint(p) for p in known.items]
    spath, out = tmp_path / "seed.json", tmp_path / "k.json"
    save_seed(_remeasured(seed), str(spath))
    with pytest.raises(DegenerateSeed, match="seed lines 0, 1, 6 meet in one point of S"):
        construction.assemble(seed, 3)  # the lift refuses the point, audit or none
    code, stdout, _ = run(capsys, "seed-report", str(spath))
    assert code == 1 and "seed lines 0, 1, 6 meet in one point of S" in json.loads(stdout)["problems"]
    code, stdout, stderr = run(capsys, "construct", "--seed", f"file:{spath}", "--dim", "3", "--out", str(out))
    assert (code, stdout) == (2, "") and "seed lines 0, 1, 6" in stderr
    assert not out.exists()


def test_a_perturbed_seed_that_passes_its_report_lifts_to_a_file_verify_passes(tmp_path, capsys):
    # differential: the report's double points and the lift's agree on seeds the built-in ones do not cover
    rng = random.Random(27)
    for trial in range(40):
        if trial % 2:
            q = rng.choice((5, 7))
            n = rng.choice((3, 4)) if q == 7 else 3
            seed = dual_conic_seed(q)
            _flag_extra(seed, [sp.point for sp in rng.sample(seed.points, rng.randint(1, 3))])
        else:
            N, n = rng.choice((7, 8)), 3
            seed = _ngon_without_chords(N, rng.sample([(a, b) for a in range(N) for b in range(a + 1, N)], rng.randint(1, 2)))
        assert seed_report(seed).verdict == "pass"
        assert _file_lift_failures(seed, n, tmp_path, capsys) == [], trial
