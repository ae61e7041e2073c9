"""Command-line interface: exit codes, JSON output, determinism."""

import json
import time

import pytest

from kakeya.cli import main
from kakeya import construction
from kakeya.construction import save_seed
from kakeya.seeds import SeedPoint, dual_conic_seed, regular_ngon_seed, seed_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert stderr == f"error: directions cover {covered} of 25 grid cells\n"


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
