"""Re-verification checks and their failure modes."""

import json
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya import verify
from kakeya.cli import main
from kakeya.errors import HypothesisViolation
from kakeya.construction import (
    KakeyaSet,
    KLine,
    KPoint,
    assemble,
    direction_from_grid_values,
    grid_values_from_direction,
    kakeya_to_json,
    load_kakeya,
    save_kakeya,
)
from kakeya.polymethod import certify
from kakeya.projgeom import PointSet, ProjPoint, Subspace, affine_coords, at_infinity, meet, point_from_affine, span
from kakeya.scalar import RealField
from kakeya.seeds import dual_conic_seed, line_walk_start, regular_ngon_seed, seed_from_json, seed_to_json, walk_point
from kakeya.verify import (
    Tally,
    _recovered_cells,
    verify_all,
    verify_bound_consistency,
    verify_directions,
    verify_incidence,
    verify_size,
)


@pytest.fixture(scope="module")
def conic5():
    return assemble(dual_conic_seed(5), 3)


def test_constructed_set_passes_everything(conic5):
    for rep in verify_all(conic5, r=2):
        assert rep.verdict == "pass", (rep.check, rep.witnesses)


def test_incidence_reports_counts(conic5):
    rep = verify_incidence(conic5, Tally(conic5))
    assert rep.measured["lines"] == 25
    assert rep.measured["min_count"] >= 5
    assert rep.measured["max_lifted_on_line"] <= 5


def test_incidence_fails_when_point_removed(conic5):
    K = KakeyaSet(
        conic5.field,
        conic5.n,
        conic5.N,
        conic5.grid,
        conic5.lines,
        conic5.points[:-1],
        conic5.seed_meta,
    )
    rep = verify_incidence(K, Tally(K))
    assert rep.verdict == "fail"
    assert any("carries" in w for w in rep.witnesses)


def test_incidence_counts_distinct_points(conic5):
    # point 41 lies on line 20 alone, which carries exactly N points; a copy
    # of point 20 (also on line 20) in its place leaves line 20 with N
    # entries but only N - 1 distinct points, and every other count intact
    points = list(conic5.points)
    points[41] = points[20]
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, conic5.lines, points, conic5.seed_meta)
    rep = verify_incidence(K, Tally(K))
    assert rep.verdict == "fail"
    assert "points 20 and 41 on line 20 coincide" in rep.witnesses
    assert "line 20 carries 4 points, needs 5" in rep.witnesses
    assert [r.verdict for r in verify_all(K, r=1)][0] == "fail"


def _relabel_line_0(K, tmp_path, count):
    """K's file with the first count points of line 0 relabelled lifted, as a JSON document, and those points' positions."""
    path = tmp_path / "k.json"
    save_kakeya(K, str(path))
    doc = json.loads(path.read_text())
    on_line = [i for i, kp in enumerate(K.points) if K.lines[0].line.contains(kp.point)][:count]
    lifted = next(kp.provenance for kp in K.points if kp.provenance["kind"] == "lifted")
    for i in on_line:
        doc["points"][i]["provenance"] = lifted
    return doc, on_line


def _reload(doc, tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    return load_kakeya(str(path))


def test_incidence_flags_more_lifted_points_than_the_claim_allows(tmp_path):
    # over Q a line holds more than N affine points: line 0 of the Q-read conic q=5 lift gets N lifted
    # points relabelled and one more distinct point of its own walk, N + 1 distinct lifted points
    doc = seed_to_json(dual_conic_seed(5))
    doc["field"] = {"kind": "rational"}
    K = assemble(seed_from_json(doc), 3)
    doc, on_line = _relabel_line_0(K, tmp_path, K.N)
    assert len(on_line) == K.N
    base, step = line_walk_start(K.lines[0].line)
    stored = PointSet(K.field, [kp.point for kp in K.points])
    extra = next(p for p in (walk_point(K.field, base, step, lam) for lam in range(K.N + len(K.points))) if stored.add(p))
    doc["points"].append({"coords": extra.to_json(), "provenance": doc["points"][on_line[0]]["provenance"]})
    K = _reload(doc, tmp_path)
    rep = verify_incidence(K, Tally(K))
    assert rep.verdict == "fail"
    assert rep.witnesses == ["line 0 carries 6 lifted points, claim allows 5"]
    assert rep.measured["max_lifted_on_line"] == 6


def test_incidence_counts_a_repeated_lifted_point_once(conic5, tmp_path):
    # over F_5 line 0 holds at most N affine points: all of them relabelled lifted, the first listed again,
    # is N + 1 lifted entries but N distinct lifted points; the repeat is a witness on each line through it
    doc, on_line = _relabel_line_0(conic5, tmp_path, conic5.N)
    doc["points"].append(doc["points"][on_line[0]])
    K = _reload(doc, tmp_path)
    rep = verify_incidence(K, Tally(K))
    assert rep.verdict == "fail"
    assert f"points {on_line[0]} and {len(conic5.points)} on line 0 coincide" in rep.witnesses
    assert not any("lifted" in w for w in rep.witnesses)
    assert rep.measured["max_lifted_on_line"] == 5


def test_directions_fail_on_tampered_direction(conic5):
    lines = list(conic5.lines)
    fld = conic5.field
    wrong = direction_from_grid_values(fld, 3, [fld(0), fld(1)])
    tampered = type(lines[0])(lines[0].line, wrong)
    # ensure we actually changed it
    if tampered.direction == lines[0].direction:
        tampered = type(lines[0])(lines[0].line, direction_from_grid_values(fld, 3, [fld(1), fld(0)]))
    lines[0] = tampered
    K = KakeyaSet(fld, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    rep = verify_directions(K, Tally(K))
    assert rep.verdict == "fail"
    assert any("stores a direction" in w for w in rep.witnesses)


def test_directions_fail_on_duplicate(conic5):
    lines = list(conic5.lines)
    lines[1] = lines[0]
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    rep = verify_directions(K, Tally(K))
    assert rep.verdict == "fail"
    assert any("share a direction" in w for w in rep.witnesses)


def test_the_checks_leave_their_tally_as_they_found_it(conic5):
    # line 0 takes line 1's basis (a direction fault) and line 2 is replaced by line 3 (a shared direction
    # and an uncovered cell): every check reads the one Tally and changes none of it, so a second run of
    # the four checks on it reports the same, and certify on the same family refuses on the fault
    lines = list(conic5.lines)
    lines[0] = KLine(lines[1].line, lines[0].direction)
    lines[2] = lines[3]
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    t = Tally(K)
    assert t.faults == ["line 0 stores a direction it does not have"]
    assert t.hypothesis == ["grid covers 24 of 25 cells"]

    def checks():
        reports = verify_incidence(K, t), verify_directions(K, t), verify_size(K, t), verify_bound_consistency(K, t, 1)
        return [rep.to_json() for rep in reports]

    first = checks()
    assert (t.faults, t.hypothesis) == (["line 0 stores a direction it does not have"], ["grid covers 24 of 25 cells"])
    assert checks() == first
    assert first[1]["witnesses"][:2] == ["line 0 stores a direction it does not have", "lines 2 and 3 share a direction"]
    assert first[3]["witnesses"] == ["grid covers 24 of 25 cells"]
    assert _certify_refusal(K) == "line 0 stores a direction it does not have"


def test_directions_fail_off_grid(conic5):
    # shrink the stored grid so slopes equal to 4 fall outside it
    grid = [axis[:-1] for axis in conic5.grid]
    K = KakeyaSet(
        conic5.field, 3, 5, grid, conic5.lines, conic5.points, conic5.seed_meta
    )
    rep = verify_directions(K, Tally(K))
    assert rep.verdict == "fail"
    assert any("outside the grid" in w for w in rep.witnesses)


def test_size_report_measures_constant(conic5):
    rep = verify_size(conic5, Tally(conic5))
    assert rep.verdict == "pass"
    assert rep.measured["size"] == 53
    assert rep.measured["leading_term"] == "125/4"
    assert rep.measured["lifted_points"] == 10


def test_size_fails_on_wrong_epsilon(conic5):
    meta = dict(conic5.seed_meta)
    meta["epsilon"] = ["0"] * 5
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, conic5.lines, conic5.points, meta)
    rep = verify_size(K, Tally(K))
    assert rep.verdict == "fail"
    assert any("deficiency formula" in w for w in rep.witnesses)


def test_size_passthrough_has_no_lifted_checks():
    K = assemble(dual_conic_seed(5), 2)
    rep = verify_size(K, Tally(K))
    assert rep.verdict == "pass"
    assert rep.measured["lifted_points"] == 0
    assert "lifted_expected" not in rep.measured


def test_bound_consistency_exact_and_real(conic5):
    for r in (1, 2, 3):
        assert verify_bound_consistency(conic5, Tally(conic5), r).verdict == "pass"
    K = assemble(regular_ngon_seed(5), 3)
    for r in (1, 2, 3):
        assert verify_bound_consistency(K, Tally(K), r).verdict == "pass"


def _with_points(K, points):
    return KakeyaSet(K.field, K.n, K.N, K.grid, K.lines, points, K.seed_meta)


def test_size_counts_distinct_points(conic5):
    # 40 copies of a point on no line: |S| is 54 distinct points, not 93 entries
    extra = KPoint(point_from_affine(conic5.field, [1, 1, 1]), {"kind": "extra"})
    K = _with_points(conic5, list(conic5.points) + [extra] * 40)
    rep = verify_size(K, Tally(K))
    assert rep.verdict == "fail"
    assert rep.measured["size"] == 54
    assert "points 53 and 54 coincide" in rep.witnesses
    assert len(verify_size(K, Tally(K), verbose=True).witnesses) == 39
    assert verify_bound_consistency(K, Tally(K), 1).measured["size"] == 54
    assert [r.verdict for r in verify_all(K, r=1)] == ["pass", "pass", "fail", "pass"]


def test_incidence_rejects_a_point_at_infinity(conic5):
    at_infinity = KPoint(ProjPoint(conic5.field, [1, 0, 0, 0]), {"kind": "extra"})
    K = _with_points(conic5, list(conic5.points) + [at_infinity])
    rep = verify_incidence(K, Tally(K))
    assert rep.verdict == "fail"
    assert rep.witnesses == ["point 53 lies at infinity"]


def test_directions_name_a_flat_that_is_not_a_line(conic5):
    line = conic5.lines[3]
    plane = span(point_from_affine(conic5.field, [1, 1, 1]), line.line)
    lines = list(conic5.lines)
    lines[3] = KLine(plane, line.direction)
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    rep = verify_directions(K, Tally(K))
    assert rep.verdict == "fail"
    assert rep.witnesses == ["line 3 is a flat of dimension 2, not a line"]

    # a line lying in the hyperplane at infinity has no infinite point
    lines = list(conic5.lines)
    lines[0] = KLine(span(lines[0].direction, lines[1].direction), lines[0].direction)
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    assert verify_directions(K, Tally(K)).witnesses == ["line 0 meets infinity in dimension 1"]


def test_bound_consistency_fails_for_tiny_point_set(conic5):
    K = KakeyaSet(
        conic5.field,
        conic5.n,
        conic5.N,
        conic5.grid,
        conic5.lines,
        conic5.points[:1],
        conic5.seed_meta,
    )
    rep = verify_bound_consistency(K, Tally(K), 1, verbose=True)
    assert rep.verdict == "fail"
    # every line is short of N points, so the bound is not evaluated on a family outside its hypothesis
    assert "lhs" not in rep.measured
    assert len(rep.witnesses) == 25 and all(w.endswith("distinct points, needs at least 5") for w in rep.witnesses)


def test_bound_consistency_needs_full_grid(conic5):
    # dropping a completion line leaves a diagonal cell uncovered
    K = KakeyaSet(
        conic5.field,
        conic5.n,
        conic5.N,
        conic5.grid,
        conic5.lines[:-1],
        conic5.points,
        conic5.seed_meta,
    )
    rep = verify_bound_consistency(K, Tally(K), 1)
    assert rep.verdict == "fail"
    assert rep.witnesses == ["grid covers 24 of 25 cells"]


def _certify_refusal(K):
    """certify's HypothesisViolation message on K at r = 1, None when it certifies."""
    try:
        certify(K, 1)
    except HypothesisViolation as exc:
        return str(exc)
    return None


def test_bound_consistency_fails_a_line_short_of_n_points_as_certify_refuses_it(conic5):
    # without its first padding point line 0 holds 4 of its 5 points: the bound's hypothesis fails,
    # though |S| = 52 would still meet the bound (52 >= 35)
    pad = next(i for i, kp in enumerate(conic5.points) if kp.provenance["kind"] == "padding")
    K = _with_points(conic5, conic5.points[:pad] + conic5.points[pad + 1 :])
    rep = verify_bound_consistency(K, Tally(K), 1)
    assert (rep.verdict, rep.witnesses[0]) == ("fail", "line 0 carries 4 distinct points, needs at least 5")
    assert rep.measured == {"r": 1, "size": 52, "covered_cells": 25, "grid_cells": 25}
    assert _certify_refusal(K) == rep.witnesses[0]


def test_certify_refuses_exactly_the_mutants_bound_consistency_fails(conic5):
    # certify raises HypothesisViolation(m) exactly when bound_consistency fails with first witness m:
    # on the family itself neither does, and each mutant drops a point, a line or the last (completion)
    # line, or copies a point over another on its line
    assert verify_bound_consistency(conic5, Tally(conic5), 1).verdict == "pass"
    assert _certify_refusal(conic5) is None
    rng = random.Random(28)
    on = Tally(conic5).on
    for trial in range(400):
        lines, points = list(conic5.lines), list(conic5.points)
        kind = trial % 4
        if kind == 0:
            del points[rng.randrange(len(points))]
        elif kind == 1:
            del lines[rng.randrange(len(lines))]
        elif kind == 2:
            del lines[-1]
        else:
            i, j = rng.sample(rng.choice(on), 2)
            points[i] = points[j]
        K = KakeyaSet(conic5.field, conic5.n, conic5.N, conic5.grid, lines, points, conic5.seed_meta)
        rep = verify_bound_consistency(K, Tally(K), 1)
        assert rep.verdict == "fail"
        assert _certify_refusal(K) == rep.witnesses[0], (trial, rep.witnesses)


def test_witness_truncation(conic5):
    kept = [kp for kp in conic5.points if kp.provenance["kind"] == "lifted"]
    K = KakeyaSet(
        conic5.field, conic5.n, conic5.N, conic5.grid, conic5.lines, kept, conic5.seed_meta
    )
    short = verify_incidence(K, Tally(K))
    full = verify_incidence(K, Tally(K), verbose=True)
    assert len(short.witnesses) == 11
    assert "suppressed" in short.witnesses[-1]
    assert len(full.witnesses) == 25


def test_witness_limit_suppresses_only_past_the_limit():
    # exactly WITNESS_LIMIT witnesses are kept as they are; from WITNESS_LIMIT + 1 on the rest are suppressed
    limit = verify.WITNESS_LIMIT
    at = [f"w{i}" for i in range(limit)]
    assert verify._finish("x", list(at), {}, False).witnesses == at
    over = verify._finish("x", at + ["past"], {}, False)
    assert (over.verdict, over.witnesses) == ("fail", at + ["... 1 more suppressed"])
    assert verify._finish("x", at + ["past"], {}, True).witnesses == at + ["past"]


@pytest.mark.parametrize("q, size", [(5, 15), (7, 28)])
def test_verify_passes_a_plane_family_exactly_at_the_grid_bound(q, size, tmp_path, capsys):
    # at n = 2 and r = 1 the bound is binomial(N + 1, 2), the conic family's own size: lhs == rhs passes
    path = str(tmp_path / "k.json")
    assert main(["construct", "--seed", "conic", "--q", str(q), "--dim", "2", "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", path, "--r", "1"]) == 0
    bound = json.loads(capsys.readouterr().out)[3]
    assert bound["verdict"] == "pass"
    assert (bound["measured"]["lhs"], bound["measured"]["rhs"]) == (size, size)


def test_real_assembly_passes_core_checks():
    K = assemble(regular_ngon_seed(5), 3)
    assert verify_incidence(K, Tally(K)).verdict == "pass"
    assert verify_directions(K, Tally(K)).verdict == "pass"


def test_verify_all_recovers_the_grid_cells_once(conic5, monkeypatch):
    # the four checks share one Tally and report what each gives on its own; verify_all and certify
    # each run one incidence pass, recover the grid cells once and audit the directions once
    t = Tally(conic5)
    alone = [
        verify_incidence(conic5, t),
        verify_directions(conic5, t),
        verify_size(conic5, t),
        verify_bound_consistency(conic5, t, 1),
    ]
    calls = []

    def counted(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(verify, name, wrapped)

    counted("incidence", verify.incidence)
    counted("_recovered_cells", _recovered_cells)
    counted("_direction_faults", verify._direction_faults)
    assert [rep.to_json() for rep in verify_all(conic5, r=1)] == [rep.to_json() for rep in alone]
    assert calls == ["incidence", "_recovered_cells", "_direction_faults"]
    calls.clear()
    assert certify(conic5, 1).verdict == "pass-vacuous"
    assert calls == ["incidence", "_recovered_cells", "_direction_faults"]


def _rational_conic(q, n):
    doc = seed_to_json(dual_conic_seed(q))
    doc["field"] = {"kind": "rational"}
    return assemble(seed_from_json(doc), n)


@pytest.mark.parametrize(
    "make",
    [lambda: assemble(dual_conic_seed(5), 3), lambda: _rational_conic(5, 3), lambda: assemble(regular_ngon_seed(7), 3)],
    ids=["F_5", "Q", "reals"],
)
def test_recovered_cells_resolve_a_repeated_axis_value_to_its_first_index(make):
    # the exact fields look the values up in a dict per axis; the cells must be those of the scan with field.eq
    K = make()
    K.grid = [list(axis) for axis in K.grid]
    K.grid[0][3] = K.grid[0][1]
    K.grid[-1][-1] = K.grid[-1][0]
    want = []
    for kl in K.lines:
        values = verify.grid_values_from_direction(kl.direction)
        cell = None if values is None else tuple(next((i for i, a in enumerate(axis) if K.field.eq(a, v)), None) for axis, v in zip(K.grid, values))
        want.append(None if cell is None or None in cell else cell)
    assert _recovered_cells(K) == want
    assert any(c and c[0] == 1 for c in want) and any(c and c[-1] == 0 for c in want)
    assert not any(c and (c[0] == 3 or c[-1] == K.N - 1) for c in want)


def _count_contains(monkeypatch) -> list:
    calls = []
    contains = Subspace.contains

    def counted(line, p):
        calls.append(1)
        return contains(line, p)

    monkeypatch.setattr(Subspace, "contains", counted)
    return calls


def test_verify_all_looks_up_incidence_over_a_prime_field(conic5, monkeypatch):
    # each line's points are looked up in the point index, so no containment test runs
    calls = _count_contains(monkeypatch)
    assert all(rep.verdict == "pass" for rep in verify_all(conic5, r=1))
    assert calls == []


def test_verify_all_looks_up_incidence_over_the_rationals(monkeypatch):
    # the q=5 conic seed read over Q: its lift keeps only 2 of the 10 lifted
    # points the deficiency formula promises, so size fails and the rest pass
    doc = seed_to_json(dual_conic_seed(5))
    doc["field"] = {"kind": "rational"}
    K = assemble(seed_from_json(doc), 3)
    calls = _count_contains(monkeypatch)
    reports = verify_all(K, r=1)
    assert calls == []
    assert [(rep.check, rep.verdict) for rep in reports] == [
        ("incidence", "pass"),
        ("directions", "pass"),
        ("size", "fail"),
        ("bound_consistency", "pass"),
    ]
    assert reports[0].measured["incidence_total"] == 125
    assert reports[2].witnesses == ["2 lifted points, the deficiency formula gives 10"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["drop", "copy", "step", "swap"]), st.data())
def test_tampered_hypothesis_fails_verify(conic5, tamper, data):
    # each tamper leaves a line that carried exactly N points with N - 1
    # distinct ones, or two lines storing each other's direction
    fld, n = conic5.field, conic5.n
    lines, points = list(conic5.lines), list(conic5.points)
    on = Tally(conic5).on
    tight = data.draw(st.sampled_from([l for l, on_line in enumerate(on) if len(on_line) == conic5.N]))
    i = data.draw(st.sampled_from(on[tight]))
    if tamper == "drop":
        del points[i]
    elif tamper == "copy":
        points[i] = points[data.draw(st.sampled_from([j for j in on[tight] if j != i]))]
    elif tamper == "step":
        coords = affine_coords(points[i].point)
        steps = [
            point_from_affine(fld, [fld.add(c, fld.one) if k == axis else c for k, c in enumerate(coords)])
            for axis in range(n)
        ]
        off = [p for p in steps if not lines[tight].line.contains(p)]
        points[i] = KPoint(data.draw(st.sampled_from(off)), points[i].provenance)
    else:
        a, b = data.draw(st.lists(st.sampled_from(range(len(lines))), min_size=2, max_size=2, unique=True))
        lines[a], lines[b] = KLine(lines[a].line, lines[b].direction), KLine(lines[b].line, lines[a].direction)
    K = KakeyaSet(fld, n, conic5.N, conic5.grid, lines, points, conic5.seed_meta)
    assert "fail" in [rep.verdict for rep in verify_all(K, r=1)]


def _meet_audit(K):
    """The real direction audit as verify ran it before it read the basis: each line met with the hyperplane at
    infinity, the cut normalized and compared through the field methods."""
    fld = K.field
    for idx, kl in enumerate(K.lines):
        if kl.line.proj_dim != 1:
            yield f"line {idx} is a flat of dimension {kl.line.proj_dim}, not a line"
            continue
        cut = meet(kl.line, at_infinity(fld, K.n)).basis
        if len(cut) != 1:
            yield f"line {idx} meets infinity in dimension {len(cut) - 1}"
            continue
        lead = next(i for i, c in enumerate(cut[0]) if not fld.is_zero(c))
        inv = fld.inv(cut[0][lead])
        point = [fld.zero] * lead + [fld.one] + [fld.mul(c, inv) for c in cut[0][lead + 1 :]]
        if not all(map(fld.eq, point, kl.direction.coords)):
            yield f"line {idx} stores a direction it does not have"


def _moved(K, idx: int, k: int, by: float):
    """K with the direction of line idx moved by `by` at coordinate k."""
    lines = list(K.lines)
    coords = list(lines[idx].direction.coords)
    coords[k] += by
    lines[idx] = KLine(lines[idx].line, ProjPoint(K.field, coords))
    return KakeyaSet(K.field, K.n, K.N, K.grid, lines, K.points, K.seed_meta)


@pytest.mark.parametrize("N, n", [(N, 3) for N in range(5, 12)] + [(6, 4), (7, 4)])
def test_real_direction_audit_read_off_the_basis_agrees_with_the_meet(N, n):
    # verify reads a real line's direction off its basis, r1[n] r0 - r0[n] r1, as over F_p and Q; the witnesses
    # must be those of the meet with infinity it replaced, on the n-gon families and on copies with one direction
    # moved by 0.1 tol (kept) or 10 tol (refused)
    K = assemble(regular_ngon_seed(N), n)
    tol, rng = K.field.tol, random.Random(N * 10 + n)
    assert list(verify._direction_faults(K)) == list(_meet_audit(K)) == []
    for idx in rng.sample(range(len(K.lines)), 3):
        k = rng.randrange(1, n + 1)
        for by, want in ((0.1 * tol, []), (-0.1 * tol, []), (10 * tol, [f"line {idx} stores a direction it does not have"])):
            moved = _moved(K, idx, k, by)
            assert list(verify._direction_faults(moved)) == list(_meet_audit(moved)) == want


def test_real_direction_audit_names_a_line_at_infinity_and_a_basis_without_a_direction():
    K = assemble(regular_ngon_seed(5), 3)
    fld, lines = K.field, list(K.lines)
    # a line inside the hyperplane at infinity: both last entries at most tol
    lines[0] = KLine(span(lines[0].direction, lines[1].direction), lines[0].direction)
    # two equal rows: r1[n] r0 - r0[n] r1 is zero at every entry and names no point
    r0 = K.lines[2].line.basis[0]
    lines[2] = KLine(Subspace(fld, 3, (r0, r0), (0, 1)), lines[2].direction)
    # rows whose combination is at most tol everywhere while r0[n] is above it
    tol = fld.tol
    lines[3] = KLine(Subspace(fld, 3, ((1.0, 0.0, 0.0, 4 * tol), (1.0, 0.5 * tol, 0.0, 4 * tol)), (0, 1)), lines[3].direction)
    K = KakeyaSet(fld, 3, K.N, K.grid, lines, K.points, K.seed_meta)
    assert list(verify._direction_faults(K)) == [
        "line 0 meets infinity in dimension 1",
        "line 2 stores a direction it does not have",
        "line 3 stores a direction it does not have",
    ]
    assert verify_directions(K, Tally(K)).verdict == "fail"


@pytest.mark.parametrize(
    "basis",
    [
        [["1.0", "0.0", "0.0", "1.0"], ["1.0", "0.0", "0.0", "1.0"]],
        [["1.0", "0.0", "0.0", "1.0"], ["1.0", "0.0", "0.0", "1.000000000001"]],
        [["0.0", "0.0", "0.0", "0.0"], ["1.0", "0.0", "0.0", "1.0"]],
        [["1e-12", "0.0", "0.0", "0.0"], ["0.0", "1e-12", "0.0", "0.0"]],
        [["1e300", "1e300", "0.0", "1e300"], ["-1e300", "1e300", "1e300", "1e300"]],
        [["1.0", "2e-9", "0.0", "2e-9"], ["0.0", "2e-9", "1.0", "0.0"]],
        [["1.0", "0.0", "0.0", "1.0"]],
        [["1.0", "0.0", "0.0", "1.0"], ["0.0", "1.0", "0.0", "1.0"], ["0.0", "0.0", "1.0", "1.0"]],
        [],
    ],
    ids=["equal", "within-tol", "zero-row", "tiny", "huge", "near-tol-pivot", "point", "plane", "empty"],
)
def test_verify_a_real_file_with_a_degenerate_basis_exits_1_or_2(basis, tmp_path, capsys):
    # a degenerate basis is a failing verdict or bad input, never a traceback
    K = assemble(regular_ngon_seed(5), 3)
    doc = json.loads(json.dumps(kakeya_to_json(K)))
    doc["lines"][0]["basis"] = basis
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "certify"):
        code = main([command, str(path), "--r", "1"])
        out, err = capsys.readouterr()
        assert code in (1, 2), (command, out, err)
        assert "Traceback" not in err


def test_real_checks_count_exactly_tol_as_zero_and_just_above_it_as_not():
    # tol = 2^-20 and above = tol + 2^-52, so these sums are exact: each inline test |x| <= tol or |a - b| <= tol
    # must hold at tol itself, as RealField.is_zero and eq do, and fail just above it
    fld = RealField(2.0**-20)
    tol, above = fld.tol, fld.tol + 2.0**-52
    canonical = partial(ProjPoint._canonical, fld)
    for x, zero in ((tol, True), (above, False)):
        assert fld.is_zero(x) is zero and fld.eq(0.5 + x, 0.5) is zero and fld.eq(1.0 + x, 1.0) is zero
        # a point whose last coordinate is x lies at infinity
        K = KakeyaSet(fld, 3, 2, [], [], [KPoint(canonical((1.0, 0.5, 0.25, x)), {"kind": "extra"})])
        assert verify_incidence(K, Tally(K)).witnesses == (["point 0 lies at infinity"] if zero else [])
        # a direction with last coordinate x, or first coordinate 1 + x, is in the grid; its value 0.5 + x is the
        # axis value 0.5
        assert (grid_values_from_direction(canonical((1.0, 0.5, 0.0, x))) is not None) is zero
        assert (grid_values_from_direction(canonical((1.0 + x, 0.5, 0.0, 0.0))) is not None) is zero
        line = Subspace(fld, 3, ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0)), (0, 1))
        K = KakeyaSet(fld, 3, 2, [[0.0, 0.5], [0.0, 0.5]], [KLine(line, canonical((1.0, 0.5 + x, 0.0, 0.0)))], [])
        assert _recovered_cells(K) == [(1, 1) if zero else None]
        # a line whose last entries are x and 0 (either way round) lies at infinity; beyond it, its combination
        # d = r1[n] r0 - r0[n] r1 is at most tol everywhere and names no direction
        lines = [
            Subspace(fld, 3, ((1.0, 0.0, 0.5, x), (0.0, 1.0, 0.25, 0.0)), (0, 1)),
            Subspace(fld, 3, ((1.0, 0.0, 0.5, 0.0), (0.0, 1.0, 0.25, x)), (0, 1)),
        ]
        K = KakeyaSet(fld, 3, 2, [], [KLine(ln, canonical((1.0, 0.0, 0.0, 0.0))) for ln in lines], [])
        witness = "meets infinity in dimension 1" if zero else "stores a direction it does not have"
        assert list(verify._direction_faults(K)) == [f"line 0 {witness}", f"line 1 {witness}"]
    # a basis rref would not return, whose d is (0, -tol, 0, 0): zero up to tol, a witness and no ZeroVector
    line = Subspace(fld, 3, ((1.0, 0.0, 0.0, 2 * tol), (1.0, 0.5, 0.0, 2 * tol)), (0, 1))
    K = KakeyaSet(fld, 3, 2, [], [KLine(line, canonical((1.0, 0.0, 0.0, 0.0)))], [])
    assert list(verify._direction_faults(K)) == ["line 0 stores a direction it does not have"]
