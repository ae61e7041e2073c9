"""Re-verification checks and their failure modes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya import verify
from kakeya.construction import KakeyaSet, KLine, KPoint, assemble, direction_from_grid_values, load_kakeya, save_kakeya
from kakeya.projgeom import ProjPoint, Subspace, affine_coords, incidence, point_from_affine, span
from kakeya.seeds import dual_conic_seed, regular_ngon_seed, seed_from_json, seed_to_json
from kakeya.verify import (
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


def _inc(K):
    """The incidence table verify_all builds for K."""
    return incidence(K.field, [kl.line for kl in K.lines], [kp.point for kp in K.points])


def test_constructed_set_passes_everything(conic5):
    for rep in verify_all(conic5, r=2):
        assert rep.verdict == "pass", (rep.check, rep.witnesses)


def test_incidence_reports_counts(conic5):
    rep = verify_incidence(conic5, _inc(conic5))
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
    rep = verify_incidence(K, _inc(K))
    assert rep.verdict == "fail"
    assert any("carries" in w for w in rep.witnesses)


def test_incidence_counts_distinct_points(conic5):
    # point 41 lies on line 20 alone, which carries exactly N points; a copy
    # of point 20 (also on line 20) in its place leaves line 20 with N
    # entries but only N - 1 distinct points, and every other count intact
    points = list(conic5.points)
    points[41] = points[20]
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, conic5.lines, points, conic5.seed_meta)
    rep = verify_incidence(K, _inc(K))
    assert rep.verdict == "fail"
    assert "points 20 and 41 on line 20 coincide" in rep.witnesses
    assert "line 20 carries 4 points, needs 5" in rep.witnesses
    assert [r.verdict for r in verify_all(K, r=1)][0] == "fail"


def test_incidence_flags_more_lifted_points_than_the_claim_allows(conic5, tmp_path):
    # every point of line 0 relabelled lifted, and the first of them listed again: N + 1 lifted entries on the line
    path = tmp_path / "k.json"
    save_kakeya(conic5, str(path))
    doc = json.loads(path.read_text())
    on_line = [i for i, kp in enumerate(conic5.points) if conic5.lines[0].line.contains(kp.point)]
    lifted = next(kp.provenance for kp in conic5.points if kp.provenance["kind"] == "lifted")
    for i in on_line:
        doc["points"][i]["provenance"] = lifted
    doc["points"].append(doc["points"][on_line[0]])
    path.write_text(json.dumps(doc))
    K = load_kakeya(str(path))
    rep = verify_incidence(K, _inc(K))
    assert rep.verdict == "fail"
    assert "line 0 carries 6 lifted points, claim allows 5" in rep.witnesses
    assert rep.measured["max_lifted_on_line"] == 6


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
    rep = verify_directions(K, _recovered_cells(K))
    assert rep.verdict == "fail"
    assert any("stores a direction" in w for w in rep.witnesses)


def test_directions_fail_on_duplicate(conic5):
    lines = list(conic5.lines)
    lines[1] = lines[0]
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    rep = verify_directions(K, _recovered_cells(K))
    assert rep.verdict == "fail"
    assert any("share a direction" in w for w in rep.witnesses)


def test_directions_fail_off_grid(conic5):
    # shrink the stored grid so slopes equal to 4 fall outside it
    grid = [axis[:-1] for axis in conic5.grid]
    K = KakeyaSet(
        conic5.field, 3, 5, grid, conic5.lines, conic5.points, conic5.seed_meta
    )
    rep = verify_directions(K, _recovered_cells(K))
    assert rep.verdict == "fail"
    assert any("outside the grid" in w for w in rep.witnesses)


def test_size_report_measures_constant(conic5):
    rep = verify_size(conic5, _inc(conic5), _recovered_cells(conic5))
    assert rep.verdict == "pass"
    assert rep.measured["size"] == 53
    assert rep.measured["leading_term"] == "125/4"
    assert rep.measured["lifted_points"] == 10


def test_size_fails_on_wrong_epsilon(conic5):
    meta = dict(conic5.seed_meta)
    meta["epsilon"] = ["0"] * 5
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, conic5.lines, conic5.points, meta)
    rep = verify_size(K, _inc(K), _recovered_cells(K))
    assert rep.verdict == "fail"
    assert any("deficiency formula" in w for w in rep.witnesses)


def test_size_passthrough_has_no_lifted_checks():
    K = assemble(dual_conic_seed(5), 2)
    rep = verify_size(K, _inc(K), _recovered_cells(K))
    assert rep.verdict == "pass"
    assert rep.measured["lifted_points"] == 0
    assert "lifted_expected" not in rep.measured


def test_bound_consistency_exact_and_real(conic5):
    for r in (1, 2, 3):
        assert verify_bound_consistency(conic5, _inc(conic5), _recovered_cells(conic5), r).verdict == "pass"
    K = assemble(regular_ngon_seed(5), 3)
    for r in (1, 2, 3):
        assert verify_bound_consistency(K, _inc(K), _recovered_cells(K), r).verdict == "pass"


def _with_points(K, points):
    return KakeyaSet(K.field, K.n, K.N, K.grid, K.lines, points, K.seed_meta)


def test_size_counts_distinct_points(conic5):
    # 40 copies of a point on no line: |S| is 54 distinct points, not 93 entries
    extra = KPoint(point_from_affine(conic5.field, [1, 1, 1]), {"kind": "extra"})
    K = _with_points(conic5, list(conic5.points) + [extra] * 40)
    rep = verify_size(K, _inc(K), _recovered_cells(K))
    assert rep.verdict == "fail"
    assert rep.measured["size"] == 54
    assert "points 53 and 54 coincide" in rep.witnesses
    assert len(verify_size(K, _inc(K), _recovered_cells(K), verbose=True).witnesses) == 39
    assert verify_bound_consistency(K, _inc(K), _recovered_cells(K), 1).measured["size"] == 54
    assert [r.verdict for r in verify_all(K, r=1)] == ["pass", "pass", "fail", "pass"]


def test_incidence_rejects_a_point_at_infinity(conic5):
    at_infinity = KPoint(ProjPoint(conic5.field, [1, 0, 0, 0]), {"kind": "extra"})
    K = _with_points(conic5, list(conic5.points) + [at_infinity])
    rep = verify_incidence(K, _inc(K))
    assert rep.verdict == "fail"
    assert rep.witnesses == ["point 53 lies at infinity"]


def test_directions_name_a_flat_that_is_not_a_line(conic5):
    line = conic5.lines[3]
    plane = span(point_from_affine(conic5.field, [1, 1, 1]), line.line)
    lines = list(conic5.lines)
    lines[3] = KLine(plane, line.direction)
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    rep = verify_directions(K, _recovered_cells(K))
    assert rep.verdict == "fail"
    assert rep.witnesses == ["line 3 is a flat of dimension 2, not a line"]

    # a line lying in the hyperplane at infinity has no infinite point
    lines = list(conic5.lines)
    lines[0] = KLine(span(lines[0].direction, lines[1].direction), lines[0].direction)
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    assert verify_directions(K, _recovered_cells(K)).witnesses == ["line 0 meets infinity in dimension 1"]


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
    rep = verify_bound_consistency(K, _inc(K), _recovered_cells(K), 1)
    assert rep.verdict == "fail"


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
    rep = verify_bound_consistency(K, _inc(K), _recovered_cells(K), 1)
    assert rep.verdict == "fail"
    assert rep.witnesses == ["grid covers 24 of 25 cells"]


def test_witness_truncation(conic5):
    kept = [kp for kp in conic5.points if kp.provenance["kind"] == "lifted"]
    K = KakeyaSet(
        conic5.field, conic5.n, conic5.N, conic5.grid, conic5.lines, kept, conic5.seed_meta
    )
    short = verify_incidence(K, _inc(K))
    full = verify_incidence(K, _inc(K), verbose=True)
    assert len(short.witnesses) == 11
    assert "suppressed" in short.witnesses[-1]
    assert len(full.witnesses) == 25


def test_real_assembly_passes_core_checks():
    K = assemble(regular_ngon_seed(5), 3)
    assert verify_incidence(K, _inc(K)).verdict == "pass"
    assert verify_directions(K, _recovered_cells(K)).verdict == "pass"


def test_verify_all_recovers_the_grid_cells_once(conic5, monkeypatch):
    # the directions, size and bound checks share one list of cells and report what each gives on its own
    inc, cells = _inc(conic5), _recovered_cells(conic5)
    alone = [
        verify_incidence(conic5, inc),
        verify_directions(conic5, cells),
        verify_size(conic5, inc, cells),
        verify_bound_consistency(conic5, inc, cells, 1),
    ]
    calls = []

    def counted(K):
        calls.append(K)
        return _recovered_cells(K)

    monkeypatch.setattr(verify, "_recovered_cells", counted)
    assert [rep.to_json() for rep in verify_all(conic5, r=1)] == [rep.to_json() for rep in alone]
    assert calls == [conic5]


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
    on = _inc(conic5)[1]
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
