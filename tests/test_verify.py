"""Re-verification checks and their failure modes."""

import pytest

from kakeya.construction import KakeyaSet, KLine, KPoint, assemble, direction_from_grid_values
from kakeya.errors import GridMissing
from kakeya.projgeom import ProjPoint, point_from_affine, span_point
from kakeya.seeds import dual_conic_seed, regular_ngon_seed
from kakeya.verify import (
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
    rep = verify_incidence(conic5)
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
    rep = verify_incidence(K)
    assert rep.verdict == "fail"
    assert any("carries" in w for w in rep.witnesses)


def test_incidence_counts_distinct_points(conic5):
    # point 41 lies on line 20 alone, which carries exactly N points; a copy
    # of point 20 (also on line 20) in its place leaves line 20 with N
    # entries but only N - 1 distinct points, and every other count intact
    points = list(conic5.points)
    points[41] = points[20]
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, conic5.lines, points, conic5.seed_meta)
    rep = verify_incidence(K)
    assert rep.verdict == "fail"
    assert "points 20 and 41 on line 20 coincide" in rep.witnesses
    assert "line 20 carries 4 points, needs 5" in rep.witnesses
    assert [r.verdict for r in verify_all(K, r=1)][0] == "fail"


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
    rep = verify_directions(K)
    assert rep.verdict == "fail"
    assert any("stores a direction" in w for w in rep.witnesses)


def test_directions_fail_on_duplicate(conic5):
    lines = list(conic5.lines)
    lines[1] = lines[0]
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    rep = verify_directions(K)
    assert rep.verdict == "fail"
    assert any("share a direction" in w for w in rep.witnesses)


def test_directions_fail_off_grid(conic5):
    # shrink the stored grid so slopes equal to 4 fall outside it
    grid = [axis[:-1] for axis in conic5.grid]
    K = KakeyaSet(
        conic5.field, 3, 5, grid, conic5.lines, conic5.points, conic5.seed_meta
    )
    rep = verify_directions(K)
    assert rep.verdict == "fail"
    assert any("outside the grid" in w for w in rep.witnesses)


def test_size_report_measures_constant(conic5):
    rep = verify_size(conic5)
    assert rep.verdict == "pass"
    assert rep.measured["size"] == 53
    assert rep.measured["leading_term"] == "125/4"
    assert rep.measured["lifted_points"] == 10


def test_size_fails_on_wrong_epsilon(conic5):
    meta = dict(conic5.seed_meta)
    meta["epsilon"] = ["0"] * 5
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, conic5.lines, conic5.points, meta)
    rep = verify_size(K)
    assert rep.verdict == "fail"
    assert any("deficiency formula" in w for w in rep.witnesses)


def test_size_passthrough_has_no_lifted_checks():
    K = assemble(dual_conic_seed(5), 2)
    rep = verify_size(K)
    assert rep.verdict == "pass"
    assert rep.measured["lifted_points"] == 0
    assert "lifted_expected" not in rep.measured


def test_bound_consistency_exact_and_real(conic5):
    for r in (1, 2, 3):
        assert verify_bound_consistency(conic5, r).verdict == "pass"
    K = assemble(regular_ngon_seed(5), 3)
    for r in (1, 2, 3):
        assert verify_bound_consistency(K, r).verdict == "pass"


def _with_points(K, points):
    return KakeyaSet(K.field, K.n, K.N, K.grid, K.lines, points, K.seed_meta)


def test_size_counts_distinct_points(conic5):
    # 40 copies of a point on no line: |S| is 54 distinct points, not 93 entries
    extra = KPoint(point_from_affine(conic5.field, [1, 1, 1]), {"kind": "extra"})
    K = _with_points(conic5, list(conic5.points) + [extra] * 40)
    rep = verify_size(K)
    assert rep.verdict == "fail"
    assert rep.measured["size"] == 54
    assert "points 53 and 54 coincide" in rep.witnesses
    assert len(verify_size(K, verbose=True).witnesses) == 39
    assert verify_bound_consistency(K, 1).measured["size"] == 54
    assert [r.verdict for r in verify_all(K, r=1)] == ["pass", "pass", "fail", "pass"]


def test_incidence_rejects_a_point_at_infinity(conic5):
    at_infinity = KPoint(ProjPoint(conic5.field, [1, 0, 0, 0]), {"kind": "extra"})
    rep = verify_incidence(_with_points(conic5, list(conic5.points) + [at_infinity]))
    assert rep.verdict == "fail"
    assert rep.witnesses == ["point 53 lies at infinity"]


def test_directions_name_a_flat_that_is_not_a_line(conic5):
    line = conic5.lines[3]
    plane = span_point(point_from_affine(conic5.field, [1, 1, 1]), line.line)
    lines = list(conic5.lines)
    lines[3] = KLine(plane, line.direction)
    K = KakeyaSet(conic5.field, 3, 5, conic5.grid, lines, conic5.points, conic5.seed_meta)
    rep = verify_directions(K)
    assert rep.verdict == "fail"
    assert rep.witnesses == ["line 3 is a flat of dimension 2, not a line"]


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
    rep = verify_bound_consistency(K, 1)
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
    with pytest.raises(GridMissing):
        verify_bound_consistency(K, 1)


def test_witness_truncation(conic5):
    kept = [kp for kp in conic5.points if kp.provenance["kind"] == "lifted"]
    K = KakeyaSet(
        conic5.field, conic5.n, conic5.N, conic5.grid, conic5.lines, kept, conic5.seed_meta
    )
    short = verify_incidence(K)
    full = verify_incidence(K, verbose=True)
    assert len(short.witnesses) == 11
    assert "suppressed" in short.witnesses[-1]
    assert len(full.witnesses) == 25


def test_real_assembly_passes_core_checks():
    K = assemble(regular_ngon_seed(5), 3)
    assert verify_incidence(K).verdict == "pass"
    assert verify_directions(K).verdict == "pass"
