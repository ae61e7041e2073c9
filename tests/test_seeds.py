"""Planar seed families and their audit report."""

import json
from fractions import Fraction
from math import inf, nan, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.errors import DegenerateSeed, UnsupportedField
from kakeya.projgeom import ProjPoint, Subspace, at_infinity, infinite_point, meet, span
from kakeya.scalar import PrimeField, RationalField, RealField
from kakeya.seeds import (
    PlanarSeed,
    SeedPoint,
    dual_conic_seed,
    line_walk_start,
    ngon_bisecant_direction,
    regular_ngon_seed,
    seed_from_json,
    seed_report,
    seed_to_json,
    walk_point,
)


def test_conic_seed_shape_q5():
    seed = dual_conic_seed(5)
    assert seed.N == 5
    assert len(seed.lines) == 5
    assert len(seed.m_lines) == 5
    assert len(seed.points) == 15
    assert seed.epsilon == [Fraction(1, 2)] * 5


def test_conic_seed_rejects_bad_orders():
    for q in (2, 3, 4, 9, 15):
        with pytest.raises(UnsupportedField):
            dual_conic_seed(q)


def test_conic_tangent_lines_touch_once():
    # each seed line meets the parabola y = x^2 in exactly one point
    q = 7
    seed = dual_conic_seed(q)
    fld = seed.field
    for line in seed.lines:
        hits = 0
        for x in range(q):
            p = ProjPoint(fld, [fld(x), fld(x * x), fld.one])
            if line.contains(p):
                hits += 1
        assert hits == 1


def test_conic_double_points_by_hand_q5():
    # tangents at t1, t2 meet where x = (t1 + t2) / 2; on the line x = 1
    # that means t1 + t2 = 2, giving the pairs {0, 2} and {3, 4} mod 5
    seed = dual_conic_seed(5)
    fld = seed.field
    m_x1 = seed.m_lines[1]
    pairs_on_m = []
    for a in range(5):
        for b in range(a + 1, 5):
            cut = meet(seed.lines[a], seed.lines[b])
            pt = ProjPoint(fld, cut.basis[0])
            if m_x1.contains(pt):
                pairs_on_m.append((a, b))
    assert pairs_on_m == [(0, 2), (3, 4)]


def test_conic_every_line_has_enough_points():
    for q in (5, 7, 11):
        seed = dual_conic_seed(q)
        for line in seed.lines:
            count = sum(1 for sp in seed.points if line.contains(sp.point))
            assert count >= q


def test_conic_seed_report_passes():
    for q in (5, 7):
        rep = seed_report(dual_conic_seed(q))
        assert rep.verdict == "pass"
        assert rep.problems == []
        assert rep.epsilon_measured == [Fraction(1, 2)] * q
        assert (rep.epsilon_sum, rep.density) == (Fraction(q, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "replace, problem",
    [
        (lambda seed: seed.m_lines[0], "measuring lines 0 and 1 coincide"),
        (
            lambda seed: Subspace.from_vectors(seed.field, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            "measuring line 1 is not a line",
        ),
    ],
    ids=["repeated", "plane"],
)
def test_seed_report_fails_on_a_bad_measuring_line(replace, problem):
    # epsilon is re-measured to match (the plane holds (0,1,0) and every double point), so only m_lines[1] can fail
    seed = dual_conic_seed(7)
    seed.m_lines[1] = replace(seed)
    seed.epsilon = seed_report(seed).epsilon_measured
    rep = seed_report(seed)
    assert rep.verdict == "fail"
    assert rep.problems == [problem]


def test_seed_report_names_a_seed_line_at_infinity():
    # the line at infinity meets infinity in a line, not a point, so it has no direction to audit
    seed = dual_conic_seed(7)
    seed.lines[0] = at_infinity(seed.field, 2)
    rep = seed_report(seed)
    assert rep.verdict == "fail"
    assert rep.problems[0] == "line 0 is the line at infinity"


def test_seed_report_counts_the_lines_and_measuring_lines_against_N():
    seed = dual_conic_seed(7)
    del seed.lines[-1], seed.m_lines[-1]
    problems = seed_report(seed).problems
    assert "expected 7 lines, found 6" in problems
    assert "expected 7 measuring lines, found 6" in problems


def test_ngon_bisecant_direction_depends_on_pair_sum():
    d1 = ngon_bisecant_direction(8, 1, 4)
    d2 = ngon_bisecant_direction(8, 2, 3)
    assert d1 == d2
    d3 = ngon_bisecant_direction(8, 1, 5)
    assert d1 != d3


def test_ngon_epsilon_patterns():
    rep8 = seed_report(regular_ngon_seed(8))
    assert rep8.verdict == "pass"
    assert sorted(rep8.epsilon_measured) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert (rep8.epsilon_sum, rep8.density) == (4, Fraction(1, 2))
    rep9 = seed_report(regular_ngon_seed(9))
    assert rep9.verdict == "pass"
    assert rep9.epsilon_measured == [Fraction(1, 2)] * 9


def test_ngon_rejects_small_and_exact_fields():
    with pytest.raises(ValueError):
        regular_ngon_seed(4)
    with pytest.raises(UnsupportedField):
        regular_ngon_seed(8, PrimeField(7))


def test_ngon_directions_distinct_and_affine_frame():
    for N in (5, 8, 9, 12):
        seed = regular_ngon_seed(N)
        dirs = [infinite_point(line) for line in seed.lines]
        for i in range(N):
            assert not seed.field.is_zero(dirs[i].coords[0])
            for j in range(i + 1, N):
                assert dirs[i] != dirs[j]


def test_line_walk_start_parametrizes_the_line():
    seed = dual_conic_seed(7)
    fld = seed.field
    for line in seed.lines:
        base, step = line_walk_start(line)
        for lam in range(4):
            affine = [fld.add(c, fld.mul(fld(lam), s)) for c, s in zip(base, step)]
            pt = ProjPoint(fld, affine + [fld.one])
            assert line.contains(pt)
    at_infinity = span(ProjPoint(fld, [1, 0, 0]), ProjPoint(fld, [0, 1, 0]))
    plane = Subspace.from_vectors(fld, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for flat, guard in ((at_infinity, "line lies at infinity"), (plane, "not an affine line")):
        with pytest.raises(ValueError, match=guard):
            line_walk_start(flat)


def test_seed_json_round_trip_exact():
    seed = dual_conic_seed(7)
    doc = json.loads(json.dumps(seed_to_json(seed)))
    back = seed_from_json(doc)
    assert back.N == seed.N
    assert back.field == seed.field
    assert back.epsilon == seed.epsilon
    for a, b in zip(back.lines, seed.lines):
        assert a == b
    for a, b in zip(back.points, seed.points):
        assert a.point == b.point and a.extra == b.extra


@pytest.mark.parametrize("make", [lambda: dual_conic_seed(5), lambda: regular_ngon_seed(7)])
def test_the_seed_record_holds_what_its_file_holds(make):
    assert set(PlanarSeed.__slots__) == set(seed_to_json(make()))


def test_seed_json_round_trip_real():
    seed = regular_ngon_seed(8)
    back = seed_from_json(seed_to_json(seed))
    for a, b in zip(back.lines, seed.lines, strict=True):
        assert infinite_point(a) == infinite_point(b)
    rep = seed_report(back)
    assert rep.verdict == "pass"


def test_conic_seed_has_no_extras():
    # every affine point of a tangent line is in S, so each line carries
    # exactly q points without topping up
    for q in (5, 7):
        seed = dual_conic_seed(q)
        assert all(not sp.extra for sp in seed.points)
        for line in seed.lines:
            assert sum(1 for sp in seed.points if line.contains(sp.point)) == q


def test_report_flags_starved_line():
    seed = dual_conic_seed(5)
    line0 = seed.lines[0]
    seed.points = [sp for sp in seed.points if not line0.contains(sp.point)]
    rep = seed_report(seed)
    assert rep.verdict == "fail"
    assert rep.line_point_counts[0] == 0


def test_report_flags_wrong_epsilon():
    seed = dual_conic_seed(5)
    seed.epsilon = [Fraction(0)] * 5
    rep = seed_report(seed)
    assert rep.verdict == "fail"


def test_report_counts_distinct_points():
    # line 0's extra point replaced by a copy of point 0, the chord point of
    # lines 0 and 1: line 0 lists 7 entries but holds 6 distinct points
    seed = regular_ngon_seed(7)
    extra = next(i for i, sp in enumerate(seed.points) if sp.extra and seed.lines[0].contains(sp.point))
    seed.points[extra] = SeedPoint(seed.points[0].point, extra=True)
    rep = seed_report(seed)
    assert rep.verdict == "fail"
    assert rep.line_point_counts == [6, 7, 7, 7, 7, 7, 7]
    assert f"points 0 and {extra} coincide" in rep.problems
    assert "line 0 holds only 6 distinct points, needs 7" in rep.problems


_TOL = 2.0**-20
_WALK_VALUES = {
    "real": (RealField(_TOL), st.sampled_from([0.0, -0.0, _TOL, -_TOL, nextafter(_TOL, 1), inf, -inf, nan]) | st.floats()),
    "F_7": (PrimeField(7), st.integers(0, 6)),
    "Q": (RationalField(), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_WALK_VALUES)), data=st.data())
def test_walk_point_is_the_field_method_walk(kind, data):
    # walk_point computes base + lam * step on raw values (mod p over F_p); its coordinates must be those of the
    # field-method formula, bit for bit over the reals (-0.0, edges of tol, inf and NaN included), value and type
    # over F_p and Q
    fld, value = _WALK_VALUES[kind]
    m = data.draw(st.integers(1, 4))
    base, step = (data.draw(st.lists(value, min_size=m, max_size=m)) for _ in range(2))
    lam = data.draw(st.integers(0, 60))
    want = ProjPoint(fld, [fld.add(b, fld.mul(fld(lam), s)) for b, s in zip(base, step)] + [fld.one]).coords
    got = walk_point(fld, base, step, lam).coords
    if fld.exact:
        assert [(type(c), c) for c in got] == [(type(c), c) for c in want]
    else:
        assert [c.hex() for c in got] == [c.hex() for c in want]
