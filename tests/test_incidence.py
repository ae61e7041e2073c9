"""incidence() and PointSet against the brute-force tests they replace.

Over an exact field each line's points are looked up in the point index;
over the reals the points near a line are filtered and confirmed; flats
that are not lines scan.  Either way the
table must be the one that testing every line against every point gives,
and the real PointSet's buckets must find the point a scan of the stored
points finds.
"""

import json
import random
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.cli import main
from kakeya.construction import KakeyaSet, assemble, kakeya_from_json, kakeya_to_json
from kakeya.projgeom import PointSet, ProjPoint, Subspace, _real_key, incidence, points_on, span
from kakeya.scalar import RealField
from kakeya.seeds import dual_conic_seed, regular_ngon_seed, seed_from_json, seed_to_json
from kakeya.verify import verify_all


def _brute(lines, points):
    return [[i for i, p in enumerate(points) if line.contains(p)] for line in lines]


def _check(field, lines, points):
    first, on = incidence(field, lines, points)
    assert on == _brute(lines, points)
    assert first == [next(j for j, q in enumerate(points) if q == p) for p in points]
    return on


def _parts(K: KakeyaSet):
    return [kl.line for kl in K.lines], [kp.point for kp in K.points]


@pytest.fixture(scope="module")
def families():
    return {(q, n): assemble(dual_conic_seed(q), n) for q in (5, 7) for n in (2, 3)}


@pytest.mark.parametrize("q,n", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_conic_families_match_the_brute_force_table(families, q, n):
    K = families[(q, n)]
    on = _check(K.field, *_parts(K))
    assert all(len(on_line) >= K.N for on_line in on)


def test_a_duplicated_point_is_listed_at_every_position(families):
    K = families[(5, 3)]
    lines, points = _parts(K)
    points[41] = points[20]
    on = _check(K.field, lines, points)
    assert any(20 in on_line and 41 in on_line for on_line in on)


def test_a_point_at_infinity_on_a_line_is_listed(families):
    K = families[(5, 3)]
    lines, points = _parts(K)
    points.append(K.lines[0].direction)
    on = _check(K.field, lines, points)
    assert on[0][-1] == len(points) - 1


def test_flats_that_are_not_lines_are_scanned(families):
    K = families[(5, 3)]
    lines, points = _parts(K)
    off = next(p for p in points if not lines[0].contains(p))
    lines[0] = span(off, lines[0])
    lines[1] = Subspace.from_vectors(K.field, K.n, [points[0].coords])
    lines[2] = Subspace.empty(K.field, K.n)
    on = _check(K.field, lines, points)
    assert on[1] == [0] and on[2] == []


def test_fewer_points_than_a_line_holds_are_looked_up(families):
    K = families[(7, 2)]
    lines, points = _parts(K)
    _check(K.field, lines, points[:5])


def test_a_huge_modulus_is_looked_up():
    # a line over F_(2^61 - 1) is looked up through the values the stored points take
    doc = kakeya_to_json(assemble(dual_conic_seed(5), 3))
    doc["field"]["p"] = 2**61 - 1
    K = kakeya_from_json(doc)
    _check(K.field, *_parts(K))


@pytest.mark.parametrize("n", [2, 3])
def test_rational_conic_families_match_the_brute_force_table(n):
    doc = seed_to_json(dual_conic_seed(5))
    doc["field"] = {"kind": "rational"}
    K = assemble(seed_from_json(doc), n)
    lines, points = _parts(K)
    dup = next(i for i, p in enumerate(points) if lines[0].contains(p))
    points += [points[dup], K.lines[0].direction]
    on = _check(K.field, lines, points)
    assert on[0][0] == dup and on[0][-2:] == [len(points) - 2, len(points) - 1]


def test_a_real_ngon_family_matches_the_brute_force_table():
    K = assemble(regular_ngon_seed(7), 3)
    lines, points = _parts(K)
    fld = K.field
    points.append(ProjPoint(fld, [c + fld.tol / 4 for c in points[3].coords]))
    on = _check(fld, lines, points)
    assert all(len(on_line) >= K.N for on_line in on)
    assert any(3 in on_line and len(points) - 1 in on_line for on_line in on)


REAL = RealField()
TOL = REAL.tol
OFFSETS = [f * TOL for f in (0.5, 0.99, 1.01, 3.0)]


def _real_on(line, points):
    """PointSet.on over the points, asserted equal to the scan of the stored points; the labels found."""
    stored = PointSet(REAL, points)
    found = stored.on(line)
    assert found == points_on(line, stored.items)
    return found


def _moved(coords, k, by):
    return ProjPoint(REAL, [c + by if j == k else c for j, c in enumerate(coords)])


def _line(rows):
    return Subspace.from_vectors(REAL, 3, rows)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0, 1), (0, 3)]), st.data())
def test_real_on_matches_the_scan_on_random_lines(pivots, data):
    c0, c1 = pivots
    free = [k for k in range(4) if k not in pivots]
    value = st.floats(-4, 4) | st.sampled_from([1e4, -1e4])
    r0, r1 = [0.0] * 4, [0.0] * 4
    r0[c0], r1[c1] = 1.0, 1.0
    for k in free:
        r0[k], r1[k] = data.draw(value), data.draw(value) if k > c1 else 0.0
    line = _line([r0, r1])
    assert line.pivots == pivots
    ts = data.draw(st.lists(st.floats(-3, 3) | st.sampled_from([0.0, 0.5 * TOL, -0.9 * TOL]), min_size=1, max_size=6))
    on_line = [[a + t * b for a, b in zip(r0, r1)] for t in ts] + [r1]
    points = []
    for coords in on_line:
        k = data.draw(st.sampled_from(free))
        points.append(_moved(coords, k, data.draw(st.sampled_from(OFFSETS)) * data.draw(st.sampled_from([1, -1]))))
    _real_on(line, points)


def test_real_on_keeps_a_point_whose_c1_coordinate_is_skipped():
    # |p[c1]| <= tol: contains never subtracts r1, so p[2] - r0[2] alone decides, though p[c1] * r1[2] is 900 tol
    line = _line([[1.0, 0.0, 0.5, 1.0], [0.0, 1.0, 1e3, 0.0]])
    near = ProjPoint(REAL, [1.0, 0.9 * TOL, 0.5 + 0.5 * TOL, 1.0])
    far = ProjPoint(REAL, [1.0, 0.9 * TOL, 0.5 + 1.5 * TOL, 1.0])
    assert _real_on(line, [near, far]) == [0]


def test_real_on_keeps_a_far_point_that_r0_leftover_at_c1_puts_on_the_line():
    # rref leaves r0[c1] = 9.9e-10 uneliminated; contains subtracts it from p[c1] before scaling r1,
    # which moves the residual at column 2 by more than its rounding at |p[c1]| = 1.5e7
    line = _line([[1.0, 9.945810876836809e-10, -2.039057935506409, 1.0], [0.0, 1.0, 42.9614325433227, 0.0]])
    assert line.basis[0][1] == 9.945810876836809e-10
    far = ProjPoint(REAL, [1.0, 14956215.712386783, 642540450.3920298, 1.0])
    assert _real_on(line, [far]) == [0]


def test_real_on_confirms_what_a_nan_in_the_basis_leaves_undecided():
    # built in process (a file cannot hold "nan"): r1[2] is NaN, yet contains never scales r1 for the point r0 and accepts it
    line = _line([[1.0, 0.0, 0.5, 1.0], [0.0, 1.0, float("nan"), 0.0]])
    assert _real_on(line, [ProjPoint(REAL, [1.0, 0.0, 0.5, 1.0]), ProjPoint(REAL, [1.0, 2.0, 0.5, 1.0])]) == [0]


@pytest.mark.parametrize("by", OFFSETS)
@pytest.mark.parametrize("k", [2, 3])
def test_real_on_tests_points_with_lead_c1_against_r1(k, by):
    r1 = [0.0, 1.0, -2.5, 0.75]
    line = _line([[1.0, 0.0, 0.3, 1.0], r1])
    points = [_moved(r1, k, by), _moved(r1, k, -by)]
    assert _real_on(line, points) == ([0, 1] if by <= TOL else [])


def test_real_on_finds_leads_before_c0_and_between_c0_and_c1():
    # rref leaves column 0 below tol unreduced, then scales it by 1 / 2e-9: r0 = (0.05, 1, 0, 0), pivots (1, 2)
    line = _line([[1e-10, 2e-9, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    assert line.pivots == (1, 2) and line.basis[0][0] == pytest.approx(0.05)
    before = [ProjPoint(REAL, [1.0, 20.0, 3.0, 3.0]), ProjPoint(REAL, [1.0, 19.0, 3.0, 3.0])]
    assert _real_on(line, before) == [0]
    # r1 = (0, 5e-7, 1, 2) keeps the uneliminated 5e-10 at column 1 between its pivots (0, 2)
    line = _line([[1.0, 0.0, 0.0, 0.0], [0.0, 5e-10, 1e-3, 2e-3]])
    assert line.pivots == (0, 2) and line.basis[1][1] == pytest.approx(5e-7)
    between = [ProjPoint(REAL, [0.0, 1.0, 2e6, 4e6]), ProjPoint(REAL, [0.0, 1.0, 1e6, 2e6])]
    assert _real_on(line, between) == [0]
    # a basis with pivots (1, 2) and no leftovers holds none of them
    assert _real_on(_line([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]), before + between) == []


def test_real_on_matches_the_scan_where_rref_leaves_r1_nonzero_at_c0():
    # ngon N=11 lines carry r1[c0] = -4.4e-16; here r1[c0] = 5e-10 and r0[c0] = 1 - 2.5e-10
    line = _line([[1.0, 0.5, 0.2, 0.3], [5e-10, 1.0, 0.7, 0.1]])
    (r0, r1), (c0, c1) = line.basis, line.pivots
    assert (c0, c1) == (0, 1) and r1[0] == 5e-10 and r0[0] != 1.0
    points = [ProjPoint(REAL, [a + t * b for a, b in zip(r0, r1)]) for t in (-2.5, -0.5, 0.0, 1.5, 4.0)]
    points += [_moved(p.coords, 2, by) for p in points for by in OFFSETS]
    found = _real_on(line, points)
    assert 0 < len(found) < len(points)


@pytest.mark.parametrize("N", [9, 11])
def test_real_verify_confirms_only_the_points_it_finds(N, monkeypatch):
    # the scan made one Subspace.contains per line and point: 32,157 for N=9 and 79,981 for N=11
    K = assemble(regular_ngon_seed(N), 3)
    calls, contains = [0], Subspace.contains

    def counted(self, p):
        calls[0] += 1
        return contains(self, p)

    monkeypatch.setattr(Subspace, "contains", counted)
    assert [rep.verdict for rep in verify_all(K, r=1)] == ["pass"] * 4
    monkeypatch.undo()
    _, on = incidence(K.field, *_parts(K))
    assert calls[0] < 2 * sum(map(len, on))


def _scan_labels(points):
    """setdefault(p, i) for each point i by scanning the stored points, as the bucket index must."""
    items, labels, out = [], [], []
    for i, p in enumerate(points):
        j = next((k for k, q in enumerate(items) if p == q), None)
        if j is None:
            items.append(p)
            labels.append(i)
        out.append(i if j is None else labels[j])
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_real_point_set_matches_the_linear_scan(tol):
    # values within tol / 2 of an edge of 2 tol, some near 10^6, at two leading columns; at 10^6 the
    # window of tol 1e-9 meets more than two buckets, and the points of the lead are scanned
    fld, w, rng = RealField(tol), 2 * tol, random.Random(11)
    values = []
    for centre in (0.0, 0.3, -2.0, 1e6, -1e6 + 0.5):
        edge = (centre // w) * w
        values += [edge + rng.uniform(-0.5, 0.5) * tol for _ in range(30)]
        values += [edge + rng.uniform(-3, 3) * tol for _ in range(10)]
    tail = [0.25, 0.25 + 0.6 * tol, 0.25 + 1.5 * tol]
    points = [ProjPoint(fld, [1.0, v, rng.choice(tail), 1.0]) for v in values]
    points += [ProjPoint(fld, [0.0, 1.0, v, rng.choice(tail)]) for v in values]
    points += [ProjPoint(fld, [0.0, 0.0, 0.0, 1.0])] * 2
    rng.shuffle(points)

    stored = PointSet(fld)
    labels = [stored.setdefault(p, i) for i, p in enumerate(points)]
    assert labels == _scan_labels(points)
    weights, width = _real_key(4, tol)[:2]
    bucket = [floor(sum(a * c for a, c in zip(weights, p.coords)) / width) for p in points]
    assert any(bucket[i] != bucket[j] for i, j in enumerate(labels)), "no equal pair straddles a bucket edge"


def test_real_point_set_scans_the_lead_for_huge_and_non_finite_values():
    # s / (4 tol A) overflows at 1e300 and is NaN for nan or inf: such points are found by scanning their lead
    fld, nan, inf = RealField(1e-9), float("nan"), float("inf")
    rows = [[1.0, 1e300, 2.0], [1.0, 1e300, 2.0], [1.0, -1e300, 1e300], [1.0, nan, 0.0], [1.0, nan, 0.0], [0.0, 1.0, inf], [1.0, 1e300, 2.0]]
    points = [ProjPoint(fld, r) for r in rows]
    stored = PointSet(fld)
    assert [stored.setdefault(p, i) for i, p in enumerate(points)] == _scan_labels(points) == [0, 0, 2, 3, 4, 5, 0]


MOVES = [0.0] + [s * f * TOL for f in (0.99, 1.01) for s in (1, -1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_real_point_set_matches_the_linear_scan_on_moved_points(data):
    # copies of a few points, each column but the lead moved by 0, +-0.99 tol or +-1.01 tol,
    # so equal and unequal copies straddle bucket edges at every column
    value = st.floats(-3, 3) | st.sampled_from([0.0, TOL, -TOL, 2 * TOL, 0.5, 1e3])
    bases = data.draw(st.lists(st.tuples(st.integers(0, 3), st.lists(value, min_size=3, max_size=3)), min_size=1, max_size=4))
    points = []
    for _ in range(data.draw(st.integers(1, 12))):
        lead, rest = data.draw(st.sampled_from(bases))
        coords = [0.0] * lead + [1.0] + rest[: 3 - lead]
        for k in range(lead + 1, 4):
            coords[k] += data.draw(st.sampled_from(MOVES))
        points.append(ProjPoint(REAL, coords))
    stored = PointSet(REAL)
    assert [stored.setdefault(p, i) for i, p in enumerate(points)] == _scan_labels(points)


def test_real_point_set_compares_an_ngon_point_with_few_others(monkeypatch):
    # the points of ngon N=11 and N=13 at n=3 (661 and 1,015), each added twice.  Filed by row on
    # (lead + 1, last) and probed in 3 x 3 buckets, they made 6,106 and 10,897 comparisons.  With about
    # one point per bucket each copy meets its original alone (661 and 1,015 measured); the bound allows
    # a tenth more, for points that share a bucket or a window that meets two.
    calls, eq = [0], ProjPoint.__eq__

    def counted(self, other):
        calls[0] += 1
        return eq(self, other)

    for N in (11, 13):
        points = [kp.point for kp in assemble(regular_ngon_seed(N), 3).points]
        calls[0] = 0
        with monkeypatch.context() as m:
            m.setattr(ProjPoint, "__eq__", counted)
            assert len(PointSet(REAL, points + points)) == len(points)
        assert calls[0] <= len(points) + len(points) // 10


def test_point_set_on_returns_labels(families):
    K = families[(5, 2)]
    stored = PointSet(K.field)
    for i, kp in enumerate(K.points):
        stored.setdefault(kp.point, f"p{i}")
    line = K.lines[0].line
    assert stored.on(line) == [f"p{i}" for i in _brute([line], stored.items)[0]]


def test_a_point_of_the_wrong_length_is_refused(families, tmp_path, capsys):
    # the loaders refuse a coordinate vector of the wrong length, naming it, before the point is built
    path, out = tmp_path / "doc.json", str(tmp_path / "k.json")

    def refused(doc, message, *argvs):
        path.write_text(json.dumps(doc))
        for argv in argvs:
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    for edit, message in [
        (lambda d: d["points"][3]["coords"].pop(), "point 3 has 3 coordinates, not n + 1 = 4"),
        (lambda d: d["points"][3]["coords"].append("1"), "point 3 has 5 coordinates, not n + 1 = 4"),
        (lambda d: d["points"][3]["coords"].clear(), "point 3 has 0 coordinates, not n + 1 = 4"),
        (lambda d: d["lines"][0]["direction"].append("0"), "direction of line 0 has 5 coordinates, not n + 1 = 4"),
        (lambda d: d["lines"][0]["direction"].pop(), "direction of line 0 has 3 coordinates, not n + 1 = 4"),
    ]:
        doc = kakeya_to_json(families[(5, 3)])
        edit(doc)
        refused(doc, message, ["verify", str(path)], ["certify", str(path), "--r", "1"])

    for edit, message in [
        (lambda d: d["points"][2]["coords"].append("1"), "seed point 2 has 4 coordinates, not 3"),
        (lambda d: d["points"][2]["coords"].clear(), "seed point 2 has 0 coordinates, not 3"),
    ]:
        doc = seed_to_json(dual_conic_seed(5))
        edit(doc)
        refused(doc, message, ["seed-report", str(path)], ["construct", "--seed", f"file:{path}", "--dim", "3", "--out", out])
