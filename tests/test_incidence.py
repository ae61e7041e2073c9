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
from fractions import Fraction
from math import floor, inf, nan, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.cli import main
from kakeya.construction import KakeyaSet, assemble, kakeya_from_json, kakeya_to_json
from kakeya.projgeom import PointSet, ProjPoint, Subspace, _real_key, incidence, points_on, span
from kakeya.scalar import PrimeField, RationalField, RealField
from kakeya.seeds import dual_conic_seed, regular_ngon_seed, seed_from_json, seed_to_json
from kakeya.verify import Tally, verify_all


def _brute(lines, points):
    return [[i for i, p in enumerate(points) if line.contains(p)] for line in lines]


def _check(field, lines, points):
    first, on, counts = incidence(field, lines, points)
    assert on == _brute(lines, points)
    assert counts == [len({first[i] for i in on_line}) for on_line in on]
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


_EXACT = {
    "F_7": (PrimeField(7), st.integers(0, 6)),
    "F_(2^61-1)": (PrimeField(2**61 - 1), st.integers(0, 3) | st.integers(0, 2**61 - 2)),
    "Q": (RationalField(), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))),
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_EXACT)), data=st.data())
def test_exact_on_matches_the_scan_on_random_lines(kind, data):
    # lines at every pivot pair (c1 = n among them); points on the line (r1, led by c1, among them),
    # such points moved at one column (off the line or along it), random points, and repeats
    fld, values = _EXACT[kind]
    n = 3
    c0, c1 = data.draw(st.sampled_from([(c0, c1) for c1 in range(1, n + 1) for c0 in range(c1)]))
    value = values.map(fld)
    r0 = [fld.zero] * c0 + [fld.one] + [fld.zero if k == c1 else data.draw(value) for k in range(c0 + 1, n + 1)]
    r1 = [fld.zero] * c1 + [fld.one] + [data.draw(value) for k in range(c1 + 1, n + 1)]
    line = Subspace.from_vectors(fld, n, [r0, r1])
    assert line.pivots == (c0, c1)
    vector = st.lists(value, min_size=n + 1, max_size=n + 1).filter(any)
    on_line = st.builds(lambda b: [fld.add(x, fld.mul(b, y)) for x, y in zip(r0, r1)], value) | st.just(r1)
    moved = st.builds(lambda v, k, d: [fld.add(x, d) if j == k else x for j, x in enumerate(v)], on_line, st.integers(0, n), value)
    coords = data.draw(st.lists(on_line | moved | vector, min_size=1, max_size=12))
    points = [ProjPoint(fld, c) for c in coords if any(c)]
    points += [points[i] for i in data.draw(st.lists(st.integers(0, len(points) - 1), max_size=3))] if points else []
    stored = PointSet(fld)
    for i, p in enumerate(points):
        stored.setdefault(p, f"p{i}")
    assert stored.on(line) == [stored.labels[i] for i in points_on(line, stored.items)]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_EXACT)), data=st.data())
def test_exact_on_sees_the_points_added_after_a_query(kind, data):
    # lines sharing one pivot pair, queried between batches of adds: each query must also find
    # the points stored after the pair's last query
    fld, values = _EXACT[kind]
    n = 3
    c0, c1 = data.draw(st.sampled_from([(c0, c1) for c1 in range(1, n + 1) for c0 in range(c1)]))
    value = values.map(fld)
    lines = []
    for _ in range(data.draw(st.integers(1, 3))):
        r0 = [fld.zero] * c0 + [fld.one] + [fld.zero if k == c1 else data.draw(value) for k in range(c0 + 1, n + 1)]
        r1 = [fld.zero] * c1 + [fld.one] + [data.draw(value) for k in range(c1 + 1, n + 1)]
        lines.append((Subspace.from_vectors(fld, n, [r0, r1]), r0, r1))
    stored = PointSet(fld)
    for _ in range(data.draw(st.integers(1, 5))):
        batch = []
        for _ in range(data.draw(st.integers(0, 6))):
            _, r0, r1 = data.draw(st.sampled_from(lines))
            b = data.draw(value)
            on_line = [fld.add(x, fld.mul(b, y)) for x, y in zip(r0, r1)]
            if data.draw(st.booleans()):
                on_line[data.draw(st.integers(0, n))] = data.draw(value)  # moved along the line or off it
            batch.append(on_line)
        for coords in batch:
            if any(coords):
                stored.add(ProjPoint(fld, coords))
        for line, _, _ in data.draw(st.lists(st.sampled_from(lines), max_size=3)):
            assert stored.on(line) == [stored.labels[i] for i in points_on(line, stored.items)]


_FILES = {
    "F_5": lambda: assemble(dual_conic_seed(5), 3),
    "Q": lambda: assemble(seed_from_json({**seed_to_json(dual_conic_seed(5)), "field": {"kind": "rational"}}), 3),
    "reals": lambda: assemble(regular_ngon_seed(7), 3),
}


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("kind", sorted(_FILES))
def test_incidence_is_the_scan_expanded_by_copies(kind, repeat):
    # repeated: the duplicate control's shape, a point on one full line only overwritten by another point of that line
    K = kakeya_from_json(kakeya_to_json(_FILES[kind]()))
    lines, points = _parts(K)
    on = _brute(lines, points)
    if repeat:
        full = next(li for li, pts in enumerate(on) if len(pts) == K.N and any(sum(i in o for o in on) == 1 for i in pts))
        drop = next(i for i in on[full] if sum(i in o for o in on) == 1)
        keep = next(i for i in on[full] if i != drop)
        points[drop] = points[keep]
        K = kakeya_from_json({**kakeya_to_json(K), "points": [{"coords": p.to_json(), "provenance": kp.provenance} for p, kp in zip(points, K.points)]})
        lines, points = _parts(K)
    first = [next(j for j, q in enumerate(points) if q == p) for p in points]
    distinct = [i for i, f in enumerate(first) if f == i]
    copies = {f: [i for i, g in enumerate(first) if g == f] for f in distinct}
    scan = [sorted(i for d in points_on(line, [points[f] for f in distinct]) for i in copies[distinct[d]]) for line in lines]
    assert incidence(K.field, lines, points) == (first, scan, [len({first[i] for i in s}) for s in scan])
    assert Tally(K).size == len(distinct)
    assert (len(distinct) < len(points)) is repeat
    if repeat:
        assert drop in scan[full] and keep in scan[full] and len(scan[full]) == K.N


REAL = RealField()
TOL = REAL.tol
OFFSETS = [f * TOL for f in (0.5, 0.99, 1.01, 3.0)]
NAN = float("nan")


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0, 1), (0, 2), (1, 2)]), st.data())
def test_real_on_sees_the_points_added_after_a_query(pivots, data):
    # 1-3 lines whose first tested column k = 3 carries one key (r0[k], r1[k], r0[c1]), a zero of either sign
    # and a NaN built in process among its values, queried between batches of adds: each query must also find
    # the points stored after the shared strip was last extended
    c0, c1 = pivots
    free = [k for k in range(4) if k not in pivots]
    value = st.floats(-4, 4) | st.sampled_from([0.0, 1e4])
    a, b = data.draw(value | st.just(NAN)), data.draw(value | st.just(NAN))
    shift = data.draw(st.sampled_from([0.0, 9.9e-10]))
    signed = st.sampled_from([0.0, -0.0])
    lines = []
    for _ in range(data.draw(st.integers(1, 3))):
        r0, r1 = [0.0] * 4, [0.0] * 4
        r0[c0], r1[c1] = 1.0, 1.0
        for k in free[:-1]:
            r0[k], r1[k] = data.draw(value) if k > c0 else 0.0, data.draw(value) if k > c1 else 0.0
        r0[3] = a or data.draw(signed)  # NaN is true
        r0[c1] = shift or data.draw(signed)
        r1[3] = b
        lines.append((Subspace(REAL, 3, [r0, r1], pivots), r0, r1))
    stored = PointSet(REAL)
    for _ in range(data.draw(st.integers(1, 5))):
        for _ in range(data.draw(st.integers(0, 6))):
            _, r0, r1 = data.draw(st.sampled_from(lines))
            t = data.draw(st.floats(-3, 3) | st.sampled_from([0.0, 0.5 * TOL]))
            coords = [x + t * y for x, y in zip(r0, r1)] if data.draw(st.booleans()) else list(r1)
            if data.draw(st.booleans()):  # moved just inside or just outside tol, at any column
                coords[data.draw(st.integers(0, 3))] += data.draw(st.sampled_from([0.99, 1.01, -0.99, -1.01])) * TOL
            stored.add(ProjPoint(REAL, coords))
        for line, _, _ in data.draw(st.lists(st.sampled_from(lines), max_size=3)):
            assert stored.on(line) == [stored.labels[i] for i in points_on(line, stored.items)]


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
    # the scan made one Subspace.contains per line and point: 32,157 for N=9 and 79,981 for N=11; the filter
    # confirms 729 and 1,331, one per incidence, before and since lines share their first-column strips
    K = assemble(regular_ngon_seed(N), 3)
    calls, contains = [0], Subspace.contains

    def counted(self, p):
        calls[0] += 1
        return contains(self, p)

    monkeypatch.setattr(Subspace, "contains", counted)
    assert [rep.verdict for rep in verify_all(K, r=1)] == ["pass"] * 4
    monkeypatch.undo()
    lines, points = _parts(K)
    sets, on = [], PointSet.on
    monkeypatch.setattr(PointSet, "on", lambda self, line: sets.append(self) or on(self, line))
    _, found, _ = incidence(K.field, lines, points)
    assert calls[0] == {9: 729, 11: 1331}[N] == sum(map(len, found))
    # one first-column scan per key (lead, c1, k, a, b, shift) of a lead that holds points, fewer than the lines
    seen, keys = sets[0], set()
    for line in lines:
        (r0, r1), (c0, c1) = line.basis, line.pivots
        k = max(j for j in range(len(r0)) if j not in (c0, c1))
        keys |= {key for key in [(c0, c1, k, r0[k], r1[k], r0[c1]), (c1, c1, k, r1[k], 0.0, 0.0)] if key[0] in seen._leads}
    assert all(s is seen for s in sets)
    assert set(seen._values) == keys and len(keys) < len(lines)
    assert all(done == len(seen._leads[key[0]]) for key, (_, done) in seen._values.items())


def _scan_labels(points):
    """setdefault(p, i) for each point i by scanning the stored points, as the bucket index must, with field.eq at every coordinate."""
    items, labels, out = [], [], []
    for i, p in enumerate(points):
        j = next((k for k, q in enumerate(items) if all(map(p.field.eq, p.coords, q.coords))), None)
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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_real_point_set_labels_points_moved_by_exactly_tol_as_the_scan_does(data):
    # tol = 2^-20 and dyadic coordinates, moved by exactly +-tol, its float neighbours, tol + 2^-52 (still above tol
    # next to 0.5, where the neighbours round to tol) or -0.0, so that the inline comparison |a - b| <= tol meets
    # its boundary; and points holding inf or NaN, which equal no point
    tol = 2.0**-20
    fld = RealField(tol)
    near = [tol, nextafter(tol, 0), nextafter(tol, 1), tol + 2.0**-52]
    edges = [0.0, -0.0, *near, *(-x for x in near)]
    value = st.sampled_from([0.0, -0.0, 0.5, -0.25, 3.0, 1024.0, inf, -inf, nan])
    bases = data.draw(st.lists(st.tuples(st.integers(0, 2), st.lists(value, min_size=3, max_size=3)), min_size=1, max_size=3))
    points = []
    for _ in range(data.draw(st.integers(1, 12))):
        lead, rest = data.draw(st.sampled_from(bases))
        coords = [0.0] * lead + [1.0] + rest[: 3 - lead]
        for k in range(lead + 1, 4):
            coords[k] += data.draw(st.sampled_from(edges))
        points.append(ProjPoint(fld, coords))
    stored = PointSet(fld)
    assert [stored.setdefault(p, i) for i, p in enumerate(points)] == _scan_labels(points)


def test_real_point_set_compares_an_ngon_point_with_few_others(monkeypatch):
    # the points of ngon N=11 and N=13 at n=3 (661 and 1,015), each added twice.  Filed by row on
    # (lead + 1, last) and probed in 3 x 3 buckets, they made 6,106 and 10,897 comparisons.  With about
    # one point per bucket each copy meets its original alone (661 and 1,015 measured); the bound allows
    # a tenth more, for points that share a bucket or a window that meets two.  setdefault compares inline,
    # each candidate after one _peer check, so _peer counts the comparisons.
    calls, peer = [0], ProjPoint._peer

    def counted(self, other):
        calls[0] += 1
        return peer(self, other)

    for N in (11, 13):
        points = [kp.point for kp in assemble(regular_ngon_seed(N), 3).points]
        calls[0] = 0
        with monkeypatch.context() as m:
            m.setattr(ProjPoint, "_peer", counted)
            assert len(PointSet(REAL, points + points)) == len(points)
        assert len(points) <= calls[0] <= len(points) + len(points) // 10


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
