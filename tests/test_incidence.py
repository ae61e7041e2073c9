"""incidence() and PointSet against the brute-force tests they replace.

Over an exact field each line's points are looked up in the point index;
the real kind, flats that are not lines and points of another shape
scan.  Either way the table must be the one that testing every line
against every point gives, and the real PointSet's buckets must find the
point a scan of the stored points finds.
"""

import json
import random

import pytest

from kakeya.cli import main
from kakeya.construction import KakeyaSet, KPoint, assemble, kakeya_from_json, kakeya_to_json
from kakeya.errors import AmbientMismatch
from kakeya.projgeom import PointSet, ProjPoint, Subspace, incidence, span
from kakeya.scalar import RealField
from kakeya.seeds import dual_conic_seed, regular_ngon_seed, seed_from_json, seed_to_json


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
    lines[1] = Subspace.from_points([points[0]])
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
    # values within tol / 2 of a bucket edge, some near 10^6, at two leading columns
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
    col = [p.coords.index(1.0) + 1 for p in points]
    assert any(
        points[i].coords[col[i]] // w != points[j].coords[col[j]] // w
        for i, j in enumerate(labels)
    ), "no equal pair straddles a bucket edge"


def test_point_set_on_returns_labels(families):
    K = families[(5, 2)]
    stored = PointSet(K.field)
    for i, kp in enumerate(K.points):
        stored.setdefault(kp.point, f"p{i}")
    line = K.lines[0].line
    assert stored.on(line) == [f"p{i}" for i in _brute([line], stored.items)[0]]


def test_a_point_of_the_wrong_length_is_refused(families, tmp_path, capsys):
    K = families[(5, 3)]
    lines, points = _parts(K)
    points[3] = ProjPoint(K.field, points[3].coords[:-1])
    with pytest.raises(AmbientMismatch):
        incidence(K.field, lines, points)

    bad = KakeyaSet(K.field, K.n, K.N, K.grid, K.lines, list(K.points), K.seed_meta)
    bad.points[3] = KPoint(points[3], K.points[3].provenance)
    path = tmp_path / "k.json"
    path.write_text(json.dumps(kakeya_to_json(bad)))
    for argv in (["verify", str(path)], ["certify", str(path), "--r", "1"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("error: ") and err.count("\n") == 1
