"""incidence() against the brute-force table of Subspace.contains tests.

Over F_p a line's q + 1 points are looked up in the point index; every
other case scans.  Both paths must give the table that testing every
line against every point gives.
"""

import json

import pytest

from kakeya.cli import main
from kakeya.construction import KakeyaSet, KPoint, assemble, kakeya_from_json, kakeya_to_json
from kakeya.errors import AmbientMismatch
from kakeya.projgeom import PointSet, ProjPoint, Subspace, incidence, span_point
from kakeya.seeds import dual_conic_seed


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
    lines[0] = span_point(off, lines[0])
    lines[1] = Subspace.from_points([points[0]])
    lines[2] = Subspace.empty(K.field, K.n)
    on = _check(K.field, lines, points)
    assert on[1] == [0] and on[2] == []


def test_fewer_points_than_a_line_holds_are_scanned(families):
    K = families[(7, 2)]
    lines, points = _parts(K)
    _check(K.field, lines, points[:5])


def test_a_huge_modulus_is_scanned():
    doc = kakeya_to_json(assemble(dual_conic_seed(5), 3))
    doc["field"]["p"] = 2**61 - 1
    K = kakeya_from_json(doc)
    _check(K.field, *_parts(K))


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
