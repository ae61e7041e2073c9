"""Projective points, subspaces, span and meet."""

import random

import pytest

from kakeya.errors import AmbientMismatch, FieldMismatch, ZeroVector
from kakeya.projgeom import (
    PointSet,
    ProjPoint,
    Subspace,
    affine_coords,
    meet,
    point_from_affine,
    points_on,
    span,
    span_point,
)
from kakeya.scalar import PrimeField, RationalField, RealField

F7 = PrimeField(7)
QQ = RationalField()


def P(fld, *coords):
    return ProjPoint([fld(c) for c in coords])


def test_point_normalizes_first_nonzero_to_one():
    p = P(F7, 0, 3, 5)
    assert [c.value for c in p.coords] == [0, 1, 4]


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        P(QQ, 0, 0, 0)


def test_point_equality_ignores_scale():
    assert P(QQ, 2, 4, 6) == P(QQ, 1, 2, 3)
    assert P(QQ, 1, 2, 3) != P(QQ, 1, 2, 4)


def test_point_equality_guards_ambient_and_field():
    with pytest.raises(AmbientMismatch):
        P(QQ, 1, 2) == P(QQ, 1, 2, 3)
    with pytest.raises(FieldMismatch):
        P(QQ, 1, 2, 3) == P(F7, 1, 2, 3)


def test_affine_round_trip():
    p = point_from_affine(QQ, [3, -2])
    assert affine_coords(p) == (QQ(3), QQ(-2))
    with pytest.raises(ZeroVector):
        affine_coords(P(QQ, 1, 0, 0))


def test_span_of_two_points_is_a_line():
    a, b = P(F7, 1, 0, 0), P(F7, 0, 1, 0)
    line = Subspace.from_points([a, b])
    assert line.proj_dim == 1
    assert line.contains(P(F7, 1, 1, 0))
    assert not line.contains(P(F7, 0, 0, 1))


def test_from_equations_matches_containment():
    # the plane x0 + x1 + x2 = 0 over the rationals
    s = Subspace.from_equations(QQ, 2, [[QQ(1), QQ(1), QQ(1)]])
    assert s.proj_dim == 1
    assert s.contains(P(QQ, 1, -1, 0))
    assert not s.contains(P(QQ, 1, 1, 1))


def test_meet_of_plane_lines():
    from fractions import Fraction

    l1 = Subspace.from_points([P(QQ, 0, 0, 1), P(QQ, 1, 1, 1)])
    l2 = Subspace.from_points([P(QQ, 1, 0, 1), P(QQ, 0, 1, 1)])
    cut = meet(l1, l2)
    assert cut.proj_dim == 0
    # y = x meets x + y = 1 at (1/2, 1/2)
    half = Fraction(1, 2)
    assert ProjPoint(cut.basis[0]) == point_from_affine(QQ, [half, half])


def test_meet_of_skew_lines_is_empty():
    l1 = Subspace.from_points([P(QQ, 1, 0, 0, 0), P(QQ, 0, 1, 0, 0)])
    l2 = Subspace.from_points([P(QQ, 0, 0, 1, 0), P(QQ, 0, 0, 0, 1)])
    assert meet(l1, l2).is_empty
    assert meet(l1, l2).proj_dim == -1


def test_span_and_meet_dimension_formula():
    # dim(span) + dim(meet) = dim(a) + dim(b) for flats in general position checks
    rng = random.Random(99)
    for _ in range(40):
        pts_a = [P(F7, *[rng.randrange(7) for _ in range(4)]) for _ in range(2)]
        pts_b = [P(F7, *[rng.randrange(7) for _ in range(4)]) for _ in range(2)]
        try:
            a = Subspace.from_points(pts_a)
            b = Subspace.from_points(pts_b)
        except ZeroVector:
            continue
        s = span(a, b)
        m = meet(a, b)
        assert s.proj_dim + m.proj_dim == a.proj_dim + b.proj_dim


def test_meet_result_is_contained_in_both():
    rng = random.Random(7)
    for _ in range(30):
        a = Subspace.from_vectors(
            F7, 3, [[F7(rng.randrange(7)) for _ in range(4)] for _ in range(3)]
        )
        b = Subspace.from_vectors(
            F7, 3, [[F7(rng.randrange(7)) for _ in range(4)] for _ in range(3)]
        )
        cut = meet(a, b)
        for row in cut.basis:
            p = ProjPoint(list(row))
            assert a.contains(p) and b.contains(p)


def test_span_point_adds_a_dimension_outside():
    line = Subspace.from_points([P(QQ, 1, 0, 0), P(QQ, 0, 1, 0)])
    grown = span_point(P(QQ, 0, 0, 1), line)
    assert grown.proj_dim == 2
    same = span_point(P(QQ, 1, 1, 0), line)
    assert same.proj_dim == 1


def test_points_on_lists_incident_positions():
    line = Subspace.from_points([P(F7, 1, 2, 1), P(F7, 0, 1, 3)])
    on = ProjPoint([a + b for a, b in zip(P(F7, 1, 2, 1).coords, P(F7, 0, 1, 3).coords)])
    assert points_on(line, [P(F7, 0, 0, 1), on, P(F7, 2, 4, 2), P(F7, 1, 0, 0)]) == [1, 2]


@pytest.mark.parametrize("fld", [F7, RealField(1e-9)], ids=["exact", "real"])
def test_point_set_keeps_first_of_equal_points(fld):
    pts = PointSet(fld)
    assert pts.add(P(fld, 1, 2, 1))
    assert not pts.add(P(fld, 2, 4, 2))
    assert pts.setdefault(P(fld, 0, 1, 0), "b") == "b"
    assert pts.setdefault(P(fld, 0, 3, 0), "c") == "b"
    assert len(pts) == 2 and pts.labels == [0, "b"]


def test_real_point_set_uses_the_tolerance():
    fld = RealField(1e-9)
    pts = PointSet(fld, [ProjPoint([fld(0.5), fld(0.25), fld(1.0)])])
    assert not pts.add(ProjPoint([fld(0.5), fld(0.25 + 1e-12), fld(1.0)]))
    assert pts.add(ProjPoint([fld(0.5), fld(0.25 + 1e-6), fld(1.0)]))


def test_subspace_equality_is_canonical():
    a = Subspace.from_points([P(QQ, 1, 1, 0), P(QQ, 0, 0, 1)])
    b = Subspace.from_points([P(QQ, 1, 1, 1), P(QQ, 2, 2, 1)])
    assert a == b


def test_real_tolerance_containment():
    fld = RealField(1e-9)
    line = Subspace.from_points(
        [ProjPoint([fld(1.0), fld(0.0), fld(1.0)]), ProjPoint([fld(0.0), fld(1.0), fld(1.0)])]
    )
    wobble = ProjPoint([fld(0.5), fld(0.5 + 1e-12), fld(1.0)])
    assert line.contains(wobble)
    off = ProjPoint([fld(0.5), fld(0.6), fld(1.0)])
    assert not line.contains(off)
