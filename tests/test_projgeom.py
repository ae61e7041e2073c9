"""Projective points, subspaces, span and meet."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kakeya.errors import AmbientMismatch, FieldMismatch, ZeroVector
from kakeya.projgeom import (
    PointSet,
    ProjPoint,
    Subspace,
    affine_coords,
    at_infinity,
    infinite_point,
    meet,
    point_from_affine,
    points_on,
    span,
)
from kakeya.scalar import PrimeField, RationalField, RealField

F7 = PrimeField(7)
QQ = RationalField()


def P(fld, *coords):
    return ProjPoint(fld, [fld(c) for c in coords])


def test_point_normalizes_first_nonzero_to_one():
    p = P(F7, 0, 3, 5)
    assert p.coords == (0, 1, 4)


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        P(QQ, 0, 0, 0)


def _one_class(objs):
    """Equal objects hash equal and collapse to one set entry."""
    assert all(a == b and hash(a) == hash(b) for a in objs for b in objs)
    assert len(set(objs)) == 1


def test_point_equality_ignores_scale():
    assert P(QQ, 2, 4, 6) == P(QQ, 1, 2, 3)
    assert P(QQ, 1, 2, 3) != P(QQ, 1, 2, 4)
    # int and Fraction representatives of the same rational point
    rational = [
        P(QQ, 2, 4, 6),
        P(QQ, Fraction(1, 3), Fraction(2, 3), 1),
        point_from_affine(QQ, [Fraction(1, 3), Fraction(2, 3)]),
        ProjPoint(QQ, [1, 2, 3]),
        ProjPoint(QQ, [Fraction(4, 2), Fraction(4), Fraction(6)]),
    ]
    assert all(isinstance(c, Fraction) for c in ProjPoint(QQ, [2, 4, 6]).coords)
    prime = [P(F7, 2, 4, 6), P(F7, 1, 2, 3), P(F7, 9, 18, 27), point_from_affine(F7, [5, 3])]
    for objs in (rational, prime):
        _one_class(objs)
        assert len(PointSet(objs[0].field, objs)) == 1


def test_point_equality_guards_ambient_and_field():
    with pytest.raises(AmbientMismatch):
        P(QQ, 1, 2) == P(QQ, 1, 2, 3)
    with pytest.raises(FieldMismatch):
        P(QQ, 1, 2, 3) == P(F7, 1, 2, 3)


@pytest.mark.parametrize("fld, other", [(F7, QQ), (RealField(1e-9), RealField(1e-6)), (RealField(1e-9), F7)])
def test_contains_guards_ambient_and_field(fld, other):
    # an equal field held by another object is the same field; a different one, or another length, is refused
    line = span(ProjPoint(fld, [fld(1), fld(0), fld(0)]), ProjPoint(fld, [fld(0), fld(0), fld(1)]))
    twin = type(fld)(*([fld.p] if fld.p else [fld.tol]))
    assert twin is not fld and line.contains(ProjPoint(twin, [twin(1), twin(0), twin(1)]))
    with pytest.raises(FieldMismatch):
        line.contains(ProjPoint(other, [other(1), other(0), other(1)]))
    with pytest.raises(AmbientMismatch):
        line.contains(ProjPoint(fld, [fld(1), fld(0), fld(0), fld(1)]))


def test_not_equal_is_the_negated_eq():
    p, q = P(F7, 1, 2, 3), P(QQ, 1, 2, 3)
    s, t = span(p, P(F7, 0, 1, 0)), span(q, P(QQ, 0, 1, 0))
    for a, b in ((p, q), (s, t)):
        with pytest.raises(FieldMismatch):
            a != b
        assert a != "x"
        assert not (a != a)
    assert p != P(F7, 1, 2, 4) and s != span(p, P(F7, 0, 0, 1))
    with pytest.raises(AmbientMismatch):
        s != span(P(F7, 1, 2, 3, 1), P(F7, 0, 1, 0, 0))


def test_affine_round_trip():
    p = point_from_affine(QQ, [3, -2])
    assert affine_coords(p) == (QQ(3), QQ(-2))
    assert affine_coords(point_from_affine(F7, [7, 8])) == (0, 1)
    with pytest.raises(ZeroVector):
        affine_coords(P(QQ, 1, 0, 0))


def test_span_of_two_points_is_a_line():
    a, b = P(F7, 1, 0, 0), P(F7, 0, 1, 0)
    line = Subspace.from_vectors(F7, 2, [a.coords, b.coords])
    assert line.proj_dim == 1
    assert line.contains(P(F7, 1, 1, 0))
    assert not line.contains(P(F7, 0, 0, 1))
    assert span(a, b) == line


def test_from_equations_matches_containment():
    # the plane x0 + x1 + x2 = 0 over the rationals
    s = Subspace.from_equations(QQ, 2, [[QQ.one, QQ.one, QQ.one]])
    assert s.proj_dim == 1
    assert s.contains(P(QQ, 1, -1, 0))
    assert not s.contains(P(QQ, 1, 1, 1))


@pytest.mark.parametrize("fld", [F7, QQ, RealField()], ids=["F_7", "Q", "reals"])
def test_from_equations_with_n_plus_one_independent_equations_is_the_empty_flat(fld):
    eqs = [[fld.one if j == i else fld.zero for j in range(4)] for i in range(4)]
    eqs[3][0] = fld(2)  # still independent: the rows stay triangular with a nonzero diagonal
    flat = Subspace.from_equations(fld, 3, eqs)
    assert flat == Subspace.empty(fld, 3) and flat.proj_dim == -1


def test_points_and_flats_refuse_attribute_assignment():
    p = P(F7, 1, 2, 3)
    line = Subspace.from_vectors(F7, 2, [[1, 0, 0], [0, 1, 1]])
    for record, name, value in ((p, "coords", (1, 0, 0)), (p, "field", QQ), (line, "basis", ()), (line, "pivots", ())):
        with pytest.raises(AttributeError, match=f"{type(record).__name__} is immutable"):
            setattr(record, name, value)
    assert p == P(F7, 1, 2, 3) and line.basis == ((1, 0, 0), (0, 1, 1)) and line.pivots == (0, 1)


def test_meet_of_plane_lines():
    l1 = span(P(QQ, 0, 0, 1), P(QQ, 1, 1, 1))
    l2 = span(P(QQ, 1, 0, 1), P(QQ, 0, 1, 1))
    cut = meet(l1, l2)
    assert cut.proj_dim == 0
    # y = x meets x + y = 1 at (1/2, 1/2)
    half = Fraction(1, 2)
    assert ProjPoint(QQ, cut.basis[0]) == point_from_affine(QQ, [half, half])


def test_meet_of_skew_lines_is_empty():
    l1 = span(P(QQ, 1, 0, 0, 0), P(QQ, 0, 1, 0, 0))
    l2 = span(P(QQ, 0, 0, 1, 0), P(QQ, 0, 0, 0, 1))
    assert meet(l1, l2).proj_dim == -1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_infinite_point_is_the_meet_with_infinity(data):
    fld = data.draw(st.sampled_from([PrimeField(2), PrimeField(3), F7, QQ]))
    n = data.draw(st.integers(1, 4))
    value = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)) if fld is QQ else st.integers(0, 6)
    rows = [[fld(data.draw(value)) for _ in range(n + 1)] for _ in range(2)]
    shape = data.draw(st.sampled_from(["random", "inside infinity", "pivot at the last column"]))
    if shape == "inside infinity":
        rows[0][-1] = rows[1][-1] = fld.zero
    elif shape == "pivot at the last column":
        rows[1] = [fld.zero] * n + [fld.one]
    line = Subspace.from_vectors(fld, n, rows)
    assume(line.proj_dim == 1)
    cut = meet(line, at_infinity(fld, n))
    assert infinite_point(line) == (ProjPoint(fld, cut.basis[0]) if cut.proj_dim == 0 else None)


def test_span_and_meet_dimension_formula():
    # dim(span) + dim(meet) = dim(a) + dim(b) for flats in general position checks
    rng = random.Random(99)
    for _ in range(40):
        pts_a = [P(F7, *[rng.randrange(7) for _ in range(4)]) for _ in range(2)]
        pts_b = [P(F7, *[rng.randrange(7) for _ in range(4)]) for _ in range(2)]
        a, b = span(*pts_a), span(*pts_b)
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
            p = ProjPoint(F7, row)
            assert a.contains(p) and b.contains(p)


def test_span_point_adds_a_dimension_outside():
    line = span(P(QQ, 1, 0, 0), P(QQ, 0, 1, 0))
    grown = span(P(QQ, 0, 0, 1), line)
    assert grown.proj_dim == 2
    same = span(P(QQ, 1, 1, 0), line)
    assert same.proj_dim == 1


def test_points_on_lists_incident_positions():
    line = span(P(F7, 1, 2, 1), P(F7, 0, 1, 3))
    on = ProjPoint(F7, [F7.add(a, b) for a, b in zip(P(F7, 1, 2, 1).coords, P(F7, 0, 1, 3).coords)])
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
    pts = PointSet(fld, [ProjPoint(fld, [0.5, 0.25, 1.0])])
    assert not pts.add(ProjPoint(fld, [0.5, 0.25 + 1e-12, 1.0]))
    assert pts.add(ProjPoint(fld, [0.5, 0.25 + 1e-6, 1.0]))


def test_subspace_equality_is_canonical():
    a = span(P(QQ, 1, 1, 0), P(QQ, 0, 0, 1))
    b = span(P(QQ, 1, 1, 1), P(QQ, 2, 2, 1))
    assert a == b
    c = Subspace.from_vectors(QQ, 2, [[2, 2, 0], [Fraction(1, 2), Fraction(1, 2), 3]])
    _one_class([a, b, c])
    d = span(P(F7, 1, 1, 0), P(F7, 0, 0, 1))
    e = span(P(F7, 1, 1, 1), P(F7, 3, 3, 5))
    f = Subspace.from_vectors(F7, 2, [[3, 3, 0], [2, 2, 4]])
    _one_class([d, e, f])


def test_real_tolerance_containment():
    fld = RealField(1e-9)
    line = span(ProjPoint(fld, [1.0, 0.0, 1.0]), ProjPoint(fld, [0.0, 1.0, 1.0]))
    wobble = ProjPoint(fld, [0.5, 0.5 + 1e-12, 1.0])
    assert line.contains(wobble)
    off = ProjPoint(fld, [0.5, 0.6, 1.0])
    assert not line.contains(off)


def _written(fld, value, k: int) -> str:
    """value as a file may hold it: over F_p shifted by k * p, over Q with numerator and denominator times |k| + 1."""
    if fld is QQ:
        return f"{value.numerator * (abs(k) + 1)}/{value.denominator * (abs(k) + 1)}"
    return str(value + k * fld.p)


def _outcome(make, *args):
    """What make(*args) returns, with the coordinate types of its rows, or the type of the error it raises."""
    try:
        out = make(*args)
    except Exception as exc:
        return type(exc)
    rows = out.basis if isinstance(out, Subspace) else [out.coords]
    return out, getattr(out, "pivots", None), [[(type(c), c) for c in r] for r in rows]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loaders_agree_with_the_full_reduction(data):
    # from_json keeps canonical rows and points as read; every other input must come out as from_vectors and ProjPoint make it
    fld = data.draw(st.sampled_from([PrimeField(5), F7, QQ]))
    n = data.draw(st.integers(2, 4))
    value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)) if fld is QQ else st.integers(0, fld.p - 1)
    vectors = [[fld(data.draw(value)) for _ in range(n + 1)] for _ in range(data.draw(st.integers(0, 3)))]
    rows = [list(r) for r in Subspace.from_vectors(fld, n, vectors).basis]
    shape = data.draw(st.sampled_from(["canonical", "raw", "scaled", "swapped", "uncleared", "zero row", "repeated", "short", "long"]))
    if shape == "raw":
        rows = vectors
    elif shape == "scaled" and rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = [fld.mul(fld(data.draw(st.integers(2, 4))), c) for c in rows[i]]
    elif shape == "swapped" and len(rows) > 1:
        rows[0], rows[-1] = rows[-1], rows[0]
    elif shape == "uncleared" and len(rows) > 1:
        rows[0] = [fld.add(a, b) for a, b in zip(rows[0], rows[-1])]
    elif shape == "zero row":
        rows.insert(data.draw(st.integers(0, len(rows))), [fld.zero] * (n + 1))
    elif shape == "repeated" and rows:
        rows.append(rows[data.draw(st.integers(0, len(rows) - 1))])
    elif shape in ("short", "long") and rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if shape == "short" else rows[i] + [fld.one]
    doc = [[_written(fld, c, data.draw(st.integers(-2, 2))) for c in r] for r in rows]
    parsed = [[fld.from_str(s) for s in r] for r in doc]
    assert _outcome(Subspace.from_json, fld, n, doc) == _outcome(Subspace.from_vectors, fld, n, parsed)

    point = [fld(data.draw(value)) for _ in range(n + 1)]
    if data.draw(st.booleans()) and any(point):
        point = list(ProjPoint(fld, point).coords)
    doc = [_written(fld, c, data.draw(st.integers(-2, 2))) for c in point]
    assert _outcome(ProjPoint.from_json, fld, doc) == _outcome(ProjPoint, fld, [fld.from_str(s) for s in doc])


def test_real_points_are_always_normalized():
    # -0.0 is falsy but no canonical coordinate: a real point read from a file goes through the constructor
    assert ProjPoint.from_json(RealField(1e-9), ["-0.0", "1.0", "0.5"]).to_json() == ["0.0", "1.0", "0.5"]


def _field_mul_point(fld, coords):
    """The normalized coordinates as Field.is_zero, Field.inv and Field.mul give them, coordinate by coordinate."""
    coords = tuple(coords)
    lead = next((i for i, c in enumerate(coords) if not fld.is_zero(c)), None)
    if lead is None:
        raise ZeroVector("zero vector")
    inv = fld.inv(coords[lead])
    return (fld.zero,) * lead + (fld.one,) + tuple(fld.mul(c, inv) for c in coords[lead + 1 :])


_RAW = {
    # ints as callers may pass them: negative, at least p, multiples of p; over Q ints and Fractions mixed
    "F_7": (F7, st.integers(-15, 22)),
    "F_(2^61-1)": (PrimeField(2**61 - 1), st.sampled_from([0, 1, -1, 2**61 - 1, 2**61, 2**62 + 5]) | st.integers(-(2**70), 2**70)),
    "Q": (QQ, st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))),
}


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(_RAW)), data=st.data())
def test_exact_points_normalize_as_field_mul_does(kind, data):
    fld, raw = _RAW[kind]
    n = data.draw(st.integers(1, 4))
    coords = data.draw(st.lists(raw, min_size=n + 1, max_size=n + 1))
    zeros = data.draw(st.integers(0, n + 1))
    coords[:zeros] = [0] * zeros  # leading zeros; all n + 1 make the zero vector
    if zeros <= n and data.draw(st.booleans()):
        coords[zeros] = 1  # a lead already equal to 1
    got = _outcome(ProjPoint, fld, coords)
    assert got == _outcome(lambda f, c: ProjPoint._canonical(f, _field_mul_point(f, c)), fld, coords)
    if not any(coords):
        assert got is ZeroVector
    if not isinstance(got, tuple):
        return  # the same error as the reference: ZeroVector, or DivisionByZero for a lead that is 0 mod p
    p = got[0]
    assert hash(p) == hash(ProjPoint._canonical(fld, _field_mul_point(fld, coords)))
    scale = data.draw(raw.filter(lambda k: k % fld.p if fld.p else k))
    other = data.draw(st.sampled_from([[scale * c for c in coords], data.draw(st.lists(raw, min_size=n + 1, max_size=n + 1))]))
    if any(fld(c) for c in other):
        q = ProjPoint(fld, [fld(c) for c in other])
        assert (p == q) is (q == p) is all(map(fld.eq, p.coords, q.coords))
        assert p != q or hash(p) == hash(q)


def real_edges(tol: float) -> list[float]:
    """Real values at the tolerance's edges and beyond: zero of both signs, +-tol and its float neighbours, inf and NaN."""
    near = [tol, math.nextafter(tol, 0), math.nextafter(tol, 1)]
    return [0.0, -0.0, *near, *(-x for x in near), math.inf, -math.inf, math.nan, 1.0, -1.0]


def _hex(coords) -> list[str]:
    return [float.hex(c) for c in coords]


@settings(max_examples=400, deadline=None)
@given(tol=st.sampled_from([2.0**-20, 1e-9]), data=st.data())
def test_real_points_normalize_bit_for_bit_as_the_field_methods_do(tol, data):
    # ProjPoint finds the lead with abs(c) <= tol and divides by 1.0 / lead inline; the coordinates must be the
    # field-method formula's bit for bit (float.hex tells -0.0 from 0.0 and shows a NaN), and a vector at most tol
    # everywhere (a NaN is above it) must be refused as that formula refuses it
    fld = RealField(tol)
    value = st.sampled_from(real_edges(tol)) | st.floats(-4, 4) | st.floats()
    coords = data.draw(st.lists(value, min_size=1, max_size=5))
    try:
        want = _field_mul_point(fld, coords)
    except ZeroVector:
        with pytest.raises(ZeroVector):
            ProjPoint(fld, coords)
        return
    p = ProjPoint(fld, coords)
    assert _hex(p.coords) == _hex(want)
    moves = st.lists(st.sampled_from(real_edges(tol)[:8]), min_size=len(coords), max_size=len(coords))
    other = data.draw(st.lists(value, min_size=len(coords), max_size=len(coords)) | moves.map(lambda m: [c + d for c, d in zip(p.coords, m)]))
    if any(not fld.is_zero(c) for c in other):
        q = ProjPoint(fld, other)
        assert (p == q) is (q == p) is all(map(fld.eq, p.coords, q.coords))
