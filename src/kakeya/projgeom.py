"""Projective points and flats with canonical coordinates.

Points are homogeneous coordinate vectors of field values scaled so the
first nonzero coordinate is one.  Flats (subspaces) are stored as the
reduced row echelon basis of their span, which is unique for a given
flat, so two flats are equal exactly when their stored bases match.  The empty flat
(projective dimension -1) is a first-class value returned by meets of
disjoint flats.

The affine chart used throughout the package treats the last coordinate
as the homogenizing one: points with last coordinate zero are "at
infinity", all others correspond to affine points.
"""

from __future__ import annotations

from functools import cache
from math import floor
from operator import mul

from .errors import AmbientMismatch, FieldMismatch, ZeroVector, need
from .linalg import reduce_vector, rref
from .linalg import nullspace as _nullspace
from .scalar import Field


class ProjPoint:
    """A projective point over a field; construction normalizes the coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        coords = tuple(coords)
        lead = next((i for i, c in enumerate(coords) if not field.is_zero(c)), None)
        if lead is None:
            raise ZeroVector("a projective point needs a nonzero coordinate")
        inv, mul = field.inv(coords[lead]), field.mul
        rest = tuple(mul(c, inv) for c in coords[lead + 1 :])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", (field.zero,) * lead + (field.one,) + rest)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def _peer(self, other: "ProjPoint"):
        if other.field != self.field:
            raise FieldMismatch("points from different fields")
        if len(other.coords) != len(self.coords):
            raise AmbientMismatch("points from different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        self._peer(other)
        return all(map(self.field.eq, self.coords, other.coords))

    def __hash__(self):
        if not self.field.exact:
            raise TypeError("real-kind points compare up to tolerance and are unhashable")
        return hash((self.field, self.coords))

    def __repr__(self):
        return "ProjPoint(" + ", ".join(self.to_json()) + ")"

    def to_json(self) -> list[str]:
        return [self.field.to_str(c) for c in self.coords]

    @classmethod
    def _canonical(cls, field: Field, coords: tuple) -> "ProjPoint":
        """The point with these coordinates, which the caller knows to be normalized, taken as they are."""
        p = object.__new__(cls)
        object.__setattr__(p, "field", field)
        object.__setattr__(p, "coords", coords)
        return p

    @classmethod
    def from_json(cls, field: Field, doc) -> "ProjPoint":
        """The point a JSON list of coordinate strings holds; over F_p and Q kept as read when its first nonzero coordinate is 1."""
        coords = tuple(field.values_from_json(doc, "point"))
        if field.exact and next(filter(None, coords), None) == 1:
            return cls._canonical(field, coords)
        return cls(field, coords)


def affine_coords(p: ProjPoint) -> tuple:
    """Dehomogenize against the last coordinate."""
    fld = p.field
    if fld.is_zero(p.coords[-1]):
        raise ZeroVector("point at infinity has no affine coordinates")
    inv = fld.inv(p.coords[-1])
    return tuple(fld.mul(c, inv) for c in p.coords[:-1])


def point_from_affine(field: Field, coords) -> ProjPoint:
    """The point with the given affine coordinates, each canonicalized by field(c)."""
    return ProjPoint(field, [field(c) for c in coords] + [field.one])


class Subspace:
    """A projective flat stored by its canonical row-echelon basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim + 1:
                raise AmbientMismatch("vector length does not match ambient dimension")
        rows, pivots = rref(vectors, field)
        return cls(field, ambient_dim, rows, pivots)

    @classmethod
    def empty(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [], [])

    @classmethod
    def from_equations(cls, field: Field, ambient_dim: int, eq_rows) -> "Subspace":
        """Flat cut out by homogeneous linear equations (coefficient rows)."""
        rows = [list(r) for r in eq_rows]
        vectors = _nullspace(rows, field, ambient_dim + 1)
        if not vectors:
            return cls.empty(field, ambient_dim)
        return cls.from_vectors(field, ambient_dim, vectors)

    @property
    def proj_dim(self) -> int:
        return len(self.basis) - 1

    def contains(self, p: ProjPoint) -> bool:
        if p.field != self.field:
            raise FieldMismatch("point from a different field")
        if p.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("point from a different ambient space")
        residual = reduce_vector(p.coords, self.basis, self.pivots, self.field)
        if self.field.exact:
            return all(map(self.field.is_zero, residual))
        tol = self.field.tol
        return all(abs(x) <= tol for x in residual)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        _check_pair(self, other)
        if len(other.basis) != len(self.basis) or other.pivots != self.pivots:
            return False
        eq = self.field.eq
        return all(all(map(eq, ra, rb)) for ra, rb in zip(self.basis, other.basis))

    def __hash__(self):
        if not self.field.exact:
            raise TypeError("real-kind flats compare up to tolerance and are unhashable")
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        rows = "; ".join(" ".join(row) for row in self.to_json())
        return f"Subspace(dim={self.proj_dim}: {rows})"

    def to_json(self) -> list[list[str]]:
        return [[self.field.to_str(c) for c in row] for row in self.basis]

    @classmethod
    def from_json(cls, field: Field, ambient_dim: int, doc) -> "Subspace":
        """The flat a JSON list of rows of coordinate strings spans.

        Over F_p and Q rows already reduced (each of the right length, led by a 1 after the previous
        row's lead, zero at the later leads) are kept as read; all others go through from_vectors.
        """
        rows = [field.values_from_json(row, "flat row") for row in need(doc, list, "flat")]
        if field.exact:
            pivots = _reduced_pivots(rows, ambient_dim + 1)
            if pivots is not None:
                return cls(field, ambient_dim, rows, pivots)
        return cls.from_vectors(field, ambient_dim, rows)


def _reduced_pivots(rows: list, width: int) -> list | None:
    """The lead columns of exact rows of this width already in reduced echelon form; None for any other rows."""
    pivots = []
    for r in rows:
        k = r.index(1) if len(r) == width and 1 in r else -1
        if k <= (pivots[-1] if pivots else -1) or any(r[:k]):
            return None
        pivots.append(k)
    if any(r[k] for i, r in enumerate(rows) for k in pivots[i + 1 :]):
        return None
    return pivots


class PointSet:
    """Distinct projective points of one field and one ambient space, each kept under the label it was first added with.

    Exact fields key a dict on the canonical coordinates and keep, per
    column pair (lead, k > lead), the values stored points with that lead
    take at k.  Real points equal up to tol < 1 share their lead and lie
    within tol at every column (tol / (1 - 2^-53) before rounding), so
    the sums s = sum(alpha_k c_k) of two equal points, over m coordinates
    with weights alpha_k = 1 + frac(k phi) in [1, 2) of sum A, lie within
    tol A.  Each real point is filed under (lead, floor(s / 4 tol A)) on
    its computed s, and a lookup probes the buckets that the window
    (s - r, s + r) / (4 tol A) meets, r = tol A + m A max|c_k| 2^-48.  The
    second term bounds the float rounding, for m < 2^20: of s for either
    point (at most 1.01 m 2^-53 A max|c_k| each, as max|c_k| >= 1), of the
    window's ends and of r itself.  So the window holds the bucket of
    every equal stored point, and it meets at most two buckets when
    r < 2 tol A; when it does not (max|c_k| >= tol 2^48 / m, or a value
    that is not finite), every stored point with p's lead is compared.  The
    earliest equal point wins.  Real points are also listed, as (position,
    coordinates), under their lead column, which on() filters a line's
    candidates by.
    """

    def __init__(self, field: Field, points=()):
        self.field = field
        self.items: list[ProjPoint] = []
        self.labels: list = []
        self._index: dict = {}
        self._values: dict[tuple[int, int], set] = {}
        self._leads: dict[int, list] = {}
        for p in points:
            self.add(p)

    def __len__(self) -> int:
        return len(self.items)

    def setdefault(self, p: ProjPoint, label):
        """Label of the stored point equal to p; stores p under label when there is none."""
        new, coords = len(self.items), p.coords
        lead = coords.index(p.field.one)
        if self.field.exact:
            i = self._index.setdefault(coords, new)
            if i == new:
                for k in range(lead + 1, len(coords)):
                    self._values.setdefault((lead, k), set()).add(coords[k])
        else:
            weights, w, tol_a, slop = _real_key(len(coords), self.field.tol)
            s = sum(map(mul, weights, coords))
            r = tol_a + slop * max(map(abs, coords))
            lo, hi = (s - r) / w, (s + r) / w
            if hi - lo < 1:  # false for NaN, inf and overflow
                near = (j for b in range(floor(lo), floor(hi) + 1) for j in self._index.get((lead, b), ()))
            else:
                near = (j for j, _ in self._leads.get(lead, ()))
            i = min((j for j in near if p == self.items[j]), default=new)
            if i == new:
                if (x := s / w) - x == 0:  # x finite; a window wider than a bucket scans the lead instead
                    self._index.setdefault((lead, floor(x)), []).append(new)
                self._leads.setdefault(lead, []).append((new, coords))
        if i == new:
            self.items.append(p)
            self.labels.append(label)
        return self.labels[i]

    def add(self, p: ProjPoint) -> bool:
        """Store p unless an equal point is stored; True when p was new."""
        new = len(self.items)
        self.setdefault(p, new)
        return len(self.items) > new

    def on(self, line: Subspace) -> list:
        """Labels of the stored points lying on the flat, in the order stored.

        Take a line with reduced basis (r0, r1) and pivot columns (c0, c1).
        Over an exact field it holds r1 and the points r0 + b * r1,
        canonical as they stand, with lead c0 and coordinate c1 equal to
        b; only the b some stored point takes in the slot (c0, c1) are
        looked up.  Over the reals only the points _near the line are
        confirmed with Subspace.contains.  Other flats test every stored
        point (points_on).  The stored points are taken to be of the
        line's field and length, as the loaders make every file's.
        """
        fld = line.field
        if line.proj_dim != 1:
            return [self.labels[i] for i in points_on(line, self.items)]
        if not fld.exact:
            return [self.labels[i] for i in self._near(line) if line.contains(self.items[i])]
        (r0, r1), (c0, c1) = line.basis, line.pivots
        comb, get = fld.comb, self._index.get
        found = [get(comb(r0, b, r1)) for b in self._values.get((c0, c1), ())]
        found.append(get(r1))
        return [self.labels[i] for i in sorted(i for i in found if i is not None)]

    def _near(self, line: Subspace) -> list[int]:
        """Ascending positions of stored real points near the line, among them every one contains() accepts.

        Subspace.contains subtracts r0 from a point p with lead c0, then
        d * r1 with d = p[c1] - r0[c1] unless |d| <= tol, so its residual
        at a free column k (neither c0 nor c1) is (p[k] - r0[k]) - d * r1[k],
        or p[k] - r0[k] when r1 is skipped; 2 tol (1 + |r1[k]|) bounds
        both.  A point with lead c1 leaves p[k] - r1[k], the same form with
        r0 replaced by r1 and r1 by zero.  A point with any other lead L
        keeps a residual of 1 at L unless the basis is nonzero there (rref
        leaves entries of at most tol uneliminated), so such leads are
        listed unfiltered.  A NaN in the test passes it.
        """
        (r0, r1), (c0, c1) = line.basis, line.pivots
        free = [k for k in reversed(range(len(r0))) if k not in (c0, c1)]  # high columns discriminate: test them first
        tol2, found = 2 * line.field.tol, []
        for lead, base, slope, shift in ((c0, r0, r1, r0[c1]), (c1, r1, (0.0,) * len(r1), 0.0)):
            near = self._leads.get(lead, [])
            for k in free:
                a, b = base[k], slope[k]
                w = tol2 * (1 + abs(b))
                near = [(i, p) for i, p in near if not abs(p[k] - a - (p[c1] - shift) * b) > w]
            found += (i for i, _ in near)
        others = [L for L in range(c1) if L != c0 and (r1[L] or L < c0 and r0[L])]
        found += (i for L in others for i, _ in self._leads.get(L, ()))
        return sorted(found)


@cache
def _real_key(m: int, tol: float) -> tuple[tuple[float, ...], float, float, float]:
    """PointSet's real key over m coordinates: the weights, the bucket width 4 tol A, tol A and the slop m A 2^-48."""
    weights = tuple(1 + k * 0.6180339887498949 % 1 for k in range(m))
    a = sum(weights)
    return weights, 4 * tol * a, tol * a, m * a * 2.0**-48


def points_on(line: Subspace, points) -> list[int]:
    """Positions of the points lying on the flat, each tested with Subspace.contains.

    The scan PointSet.on runs for flats that are not lines; it makes
    len(points) tests.
    """
    return [i for i, p in enumerate(points) if line.contains(p)]


def incidence(field: Field, lines, points) -> tuple[list[int], list[list[int]]]:
    """Which distinct points lie on which line, as the pair (first, on).

    first[i] is the position of the first point equal to point i, so the
    distinct points are the i with first[i] == i; on[l] lists, ascending,
    the positions of the points on lines[l], repeated points included.
    Each line is matched once against the distinct points by PointSet.on.
    """
    seen = PointSet(field)
    first = [seen.setdefault(p, i) for i, p in enumerate(points)]
    copies: dict[int, list[int]] = {}
    for i, f in enumerate(first):
        copies.setdefault(f, []).append(i)
    return first, [sorted(i for f in seen.on(line) for i in copies[f]) for line in lines]


def _check_pair(a, b):
    if a.field != b.field:
        raise FieldMismatch("flats from different fields")
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("flats from different ambient spaces")


def span(a: ProjPoint | Subspace, b: ProjPoint | Subspace) -> Subspace:
    """Smallest flat containing both arguments, each a point (its coordinates) or a flat (its basis rows)."""
    _check_pair(a, b)
    rows = [r for x in (a, b) for r in ((x.coords,) if isinstance(x, ProjPoint) else x.basis)]
    return Subspace.from_vectors(a.field, a.ambient_dim, rows)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two flats (possibly the empty flat).

    Uses the doubled-block elimination trick: rows [u | u] for u in a and
    [v | 0] for v in b are reduced together; reduced rows whose pivot
    falls in the right block have left half zero, and their right halves
    span the intersection.
    """
    _check_pair(a, b)
    d = a.ambient_dim + 1
    rows = [r + r for r in a.basis] + [r + (a.field.zero,) * d for r in b.basis]
    red, pivots = rref(rows, a.field)
    inter = [row[d:] for row, p in zip(red, pivots) if p >= d]
    if not inter:
        return Subspace.empty(a.field, a.ambient_dim)
    return Subspace.from_vectors(a.field, a.ambient_dim, inter)


@cache
def at_infinity(field: Field, ambient_dim: int) -> Subspace:
    """The hyperplane at infinity (last coordinate zero), built once per field and dimension."""
    return Subspace.from_equations(field, ambient_dim, [[field.zero] * ambient_dim + [field.one]])


def infinite_point(flat: Subspace) -> ProjPoint | None:
    """Where the flat meets the hyperplane at infinity; None when that is not one point.

    Over F_p and Q a line with reduced basis (r0, r1) meets it in r1[n] r0 - r0[n] r1, or lies
    in it when both last entries are zero; the reals (whose files keep meet's bits) and other
    flats meet at_infinity.  Builders ask this; the audits (seed_report, verify_directions) work
    the point out themselves, so a fault here cannot hide from them.
    """
    fld = flat.field
    if fld.exact and flat.proj_dim == 1:
        (r0, r1), mul = flat.basis, fld.mul
        return ProjPoint(fld, [fld.sub(mul(r1[-1], x), mul(r0[-1], y)) for x, y in zip(r0, r1)]) if r0[-1] or r1[-1] else None
    cut = meet(flat, at_infinity(fld, flat.ambient_dim))
    return ProjPoint(cut.field, cut.basis[0]) if cut.proj_dim == 0 else None
