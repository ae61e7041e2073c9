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

from functools import cache, partial
from math import floor
from operator import mul, sub

from .errors import AmbientMismatch, FieldMismatch, ZeroVector, need
from .linalg import reduce_vector, rref
from .linalg import nullspace as _nullspace
from .scalar import Field, Memo


class ProjPoint:
    """A projective point over a field; construction normalizes the coordinates.

    Over F_p and Q one pass scales every coordinate by the inverse of the first nonzero one (mod p
    over F_p), and points are equal when their coordinate tuples are; the reals compare up to tol.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        coords, exact = tuple(coords), field.exact
        lead = next(filter(None, coords) if exact else (i for i, c in enumerate(coords) if not abs(c) <= field.tol), None)
        if lead is None:
            raise ZeroVector("a projective point needs a nonzero coordinate")
        if exact:  # lead is the first nonzero value
            inv, p = field.one if lead == 1 else field.inv(lead), field.p
            coords = tuple([c * inv % p for c in coords] if p else [c * inv for c in coords])
        else:  # lead is the position of the first value above tol, whose field.inv is 1.0 / it
            inv = 1.0 / coords[lead]
            coords = (0.0,) * lead + (1.0,) + tuple(c * inv for c in coords[lead + 1 :])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def _peer(self, other: "ProjPoint"):
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("points from different fields")
        if len(other.coords) != len(self.coords):
            raise AmbientMismatch("points from different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        self._peer(other)
        return self.coords == other.coords if self.field.exact else _within(self.field.tol, self.coords, other.coords)

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


def _within(tol: float, a, b) -> bool:
    """Whether real coordinates a and b agree up to tol at every pair, as RealField.eq tests (NaN agrees with nothing)."""
    return all(map(tol.__ge__, map(abs, map(sub, a, b))))


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
        object.__setattr__(self, "basis", tuple(map(tuple, rows)))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        vectors = list(vectors)  # rref copies each row itself
        if any(len(v) != ambient_dim + 1 for v in vectors):
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
        """Whether p lies on the flat: its reduce_vector residual is zero (over the reals at most tol) at every entry."""
        fld = self.field
        if p.field is not fld and p.field != fld:
            raise FieldMismatch("point from a different field")
        if len(p.coords) != self.ambient_dim + 1:
            raise AmbientMismatch("point from a different ambient space")
        if fld.exact:
            return all(map(fld.is_zero, reduce_vector(p.coords, self.basis, self.pivots, fld)))
        v, tol = p.coords, fld.tol  # reduce_vector inline on floats; a NaN fails
        for row, c in zip(self.basis, self.pivots):
            if not abs(f := v[c]) <= tol:
                v = [x - f * y for x, y in zip(v, row)]
                v[c] = 0.0
        return all(map(tol.__ge__, map(abs, v)))

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

    Every point is listed, as (position, coordinates), under its lead
    column, the lists on() reads.  Exact fields key a dict on the
    canonical coordinates.  Real points equal up to tol < 1 share their
    lead and lie within tol at every column (tol / (1 - 2^-53) before rounding), so
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
    that is not finite), every stored point with p's lead is compared.
    Candidates are compared inline as ProjPoint.__eq__ compares them (_peer,
    then _within), and the earliest equal point wins.  on() memoizes per key
    in _values, each memo extended at its next use by the points stored
    since: a pivot pair's values b over F_p and Q, and over the reals
    _near's first-column strips, which read the line only through their key.
    """

    def __init__(self, field: Field, points=()):
        self.field = field
        self.items: list[ProjPoint] = []
        self.labels: list = []
        self._index: dict = {}
        self._values: dict[tuple, tuple[set | list, int]] = {}
        self._leads: dict[int, list] = {}
        self._keys = None if field.exact else Memo(partial(_real_key, tol=field.tol))  # per coordinate count
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
        else:
            weights, w, tol_a, slop = self._keys[len(coords)]
            s = sum(map(mul, weights, coords))
            r = tol_a + slop * max(map(abs, coords))
            lo, hi = (s - r) / w, (s + r) / w
            if hi - lo < 1:  # false for NaN, inf and overflow
                near = [j for b in range(floor(lo), floor(hi) + 1) for j in self._index.get((lead, b), ())]
            else:
                near = [j for j, _ in self._leads.get(lead, ())]
            i, tol = new, self.field.tol
            for j in near:  # p == q inline, the earliest equal candidate wins
                p._peer(q := self.items[j])
                if j < i and _within(tol, coords, q.coords):
                    i = j
            if i == new and (x := s / w) - x == 0:  # x finite; a window wider than a bucket scans the lead instead
                self._index.setdefault((lead, floor(x)), []).append(new)
        if i == new:
            self.items.append(p)
            self.labels.append(label)
            self._leads.setdefault(lead, []).append((new, coords))
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
        looked up, in rows built column by column on raw values (mod p
        over F_p): column k holds r0[k] + b * r1[k] for every such b.  The set of
        those b is kept per (c0, c1) and takes in, at each call, the points
        of lead c0 stored since the last call for that pair.  Over the reals
        only the points _near the line, from kept strips, are confirmed
        with Subspace.contains.  Other flats test every stored point
        (points_on).  The stored points are taken to be of the line's
        field and length, as the loaders make every file's.
        """
        fld = line.field
        if line.proj_dim != 1:
            return [self.labels[i] for i in points_on(line, self.items)]
        if not fld.exact:
            return [self.labels[i] for i in self._near(line) if line.contains(self.items[i])]
        (r0, r1), (c0, c1), p = line.basis, line.pivots, fld.p
        stored, (values, done) = self._leads.get(c0, ()), self._values.get((c0, c1), (set(), 0))
        values.update([q[c1] for _, q in stored[done:]])
        self._values[c0, c1] = values, len(stored)
        cols = [
            ([(x + y * b) % p for b in values] if p else [x + y * b for b in values]) if y else (x,) * len(values)
            for x, y in zip(r0, r1)
        ]
        found = [*map(self._index.get, zip(*cols)), self._index.get(r1)]
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

        The first free column k reads of the line only the key (lead, c1, k,
        a, b, shift), so lines with equal keys keep the same strip there (of
        the lead's pairs, not copies), which each line then filters on its
        other free columns.  As dict keys 0.0 equals -0.0, whose sign only a
        zero difference or product carries and abs() drops; a NaN matches
        only its own object.
        """
        (r0, r1), (c0, c1) = line.basis, line.pivots
        free = [k for k in reversed(range(len(r0))) if k not in (c0, c1)]  # high columns discriminate: test them first
        tol2, found = 2 * line.field.tol, []

        def keep(near, k, a, b, shift):
            w = tol2 * (1 + abs(b))
            return [e for e in near if not abs((p := e[1])[k] - a - (p[c1] - shift) * b) > w]

        for lead, base, slope, shift in ((c0, r0, r1, r0[c1]), (c1, r1, (0.0,) * len(r1), 0.0)):
            near = self._leads.get(lead, [])
            if near and free:  # the first column's strip, kept per key and extended by the points stored since
                k = free[0]
                key = (lead, c1, k, base[k], slope[k], shift)
                strip, done = self._values.get(key, ([], 0))
                strip += keep(near[done:], k, base[k], slope[k], shift)
                self._values[key] = strip, len(near)
                near = strip
            for k in free[1:]:
                near = keep(near, k, base[k], slope[k], shift)
            found += (i for i, _ in near)
        others = [L for L in range(c1) if L != c0 and (r1[L] or L < c0 and r0[L])]
        found += (i for L in others for i, _ in self._leads.get(L, ()))
        return sorted(found)


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


def incidence(field: Field, lines, points) -> tuple[list[int], list[list[int]], list[int]]:
    """Which distinct points lie on which line, as (first, on, counts).

    first[i] is the position of the first point equal to point i, so the
    distinct points are the i with first[i] == i; on[l] lists, ascending,
    the positions of the points on lines[l], repeated points included;
    counts[l] is the number of distinct points on lines[l].
    Each line is matched once by PointSet.on, whose labels are on[l] itself unless some point repeats.
    """
    seen = PointSet(field)
    first = [seen.setdefault(p, i) for i, p in enumerate(points)]
    labels = [seen.on(line) for line in lines]
    counts = list(map(len, labels))
    if len(seen) == len(first):
        return first, labels, counts
    copies: dict[int, list[int]] = {}
    for i, f in enumerate(first):
        copies.setdefault(f, []).append(i)
    return first, [sorted(i for f in on_line for i in copies[f]) for on_line in labels], counts


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
