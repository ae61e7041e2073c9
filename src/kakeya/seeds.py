"""Planar seed configurations feeding the higher-dimensional construction.

A seed lives in a projective plane with coordinates (c1, c2, c0): the
line at infinity is c0 = 0 and the distinguished point (0, 1, 0) is the
common infinite point of the N distinct parallel measuring lines
m_1..m_N.  A valid seed provides N affine lines with N pairwise distinct
infinite points (none equal to (0, 1, 0)), a point set giving each line
at least N points, and the deficiency numbers epsilon_i defined by

    #(double points of S on m_i) = N/2 - epsilon_i

where a double point is a core point of S lying on two seed lines.
Points added only to top up a line's count are flagged "extra" and stay
out of the epsilon statistics.

Two ready-made families are provided: the tangent lines of a conic over
an odd prime field, and the lines dual to the vertices of a regular
N-gon over the reals.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .errors import DegenerateSeed, MalformedFile, UnsupportedField, need, positive, records
from .projgeom import PointSet, ProjPoint, Subspace, at_infinity, incidence, infinite_point, meet
from .scalar import DEFAULT_REAL_TOLERANCE, Field, PrimeField, RationalField, RealField, field_from_json


class SeedPoint:
    __slots__ = ("point", "extra")

    def __init__(self, point: ProjPoint, extra: bool = False):
        self.point, self.extra = point, extra


class PlanarSeed:
    __slots__ = ("field", "N", "lines", "m_lines", "points", "epsilon", "meta")

    def __init__(
        self, field: Field, N: int, lines: list[Subspace], m_lines: list[Subspace],
        points: list[SeedPoint], epsilon: list[Fraction], meta: dict | None = None,
    ):
        self.field, self.N, self.lines, self.m_lines = field, N, lines, m_lines
        self.points, self.epsilon, self.meta = points, epsilon, {} if meta is None else meta


class SeedReport:
    __slots__ = (
        "N", "line_point_counts", "directions_distinct", "epsilon_stored", "epsilon_measured",
        "epsilon_sorted", "epsilon_sum", "density", "problems", "verdict",
    )

    def __init__(
        self, N: int, line_point_counts: list[int], directions_distinct: bool, epsilon_stored: list[Fraction],
        epsilon_measured: list[Fraction], epsilon_sorted: list[Fraction], epsilon_sum: Fraction, density: Fraction,
        problems: list[str], verdict: str,
    ):
        self.N, self.line_point_counts, self.directions_distinct = N, line_point_counts, directions_distinct
        self.epsilon_stored, self.epsilon_measured, self.epsilon_sorted = epsilon_stored, epsilon_measured, epsilon_sorted
        self.epsilon_sum, self.density, self.problems, self.verdict = epsilon_sum, density, problems, verdict

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "line_point_counts": self.line_point_counts,
            "directions_distinct": self.directions_distinct,
            "epsilon_stored": [str(e) for e in self.epsilon_stored],
            "epsilon_measured": [str(e) for e in self.epsilon_measured],
            "epsilon_sorted": [str(e) for e in self.epsilon_sorted],
            "epsilon_sum": str(self.epsilon_sum),
            "density": str(self.density),
            "problems": list(self.problems),
            "verdict": self.verdict,
        }


def _m_common_point(fld: Field) -> ProjPoint:
    return ProjPoint(fld, [fld.zero, fld.one, fld.zero])


def dual_conic_seed(q: int) -> PlanarSeed:
    """Tangent lines of the conic y = x^2 over F_q (q an odd prime >= 5).

    The tangent at parameter t is y = 2tx - t^2, with infinite point
    (1, 2t, 0); the measuring lines are the verticals x = c through
    (0, 1, 0).  S is the set of all affine points on tangents.  Tangents
    at t1 != t2 meet at ((t1+t2)/2, t1*t2), so the vertical x = c holds
    (q-1)/2 double points and every epsilon_i is 1/2.
    """
    if q < 5 or q % 2 == 0:
        raise UnsupportedField(f"need an odd prime q >= 5, got {q}")
    fld = PrimeField(q)  # raises UnsupportedField when q is composite
    one, zero = fld.one, fld.zero

    lines = []
    for t in range(q):
        lines.append(Subspace.from_equations(fld, 2, [[fld(-2 * t), one, fld(t * t)]]))

    m_lines = [
        Subspace.from_equations(fld, 2, [[one, zero, fld(-c)]]) for c in range(q)
    ]

    seen = PointSet(fld)
    for t in range(q):
        for x in range(q):
            seen.add(ProjPoint(fld, [fld(x), fld(2 * t * x - t * t), one]))
    points = [SeedPoint(p) for p in seen.items]

    seed = PlanarSeed(
        field=fld,
        N=q,
        lines=lines,
        m_lines=m_lines,
        points=points,
        epsilon=[],
        meta={"kind": "dual_conic", "q": q},
    )
    seed.epsilon = _measure_epsilon(seed)
    return seed


def ngon_bisecant_direction(N: int, a: int, b: int) -> tuple[float, float, float]:
    """Infinite point of the chord joining vertices a and b of a regular N-gon.

    Proportional to (-tan(pi*(a+b)/N), 1, 0); returned in the always
    finite form (-sin(psi), cos(psi), 0) with psi = pi*(a+b)/N.
    """
    psi = math.pi * (a + b) / N
    return (-math.sin(psi), math.cos(psi), 0.0)


def _ngon_change_of_frame(N: int) -> list[list[float]]:
    # Orthogonal map sending the dual of the primal infinity line to
    # (0,1,0) and the duals of a safe infinite direction to the new
    # infinity line.  Orthogonality means the same matrix transports
    # both points and line coefficients.
    alpha = math.pi / (4 * N)
    s, c = math.sin(alpha), math.cos(alpha)
    return [[-s, c, 0.0], [0.0, 0.0, 1.0], [c, s, 0.0]]


def _apply(mat: list[list[float]], v: tuple[float, float, float]) -> list[float]:
    return [sum(row[i] * v[i] for i in range(3)) for row in mat]


def regular_ngon_seed(N: int, field: RealField | None = None) -> PlanarSeed:
    """Lines dual to the vertices of a regular N-gon (N >= 5) over the reals.

    Vertices dualize to N lines under the polarity (a, b, c) -> line
    aX + bY + cZ = 0; chords dualize to the pairwise intersections of
    those lines (N - 1 core points per line, one extra point is added
    per line).  The N chord directions dualize to N concurrent lines;
    a change of frame makes them parallel, with common infinite point
    (0, 1, 0).  With the measuring lines ordered by double-point count,
    epsilon is (0,..,0,1,..,1) for even N and constant 1/2 for odd N; a
    tolerance below the float error of the chords misses a double point
    on its measuring line, and a measured epsilon that is not this closed
    form raises DegenerateSeed.
    """
    if not isinstance(N, int) or N < 5:
        raise ValueError(f"need an integer N >= 5, got {N}")
    if field is None:
        field = RealField(DEFAULT_REAL_TOLERANCE)
    if field.kind != "real":
        raise UnsupportedField("the regular polygon seed needs the real field")
    fld = field

    frame = _ngon_change_of_frame(N)
    verts = [
        (math.cos(2 * math.pi * k / N), math.sin(2 * math.pi * k / N), 1.0)
        for k in range(N)
    ]

    def eq_line(old_coeffs):
        w = _apply(frame, old_coeffs)
        return Subspace.from_equations(fld, 2, [[fld(x) for x in w]])

    lines = [eq_line(v) for v in verts]
    m_lines = [eq_line(ngon_bisecant_direction(N, s, 0)) for s in range(N)]

    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    chords = {}
    for a in range(N):
        for b in range(a + 1, N):
            w = _apply(frame, cross(verts[a], verts[b]))
            chords[a, b] = ProjPoint(fld, [fld(x) for x in w])
    points = [SeedPoint(p) for p in chords.values()]

    # one additional point per line: the first point of its walk not yet known,
    # within the step bound of assemble's padding walk (a coarse tol can make
    # every step equal a known point as the walk nears the infinite point)
    known = PointSet(fld, chords.values())
    for idx, line in enumerate(lines):
        base, step = line_walk_start(line)
        for lam in range(4 * N + 1):
            if known.add(cand := walk_point(fld, base, step, lam)):
                break
        else:
            raise DegenerateSeed(f"seed line {idx} has no new point within {4 * N + 1} steps at tolerance {fld.tol}")
        points.append(SeedPoint(cand, extra=True))

    seed = PlanarSeed(
        field=fld,
        N=N,
        lines=lines,
        m_lines=m_lines,
        points=points,
        epsilon=[],
        meta={"kind": "regular_ngon", "N": N},
    )
    seed.epsilon = _measure_epsilon(seed)
    if sorted(seed.epsilon) != ([Fraction(1, 2)] * N if N % 2 else [0] * (N // 2) + [1] * (N // 2)):
        raise DegenerateSeed(f"the measured epsilon is not the regular {N}-gon's closed form at tolerance {fld.tol}")
    return seed


def line_walk_start(line: Subspace) -> tuple[list, list]:
    """Affine base point and direction step vector for walking along a line.

    The base is the first echelon basis row with a nonzero last
    coordinate, dehomogenized; the step is the affine part of the line's
    infinite point.  Together they parametrize the affine points of the
    line as base + lam * step.
    """
    fld = line.field
    base = None
    for row in line.basis:
        if not fld.is_zero(row[-1]):
            inv = fld.inv(row[-1])
            base = [fld.mul(c, inv) for c in row[:-1]]
            break
    if base is None:
        raise ValueError("line lies at infinity")
    direction = infinite_point(line)
    if direction is None:
        raise ValueError("not an affine line")
    return base, list(direction.coords[:-1])


def walk_point(fld: Field, base, step, lam: int) -> ProjPoint:
    """The affine point base + lam * step of a walk along a line, on raw values (mod p over F_p); an int lam below 2^53
    multiplies as fld(lam) would."""
    pairs, p = zip(base, step), fld.p
    return ProjPoint(fld, ([(b + lam * s) % p for b, s in pairs] if p else [b + lam * s for b, s in pairs]) + [fld.one])


def _infinite_points(lines: list[Subspace]) -> list[ProjPoint]:
    """The infinite point of each seed line; DegenerateSeed for a flat that is not an affine line."""
    for i, line in enumerate(lines):
        if line.proj_dim != 1:
            raise DegenerateSeed(f"seed line {i} is not a line")
    points = [infinite_point(line) for line in lines]
    if any(p is None for p in points):
        raise DegenerateSeed("seed line coincides with the line at infinity")
    return points


def _through(fld: Field, lines: list[Subspace], points: list[ProjPoint]) -> list[list[int]]:
    """For each point, the positions of the lines through it, ascending, from one incidence pass."""
    out: list[list[int]] = [[] for _ in points]
    for a, on_line in enumerate(incidence(fld, lines, points)[1]):
        for i in on_line:
            out[i].append(a)
    return out


def double_points(seed: PlanarSeed) -> list[tuple[ProjPoint, list[int], list[int]]]:
    """Each double point of S, a core point (not flagged extra) on two or more seed lines, in the order of S:
    (point, the seed lines through it, the measuring lines through it)."""
    core = [sp.point for sp in seed.points if not sp.extra]
    double = [(p, lines) for p, lines in zip(core, _through(seed.field, seed.lines, core)) if len(lines) > 1]
    return [(p, lines, ms) for (p, lines), ms in zip(double, _through(seed.field, seed.m_lines, [p for p, _ in double]))]


def _measure_epsilon(seed: PlanarSeed, doubles=None) -> list[Fraction]:
    """N/2 minus the number of double_points on each measuring line."""
    hits = Counter(m for _, _, ms in (double_points(seed) if doubles is None else doubles) for m in ms)
    return [Fraction(seed.N, 2) - hits[m] for m in range(len(seed.m_lines))]


def seed_report(seed: PlanarSeed) -> SeedReport:
    """Audit a planar seed, recomputing every invariant from its raw data."""
    fld = seed.field
    problems: list[str] = []
    x_point = _m_common_point(fld)

    directions = []
    for i, line in enumerate(seed.lines):
        cut = meet(line, at_infinity(fld, 2))
        d = ProjPoint(fld, cut.basis[0]) if cut.proj_dim == 0 else None
        directions.append(d)
        if d is None:
            problems.append(f"line {i} is the line at infinity")
            continue
        if d == x_point:
            problems.append(f"line {i} passes through the measuring direction (0,1,0)")
    if len(seed.lines) != seed.N:
        problems.append(f"expected {seed.N} lines, found {len(seed.lines)}")

    distinct = True
    seen = PointSet(fld)
    for i, d in enumerate(directions):
        first = i if d is None else seen.setdefault(d, i)
        if first != i:
            distinct = False
            problems.append(f"lines {first} and {i} share an infinite point")

    # lines through (0,1,0) are equal exactly when they meet the transversal c2 = 0 in the same point
    transversal = Subspace.from_equations(fld, 2, [[fld.zero, fld.one, fld.zero]])
    seen = PointSet(fld)
    for i, m in enumerate(seed.m_lines):
        if m.proj_dim != 1:
            problems.append(f"measuring line {i} is not a line")
        elif not m.contains(x_point):
            problems.append(f"measuring line {i} misses the common point (0,1,0)")
        elif (first := seen.setdefault(ProjPoint(fld, meet(m, transversal).basis[0]), i)) != i:
            problems.append(f"measuring lines {first} and {i} coincide")
    if len(seed.m_lines) != seed.N:
        problems.append(f"expected {seed.N} measuring lines, found {len(seed.m_lines)}")

    first, _, counts = incidence(fld, seed.lines, [sp.point for sp in seed.points])
    problems.extend(f"points {f} and {i} coincide" for i, f in enumerate(first) if f != i)
    for i, c in enumerate(counts):
        if c < seed.N:
            problems.append(f"line {i} holds only {c} distinct points, needs {seed.N}")

    measured = _measure_epsilon(seed, doubles := double_points(seed))
    problems.extend(f"seed lines {', '.join(map(str, lines))} meet in one point of S" for _, lines, _ in doubles if len(lines) > 2)
    if len(seed.epsilon) != len(measured):
        problems.append("epsilon list length does not match the measuring lines")
    else:
        for i, (a, b) in enumerate(zip(seed.epsilon, measured)):
            if a != b:
                problems.append(f"epsilon[{i}] stored as {a}, measured {b}")

    eps_sum = sum(measured, Fraction(0))
    report = SeedReport(
        N=seed.N,
        line_point_counts=counts,
        directions_distinct=distinct,
        epsilon_stored=list(seed.epsilon),
        epsilon_measured=measured,
        epsilon_sorted=sorted(measured),
        epsilon_sum=eps_sum,
        density=eps_sum / seed.N,
        problems=problems,
        verdict="pass" if not problems else "fail",
    )
    return report


def seed_to_json(seed: PlanarSeed) -> dict:
    return {
        "field": seed.field.to_json(),
        "N": seed.N,
        "lines": [s.to_json() for s in seed.lines],
        "m_lines": [s.to_json() for s in seed.m_lines],
        "points": [
            {"coords": sp.point.to_json(), "extra": sp.extra}
            for sp in seed.points
        ],
        "epsilon": [str(e) for e in seed.epsilon],
        "meta": dict(seed.meta),
    }


def seed_from_json(doc) -> PlanarSeed:
    fld = field_from_json(need(doc, dict, "seed")["field"])
    lines = [Subspace.from_json(fld, 2, rows) for rows in need(doc["lines"], list, "lines")]
    points = []
    for i, entry in enumerate(records(doc, "points")):
        extra = entry.get("extra", False)  # a JSON boolean; need() refuses bools, so the check is written out
        if type(extra) is not bool:
            raise MalformedFile(f"point extra has the wrong type ({type(extra).__name__})")
        coords = entry["coords"]
        if type(coords) is list and len(coords) != 3:  # any other value meets from_json's type check
            raise MalformedFile(f"seed point {i} has {len(coords)} coordinates, not 3")
        points.append(SeedPoint(ProjPoint.from_json(fld, coords), extra))
    _infinite_points(lines)  # refuses a flat that is not an affine line
    return PlanarSeed(
        field=fld,
        N=positive(doc["N"], "N"),
        lines=lines,
        m_lines=[Subspace.from_json(fld, 2, rows) for rows in need(doc["m_lines"], list, "m_lines")],
        points=points,
        epsilon=RationalField().values_from_json(doc["epsilon"], "epsilon"),
        meta=dict(need(doc.get("meta", {}), dict, "meta")),
    )
