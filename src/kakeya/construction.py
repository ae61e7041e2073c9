"""Lifting a planar seed into an n-dimensional Kakeya-type line set.

Ambient coordinates have length n+1.  Code index j (0-based) for
j < n carries the frame point x_{j+1} = e_j; the last coordinate is the
homogenizing one, so the hyperplane at infinity is the span of
x_1..x_n.  The frame is completed by the all-ones point x_0, and the
seed plane embeds as the span of x_0, x_1, x_2 via _embed_vector,

    (c1, c2, c0)  ->  c1*e_0 + c2*e_1 + c0*x_0.

Ordered index tuples J over the seed lines index the lifted lines ell_J,
their infinite points p_J and the lifted points z_{J, Jbar, m} over the
double point of S where seed lines J and Jbar meet on m
(seeds.double_points).  The paper builds each by a recursion: span the
two objects one index shorter with the frame points x_{j+1} = e_j and
y_{j+1} = e_{j-1} + e_j (j = |J| >= 2) and meet the two flats.  Lifting
builds those frame points for every field and no others.  Over F_p and
Q that recursion has a closed form in the seed lines y = s_a x + c_a,
which Lifting reads off directly; the reals keep the meets, whose bits
their files hold, and only they embed the seed lines and their infinite
points, the recursion's base objects.  No field embeds the measuring
lines.  After the unitriangular change of basis of
grid_values_from_direction, p_J is (1, s_{J0}, ..., s_{J(|J|-1)}), so
the lifted directions fill the off-diagonal part of a grid and
assemble() completes the diagonal with one extra line per missing cell.
"""

from __future__ import annotations

import json
from functools import cached_property, partial
from itertools import permutations, product

from .errors import (
    DegenerateSeed,
    MalformedFile,
    SeedTooSmall,
    UndefinedBasePoint,
    UnsupportedDimension,
    need,
    positive,
    records,
)
from .projgeom import PointSet, ProjPoint, Subspace, meet, span
from .scalar import Field, Memo, RationalField, field_from_json
from .seeds import PlanarSeed, _infinite_points, double_points, line_walk_start, seed_from_json, seed_report, seed_to_json, walk_point


def _embed_vector(fld: Field, n: int, c) -> list:
    """(c1, c2, c0) -> c1*e_0 + c2*e_1 + c0*x_0 with x_0 = (1, ..., 1): a seed plane vector in span(x_0, x_1, x_2)."""
    c1, c2, c0 = c
    v = [c0] * (n + 1)
    v[0] = fld.add(c1, c0)
    v[1] = fld.add(c2, c0)
    return v


def _grid_row(fld: Field, n: int, lead, values) -> list:
    """(lead, v_1, ..., v_{len(values)}, 0, ..., 0) with v_1 = values[0] and v_k = (-1)^(k+1) (values[k-1] - values[k-2])."""
    v = [fld.zero] * (n + 1)
    v[0], v[1] = lead, values[0]
    for k in range(2, len(values) + 1):
        delta = fld.sub(values[k - 1], values[k - 2])
        v[k] = delta if k % 2 == 1 else fld.neg(delta)
    return v


def direction_from_grid_values(fld: Field, n: int, values) -> ProjPoint:
    """Infinite point whose recovered grid coordinates are the given values.

    Inverse of grid_values_from_direction, truncated to len(values)
    leading cells (1 to n - 1 of them); cells beyond the values (and
    the affine slot) are zero.
    """
    return ProjPoint(fld, _grid_row(fld, n, fld.one, values))


def grid_values_from_direction(p: ProjPoint) -> list | None:
    """Grid coordinates (d_1, ..., d_{n-1}) of an infinite point.

    Applies the unitriangular change of basis d_1 = v_1 and
    d_k = d_{k-1} + (-1)^{k+1} v_k to the normalized coordinates
    (1, v_1, ..., v_{n-1}, 0).  Returns None when the point is affine or
    its first coordinate vanishes, in which case it lies in no grid.  It
    computes on raw values (mod p over F_p); the reals compare up to tol.
    """
    fld, coords, m = p.field, p.coords, p.field.p
    if (coords[-1] or coords[0] != 1) if fld.exact else not (abs(coords[-1]) <= fld.tol and abs(coords[0] - 1.0) <= fld.tol):
        return None
    out = [coords[1]]
    for k in range(2, len(coords) - 1):
        x = out[-1] + coords[k] if k % 2 == 1 else out[-1] - coords[k]
        out.append(x % m if m else x)
    return out


class Lifting:
    """The lifted lines ell_J, their infinite points p_J and the lifted points z_{J, Jbar, m} of one seed in dimension n.

    slopes[a] is s_a, the slope of seed line a, whose direction is (1, s_a, 0); x and y hold the frame points
    x_{j+1} and y_{j+1} for 2 <= j < n, the only ones a step reads.  Over F_p and Q each object is read off
    the seed lines y = s_a x + c_a through the affine point Q_J(x) = Q_J(0) + x p_J (_chart):
    ell_J = span(Q_J(0), p_J) and z_{J, Jbar, m} = Q_J(x_m).  The reals run the memoized recursion from the
    embedded seed lines and their infinite points, keys (J,) for lines and directions and (J, Jbar) for
    points: the object at a key of tuple length j + 1 is one _step from those at (J[:-1], ...) and
    (J[:-2] + J[-1:], ...), the meet of their spans with x_{j+1} and y_{j+1}.  Every key extending a sub-key
    on one side shares that span, so memo keeps it under ("x", sub-key) or ("y", sub-key), built once.  An
    index tuple holds 1 to n - 1 distinct seed lines, and the two tuples of a point are disjoint and of one
    length: assemble asks for no others.
    """

    def __init__(self, seed: PlanarSeed, n: int):
        fld = seed.field
        self.seed, self.field, self.n = seed, fld, n
        directions = _infinite_points(seed.lines)
        seen = PointSet(fld)
        for i, p in enumerate(directions):
            if fld.is_zero(p.coords[0]):
                raise DegenerateSeed(f"seed line {i} runs through the measuring direction")
            first = seen.setdefault(p, i)
            if first != i:
                raise DegenerateSeed(f"seed lines {first} and {i} share a direction")
        self.slopes = [p.coords[1] for p in directions]

        def unit(*cols: int) -> ProjPoint:
            return ProjPoint(fld, [fld.one if i in cols else fld.zero for i in range(n + 1)])

        self.x = {j + 1: unit(j) for j in range(2, n)}
        self.y = {j + 1: unit(j - 1, j) for j in range(2, n)}
        self._lines, self._dirs, self._zs, self._charts = {}, {}, {}, {}
        if fld.exact:  # seed line a: slope s_a = slopes[a], reduced basis (1, s_a + c_a g, g), (0, c_a h, h)
            self._cuts = [fld.div(line.basis[1][1], line.basis[1][2]) for line in seed.lines]
        else:
            self._base_lines = [Subspace.from_vectors(fld, n, [_embed_vector(fld, n, row) for row in s.basis]) for s in seed.lines]
            self._base_dirs = [ProjPoint(fld, _embed_vector(fld, n, p.coords)) for p in directions]

    def line(self, J) -> Subspace:
        """The lifted line ell_J."""
        J = tuple(J)
        fld = self.field
        if not fld.exact:
            return self._lift(self._lines, (J,), lambda J: self._base_lines[J[0]])
        # reduced basis: p_J - p_J[k] r1 and r1, the point Q_J(-1) = Q_J(0) - p_J normalized to lead k
        (q0, pj), p = self._chart(J), fld.p
        r1 = ProjPoint(fld, _comb(q0, -1, pj, p)).coords
        k = r1.index(fld.one)
        return Subspace(fld, self.n, (_comb(pj, -pj[k], r1, p), r1), (0, k))

    def direction(self, J) -> ProjPoint:
        """The infinite point p_J of the lifted line ell_J: the chart's p_J over F_p and Q, the recursion over the reals."""
        J = tuple(J)
        if self.field.exact:
            return ProjPoint(self.field, self._chart(J)[1])
        return self._lift(self._dirs, (J,), lambda J: self._base_dirs[J[0]])

    def intersection(self, J, Jbar, m_index: int) -> ProjPoint:
        """The lifted point z_{J, Jbar, m}.

        Requires that for each position the two seed lines meet in a double
        point on the measuring line m (UndefinedBasePoint otherwise); the result is an
        affine point on ell_J.  Over F_p and Q it is Q_J(x_m) = Q_Jbar(x_m) for the
        abscissa x_m those double points share; DegenerateSeed when they share none.
        """
        J, Jbar = tuple(J), tuple(Jbar)
        fld = self.field
        if not fld.exact:
            memo = self._zs.setdefault(m_index, {})
            return self._lift(memo, (J, Jbar), lambda J, Jbar: self._base_point(J[0], Jbar[0], m_index))
        at = {self._base_point(a, b, m_index) for a, b in zip(J, Jbar)}
        if len(at) > 1:
            raise DegenerateSeed(f"the pairs of {J} and {Jbar} meet measuring line {m_index} at different abscissae")
        q0, pj = self._chart(J)
        return ProjPoint(fld, _comb(q0, at.pop(), pj, fld.p))

    @cached_property
    def doubles(self) -> dict:
        """{(a, b): (where seed lines a < b meet, the first measuring line through it or None)}, one per double point.

        The pairs are those of double_points, refused (DegenerateSeed) at a point on three seed lines.  Where: the
        point's abscissa over F_p and Q, the meet of the embedded lines over the reals.
        """
        fld, out = self.field, {}
        for p, lines, ms in double_points(self.seed):
            if len(lines) > 2:
                raise DegenerateSeed(f"seed lines {', '.join(map(str, lines))} meet in one point of S")
            if fld.exact:
                at = fld.div(p.coords[0], p.coords[2])
            elif (cut := meet(self._base_lines[lines[0]], self._base_lines[lines[1]])).proj_dim != 0:
                raise UndefinedBasePoint(f"seed lines {lines[0]} and {lines[1]} do not meet in a point")
            else:
                at = ProjPoint(fld, cut.basis[0])
            out.setdefault(tuple(lines), (at, ms[0] if ms else None))
        return dict(sorted(out.items()))

    def _base_point(self, a: int, b: int, m_index: int):
        """Where seed lines a and b meet (doubles), which must be a double point on measuring line m_index."""
        at, m = self.doubles.get((min(a, b), max(a, b)), (None, None))
        if m != m_index:
            raise UndefinedBasePoint(f"seed lines {a} and {b} have no double point on measuring line {m_index}")
        return at

    def _chart(self, J) -> tuple[list, list]:
        """Q_J(0) and p_J = Q_J(1) - Q_J(0) over F_p or Q for the affine point, each y_a = s_a x + c_a,
        Q_J(x) = (1 + x, 1 + y_{J0}, ..., 1 + (-1)^(i+1) (y_{J(i-1)} - y_{J(i-2)}) at 2 <= i <= |J|, 1, ..., 1);
        worked out once per J, for line(J) and every intersection(J, ...)."""
        if J not in self._charts:
            fld, n, one = self.field, self.n, self.field.one
            q0 = [fld.add(one, v) for v in _grid_row(fld, n, fld.zero, [self._cuts[a] for a in J])]
            self._charts[J] = q0, _grid_row(fld, n, one, [self.slopes[a] for a in J])
        return self._charts[J]

    def _lift(self, memo: dict, key: tuple, base):
        """The object at key over the reals: base(*key) for tuples of length one, else one _step on spans kept in memo."""
        if key not in memo:
            if len(key[0]) == 1:
                memo[key] = base(*key)
            else:
                j, ka, kb = len(key[0]), tuple(J[:-1] for J in key), tuple(J[:-2] + J[-1:] for J in key)
                a, b = self._lift(memo, ka, base), self._lift(memo, kb, base)
                if ("x", ka) not in memo:
                    memo["x", ka] = span(self.x[j + 1], a)
                if ("y", kb) not in memo:
                    memo["y", kb] = span(self.y[j + 1], b)
                memo[key] = self._step(key[0], a, b, (memo["x", ka], memo["y", kb]))
        return memo[key]

    def _step(self, J: tuple, a, b, spans=None):
        """meet(span(x_{j+1}, a), span(y_{j+1}, b)) for j = len(J), a flat of the dimension of a.

        One step of the reals' recursion, whose bits their files hold; spans, when given, are
        those two spans, built by the caller.  A point comes back normalized: a raw meet row can
        carry entries below tolerance before its pivot.
        """
        j = len(J)
        out = meet(*(spans or (span(self.x[j + 1], a), span(self.y[j + 1], b))))
        want = 1 if isinstance(a, Subspace) else 0
        if out.proj_dim != want:
            raise DegenerateSeed(f"lifting {J} produced a flat of projective dimension {out.proj_dim}")
        return out if want else ProjPoint(out.field, out.basis[0])


def _comb(u, b, v, p: int) -> tuple:
    """The row u + b * v of raw values, each entry reduced mod p when p is nonzero."""
    pairs = zip(u, v)
    return tuple([(x + b * y) % p for x, y in pairs] if p else [x + b * y for x, y in pairs])


class KLine:
    __slots__ = ("line", "direction")

    def __init__(self, line: Subspace, direction: ProjPoint):
        self.line, self.direction = line, direction


class KPoint:
    __slots__ = ("point", "provenance")

    def __init__(self, point: ProjPoint, provenance: dict):
        self.point, self.provenance = point, provenance


class KakeyaSet:
    __slots__ = ("field", "n", "N", "grid", "lines", "points", "seed_meta")

    def __init__(
        self, field: Field, n: int, N: int, grid: list[list], lines: list[KLine], points: list[KPoint], seed_meta: dict | None = None
    ):
        self.field, self.n, self.N, self.grid, self.lines, self.points = field, n, N, grid, lines, points
        self.seed_meta = {} if seed_meta is None else seed_meta


def assemble(seed: PlanarSeed, n: int, audit: bool = False) -> KakeyaSet:
    """Build the n-dimensional line family and point set from a planar seed.

    The lines are the lifts of all ordered (n-1)-tuples of seed lines.
    At n = 2 the seed points pass through (up to the embedding); otherwise
    the lifted points are the z-lifts of ordered runs of the seed's double
    points on each measuring line, every deficient line is padded to N
    points by walking integer steps along it, and one padded line through
    the affine origin is added for every grid cell missed by the lifted
    directions.  With audit, a seed that fails seed_report is refused
    after the size checks and before the lift.
    """
    if n < 2:
        raise UnsupportedDimension(f"need n >= 2, got {n}")
    if len(seed.lines) != seed.N:
        raise DegenerateSeed(f"the seed declares N = {seed.N} but holds {len(seed.lines)} lines")
    if seed.N < 2 * (n - 1):
        raise SeedTooSmall(
            f"need N >= 2(n-1) = {2 * (n - 1)} seed lines for dimension {n}, got {seed.N}"
        )
    problems = seed_report(seed).problems if audit else []
    if problems:
        raise DegenerateSeed(f"the seed fails its audit: {problems[0]}")
    fld = seed.field
    lifting = Lifting(seed, n)
    N = seed.N
    slopes = sorted(lifting.slopes)
    grid = [list(slopes) for _ in range(n - 1)]
    seed_meta = dict(seed.meta)
    seed_meta["N"] = N
    seed_meta["epsilon"] = [str(e) for e in seed.epsilon]

    lines = [KLine(lifting.line(J), lifting.direction(J)) for J in permutations(range(N), n - 1)]
    if n == 2:
        points = [
            KPoint(ProjPoint(fld, _embed_vector(fld, n, sp.point.coords)), {"kind": "seed", "extra": sp.extra})
            for sp in seed.points
        ]
        return KakeyaSet(fld, n, N, grid, lines, points, seed_meta)

    per_m: dict = {}  # the pairs of seed lines whose double point lies on each measuring line (None: on none)
    for pair, (_, m_idx) in lifting.doubles.items():
        per_m.setdefault(m_idx, []).append(pair)

    registry = PointSet(fld)
    points: list[KPoint] = []
    for m_idx in range(N):
        for seq in permutations(per_m.get(m_idx, []), n - 1):
            J, Jbar = zip(*seq)
            z = lifting.intersection(J, Jbar, m_idx)
            if fld.is_zero(z.coords[-1]):
                raise DegenerateSeed("a lifted intersection point fell at infinity")
            if registry.add(z):
                points.append(KPoint(z, {"kind": "lifted", "J": list(J), "Jbar": list(Jbar), "m": m_idx}))

    # one line through the affine origin per grid cell with repeats, built from its reduced basis as it
    # stands: the direction has its leading 1 at column 0 and a 0 at column n, the origin is e_n
    origin = ProjPoint(fld, [fld.zero] * n + [fld.one])
    completion_cells = [
        cell
        for cell in product(range(N), repeat=n - 1)
        if len(set(cell)) < n - 1
    ]
    completion_start = len(lines)
    for cell in completion_cells:
        direction = direction_from_grid_values(fld, n, [slopes[i] for i in cell])
        lines.append(KLine(Subspace(fld, n, (direction.coords, origin.coords), (0, n)), direction))

    # pad every line to N points by walking integer steps along it
    for idx, kline in enumerate(lines):
        on = registry.on(kline.line)
        count = len(on)
        if count >= N:
            continue
        walk = _basis_walk(kline.line, [registry.items[i] for i in on]) if fld.exact else partial(walk_point, fld, *line_walk_start(kline.line))
        lam = 0
        limit = 4 * N + fld.p
        while count < N:
            if lam > limit:
                raise DegenerateSeed(f"cannot pad line {idx} up to {N} points")
            cand = walk(lam)
            if cand is not None and registry.add(cand):
                if idx >= completion_start:
                    cell = completion_cells[idx - completion_start]
                    prov = {
                        "kind": "grid_completion",
                        "cell": [fld.to_str(slopes[i]) for i in cell],
                        "lam": lam,
                    }
                else:
                    prov = {"kind": "padding", "line": idx, "lam": lam}
                points.append(KPoint(cand, prov))
                count += 1
            lam += 1

    return KakeyaSet(fld, n, N, grid, lines, points, seed_meta)


def _basis_walk(line: Subspace, stored):
    """lam -> the walk point (base + lam * step, 1) of line_walk_start over F_p or Q; None when one of the stored points is it.

    The walk is read off the reduced basis (r0, r1) with pivots (c0, c1), no infinite point built: at
    the pivots the base is (1 / r0[n], 0) when r0[n] != 0, else (0, 1 / r1[n]), and the step is
    (1, -r0[n] / r1[n]) when r1[n] != 0, else (0, 1); a line with r0[n] = r1[n] = 0 lies at infinity
    (ValueError).  The walk's entries a, b at the pivots make it a r0 + b r1: the canonical
    r0 + (b / a) r1, or r1 when a is zero; b / a (None for r1) tells the points of the line apart.
    Each step computes on raw values, mod p over F_p.
    """
    fld, (r0, r1), (c0, c1), p = line.field, line.basis, line.pivots, line.field.p
    e0, e1 = r0[-1], r1[-1]
    if not (e0 or e1):
        raise ValueError("line lies at infinity")
    a0, b0 = (fld.inv(e0), fld.zero) if e0 else (fld.zero, fld.inv(e1))  # the base at (c0, c1)
    a1, b1 = (fld.one, fld.neg(fld.div(e0, e1))) if e1 else (fld.zero, fld.one)  # the step there
    taken = {q.coords[c1] if q.coords[c0] else None for q in stored}

    def point(lam: int) -> ProjPoint | None:
        a, b = (a0 + lam * a1) % p if p else a0 + lam * a1, b0 + lam * b1
        b = (b * pow(a, -1, p) % p if p else b / a) if a else None
        if b in taken:
            return None
        return ProjPoint._canonical(fld, r1 if b is None else _comb(r0, b, r1, p))

    return point


def kakeya_to_json(K: KakeyaSet) -> dict:
    return {
        "field": K.field.to_json(),
        "n": K.n,
        "N": K.N,
        "grid": [[K.field.to_str(s) for s in axis] for axis in K.grid],
        "lines": [
            {
                "basis": kl.line.to_json(),
                "direction": kl.direction.to_json(),
            }
            for kl in K.lines
        ],
        "points": [
            {"coords": kp.point.to_json(), "provenance": kp.provenance}
            for kp in K.points
        ],
        "seed_meta": K.seed_meta,
    }


def kakeya_from_json(doc) -> KakeyaSet:
    """The line set a construction file holds; canonical bases and points are taken as stored, any others reduced.

    Every point and stored direction must have n + 1 coordinates, every basis row too (Subspace.from_json).
    """
    fld = field_from_json(need(doc, dict, "line set")["field"])
    n, N = need(doc["n"], int, "n"), positive(doc["N"], "N")
    grid = [fld.values_from_json(axis, "grid axis") for axis in need(doc["grid"], list, "grid")]
    if len(grid) != n - 1 or any(len(axis) != N for axis in grid):
        raise MalformedFile(f"grid must hold n - 1 = {n - 1} axes of N = {N} values each")
    lines, points = [], []
    for i, entry in enumerate(records(doc, "lines")):
        direction = entry["direction"]
        if type(direction) is list and len(direction) != n + 1:  # any other value meets from_json's type check
            raise MalformedFile(f"direction of line {i} has {len(direction)} coordinates, not n + 1 = {n + 1}")
        lines.append(KLine(Subspace.from_json(fld, n, entry["basis"]), ProjPoint.from_json(fld, direction)))
    for i, entry in enumerate(records(doc, "points")):
        coords = entry["coords"]
        if type(coords) is list and len(coords) != n + 1:
            raise MalformedFile(f"point {i} has {len(coords)} coordinates, not n + 1 = {n + 1}")
        points.append(KPoint(ProjPoint.from_json(fld, coords), need(entry["provenance"], dict, "provenance")))
    seed_meta = dict(need(doc.get("seed_meta", {}), dict, "seed_meta"))
    if seed_meta.get("epsilon") is not None:  # read by verify_size as a list of rationals
        RationalField().values_from_json(seed_meta["epsilon"], "seed_meta epsilon")
    return KakeyaSet(
        field=fld,
        n=n,
        N=N,
        grid=grid,
        lines=lines,
        points=points,
        seed_meta=seed_meta,
    )


# save_kakeya's record formatter: the bytes json.dump(indent=2, sort_keys=True) writes, built per record
_encode_str = json.encoder.encode_basestring_ascii


_list10 = ",\n          ".join  # the entries of a provenance list, at indentation 10


def _provenance(p: dict) -> str:
    """A point's provenance as json.dumps(p, indent=2, sort_keys=True) writes it at indentation 6.

    The three kinds assemble writes go by template.  A template serves only a dict with exactly its
    kind's keys (their number, each key present), an int for each int and a nonempty list of ints
    (J, Jbar) or of strs (cell) for each list; any other provenance goes through json.dumps.  An int
    is no bool, which %d would write as 1 where json writes true.
    """
    kind, size, lam = p.get("kind"), len(p), p.get("lam")
    if kind == "padding" and size == 3 and type(lam) is int and type(line := p.get("line")) is int:
        return '{\n        "kind": "padding",\n        "lam": %d,\n        "line": %d\n      }' % (lam, line)
    if kind == "lifted" and size == 4 and type(J := p.get("J")) is list and type(Jbar := p.get("Jbar")) is list:
        if type(m := p.get("m")) is int and {*map(type, J)} == {*map(type, Jbar)} == {int}:
            return ('{\n        "J": [\n          %s\n        ],\n        "Jbar": [\n          %s\n        ],\n        "kind": "lifted",\n'
                    '        "m": %d\n      }') % (_list10(map(str, J)), _list10(map(str, Jbar)), m)
    if kind == "grid_completion" and size == 3 and type(lam) is int and type(cell := p.get("cell")) is list and {*map(type, cell)} == {str}:
        return ('{\n        "cell": [\n          %s\n        ],\n        "kind": "grid_completion",\n        "lam": %d\n      }'
                % (_list10(map(_encode_str, cell)), lam))
    return json.dumps(p, indent=2, sort_keys=True).replace("\n", "\n      ")


def _write_list(entries, fh, pad: str):
    """Write a list whose entries come formatted at indentation pad + 2, one write per entry."""
    first = sep = "[\n" + pad + "  "
    for entry in entries:
        fh.write(sep + entry)
        sep = ",\n" + pad + "  "
    fh.write("[]" if sep is first else "\n" + pad + "]")


def dump(doc, fh):
    """Write doc in the one JSON layout of files and stdout: sorted keys, two-space indent, closing newline."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def write_json(doc, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        dump(doc, fh)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_kakeya(K: KakeyaSet, path: str):
    """Write the bytes of dump(kakeya_to_json(K)) to path, streamed from K without building that document.

    The keys go in sorted order; each line and point record is its depth's template filled with its
    coordinate vectors and provenance (_provenance), one write per record.  Each distinct exact
    coordinate is encoded once, each real one by repr (a value-keyed memo would merge -0.0 into 0.0).
    """
    fld, to_str = K.field, K.field.to_str

    def enc(c) -> str:  # a real's to_str, repr(float(c)), holds no character that JSON escapes
        return '"' + repr(float(c)) + '"'

    if fld.exact:
        enc = Memo(lambda c: _encode_str(to_str(c))).__getitem__
    join8, join10 = ",\n        ".join, ",\n          ".join  # coordinates at indentation 8 and 10

    def line_record(kl: KLine) -> str:
        rows = ["[\n          " + join10(map(enc, r)) + "\n        ]" for r in kl.line.basis]
        basis = "[\n        " + join8(rows) + "\n      ]" if rows else "[]"
        direction = join8(map(enc, kl.direction.coords))
        return '{\n      "basis": ' + basis + ',\n      "direction": [\n        ' + direction + "\n      ]\n    }"

    def point_record(kp: KPoint) -> str:
        coords = join8(map(enc, kp.point.coords))
        return '{\n      "coords": [\n        ' + coords + '\n      ],\n      "provenance": ' + _provenance(kp.provenance) + "\n    }"

    head = {"N": K.N, "field": fld.to_json(), "grid": [[to_str(s) for s in axis] for axis in K.grid]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, indent=2, sort_keys=True)[:-2] + ',\n  "lines": ')  # N, field, grid without the closing "\n}"
        _write_list(map(line_record, K.lines), fh, "  ")
        fh.write(',\n  "n": ' + json.dumps(K.n) + ',\n  "points": ')
        _write_list(map(point_record, K.points), fh, "  ")
        fh.write(',\n  "seed_meta": ' + json.dumps(K.seed_meta, indent=2, sort_keys=True).replace("\n", "\n  ") + "\n}\n")


def load_kakeya(path: str) -> KakeyaSet:
    return kakeya_from_json(read_json(path))


def save_seed(seed: PlanarSeed, path: str):
    write_json(seed_to_json(seed), path)


def load_seed(path: str) -> PlanarSeed:
    return seed_from_json(read_json(path))
