"""Lifting a planar seed into an n-dimensional Kakeya-type line set.

Ambient coordinates have length n+1.  Code index j (0-based) for
j < n carries the frame point x_{j+1} = e_j; the last coordinate is the
homogenizing one, so the hyperplane at infinity is the span of
x_1..x_n.  The frame is completed by the all-ones point x_0, and the
seed plane embeds as the span of x_0, x_1, x_2 via

    (c1, c2, c0)  ->  c1*e_0 + c2*e_1 + c0*x_0.

Ordered index tuples J over the seed lines index the lifted lines
ell_J, their infinite points p_J and the lifted points z_{J, Jbar, m}
over the point where seed lines J and Jbar meet on m.  The paper builds
each by a recursion: span the two objects one index shorter with the
frame points x_{j+1} = e_j and y_{j+1} = e_{j-1} + e_j (j = |J|) and
meet the two flats.  Over F_p and Q that recursion has a closed form in
the seed lines y = s_a x + c_a, which Lifting reads off directly; the
reals keep the meets, whose bits their files hold.  After the
unitriangular change of basis of grid_values_from_direction, p_J is
(1, s_{J0}, ..., s_{J(|J|-1)}), so the lifted directions fill the
off-diagonal part of a grid and assemble() completes the diagonal with
one extra line per missing cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from itertools import combinations, permutations, product

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
from .projgeom import PointSet, ProjPoint, Subspace, incidence, meet, span
from .scalar import Field, Memo, RationalField, field_from_json
from .seeds import PlanarSeed, line_walk_start, seed_from_json, seed_report, seed_to_json, walk_point


@dataclass
class ConstructionFrame:
    n: int
    field: Field
    x: dict[int, ProjPoint]
    y: dict[int, ProjPoint]


def build_frame(n: int, fld: Field) -> ConstructionFrame:
    """Frame points x_0..x_n and y_3..y_n for ambient dimension n >= 2."""
    one, zero = fld.one, fld.zero

    def unit(*cols: int) -> ProjPoint:
        return ProjPoint(fld, [one if i in cols else zero for i in range(n + 1)])

    x = {0: ProjPoint(fld, [one] * (n + 1))} | {j: unit(j - 1) for j in range(1, n + 1)}
    y = {i: unit(i - 2, i - 1) for i in range(3, n + 1)}
    return ConstructionFrame(n=n, field=fld, x=x, y=y)


@dataclass
class EmbeddedSeed:
    lines: list[Subspace]
    infinite_points: list[ProjPoint]
    m_lines: list[Subspace]
    d_values: list


def _embed_vector(fld: Field, n: int, c) -> list:
    c1, c2, c0 = c
    v = [c0] * (n + 1)
    v[0] = fld.add(c1, c0)
    v[1] = fld.add(c2, c0)
    return v


def embed_seed(frame: ConstructionFrame, seed: PlanarSeed) -> EmbeddedSeed:
    fld, n = frame.field, frame.n

    def embed_point(p: ProjPoint) -> ProjPoint:
        return ProjPoint(fld, _embed_vector(fld, n, p.coords))

    def embed_flat(s: Subspace) -> Subspace:
        rows = [_embed_vector(fld, n, row) for row in s.basis]
        return Subspace.from_vectors(fld, n, rows)

    if any(s.proj_dim != 1 for s in seed.lines):
        raise DegenerateSeed("a seed line is not a line")
    seen = PointSet(fld)
    for i, p in enumerate(seed.infinite_points):
        if fld.is_zero(p.coords[0]):
            raise DegenerateSeed(f"seed line {i} runs through the measuring direction")
        first = seen.setdefault(p, i)
        if first != i:
            raise DegenerateSeed(f"seed lines {first} and {i} share a direction")

    return EmbeddedSeed(
        lines=[embed_flat(s) for s in seed.lines],
        infinite_points=[embed_point(p) for p in seed.infinite_points],
        m_lines=[embed_flat(s) for s in seed.m_lines],
        d_values=[p.coords[1] for p in seed.infinite_points],
    )


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
    its first coordinate vanishes, in which case it lies in no grid.
    """
    fld, coords = p.field, p.coords
    n = len(coords) - 1
    if not fld.is_zero(coords[-1]):
        return None
    if not fld.eq(coords[0], fld.one):
        return None
    out = [coords[1]]
    for k in range(2, n):
        delta = coords[k] if k % 2 == 1 else fld.neg(coords[k])
        out.append(fld.add(out[-1], delta))
    return out


class Lifting:
    """The lifted lines ell_J, their infinite points p_J and the lifted points z_{J, Jbar, m} of one seed.

    Over F_p and Q each is read off the seed lines y = s_a x + c_a through the affine point
    Q_J(x) = Q_J(0) + x p_J (_chart): ell_J = span(Q_J(0), p_J) and z_{J, Jbar, m} = Q_J(x_m).
    The reals run the memoized recursion, keys (J,) for lines and directions and (J, Jbar) for
    points: the object at a key of tuple length j + 1 is one _step from those at (J[:-1], ...)
    and (J[:-2] + J[-1:], ...), the meet of their spans with x_{j+1} and y_{j+1}.  Every key
    extending a sub-key on one side shares that span, so memo keeps it under ("x", sub-key) or
    ("y", sub-key), built once.  An index tuple holds 1 to n - 1 distinct seed lines, and the two
    tuples of a point are disjoint and of one length: assemble asks for no others.
    """

    def __init__(self, frame: ConstructionFrame, seed: PlanarSeed):
        self.frame = frame
        self.seed = seed
        self.emb = embed_seed(frame, seed)
        self._lines, self._dirs, self._zs = {}, {}, {}
        fld = frame.field
        if fld.exact:  # seed line a: slope s_a = emb.d_values[a], reduced basis (1, s_a + c_a g, g), (0, c_a h, h)
            self._cuts = [fld.div(line.basis[1][1], line.basis[1][2]) for line in seed.lines]

    def line(self, J) -> Subspace:
        """The lifted line ell_J."""
        J = tuple(J)
        fld = self.frame.field
        if not fld.exact:
            return self._lift(self._lines, (J,), lambda J: self.emb.lines[J[0]])
        # reduced basis: p_J - p_J[k] r1 and r1, the point Q_J(-1) = Q_J(0) - p_J normalized to lead k
        q0, p = self._chart(J)
        r1 = ProjPoint(fld, fld.comb(q0, fld.neg(fld.one), p)).coords
        k = r1.index(fld.one)
        return Subspace(fld, self.frame.n, (fld.comb(p, fld.neg(p[k]), r1), r1), (0, k))

    def direction(self, J) -> ProjPoint:
        """The infinite point p_J of the lifted line ell_J: the closed form of the seed slopes over F_p and Q, the recursion over the reals."""
        J = tuple(J)
        if self.frame.field.exact:
            return direction_from_grid_values(self.frame.field, self.frame.n, [self.emb.d_values[a] for a in J])
        return self._lift(self._dirs, (J,), lambda J: self.emb.infinite_points[J[0]])

    def intersection(self, J, Jbar, m_index: int) -> ProjPoint:
        """The lifted point z_{J, Jbar, m}.

        Requires that for each position the two seed lines meet on the
        measuring line m (UndefinedBasePoint otherwise); the result is an
        affine point on ell_J.  Over F_p and Q it is Q_J(x_m) = Q_Jbar(x_m) for the
        abscissa x_m those double points share; DegenerateSeed when they share none.
        """
        J, Jbar = tuple(J), tuple(Jbar)
        fld = self.frame.field
        if not fld.exact:
            memo = self._zs.setdefault(m_index, {})
            return self._lift(memo, (J, Jbar), lambda J, Jbar: self._base_point(J[0], Jbar[0], m_index))
        at = {self._base_point(a, b, m_index) for a, b in zip(J, Jbar)}
        if len(at) > 1:
            raise DegenerateSeed(f"the pairs of {J} and {Jbar} meet measuring line {m_index} at different abscissae")
        q0, p = self._chart(J)
        return ProjPoint(fld, fld.comb(q0, at.pop(), p))

    @cached_property
    def doubles(self) -> dict:
        """{(a, b): (where seed lines a < b meet, the first measuring line through it or None)}.

        Where: the abscissa (c_b - c_a) / (s_a - s_b) over F_p and Q, the meet of the embedded lines
        over the reals.  The measuring lines come from one incidence pass over the embedded points.
        """
        fld, n, emb = self.frame.field, self.frame.n, self.emb
        pairs = list(combinations(range(len(emb.lines)), 2))
        if fld.exact:
            s, c = emb.d_values, self._cuts
            at = [fld.div(fld.sub(c[b], c[a]), fld.sub(s[a], s[b])) for a, b in pairs]
            pts = [ProjPoint(fld, _embed_vector(fld, n, (x, fld.add(fld.mul(s[a], x), c[a]), fld.one))) for x, (a, _) in zip(at, pairs)]
        else:
            cuts = [meet(emb.lines[a], emb.lines[b]) for a, b in pairs]
            if bad := next((pair for pair, cut in zip(pairs, cuts) if cut.proj_dim != 0), None):
                raise UndefinedBasePoint(f"seed lines {bad[0]} and {bad[1]} do not meet in a point")
            at = pts = [ProjPoint(fld, cut.basis[0]) for cut in cuts]
        on = incidence(fld, emb.m_lines, pts)[1]
        first = {i: m for m in reversed(range(len(on))) for i in on[m]}  # the lowest m is written last
        return {pair: (x, first.get(i)) for i, (pair, x) in enumerate(zip(pairs, at))}

    def _base_point(self, a: int, b: int, m_index: int):
        """Where seed lines a and b meet (doubles), which must be on measuring line m_index."""
        at, m = self.doubles[min(a, b), max(a, b)]
        if m != m_index:
            raise UndefinedBasePoint(f"seed lines {a} and {b} miss measuring line {m_index}")
        return at

    def _chart(self, J) -> tuple[list, list]:
        """Q_J(0) and p_J = Q_J(1) - Q_J(0) over F_p or Q for the affine point, each y_a = s_a x + c_a,
        Q_J(x) = (1 + x, 1 + y_{J0}, ..., 1 + (-1)^(i+1) (y_{J(i-1)} - y_{J(i-2)}) at 2 <= i <= |J|, 1, ..., 1)."""
        fld, n, one = self.frame.field, self.frame.n, self.frame.field.one
        q0 = [fld.add(one, v) for v in _grid_row(fld, n, fld.zero, [self._cuts[a] for a in J])]
        return q0, _grid_row(fld, n, one, [self.emb.d_values[a] for a in J])

    def _lift(self, memo: dict, key: tuple, base):
        """The object at key over the reals: base(*key) for tuples of length one, else one _step on spans kept in memo."""
        if key not in memo:
            if len(key[0]) == 1:
                memo[key] = base(*key)
            else:
                j, ka, kb = len(key[0]), tuple(J[:-1] for J in key), tuple(J[:-2] + J[-1:] for J in key)
                a, b = self._lift(memo, ka, base), self._lift(memo, kb, base)
                if ("x", ka) not in memo:
                    memo["x", ka] = span(self.frame.x[j + 1], a)
                if ("y", kb) not in memo:
                    memo["y", kb] = span(self.frame.y[j + 1], b)
                memo[key] = self._step(key[0], a, b, (memo["x", ka], memo["y", kb]))
        return memo[key]

    def _step(self, J: tuple, a, b, spans=None):
        """meet(span(x_{j+1}, a), span(y_{j+1}, b)) for j = len(J), a flat of the dimension of a.

        One step of the reals' recursion, whose bits their files hold; spans, when given, are
        those two spans, built by the caller.  A point comes back normalized: a raw meet row can
        carry entries below tolerance before its pivot.
        """
        j = len(J)
        out = meet(*(spans or (span(self.frame.x[j + 1], a), span(self.frame.y[j + 1], b))))
        want = 1 if isinstance(a, Subspace) else 0
        if out.proj_dim != want:
            raise DegenerateSeed(f"lifting {J} produced a flat of projective dimension {out.proj_dim}")
        return out if want else ProjPoint(out.field, out.basis[0])


@dataclass
class KLine:
    line: Subspace
    direction: ProjPoint


@dataclass
class KPoint:
    point: ProjPoint
    provenance: dict


@dataclass
class KakeyaSet:
    field: Field
    n: int
    N: int
    grid: list[list]
    lines: list[KLine]
    points: list[KPoint]
    seed_meta: dict = dc_field(default_factory=dict)


def assemble(seed: PlanarSeed, n: int, audit: bool = False) -> KakeyaSet:
    """Build the n-dimensional line family and point set from a planar seed.

    For n = 2 the seed passes through unchanged (up to the embedding).
    Otherwise the lines are the lifts of all ordered (n-1)-tuples of
    seed lines, the lifted points are the z-lifts of ordered runs of
    disjoint double points on each measuring line, every deficient line
    is padded to N points by walking integer steps along it, and one
    padded line through the affine origin is added for every grid cell
    missed by the lifted directions.  With audit, a seed that fails
    seed_report is refused after the size checks and before the lift.
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
    frame = build_frame(n, fld)
    lifting = Lifting(frame, seed)
    emb = lifting.emb
    N = seed.N
    slopes = sorted(emb.d_values)
    grid = [list(slopes) for _ in range(n - 1)]
    seed_meta = dict(seed.meta)
    seed_meta["N"] = N
    seed_meta["epsilon"] = [str(e) for e in seed.epsilon]

    if n == 2:
        lines = [KLine(l, p) for l, p in zip(emb.lines, emb.infinite_points)]
        points = [
            KPoint(ProjPoint(fld, _embed_vector(fld, n, sp.point.coords)), {"kind": "seed", "extra": sp.extra})
            for sp in seed.points
        ]
        return KakeyaSet(fld, n, N, grid, lines, points, seed_meta)

    tuples = list(permutations(range(N), n - 1))
    lines = [KLine(lifting.line(J), lifting.direction(J)) for J in tuples]

    # the pairs of seed lines whose double point lies on each measuring line
    per_m: dict[int, list[tuple[int, int]]] = {}
    for pair, (_, m_idx) in lifting.doubles.items():
        if m_idx is not None:
            per_m.setdefault(m_idx, []).append(pair)

    registry = PointSet(fld)
    points: list[KPoint] = []
    for m_idx in range(N):
        for seq in permutations(per_m.get(m_idx, []), n - 1):
            if len({i for pair in seq for i in pair}) != 2 * (n - 1):
                continue
            J = tuple(a for a, _ in seq)
            Jbar = tuple(b for _, b in seq)
            z = lifting.intersection(J, Jbar, m_idx)
            if fld.is_zero(z.coords[-1]):
                raise DegenerateSeed("a lifted intersection point fell at infinity")
            if registry.add(z):
                points.append(
                    KPoint(
                        z,
                        {"kind": "lifted", "J": list(J), "Jbar": list(Jbar), "m": m_idx},
                    )
                )

    # one line through the affine origin per grid cell with repeats
    origin = ProjPoint(fld, [fld.zero] * n + [fld.one])
    completion_cells = [
        cell
        for cell in product(range(N), repeat=n - 1)
        if len(set(cell)) < n - 1
    ]
    completion_start = len(lines)
    for cell in completion_cells:
        values = [slopes[i] for i in cell]
        direction = direction_from_grid_values(fld, n, values)
        line = span(origin, direction)
        lines.append(KLine(line, direction))

    # pad every line to N points by walking integer steps along it
    for idx, kline in enumerate(lines):
        on = registry.on(kline.line)
        count = len(on)
        if count >= N:
            continue
        base, step = line_walk_start(kline.line)
        stored = [registry.items[i] for i in on]
        walk = _basis_walk(kline.line, base, step, stored) if fld.exact else partial(walk_point, fld, base, step)
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


def _basis_walk(line: Subspace, base, step, stored):
    """lam -> the walk point (base + lam * step, 1) of a line over F_p or Q; None when one of the stored points is it.

    Its entries a, b at the pivots (c0, c1) make it a r0 + b r1 on the reduced basis: the canonical
    r0 + (b / a) r1, or r1 when a is zero; b / a (None for r1) tells the points of the line apart.
    """
    fld, (r0, r1), (c0, c1) = line.field, line.basis, line.pivots
    add, mul, at, dv = fld.add, fld.mul, [*base, fld.one], [*step, fld.zero]
    taken = {p.coords[c1] if p.coords[c0] else None for p in stored}

    def point(lam: int) -> ProjPoint | None:
        a = add(at[c0], mul(lam, dv[c0]))
        b = fld.div(add(at[c1], mul(lam, dv[c1])), a) if a else None
        if b in taken:
            return None
        return ProjPoint._canonical(fld, r1 if b is None else fld.comb(r0, b, r1))

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


def _block(brackets: str, items: list, pad: str) -> str:
    """A list or dict whose entries come formatted, as json.dumps(..., indent=2) writes it at indentation pad."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _fmt(o, pad: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it at indentation pad.

    Floats, bools, None, dicts with other keys and other types go through json.dumps.  The str and
    int entries of a list or dict are written in place.
    """
    t = type(o)
    if t is str:
        return _encode_str(o)
    if t is int:
        return int.__repr__(o)
    if t is list:
        values = o
    elif t is dict and all(type(k) is str for k in o):
        keys = sorted(o)
        values = [o[k] for k in keys]
    else:
        return json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    inner = pad + "  "
    items = [_encode_str(v) if type(v) is str else int.__repr__(v) if type(v) is int else _fmt(v, inner) for v in values]
    if t is list:
        return _block("[]", items, pad)
    return _block("{}", [_encode_str(k) + ": " + v for k, v in zip(keys, items)], pad)


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
    coordinate vectors and provenance, one write per record.  Each distinct exact coordinate is
    encoded once, each real one by repr (a value-keyed memo would merge -0.0 into 0.0).
    """
    fld, to_str = K.field, K.field.to_str

    def enc(c) -> str:
        return _encode_str(to_str(c))

    if fld.exact:
        enc = Memo(enc).__getitem__
    join8, join10 = ",\n        ".join, ",\n          ".join  # coordinates at indentation 8 and 10

    def line_record(kl: KLine) -> str:
        basis = _block("[]", ["[\n          " + join10(map(enc, r)) + "\n        ]" for r in kl.line.basis], "      ")
        direction = join8(map(enc, kl.direction.coords))
        return '{\n      "basis": ' + basis + ',\n      "direction": [\n        ' + direction + "\n      ]\n    }"

    def point_record(kp: KPoint) -> str:
        coords = join8(map(enc, kp.point.coords))
        return '{\n      "coords": [\n        ' + coords + '\n      ],\n      "provenance": ' + _fmt(kp.provenance, "      ") + "\n    }"

    grid = _fmt([[to_str(s) for s in axis] for axis in K.grid], "  ")
    head = '{\n  "N": ' + _fmt(K.N, "  ") + ',\n  "field": ' + _fmt(fld.to_json(), "  ") + ',\n  "grid": ' + grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + ',\n  "lines": ')
        _write_list(map(line_record, K.lines), fh, "  ")
        fh.write(',\n  "n": ' + _fmt(K.n, "  ") + ',\n  "points": ')
        _write_list(map(point_record, K.points), fh, "  ")
        fh.write(',\n  "seed_meta": ' + _fmt(K.seed_meta, "  ") + "\n}\n")


def load_kakeya(path: str) -> KakeyaSet:
    return kakeya_from_json(read_json(path))


def save_seed(seed: PlanarSeed, path: str):
    write_json(seed_to_json(seed), path)


def load_seed(path: str) -> PlanarSeed:
    return seed_from_json(read_json(path))
