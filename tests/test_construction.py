"""Frame, embedding, lifting recursions and assembly."""

import io
import json
import random
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, permutations, product
from math import perm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kakeya import construction, projgeom
from kakeya.construction import (
    KakeyaSet,
    KLine,
    KPoint,
    Lifting,
    _embed_vector,
    assemble,
    direction_from_grid_values,
    dump,
    grid_values_from_direction,
    kakeya_from_json,
    kakeya_to_json,
    save_kakeya,
)
from kakeya.errors import (
    DegenerateSeed,
    MalformedFile,
    SeedTooSmall,
    UndefinedBasePoint,
    UnsupportedDimension,
)
from kakeya.projgeom import ProjPoint, Subspace, affine_coords, infinite_point, meet, span
from kakeya.scalar import PrimeField, RationalField, RealField
from kakeya.polymethod import BoundReport, Certificate
from kakeya.seeds import (
    PlanarSeed,
    SeedPoint,
    SeedReport,
    dual_conic_seed,
    line_walk_start,
    regular_ngon_seed,
    seed_from_json,
    seed_to_json,
    walk_point,
)
from kakeya.verify import VerifyReport, _direction_faults, verify_all

QQ = RationalField()


@cache
def _paper_frame(fld, n: int) -> tuple[dict, dict]:
    """The paper's frame points: x_0 = (1, ..., 1), x_i = e_{i-1} for 1 <= i <= n and y_i = e_{i-2} + e_{i-1} for 3 <= i <= n."""

    def unit(*cols):
        return ProjPoint(fld, [fld.one if i in cols else fld.zero for i in range(n + 1)])

    x = {0: ProjPoint(fld, [fld.one] * (n + 1))} | {i: unit(i - 1) for i in range(1, n + 1)}
    return x, {i: unit(i - 2, i - 1) for i in range(3, n + 1)}


def _embedded(seed, n: int) -> tuple[list, list, list]:
    """The seed lines, their infinite points and the measuring lines, each sent by _embed_vector into span(x_0, x_1, x_2)."""
    fld = seed.field

    def flat(s):
        return Subspace.from_vectors(fld, n, [_embed_vector(fld, n, row) for row in s.basis])

    points = [ProjPoint(fld, _embed_vector(fld, n, infinite_point(s).coords)) for s in seed.lines]
    return [flat(s) for s in seed.lines], points, [flat(s) for s in seed.m_lines]


def _embedded_frame(lift) -> dict:
    """x_0, x_1, x_2 as _embed_vector sends the plane's (0, 0, 1), (1, 0, 0), (0, 1, 0), then the lift's own x_3..x_n."""
    fld, n = lift.field, lift.n
    plane = {0: (fld.zero, fld.zero, fld.one), 1: (fld.one, fld.zero, fld.zero), 2: (fld.zero, fld.one, fld.zero)}
    return {i: ProjPoint(fld, _embed_vector(fld, n, c)) for i, c in plane.items()} | lift.x


def test_frame_points_n3():
    lift = Lifting(_rational_seed(5), 3)
    x = _embedded_frame(lift)
    assert x[0].coords == (1, 1, 1, 1)
    assert x[1].coords == (1, 0, 0, 0)
    assert x[3].coords == (0, 0, 1, 0)
    assert lift.y[3].coords == (0, 1, 1, 0)
    assert (sorted(lift.x), sorted(lift.y)) == ([3], [3])  # x_0, x_1 and x_2 are not built


def _pi(x, i):
    """The flat spanned by x_1..x_i."""
    return Subspace.from_vectors(x[0].field, x[0].ambient_dim, [x[j].coords for j in range(1, i + 1)])


def _sigma(x, i):
    """The flat spanned by x_0..x_i."""
    return Subspace.from_vectors(x[0].field, x[0].ambient_dim, [x[j].coords for j in range(i + 1)])


def test_frame_flats_nest():
    lift = Lifting(_rational_seed(7), 4)
    x = _embedded_frame(lift)
    paper_x, paper_y = _paper_frame(QQ, 4)
    assert lift.x == {i: paper_x[i] for i in (3, 4)} and lift.y == paper_y
    for i in range(1, 4):
        assert _pi(x, i).proj_dim == i - 1
        assert _sigma(x, i).proj_dim == i
        for row in _pi(x, i).basis:
            assert _pi(x, i + 1).contains(ProjPoint(QQ, row))


def test_embedding_sends_plane_into_sigma2():
    seed = dual_conic_seed(7)
    x, _ = _paper_frame(seed.field, 3)
    lines, points, _ = _embedded(seed, 3)
    for line in lines:
        for row in line.basis:
            assert _sigma(x, 2).contains(ProjPoint(seed.field, row))
    for p in points:
        assert _pi(x, 2).contains(p)
        assert seed.field.is_zero(p.coords[-1])


def test_embedded_slopes_match_plane_directions():
    seed = dual_conic_seed(5)
    lift = Lifting(seed, 3)
    for line, p, d in zip(seed.lines, _embedded(seed, 3)[1], lift.slopes, strict=True):
        assert infinite_point(line).coords[1] == d
        assert p.coords == (1, d, 0, 0)


@pytest.mark.parametrize("n, want", [(2, (1, 100, 0)), (3, (1, 100, Fraction(201, 2), 0))])
def test_an_edited_seed_line_lifts_with_its_own_slope(n, want):
    # line 0 of the rational conic q=5 becomes y = 100x: the lift reads its direction off the line,
    # where a stored copy of the seed's directions kept its old slope 0
    doc = seed_to_json(dual_conic_seed(5))
    doc["field"] = {"kind": "rational"}
    seed = seed_from_json(doc)
    fld = seed.field
    seed.lines[0] = Subspace.from_equations(fld, 2, [[fld(-100), fld.one, fld.zero]])
    K = assemble(seed, n)
    assert K.lines[0].direction.coords == want
    assert list(_direction_faults(K)) == []


def test_closed_form_example():
    # slopes 2 then 5 produce the infinite point (1, 2, -3, 0)
    p = direction_from_grid_values(QQ, 3, [QQ(2), QQ(5)])
    assert p.coords == (1, 2, -3, 0)


def test_grid_value_maps_are_inverse():
    rng = random.Random(4)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            values = [QQ(rng.randrange(-20, 20)) for _ in range(n - 1)]
            p = direction_from_grid_values(QQ, n, values)
            assert grid_values_from_direction(p) == values


def _direction_oracle(lift, J):
    """p_J by the meet recursion of the lifting step from the embedded infinite points (what the reals still run)."""
    points = _embedded(lift.seed, lift.n)[1]
    return _chain_oracle(tuple(points[a] for a in J))


def test_direction_recursion_matches_closed_form_f5():
    seed = dual_conic_seed(5)
    lift = Lifting(seed, 3)
    for J in permutations(range(5), 2):
        assert lift.direction(J) == _direction_oracle(lift, J)


def test_direction_recursion_matches_closed_form_f7_n4():
    seed = dual_conic_seed(7)
    lift = Lifting(seed, 4)
    for length in (2, 3):
        for J in permutations(range(7), length):
            assert lift.direction(J) == _direction_oracle(lift, J)


def test_lifted_line_carries_its_direction():
    seed = dual_conic_seed(5)
    lift = Lifting(seed, 3)
    for J in permutations(range(5), 2):
        line = lift.line(J)
        assert line.proj_dim == 1
        assert line.contains(lift.direction(J))


def test_lifted_lines_distinct():
    seed = dual_conic_seed(5)
    lift = Lifting(seed, 3)
    seen = []
    for J in permutations(range(5), 2):
        line = lift.line(J)
        assert all(line != other for other in seen)
        seen.append(line)


def test_base_point_requires_meeting_on_m():
    seed = dual_conic_seed(7)
    lift = Lifting(seed, 3)
    # tangents 0 and 1 meet at x = (0+1)/2 = 4 mod 7, so m_4 works
    z = lift.intersection((0,), (1,), 4)
    assert lift.line((0,)).contains(z)
    with pytest.raises(UndefinedBasePoint):
        lift.intersection((0,), (1,), 0)


@cache
def _chain_oracle(bases: tuple):
    """Independent unfold of the lifting recursion from its base points or lines, by span and meet; memoized."""
    if len(bases) == 1:
        return bases[0]
    k, fld = len(bases), bases[0].field
    x, y = _paper_frame(fld, bases[0].ambient_dim)
    left = _chain_oracle(bases[:-1])
    right = _chain_oracle(bases[:-2] + bases[-1:])
    cut = meet(span(x[k + 1], left), span(y[k + 1], right))
    want = 1 if isinstance(left, Subspace) else 0
    assert cut.proj_dim == want
    return cut if want else ProjPoint(fld, cut.basis[0])


def test_intersection_matches_chain_oracle():
    seed = dual_conic_seed(7)
    lift = Lifting(seed, 3)
    lines, _, m_lines = _embedded(seed, 3)
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        a, b, c, d = rng.sample(range(7), 4)
        try:
            z1 = lift.intersection((a,), (b,), rng.randrange(7))
        except UndefinedBasePoint:
            continue
        # locate the measuring lines of both pairs; need a common one
        p1 = ProjPoint(seed.field, meet(lines[a], lines[b]).basis[0])
        p2 = ProjPoint(seed.field, meet(lines[c], lines[d]).basis[0])
        m_idx = next(
            (
                i
                for i, m in enumerate(m_lines)
                if m.contains(p1) and m.contains(p2)
            ),
            None,
        )
        if m_idx is None:
            continue
        z = lift.intersection((a, c), (b, d), m_idx)
        assert z == _chain_oracle((p1, p2))
        assert lift.line((a, c)).contains(z)
        checked += 1


def test_assemble_rejects_small_seeds():
    with pytest.raises(SeedTooSmall, match=r"^need N >= 2\(n-1\) = 6 seed lines for dimension 4, got 5$"):
        assemble(dual_conic_seed(5), 4)
    with pytest.raises(UnsupportedDimension):
        assemble(dual_conic_seed(5), 1)


def test_assemble_passthrough_n2():
    seed = dual_conic_seed(5)
    K = assemble(seed, 2)
    assert K.n == 2 and K.N == 5
    assert len(K.lines) == 5
    assert len(K.points) == 15
    assert {kp.provenance["kind"] for kp in K.points} == {"seed"}
    assert len(K.grid) == 1 and len(K.grid[0]) == 5


def test_assemble_counts_q5_n3():
    K = assemble(dual_conic_seed(5), 3)
    assert len(K.lines) == 25
    kinds = {}
    for kp in K.points:
        kinds[kp.provenance["kind"]] = kinds.get(kp.provenance["kind"], 0) + 1
    assert kinds["lifted"] == 10
    assert len(K.points) == 53
    assert len(K.grid) == 2
    axis = K.grid[0]
    assert axis == sorted(axis)
    assert K.grid[0] == K.grid[1]


def test_assemble_padding_points_lie_on_their_line():
    K = assemble(dual_conic_seed(5), 3)
    for kp in K.points:
        prov = kp.provenance
        if prov["kind"] == "padding":
            assert K.lines[prov["line"]].line.contains(kp.point)
        assert not K.field.is_zero(kp.point.coords[-1])


def test_assemble_completion_cells_have_repeats():
    K = assemble(dual_conic_seed(5), 3)
    fld = K.field
    for kp in K.points:
        prov = kp.provenance
        if prov["kind"] == "grid_completion":
            cell = [fld.from_str(s) for s in prov["cell"]]
            assert len(cell) == 2
            assert cell[0] == cell[1]


def test_assemble_every_line_reaches_n_points():
    for q, n in ((5, 3), (7, 3)):
        K = assemble(dual_conic_seed(q), n)
        for kl in K.lines:
            count = sum(1 for kp in K.points if kl.line.contains(kp.point))
            assert count >= q


def test_assemble_duplicate_direction_seed_rejected():
    # line 1 becomes y = 1, parallel to tangent 0 (y = 0)
    seed = dual_conic_seed(5)
    fld = seed.field
    seed.lines[1] = Subspace.from_equations(fld, 2, [[fld.zero, fld.one, fld(-1)]])
    with pytest.raises(DegenerateSeed, match="seed lines 0 and 1 share a direction"):
        assemble(seed, 3)


def test_assemble_refuses_a_seed_flat_that_is_not_a_line():
    # the closed form reads each seed line's slope and intercept off its two basis rows
    seed = dual_conic_seed(5)
    seed.lines[2] = Subspace.from_vectors(seed.field, 2, [ProjPoint(seed.field, [1, 4, 0]).coords])
    with pytest.raises(DegenerateSeed):
        assemble(seed, 3)


def test_assemble_refuses_a_seed_line_through_the_measuring_direction():
    # without the audit, a loaded seed whose line 0 is vertical reaches the embedding, which refuses it
    doc = seed_to_json(dual_conic_seed(5))
    doc["lines"][0] = doc["m_lines"][0]
    with pytest.raises(DegenerateSeed, match=r"^seed line 0 runs through the measuring direction$"):
        assemble(seed_from_json(doc), 3)


def test_assemble_refuses_a_lifted_point_on_one_lifted_line_too_many(monkeypatch):
    # no seed tried puts a lifted point on an extra lifted line (an exact lift cannot, and the n-gon's
    # tolerance loses incidences), so the padding's incidence lookup reports one on lifted line (0, 1)
    seed = dual_conic_seed(5)
    first, on, extra = Lifting(seed, 3).line((0, 1)), projgeom.PointSet.on, []

    def on_plus_one(self, line):
        labels = on(self, line)
        if line.basis == first.basis and not extra:
            extra.append(min(set(range(10)) - set(labels)))  # the 10 lifted points come first
            labels = sorted(labels + extra)
        return labels

    monkeypatch.setattr(projgeom.PointSet, "on", on_plus_one)
    with pytest.raises(DegenerateSeed) as err:
        assemble(seed, 3)
    assert str(err.value) == f"lifted point {extra[0]} lies on 5 lifted lines, expected 4"


def test_assemble_refuses_a_lifted_point_at_infinity(monkeypatch):
    # the lift puts every z at an affine point; one at infinity (here p_J for z) is refused
    monkeypatch.setattr(Lifting, "intersection", lambda self, J, Jbar, m: self.direction(J))
    with pytest.raises(DegenerateSeed, match="^a lifted intersection point fell at infinity$"):
        assemble(dual_conic_seed(5), 3)


def test_assemble_points_distinct():
    K = assemble(dual_conic_seed(7), 3)
    seen = {kp.point.coords for kp in K.points}
    assert len(seen) == len(K.points)


def test_kakeya_json_round_trip():
    K = assemble(dual_conic_seed(5), 3)
    doc = json.loads(json.dumps(kakeya_to_json(K), sort_keys=True))
    back = kakeya_from_json(doc)
    assert back.n == K.n and back.N == K.N
    assert back.field == K.field
    assert len(back.lines) == len(K.lines)
    for a, b in zip(back.lines, K.lines):
        assert a.line == b.line and a.direction == b.direction
    for a, b in zip(back.points, K.points):
        assert a.point == b.point and a.provenance == b.provenance
    assert all(rep.verdict == "pass" for rep in verify_all(back, r=1))


@pytest.mark.parametrize("cut", [lambda grid: grid[:1], lambda grid: [grid[0], grid[1][:-1]]], ids=["axes", "values"])
def test_a_loaded_grid_must_hold_n_minus_1_axes_of_N_values(cut):
    doc = kakeya_to_json(assemble(dual_conic_seed(5), 3))
    doc["grid"] = cut(doc["grid"])
    with pytest.raises(MalformedFile, match=r"^grid must hold n - 1 = 2 axes of N = 5 values each$"):
        kakeya_from_json(doc)


def test_assemble_real_seed_n3():
    K = assemble(regular_ngon_seed(8), 3)
    assert len(K.lines) == 64
    assert sum(1 for kp in K.points if kp.provenance["kind"] == "lifted") == 72


def _rational_seed(q):
    """The conic seed over F_q with its coordinates read as rationals."""
    doc = seed_to_json(dual_conic_seed(q))
    doc["field"] = {"kind": "rational"}
    return seed_from_json(doc)


def test_lifting_over_rationals():
    # conic seeds read over Q, lifted to n = 3 and 4; directions against the meet recursion
    for q, n in [(5, 3), (7, 4)]:
        lift = Lifting(_rational_seed(q), n)
        for length in range(2, n):
            for J in permutations(range(q), length):
                assert lift.direction(J) == _direction_oracle(lift, J)


@pytest.mark.parametrize("seed", [dual_conic_seed(7), _rational_seed(5)], ids=["F_7", "Q"])
def test_exact_lift_builds_no_flat(seed, monkeypatch):
    # over F_p and Q the lift reads slopes and intercepts off the seed lines: it embeds no seed line or measuring line
    calls = []
    from_vectors = Subspace.from_vectors.__func__
    monkeypatch.setattr(Subspace, "from_vectors", classmethod(lambda cls, *args: calls.append(args) or from_vectors(cls, *args)))
    Lifting(seed, 3)
    assert calls == []


def _seed(q: int, rational: bool):
    return _rational_seed(q) if rational else dual_conic_seed(q)


@pytest.mark.parametrize("q, rational", [(5, False), (13, False), (7, True)])
def test_lifting_slopes_are_the_seed_lines_own(q, rational):
    # the closed form takes s_a from the seed's directions (1, s_a, 0); the line's reduced basis
    # (1, s_a + c_a g, g), (0, c_a h, h) must give the same slope
    seed = _seed(q, rational)
    fld = seed.field
    lift = Lifting(seed, 3)
    for (r0, r1), s in zip((line.basis for line in seed.lines), lift.slopes, strict=True):
        assert fld.sub(r0[1], fld.mul(fld.div(r1[1], r1[2]), r0[2])) == s


@pytest.mark.parametrize(
    "q, n, rational",
    [(5, 3, False), (5, 4, False), (5, 5, False), (7, 3, False), (7, 4, False), (7, 5, False), (5, 3, True), (5, 4, True), (7, 3, True), (7, 4, True)],
)
def test_closed_form_lift_matches_chain_oracle(q, n, rational):
    # every ell_J and every z_{J, Jbar, m}, both orientations of each pair, against span and meet from the embedded seed
    seed = _seed(q, rational)
    lift = Lifting(seed, n)
    lines, _, m_lines = _embedded(seed, n)
    for length in range(1, n):
        for J in permutations(range(q), length):
            assert lift.line(J) == _chain_oracle(tuple(lines[a] for a in J))
    # the pairs of lift.doubles; a pair meeting on a measuring line outside S (the q=7 seed read over Q has some) is refused
    per_m, checked = {}, 0
    for a, b in combinations(range(q), 2):
        pt = ProjPoint(seed.field, meet(lines[a], lines[b]).basis[0])
        m = next((i for i, line in enumerate(m_lines) if line.contains(pt)), None)
        if (a, b) in lift.doubles:
            assert lift.doubles[a, b][1] == m
            per_m.setdefault(m, []).append(((a, b), pt))
        elif m is not None:
            with pytest.raises(UndefinedBasePoint):
                lift.intersection((a,), (b,), m)
    for m, found in per_m.items():
        for length in range(1, n):
            for seq in permutations(found, length):
                if len({i for pair, _ in seq for i in pair}) < 2 * length or m is None:
                    continue
                want = _chain_oracle(tuple(pt for _, pt in seq))
                for flips in product((0, 1), repeat=length):
                    J = tuple(pair[f] for (pair, _), f in zip(seq, flips))
                    Jbar = tuple(pair[1 - f] for (pair, _), f in zip(seq, flips))
                    assert lift.intersection(J, Jbar, m) == want
                    checked += 1
    assert rational or list(lift.doubles) == list(combinations(range(q), 2))  # over F_p every pair meets in S
    assert checked >= len(lift.doubles) - len(per_m.get(None, ()))


def test_paired_double_points_off_one_abscissa_are_refused():
    # a slanted measuring line m_0 through the double points of tangents (0, 1) at (4, 0) and (2, 3) at (6, 6):
    # the meet recursion comes back empty there, so the lift refuses the pair with the class it raised
    seed = dual_conic_seed(7)
    fld = seed.field
    seed.m_lines[0] = span(ProjPoint(fld, [4, 0, 1]), ProjPoint(fld, [6, 6, 1]))
    lift = Lifting(seed, 3)
    assert lift.doubles[0, 1][1] == lift.doubles[2, 3][1] == 0
    with pytest.raises(DegenerateSeed):
        lift.intersection((0, 2), (1, 3), 0)
    with pytest.raises(DegenerateSeed):
        lift.intersection((2, 0), (3, 1), 0)
    with pytest.raises(UndefinedBasePoint):
        lift.intersection((0, 2), (1, 3), 4)
    for n in (3, 4):
        with pytest.raises(DegenerateSeed):
            assemble(seed, n)


@pytest.mark.parametrize("make", [partial(regular_ngon_seed, 9), partial(regular_ngon_seed, 11), partial(dual_conic_seed, 7)], ids=["ngon9", "ngon11", "conic7"])
def test_double_point_table_matches_the_scan(make):
    # one incidence pass finds the first measuring line through each double point that a contains() scan finds
    seed = make()
    fld = seed.field
    lift = Lifting(seed, 3)
    lines, _, m_lines = _embedded(seed, 3)
    assert list(lift.doubles) == list(combinations(range(seed.N), 2))
    for (a, b), (at, m) in lift.doubles.items():
        pt = ProjPoint(fld, meet(lines[a], lines[b]).basis[0])
        assert m == next((i for i, line in enumerate(m_lines) if line.contains(pt)), None)
        if fld.exact:
            assert fld.add(at, fld.one) == affine_coords(pt)[0]
        else:
            assert at.coords == pt.coords


@cache
def _step_lifting(q: int, n: int, rational: bool) -> Lifting:
    return Lifting(_seed(q, rational), n)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_exact_step_is_the_meet_of_its_spans(data):
    """_step returns meet(span(x_{j+1}, a), span(y_{j+1}, b)), or raises DegenerateSeed when that has the wrong dimension."""
    lift = _step_lifting(data.draw(st.sampled_from([5, 7])), data.draw(st.integers(3, 5)), data.draw(st.booleans()))
    fld, n, x, y = lift.field, lift.n, lift.x, lift.y
    j = data.draw(st.integers(2, n - 1))
    is_line = data.draw(st.booleans())
    value = st.sampled_from([0, 0, 0, 1, 2, -1]).map(fld)

    def rows(k):
        return [[data.draw(value) for _ in range(n + 1)] for _ in range(k)]

    a_rows = rows(2 if is_line else 1)
    if data.draw(st.booleans()):  # a = x_{j+1}, or a line through it
        a_rows[0] = list(x[j + 1].coords)
    mode = data.draw(st.sampled_from(["skew", "equal", "partner"]))
    if mode == "skew":
        b_rows = rows(len(a_rows))
    else:
        # b agrees with a off the columns j-1 and j; "partner" redraws those two
        b_rows = [list(r) for r in a_rows]
        for r in b_rows if mode != "equal" else ():
            r[j - 1], r[j] = data.draw(value), data.draw(value)

    def flat(rs):
        if is_line:
            S = Subspace.from_vectors(fld, n, rs)
            assume(S.proj_dim == 1)
            return S
        assume(any(rs[0]))
        return ProjPoint(fld, rs[0])

    a, b = flat(a_rows), flat(b_rows)
    out = meet(span(x[j + 1], a), span(y[j + 1], b))
    J = tuple(range(j))
    if out.proj_dim != (1 if is_line else 0):
        with pytest.raises(DegenerateSeed):
            lift._step(J, a, b)
    else:
        assert lift._step(J, a, b) == (out if is_line else ProjPoint(fld, out.basis[0]))


def _hex(obj) -> list:
    return [x.hex() for row in (obj.basis if isinstance(obj, Subspace) else (obj.coords,)) for x in row]


def _fresh(obj):
    """An equal object built anew, of the same bits."""
    if isinstance(obj, Subspace):
        return Subspace(obj.field, obj.ambient_dim, obj.basis, obj.pivots)
    return ProjPoint(obj.field, obj.coords)


@pytest.mark.parametrize("N,n", [(9, 3), (8, 4)])
def test_real_step_is_bitwise_the_meet_of_its_spans(N, n):
    """Each lifted line, direction and point is meet(span(x_{j+1}, a), span(y_{j+1}, b)) bit for bit, and so is
    _step on fresh copies of a and b: the spans kept per sub-key are the ones _step would build."""
    seed = regular_ngon_seed(N)
    lift = Lifting(seed, n)
    x, y = lift.x, lift.y
    keys = [(lift.line, (J,)) for k in range(2, n) for J in permutations(range(N), k)]
    keys += [(lift.direction, (J,)) for k in range(2, n) for J in permutations(range(N), k)]
    for m in range(N):
        pairs = [pair for pair, (_, at) in lift.doubles.items() if at == m]
        for seq in permutations(pairs, 2):
            if len({i for pair in seq for i in pair}) == 4:
                keys.append((partial(lift.intersection, m_index=m), tuple(zip(*seq))))
    assert len(keys) > 2 * N * (N - 1)
    for get, key in keys:
        a, b = (_fresh(get(*(f(J) for J in key))) for f in (lambda J: J[:-1], lambda J: J[:-2] + J[-1:]))
        j = len(key[0])
        out = meet(span(x[j + 1], a), span(y[j + 1], b))
        want = _hex(out if isinstance(a, Subspace) else ProjPoint(out.field, out.basis[0]))
        assert _hex(get(*key)) == want
        assert _hex(lift._step(key[0], a, b)) == want


@pytest.mark.parametrize(
    "make, n",
    [(lambda: dual_conic_seed(5), 3), (lambda: dual_conic_seed(7), 4), (lambda: _rational_seed(5), 3),
     (lambda: _rational_seed(7), 4), (lambda: regular_ngon_seed(9), 3), (lambda: regular_ngon_seed(6), 4)],
    ids=["F_5 n=3", "F_7 n=4", "Q q=5 n=3", "Q q=7 n=4", "reals N=9 n=3", "reals N=6 n=4"],
)
def test_completion_lines_are_the_span_of_origin_and_direction(make, n):
    # assemble builds each completion line from (direction, origin) as a reduced basis with pivots (0, n);
    # it must be span(origin, direction), value types included, and bit for bit over the reals
    K = assemble(make(), n)
    fld = K.field
    origin = ProjPoint(fld, [fld.zero] * n + [fld.one])
    bits = _hex if not fld.exact else lambda flat: [(type(x), x) for row in flat.basis for x in row]
    completion = K.lines[perm(K.N, n - 1):]
    assert len(completion) == K.N ** (n - 1) - perm(K.N, n - 1)
    for kl in completion:
        want = span(origin, kl.direction)
        assert (kl.line.basis, kl.line.pivots) == (want.basis, want.pivots) == ((kl.direction.coords, origin.coords), (0, n))
        assert bits(kl.line) == bits(want)


def test_real_assemble_spans_no_pair_twice(monkeypatch):
    seen = []

    def recorded(a, b):
        seen.append((repr(a), repr(b)))
        return span(a, b)

    monkeypatch.setattr(construction, "span", recorded)
    assemble(regular_ngon_seed(11), 3)
    assert seen and len(set(seen)) == len(seen)


def test_exact_assemble_meets_only_the_double_points_and_verify_never(monkeypatch):
    seed = dual_conic_seed(7)
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return meet(a, b)

    for module in ("kakeya.projgeom", "kakeya.construction", "kakeya.verify", "kakeya.seeds"):
        monkeypatch.setattr(f"{module}.meet", counted)
    K = assemble(seed, 4)
    assert calls == []  # lines, double points and lifted points are all read off the seed's slopes and intercepts
    assert all(rep.verdict == "pass" for rep in verify_all(K, r=1))
    assert calls == []


@pytest.mark.parametrize("rational", [False, True], ids=["F_7", "Q"])
def test_exact_padding_is_the_normalized_walk(rational):
    # each padded point has the coordinates walk_point gives its line at its lam, value types included
    seed = _seed(7, rational)
    K = assemble(seed, 3)
    fld, padded = K.field, 0
    origin = ProjPoint(fld, [fld.zero] * 3 + [fld.one])
    for kp in K.points:
        prov = kp.provenance
        if prov["kind"] == "padding":
            line = K.lines[prov["line"]].line
        elif prov["kind"] == "grid_completion":
            direction = direction_from_grid_values(fld, 3, [fld.from_str(s) for s in prov["cell"]])
            line = span(origin, direction)
        else:
            continue
        want = walk_point(fld, *line_walk_start(line), prov["lam"]).coords
        assert [(type(c), c) for c in kp.point.coords] == [(type(c), c) for c in want]
        padded += 1
    assert padded > 0


def _canonical_values(fld, coords) -> bool:
    """Every value a residue int in [0, p) over F_p, a Fraction over Q."""
    if fld.p:
        return all(type(c) is int and 0 <= c < fld.p for c in coords)
    return all(type(c) is Fraction for c in coords)


@pytest.mark.parametrize("q, n", [(5, 3), (7, 4)])
@pytest.mark.parametrize("field", [None, {"kind": "prime", "p": 2**61 - 1}, {"kind": "rational"}], ids=["F_q", "F_(2^61-1)", "Q"])
def test_exact_lift_values_are_canonical_and_match_the_oracles(q, n, field):
    # the rows the lift, the padding walk and PointSet.on build on raw values: each coordinate of every line, direction
    # and point is of the field's own type, and each object equals the span-and-meet chain or walk_point oracle
    doc = seed_to_json(dual_conic_seed(q))
    seed = seed_from_json({**doc, "field": field} if field else doc)
    K = assemble(seed, n)
    fld, (lines, points, _) = K.field, _embedded(seed, n)
    for kl in K.lines:
        assert all(_canonical_values(fld, row) for row in (*kl.line.basis, kl.direction.coords))
    for J, kl in zip(permutations(range(q), n - 1), K.lines):
        assert kl.line == _chain_oracle(tuple(lines[a] for a in J))
        assert kl.direction == _chain_oracle(tuple(points[a] for a in J))
    origin, kinds = ProjPoint(fld, [fld.zero] * n + [fld.one]), set()
    for kp in K.points:
        prov = kp.provenance
        assert _canonical_values(fld, kp.point.coords)
        if prov["kind"] == "lifted":
            pairs = zip(prov["J"], prov["Jbar"])
            want = _chain_oracle(tuple(ProjPoint(fld, meet(lines[a], lines[b]).basis[0]) for a, b in pairs))
        else:
            if prov["kind"] == "padding":
                line = K.lines[prov["line"]].line
            else:
                line = span(origin, direction_from_grid_values(fld, n, [fld.from_str(s) for s in prov["cell"]]))
            want = walk_point(fld, *line_walk_start(line), prov["lam"])
        assert kp.point.coords == want.coords
        kinds.add(prov["kind"])
    assert kinds == {"lifted", "padding", "grid_completion"}


def test_a_canonical_file_is_loaded_as_stored(monkeypatch):
    # stored bases are reduced and stored points normalized, so loading reduces and normalizes nothing
    K = assemble(dual_conic_seed(5), 3)
    doc = kakeya_to_json(K)

    def refuse(*args):
        raise AssertionError("a canonical file was reduced or normalized again")

    monkeypatch.setattr(projgeom, "rref", refuse)
    monkeypatch.setattr(ProjPoint, "__init__", refuse)
    back = kakeya_from_json(doc)
    monkeypatch.undo()
    assert [(kl.line, kl.direction) for kl in back.lines] == [(kl.line, kl.direction) for kl in K.lines]
    assert [kp.point for kp in back.points] == [kp.point for kp in K.points]


_text = st.text(st.sampled_from('az"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'), max_size=4) | st.text(max_size=4)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300])
    | _text
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4) | st.dictionaries(st.integers(), inner, max_size=2),
    max_leaves=25,
)


_PRIME = PrimeField(2**61 - 1)
_FIELDS = {
    "prime": (PrimeField(7), st.integers(0, 6)),
    "big prime": (_PRIME, st.integers(0, _PRIME.p - 1)),
    "rational": (QQ, st.builds(Fraction, st.integers(), st.integers(1, 10**20))),
    "real": (RealField(), st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300])),
}
# the three provenance shapes assemble writes, each value drawn as it writes it or as a near miss:
# a bool, a negative or a huge int, a float, an empty list, a list entry of the other type
_int = st.integers(0, 99) | st.sampled_from([True, False, -1, -(10**30), 10**30, 2.0, 0.5])
_shapes = (
    st.fixed_dictionaries({"kind": st.just("lifted"), "J": st.lists(_int, max_size=3), "Jbar": st.lists(_int, max_size=3), "m": _int})
    | st.fixed_dictionaries({"kind": st.just("padding"), "line": _int, "lam": _int})
    | st.fixed_dictionaries({"kind": st.just("grid_completion"), "cell": st.lists(_text | _int, max_size=3), "lam": _int})
)


def _near_miss(prov: dict, key: str, value, drop: int | None) -> dict:
    """prov as drawn with one more key set to value, or, given drop, without its key in that place."""
    prov = dict(prov)
    if drop is None:
        prov.setdefault(key, value)
    else:
        del prov[sorted(prov)[drop % len(prov)]]
    return prov


_provenance = (
    st.dictionaries(_text, _documents, max_size=4)
    | st.dictionaries(st.integers(), _documents, max_size=2)
    | st.dictionaries(st.floats(allow_nan=False), _documents, max_size=2)
    | st.builds(lambda extra: {"kind": "seed", "extra": extra}, st.booleans())
    | _shapes
    | st.builds(_near_miss, _shapes, _text, _documents, st.none() | st.integers(0, 3))
)


@st.composite
def _line_sets(draw, kind):
    fld, values = _FIELDS[kind]
    n, N = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    vectors = st.lists(values, min_size=n + 1, max_size=n + 1).map(tuple)
    point = vectors.map(partial(ProjPoint._canonical, fld))
    line = st.builds(
        lambda rows, d: KLine(Subspace(fld, n, rows, range(len(rows))), d), st.lists(vectors, max_size=3), point
    )
    return KakeyaSet(
        fld,
        n,
        N,
        draw(st.lists(st.lists(values, min_size=N, max_size=N), max_size=n - 1)),
        draw(st.lists(line, max_size=3)),
        draw(st.lists(st.builds(KPoint, point, _provenance), max_size=4)),
        draw(_provenance),
    )


def _dumped(K) -> str:
    out = io.StringIO()
    dump(kakeya_to_json(K), out)
    return out.getvalue()


@pytest.mark.parametrize("kind", sorted(_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_save_kakeya_writes_the_bytes_of_dump(kind, data, tmp_path_factory):
    K = data.draw(_line_sets(kind))
    path = tmp_path_factory.getbasetemp() / f"{kind}.json"
    save_kakeya(K, str(path))
    assert path.read_text(encoding="utf-8") == _dumped(K)


@settings(max_examples=200, deadline=None)
@given(coords=st.lists(_FIELDS["real"][1] | st.sampled_from([float("inf"), float("-inf"), float("nan")]), min_size=2, max_size=5))
def test_save_kakeya_writes_each_real_coordinate_as_json_writes_its_repr(coords, tmp_path_factory):
    # the real encoder writes '"' + repr(float(c)) + '"': each coordinate line of the file is json.dumps(repr(c))
    fld, n = RealField(), len(coords) - 1
    K = KakeyaSet(fld, n, 1, [], [], [KPoint(ProjPoint._canonical(fld, tuple(coords)), {"kind": "seed"})])
    path = tmp_path_factory.getbasetemp() / "real-coords.json"
    save_kakeya(K, str(path))
    text = path.read_text(encoding="utf-8")
    assert text == _dumped(K)
    written = text.split('"coords": [\n')[1].split("\n      ]")[0].split(",\n")
    assert [entry.strip() for entry in written] == [json.dumps(repr(c)) for c in coords]


@pytest.mark.parametrize(
    "prov, template",
    [
        ({"kind": "lifted", "J": [0, 12], "Jbar": [3, 10**30], "m": 0}, True),
        ({"kind": "padding", "line": -1, "lam": 10**30}, True),
        ({"kind": "grid_completion", "cell": ["1", "\u00e9\n"], "lam": 4}, True),
        ({"kind": "lifted", "J": [], "Jbar": [1], "m": 0}, False),
        ({"kind": "lifted", "J": [0], "Jbar": [True], "m": 0}, False),
        ({"kind": "lifted", "J": [0], "Jbar": [1], "m": False}, False),
        ({"kind": "padding", "line": 3, "lam": 1.0}, False),
        ({"kind": "padding", "line": 3, "lam": 1, "note": "x"}, False),
        ({"kind": "padding", "lam": 1}, False),
        ({"kind": "grid_completion", "cell": ["1", 2], "lam": 4}, False),
        ({"kind": "grid_completion", "cell": [], "lam": 4}, False),
        ({"kind": "seed", "line": 3, "lam": 1}, False),
        ({"kind": "padding", "line": 3, "lam": 1, "note": None}, False),
        ({"kind": "padding", "line": 3, "lam": None}, False),
        ({"kind": "lifted", "J": (0, 12), "Jbar": [3, 10], "m": 0}, False),
        ({"kind": "lifted", "J": [0, 12], "Jbar": [3, 10]}, False),
        ({"kind": "grid_completion", "cell": ("1", "2"), "lam": 4}, False),
        ({"kind": "grid_completion", "cell": ["1", "2"], "lam": True}, False),
    ],
)
def test_provenance_templates_write_what_fmt_writes(prov, template, monkeypatch):
    # a template serves only the exact shapes assemble writes; every near miss goes through json.dumps
    flat = json.dumps(prov, indent=2, sort_keys=True)
    calls = []
    monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: calls.append((args, kwargs)) or flat)
    assert construction._provenance(prov) == flat.replace("\n", "\n      ")
    assert calls == ([] if template else [((prov,), {"indent": 2, "sort_keys": True})])


@pytest.mark.parametrize(
    "seed,n",
    [(dual_conic_seed(5), 2), (dual_conic_seed(5), 3), (regular_ngon_seed(9), 2), (regular_ngon_seed(9), 3), (_rational_seed(5), 3)],
)
def test_save_kakeya_writes_a_construction_record_by_record(seed, n, tmp_path, monkeypatch):
    K = assemble(seed, n)
    writes = []

    class Recorder:
        write = writes.append

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(construction, "open", lambda *args, **kwargs: Recorder(), raising=False)
    save_kakeya(K, str(tmp_path / "k.json"))
    monkeypatch.undo()
    assert "".join(writes) == _dumped(K)
    assert len(writes) == len(K.lines) + len(K.points) + 5  # head, two list ends, "n", seed_meta
    assert max(map(len, writes[1:-1])) < 600


def test_dump_writes_a_line_set_entry_by_entry():
    doc = kakeya_to_json(assemble(dual_conic_seed(5), 3))
    writes = []

    class Recorder:
        write = writes.append

    dump(doc, Recorder)
    assert "".join(writes) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert len(writes) > len(doc["lines"]) + len(doc["points"])
    assert max(map(len, writes)) < 400


@st.composite
def _exact_lines(draw, fld, values, n=3):
    """A line's reduced basis (r0, r1) over fld at random pivots (c0, c1), c1 = n included; the last entries
    r0[n], r1[n] are drawn like the rest, or set to zero in one row or both."""
    c0, c1 = draw(st.sampled_from([(c0, c1) for c1 in range(1, n + 1) for c0 in range(c1)]))
    r0, r1 = [fld.zero] * (n + 1), [fld.zero] * (n + 1)
    r0[c0], r1[c1] = fld.one, fld.one
    for k in range(c0 + 1, n + 1):
        if k != c1:
            r0[k] = fld(draw(values))
            r1[k] = fld(draw(values)) if k > c1 else fld.zero
    for row in draw(st.sampled_from([(), (r0,), (r1,), (r0, r1)])) if c1 < n else ():
        row[n] = fld.zero
    return Subspace(fld, n, (r0, r1), (c0, c1))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["prime", "big prime", "rational"]), data=st.data())
def test_basis_walk_is_the_walk_of_line_walk_start(kind, data):
    # read off the basis, the walk has walk_point's coordinates at each lam, value types included
    fld, values = _FIELDS[kind]
    line = data.draw(_exact_lines(fld, values))
    assert Subspace.from_vectors(fld, 3, line.basis) == line
    if not (line.basis[0][-1] or line.basis[1][-1]):
        for walk in (line_walk_start, partial(construction._basis_walk, stored=[])):
            with pytest.raises(ValueError, match="line lies at infinity"):
                walk(line)
        return
    walk, start = construction._basis_walk(line, []), line_walk_start(line)
    for lam in range(9):
        want = walk_point(fld, *start, lam).coords
        assert [(type(c), c) for c in walk(lam).coords] == [(type(c), c) for c in want]


def test_records_are_slotted_and_build_their_own_defaults():
    fld = PrimeField(5)
    one, zero = fld.one, fld.zero
    a, b = KakeyaSet(fld, 3, 5, [], [], []), KakeyaSet(fld, 3, 5, [], [], [])
    assert a.seed_meta == {} and a.seed_meta is not b.seed_meta
    s, t = PlanarSeed(fld, 5, [], [], [], []), PlanarSeed(fld, 5, [], [], [], [])
    assert s.meta == {} and s.meta is not t.meta
    u, v = VerifyReport("size", "pass"), VerifyReport("size", "pass")
    assert (u.witnesses, u.measured) == ([], {}) and u.witnesses is not v.witnesses and u.measured is not v.measured
    p = ProjPoint(fld, [one, zero, zero, one])
    kp = KPoint(p, {"kind": "seed"})  # the positional form bench/workloads.py builds
    assert (kp.point, kp.provenance) == (p, {"kind": "seed"})
    for record, misspelt in ((a, "seedmeta"), (s, "epsilons"), (kp, "provenence")):
        with pytest.raises(AttributeError):
            setattr(record, misspelt, None)
    records = (KLine, KPoint, KakeyaSet, SeedPoint, PlanarSeed, SeedReport, VerifyReport)
    assert all(cls.__dictoffset__ == 0 for cls in (*records, BoundReport, Certificate))  # no instance __dict__
