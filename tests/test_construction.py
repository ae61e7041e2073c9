"""Frame, embedding, lifting recursions and assembly."""

import io
import json
import random
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kakeya import construction, projgeom
from kakeya.construction import (
    KakeyaSet,
    KLine,
    KPoint,
    Lifting,
    assemble,
    build_frame,
    direction_from_grid_values,
    dump,
    embed_seed,
    grid_values_from_direction,
    kakeya_from_json,
    kakeya_to_json,
    save_kakeya,
)
from kakeya.errors import (
    DegenerateSeed,
    SeedTooSmall,
    UndefinedBasePoint,
    UnsupportedDimension,
)
from kakeya.projgeom import ProjPoint, Subspace, affine_coords, meet, span
from kakeya.scalar import PrimeField, RationalField, RealField
from kakeya.seeds import dual_conic_seed, line_walk_start, regular_ngon_seed, seed_from_json, seed_to_json, walk_point
from kakeya.verify import verify_all

QQ = RationalField()


def test_frame_points_n3():
    frame = build_frame(3, QQ)
    assert frame.x[0].coords == (1, 1, 1, 1)
    assert frame.x[1].coords == (1, 0, 0, 0)
    assert frame.x[3].coords == (0, 0, 1, 0)
    assert frame.y[3].coords == (0, 1, 1, 0)


def _pi(frame, i):
    """The flat spanned by x_1..x_i."""
    return Subspace.from_vectors(frame.field, frame.n, [frame.x[j].coords for j in range(1, i + 1)])


def _sigma(frame, i):
    """The flat spanned by x_0..x_i."""
    return Subspace.from_vectors(frame.field, frame.n, [frame.x[j].coords for j in range(i + 1)])


def test_frame_flats_nest():
    frame = build_frame(4, QQ)
    for i in range(1, 4):
        assert _pi(frame, i).proj_dim == i - 1
        assert _sigma(frame, i).proj_dim == i
        for row in _pi(frame, i).basis:
            assert _pi(frame, i + 1).contains(ProjPoint(QQ, row))


def test_embedding_sends_plane_into_sigma2():
    seed = dual_conic_seed(7)
    frame = build_frame(3, seed.field)
    emb = embed_seed(frame, seed)
    for line in emb.lines:
        for row in line.basis:
            assert _sigma(frame, 2).contains(ProjPoint(seed.field, row))
    for p in emb.infinite_points:
        assert _pi(frame, 2).contains(p)
        assert seed.field.is_zero(p.coords[-1])


def test_embedded_slopes_match_plane_directions():
    seed = dual_conic_seed(5)
    frame = build_frame(3, seed.field)
    emb = embed_seed(frame, seed)
    for plane_pt, d in zip(seed.infinite_points, emb.d_values):
        assert plane_pt.coords[1] == d


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
    return _chain_oracle(tuple(lift.emb.infinite_points[a] for a in J))


def test_direction_recursion_matches_closed_form_f5():
    seed = dual_conic_seed(5)
    lift = Lifting(build_frame(3, seed.field), seed)
    for J in permutations(range(5), 2):
        assert lift.direction(J) == _direction_oracle(lift, J)


def test_direction_recursion_matches_closed_form_f7_n4():
    seed = dual_conic_seed(7)
    lift = Lifting(build_frame(4, seed.field), seed)
    for length in (2, 3):
        for J in permutations(range(7), length):
            assert lift.direction(J) == _direction_oracle(lift, J)


def test_lifted_line_carries_its_direction():
    seed = dual_conic_seed(5)
    lift = Lifting(build_frame(3, seed.field), seed)
    for J in permutations(range(5), 2):
        line = lift.line(J)
        assert line.proj_dim == 1
        assert line.contains(lift.direction(J))


def test_lifted_lines_distinct():
    seed = dual_conic_seed(5)
    lift = Lifting(build_frame(3, seed.field), seed)
    seen = []
    for J in permutations(range(5), 2):
        line = lift.line(J)
        assert all(line != other for other in seen)
        seen.append(line)


def test_base_point_requires_meeting_on_m():
    seed = dual_conic_seed(7)
    lift = Lifting(build_frame(3, seed.field), seed)
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
    frame = build_frame(bases[0].ambient_dim, fld)
    left = _chain_oracle(bases[:-1])
    right = _chain_oracle(bases[:-2] + bases[-1:])
    cut = meet(span(frame.x[k + 1], left), span(frame.y[k + 1], right))
    want = 1 if isinstance(left, Subspace) else 0
    assert cut.proj_dim == want
    return cut if want else ProjPoint(fld, cut.basis[0])


def test_intersection_matches_chain_oracle():
    seed = dual_conic_seed(7)
    frame = build_frame(3, seed.field)
    lift = Lifting(frame, seed)
    emb = lift.emb
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        a, b, c, d = rng.sample(range(7), 4)
        try:
            z1 = lift.intersection((a,), (b,), rng.randrange(7))
        except UndefinedBasePoint:
            continue
        # locate the measuring lines of both pairs; need a common one
        p1 = ProjPoint(seed.field, meet(emb.lines[a], emb.lines[b]).basis[0])
        p2 = ProjPoint(seed.field, meet(emb.lines[c], emb.lines[d]).basis[0])
        m_idx = next(
            (
                i
                for i, m in enumerate(emb.m_lines)
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
    with pytest.raises(SeedTooSmall):
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
    seed = dual_conic_seed(5)
    seed.infinite_points[1] = seed.infinite_points[0]
    with pytest.raises(DegenerateSeed):
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
        lift = Lifting(build_frame(n, QQ), _rational_seed(q))
        for length in range(2, n):
            for J in permutations(range(q), length):
                assert lift.direction(J) == _direction_oracle(lift, J)


def _seed(q: int, rational: bool):
    return _rational_seed(q) if rational else dual_conic_seed(q)


@pytest.mark.parametrize("q, rational", [(5, False), (13, False), (7, True)])
def test_lifting_slopes_are_the_seed_lines_own(q, rational):
    # the closed form takes s_a from the seed's directions (1, s_a, 0); the line's reduced basis
    # (1, s_a + c_a g, g), (0, c_a h, h) must give the same slope
    seed = _seed(q, rational)
    fld = seed.field
    lift = Lifting(build_frame(3, fld), seed)
    for (r0, r1), s in zip((line.basis for line in seed.lines), lift.emb.d_values, strict=True):
        assert fld.sub(r0[1], fld.mul(fld.div(r1[1], r1[2]), r0[2])) == s


@pytest.mark.parametrize(
    "q, n, rational",
    [(5, 3, False), (5, 4, False), (5, 5, False), (7, 3, False), (7, 4, False), (7, 5, False), (5, 3, True), (5, 4, True), (7, 3, True), (7, 4, True)],
)
def test_closed_form_lift_matches_chain_oracle(q, n, rational):
    # every ell_J and every z_{J, Jbar, m}, both orientations of each pair, against span and meet from the embedded seed
    seed = _seed(q, rational)
    lift = Lifting(build_frame(n, seed.field), seed)
    emb = lift.emb
    for length in range(1, n):
        for J in permutations(range(q), length):
            assert lift.line(J) == _chain_oracle(tuple(emb.lines[a] for a in J))
    per_m, checked = {}, 0
    for a, b in combinations(range(q), 2):
        pt = ProjPoint(seed.field, meet(emb.lines[a], emb.lines[b]).basis[0])
        m = next((i for i, line in enumerate(emb.m_lines) if line.contains(pt)), None)
        per_m.setdefault(m, []).append(((a, b), pt))
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
    assert checked >= q * (q - 1) // 2 - len(per_m.get(None, ()))


def test_paired_double_points_off_one_abscissa_are_refused():
    # a slanted measuring line m_0 through the double points of tangents (0, 1) at (4, 0) and (2, 3) at (6, 6):
    # the meet recursion comes back empty there, so the lift refuses the pair with the class it raised
    seed = dual_conic_seed(7)
    fld = seed.field
    seed.m_lines[0] = span(ProjPoint(fld, [4, 0, 1]), ProjPoint(fld, [6, 6, 1]))
    lift = Lifting(build_frame(3, fld), seed)
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
    lift = Lifting(build_frame(3, fld), seed)
    emb = lift.emb
    assert list(lift.doubles) == list(combinations(range(seed.N), 2))
    for (a, b), (at, m) in lift.doubles.items():
        pt = ProjPoint(fld, meet(emb.lines[a], emb.lines[b]).basis[0])
        assert m == next((i for i, line in enumerate(emb.m_lines) if line.contains(pt)), None)
        if fld.exact:
            assert fld.add(at, fld.one) == affine_coords(pt)[0]
        else:
            assert at.coords == pt.coords


@cache
def _step_lifting(q: int, n: int, rational: bool) -> Lifting:
    seed = _seed(q, rational)
    return Lifting(build_frame(n, seed.field), seed)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_exact_step_is_the_meet_of_its_spans(data):
    """_step returns meet(span(x_{j+1}, a), span(y_{j+1}, b)), or raises DegenerateSeed when that has the wrong dimension."""
    lift = _step_lifting(data.draw(st.sampled_from([5, 7])), data.draw(st.integers(3, 5)), data.draw(st.booleans()))
    fld, n, frame = lift.frame.field, lift.frame.n, lift.frame
    j = data.draw(st.integers(2, n - 1))
    is_line = data.draw(st.booleans())
    value = st.sampled_from([0, 0, 0, 1, 2, -1]).map(fld)

    def rows(k):
        return [[data.draw(value) for _ in range(n + 1)] for _ in range(k)]

    a_rows = rows(2 if is_line else 1)
    if data.draw(st.booleans()):  # a = x_{j+1}, or a line through it
        a_rows[0] = list(frame.x[j + 1].coords)
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
    out = meet(span(frame.x[j + 1], a), span(frame.y[j + 1], b))
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
    lift = Lifting(build_frame(n, seed.field), seed)
    x, y = lift.frame.x, lift.frame.y
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


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_dump_writes_the_bytes_of_json_dumps(doc):
    # dump is json.dump; save_kakeya's record formatter _fmt must write the same bytes for any document
    assert construction._fmt(doc, "") == json.dumps(doc, indent=2, sort_keys=True)


_PRIME = PrimeField(2**61 - 1)
_FIELDS = {
    "prime": (PrimeField(7), st.integers(0, 6)),
    "big prime": (_PRIME, st.integers(0, _PRIME.p - 1)),
    "rational": (QQ, st.builds(Fraction, st.integers(), st.integers(1, 10**20))),
    "real": (RealField(), st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300])),
}
_provenance = (
    st.dictionaries(_text, _documents, max_size=4)
    | st.dictionaries(st.integers(), _documents, max_size=2)
    | st.dictionaries(st.floats(allow_nan=False), _documents, max_size=2)
    | st.builds(lambda extra: {"kind": "seed", "extra": extra}, st.booleans())
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
