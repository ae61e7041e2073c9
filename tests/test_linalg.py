"""Row reduction and nullspace against brute-force checks.

rref inserts exact rows one at a time on raw values and stops at full
column rank, over F_p on rows packed into one int each; _textbook_rref,
the column sweep through the field methods it replaced, is the oracle it
must match entry for entry (and, over the reals, bit for bit).
"""

import random
from fractions import Fraction
from itertools import product
from math import inf, nan, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.linalg import nullspace, reduce_vector, rref
from kakeya.projgeom import ProjPoint, Subspace
from kakeya.scalar import _PRIME_LIMIT, PrimeField, RationalField, RealField, _is_prime

F5 = PrimeField(5)
QQ = RationalField()
# lanes of 8, 16, 32 and 64 bits at up to 40 columns, then 9, 16 and 22 bytes
LARGEST_PRIME = next(q for q in range(_PRIME_LIMIT - 2, 0, -2) if _is_prime(q))
LANE_PRIMES = [2, 7, 251, 65521, 2**31 - 1, 2**61 - 1, LARGEST_PRIME]


def _rank(rows, fld):
    return len(rref(rows, fld)[0])


def _textbook_rref(rows, field):
    """Sweep the columns in turn, every entry operation through the field's methods."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    sub, mul, is_zero = field.sub, field.mul, field.is_zero
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        if field.exact:
            for i in range(r, nrows):
                if not is_zero(mat[i][c]):
                    best = i
                    break
        else:
            mag = field.tol
            for i in range(r, nrows):
                v = abs(mat[i][c])
                if v > mag:
                    mag = v
                    best = i
        if best is None:
            continue
        mat[r], mat[best] = mat[best], mat[r]
        inv = field.inv(mat[r][c])
        pivot = mat[r] = [mul(x, inv) for x in mat[r]]
        pivot[c] = field.one
        for i in range(nrows):
            f = mat[i][c]
            if i != r and not is_zero(f):
                mat[i] = [sub(a, mul(f, b)) for a, b in zip(mat[i], pivot)]
                mat[i][c] = field.zero
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _mat(fld, raw):
    return [[fld(x) for x in row] for row in raw]


def _is_zero_vector(vec, fld):
    return all(fld.is_zero(c) for c in vec)


def _apply(rows, vec, fld):
    out = []
    for row in rows:
        acc = fld.zero
        for a, b in zip(row, vec):
            acc = fld.add(acc, fld.mul(a, b))
        out.append(acc)
    return out


def test_rref_identity_stays_identity():
    rows = _mat(QQ, [[1, 0], [0, 1]])
    red, pivots = rref(rows, QQ)
    assert pivots == [0, 1]
    assert red == [[1, 0], [0, 1]]


def test_rref_drops_dependent_rows():
    rows = _mat(F5, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = rref(rows, F5)
    assert len(red) == 2
    assert pivots == [0, 1]


def test_rank_examples():
    assert _rank(_mat(QQ, [[1, 2], [2, 4]]), QQ) == 1
    assert _rank(_mat(QQ, [[1, 0], [0, 1]]), QQ) == 2
    assert _rank([], QQ) == 0


@st.composite
def _exact_matrices(draw):
    """A field and a matrix over it: tall, wide or empty, with zero, repeated and dependent rows mixed in."""
    fld = draw(st.sampled_from([PrimeField(2), PrimeField(7), QQ]))
    ncols = draw(st.integers(0, 7))
    entry = st.integers(-9, 9) if fld.kind == "rational" else st.integers(0, fld.p - 1)
    raw = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=9))
    rows = _mat(fld, raw)
    if rows:
        extra = draw(st.lists(st.sampled_from(["zero", "repeat", "combine"]), max_size=4))
        for kind in extra:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = fld(draw(st.integers(1, 6)))
            if kind == "zero":
                rows.append([fld.zero] * ncols)
            elif kind == "repeat":
                rows.append(list(a))
            else:
                rows.append([fld.add(x, fld.mul(f, y)) for x, y in zip(a, b)])
        rows = draw(st.permutations(rows))
    return fld, rows


@settings(max_examples=300, deadline=None)
@given(_exact_matrices())
def test_rref_matches_the_textbook_sweep_over_exact_fields(case):
    fld, rows = case
    before = [list(r) for r in rows]
    assert rref(rows, fld) == _textbook_rref(rows, fld)
    assert rows == before


@st.composite
def _raw_prime_matrices(draw):
    """A prime and a matrix of raw ints (any residue class representative) with up to 40 columns."""
    p = draw(st.sampled_from(LANE_PRIMES))
    ncols = draw(st.integers(0, 40))
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(-2 * p, 3 * p))
    basis = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=14))
    rows = list(basis)
    for _ in range(draw(st.integers(0, 6)) if basis else 0):  # zero rows and combinations of drawn rows
        f, g = draw(st.integers(-p, p)), draw(st.integers(-p, p))
        a, b = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
        rows.append([f * x + g * y for x, y in zip(a, b)])
    return p, draw(st.permutations(rows)), draw(st.sampled_from([list, tuple, iter]))


@settings(max_examples=150, deadline=None)
@given(_raw_prime_matrices())
def test_packed_rref_matches_the_textbook_sweep_on_raw_ints(case):
    p, rows, kind = case
    fld = PrimeField(p)
    before = [list(r) for r in rows]
    red, pivots = rref((kind(r) for r in rows), fld)
    assert (red, pivots) == _textbook_rref([[x % p for x in r] for r in rows], fld)
    assert all(type(x) is int and 0 <= x < p for row in red for x in row)
    assert [list(r) for r in rows] == before


def test_a_one_row_matrix_and_rows_no_reduction_touches_match_the_textbook_sweep():
    F7 = PrimeField(7)
    for rows in ([[3, 1, 4]], [[0, 2, 5, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 2, 0, 5], [3, 0, 0, 1], [0, 0, 6, 0]]):
        assert rref(rows, F7) == _textbook_rref(rows, F7)
    # the third row is reduced by the first two
    rows = [[1, 0, 0, 2], [0, 1, 0, 3], [1, 1, 1, 1]]
    assert rref(rows, F7) == _textbook_rref(rows, F7)


def test_a_reduction_adds_only_where_a_pivot_lane_is_nonzero():
    # over F_5 at 15 columns a lane is one byte, as 5 + 15*4^2 = 245 < 256: adding 5*b where a pivot lane
    # holds 0 would carry out of lane 14 (4 + 13*5*4 = 264), on insertion and in back-substitution alike
    F5, ncols = PrimeField(5), 15
    rows = [[1 if c == k else 4 if c == ncols - 1 else 0 for c in range(ncols)] for k in range(ncols - 1)]
    assert rref(rows, F5) == _textbook_rref(rows, F5)


def _bits(mat):
    return [[x.hex() for x in row] for row in mat]


@pytest.mark.parametrize("seed", range(40))
def test_real_rref_is_bitwise_the_textbook_sweep(seed):
    rng = random.Random(seed)
    fld = RealField(rng.choice([1e-9, 1e-6]))
    nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
    near_tol = [s * f * fld.tol for f in (0.5, 0.9, 1.1, 1.9) for s in (1, -1)]
    rows = [
        [rng.choice([0.0, -0.0, rng.choice(near_tol), rng.uniform(-5, 5), rng.uniform(-5, 5)]) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if rng.random() < 0.5:  # a row that is a multiple of another up to rounding
        f = rng.uniform(-3, 3)
        rows.append([f * x for x in rng.choice(rows)])
    red, pivots = rref(rows, fld)
    want, want_pivots = _textbook_rref(rows, fld)
    assert pivots == want_pivots
    assert _bits(red) == _bits(want)


def test_real_rref_pivots_within_a_factor_of_two_of_tol_stay_bitwise():
    fld = RealField(1e-6)
    rows = [[1.5e-6, 1.0, 0.3], [0.6e-6, 0.2, 1.0], [1.9e-6, 1.2, 1.3 + 1.5e-6]]
    red, pivots = rref(rows, fld)
    want, want_pivots = _textbook_rref(rows, fld)
    assert pivots == want_pivots and pivots[0] == 0
    assert _bits(red) == _bits(want)


def _textbook_reduce_vector(vec, red, pivots, field):
    """The residual of vec against an RREF basis, every entry operation through the field's methods."""
    v = list(vec)
    for row, c in zip(red, pivots):
        f = v[c]
        if not field.is_zero(f):
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
            v[c] = field.zero
    return v


@pytest.mark.parametrize("seed", range(40))
def test_real_residual_is_bitwise_the_textbook_reduction(seed):
    # reduce_vector and Subspace.contains on a real line against the field-method oracle: random
    # points, points on the line moved near tol, and points r0 + d r1 with |d| <= tol, whose r1 step is skipped
    rng = random.Random(seed)
    fld = RealField(rng.choice([1e-9, 1e-6]))
    near_tol = [s * f * fld.tol for f in (0.5, 0.9, 1.0, 1.1, 1.9) for s in (1, -1)]

    def entry():
        return rng.choice([0.0, -0.0, rng.choice(near_tol), rng.uniform(-5, 5), rng.uniform(-5, 5)])

    def line_entry():  # a pivot near tol would scale the basis far from the points
        return rng.choice([0.0, -0.0, rng.uniform(-5, 5), rng.uniform(-5, 5)])

    n, line = rng.randrange(2, 6), None
    while line is None or line.proj_dim != 1:
        line = Subspace.from_vectors(fld, n, [[line_entry() for _ in range(n + 1)] for _ in range(2)])
    (r0, r1), (c0, c1) = line.basis, line.pivots
    vectors = [[entry() for _ in range(n + 1)] for _ in range(20)]
    for d in [rng.uniform(-3, 3) for _ in range(10)]:
        v = [x + d * y for x, y in zip(r0, r1)]
        for k in rng.sample(range(n + 1), rng.randrange(n + 1)):
            v[k] += rng.choice(near_tol + [0.0, -0.0])
        vectors.append(v)
    vectors += [[x + d * y for x, y in zip(r0, r1)] for d in near_tol[:4] + [0.0, -0.0]]
    assert any(v[c0] == 1.0 and abs(v[c1] - r0[c1]) <= fld.tol for v in vectors), "no point skips the r1 step"
    for v in vectors:
        want = _textbook_reduce_vector(v, line.basis, line.pivots, fld)
        assert _bits([reduce_vector(v, line.basis, line.pivots, fld)]) == _bits([want])
        if any(abs(x) > fld.tol for x in v):
            p = ProjPoint(fld, v)
            residual = _textbook_reduce_vector(p.coords, line.basis, line.pivots, fld)
            assert line.contains(p) == all(map(fld.is_zero, residual))


def test_real_contains_at_the_tol_boundary_is_the_textbook_verdict():
    # a dyadic line and tol = 2^-20: points r0 + d r1 moved at one column by tol itself, its float neighbours,
    # -0.0, inf or NaN, so residuals and the r1 step's |d| <= tol land exactly on the boundary; contains (its
    # reduction inline, NaN failing) must give the field-method reduction's verdict and the old formula's
    fld = RealField(2.0**-20)
    tol = fld.tol
    r0, r1 = (1.0, 0.0, 0.5, 0.0, 0.0), (0.0, 1.0, -0.25, 2.0, 0.0)
    line = Subspace(fld, 4, (r0, r1), (0, 1))
    edges = [0.0, -0.0, tol, -tol, nextafter(tol, 0), -nextafter(tol, 0), nextafter(tol, 1), -nextafter(tol, 1)]
    verdicts = set()
    for d in edges + [0.5, -3.0]:
        for k, move in product(range(1, 5), edges + [inf, -inf, nan, 1.0]):
            v = [x + d * y for x, y in zip(r0, r1)]
            v[k] += move
            p = ProjPoint(fld, v)
            want = all(map(fld.is_zero, _textbook_reduce_vector(p.coords, line.basis, line.pivots, fld)))
            assert line.contains(p) is want is all(abs(x) <= tol for x in reduce_vector(p.coords, line.basis, line.pivots, fld))
            verdicts.add((k, move, want))
    assert (4, tol, True) in verdicts and (4, nextafter(tol, 1), False) in verdicts and (4, nan, False) in verdicts


@pytest.mark.parametrize("fld", [F5, PrimeField(2**61 - 1), QQ], ids=["prime", "wide-lane prime", "rational"])
def test_rref_reads_no_row_after_full_column_rank(fld):
    matrix = [[fld(int(i == k) + i // 3) for k in range(3)] for i in range(10)]
    read = []

    def rows():
        for i, row in enumerate(matrix):
            read.append(i)
            yield row

    assert rref(rows(), fld) == _textbook_rref(matrix, fld)
    assert read == [0, 1, 2]


@pytest.mark.parametrize("p", [2, 5, 2**61 - 1])
@pytest.mark.parametrize("ncols,extra", [(1, 0), (4, 0), (7, 0), (1, 3), (4, 2), (7, 5)])
def test_fp_rref_at_full_column_rank_is_fresh_identity_rows(p, ncols, extra):
    # square matrices, and tall ones whose rank reaches ncols before their last row
    fld = PrimeField(p)
    rng = random.Random(p * 100 + ncols * 10 + extra)
    while True:
        square = [[rng.randrange(p) for _ in range(ncols)] for _ in range(ncols)]
        if _rank(square, fld) == ncols:
            break
    rows = square + [[rng.randrange(-3 * p, 3 * p) for _ in range(ncols)] for _ in range(extra)]
    red, pivots = rref(rows, fld)
    assert (red, pivots) == _textbook_rref([[x % p for x in r] for r in rows], fld)
    assert pivots == list(range(ncols))
    assert all(type(x) is int for row in red for x in row)
    red[0][:] = [p - 1] * ncols  # rows are not aliased: the others keep their entries
    assert red[1:] == [[int(k == i) for k in range(ncols)] for i in range(1, ncols)]


def test_nullspace_vectors_annihilate_matrix():
    rng = random.Random(20240)
    for _ in range(50):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 6)
        raw = [[rng.randrange(5) for _ in range(ncols)] for _ in range(nrows)]
        rows = _mat(F5, raw)
        basis = nullspace([list(r) for r in rows], F5, ncols)
        for vec in basis:
            assert _is_zero_vector(_apply(rows, vec, F5), F5)
        assert _rank([list(r) for r in rows], F5) + len(basis) == ncols


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rank_plus_nullity_over_rationals(raw):
    rows = _mat(QQ, raw)
    basis = nullspace([list(r) for r in rows], QQ, 3)
    assert _rank([list(r) for r in rows], QQ) + len(basis) == 3
    for vec in basis:
        assert _is_zero_vector(_apply(rows, vec, QQ), QQ)


def test_nullspace_of_zero_map_is_full():
    basis = nullspace([], QQ, 4)
    assert len(basis) == 4
    for k, vec in enumerate(basis):
        assert vec[k] == 1
        assert sum(abs(v) for v in vec) == 1


def test_nullspace_known_kernel():
    # x + y + z = 0 over the rationals
    rows = _mat(QQ, [[1, 1, 1]])
    basis = nullspace(rows, QQ, 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] + vec[2] == Fraction(0)


def test_real_rref_picks_largest_pivot():
    fld = RealField(1e-9)
    rows = _mat(fld, [[1e-12, 1.0], [1.0, 0.0]])
    red, pivots = rref(rows, fld)
    # the tiny entry must not be used as a pivot
    assert len(red) == 2
    assert pivots == [0, 1]


# at tol 1e-6 column 0 keeps -5e-07 uneliminated in row 0, column 2's pivot 1.1e-06 then scales it up,
# and the row that ends with pivot 0 is 0.563 there while the other row is 0.455 in that column
_UNREDUCED_AT_1E_6 = [[-5e-07, 5e-07, -1.1e-06, 4.904, 4.336, -0.634], [4.096, 0.0, 3.936, 1.761, -2.125, 1.1e-06]]


def test_real_rref_of_rows_near_tol_is_not_reduced():
    red, pivots = rref(_UNREDUCED_AT_1E_6, RealField(1e-6))
    assert pivots == [0, 2]
    assert red == [
        [0.5632102272727273, 0.4367897727272727, 0.0, 4284034.520840731, 3787840.390292081, -553849.4318179132],
        [0.45454545454545453, -0.45454545454545453, 1.0, -4458181.818181818, -3941818.181818182, 576363.6363636364],
    ]


@pytest.mark.xfail(strict=True, reason="known defect: the real rref of these rows is not reduced, and contains rejects its span")
def test_a_real_line_contains_the_points_its_own_basis_spans():
    fld = RealField(1e-6)
    line = Subspace.from_vectors(fld, 5, _UNREDUCED_AT_1E_6)
    r0, r1 = line.basis
    rng = random.Random(6)
    for _ in range(200):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        assert line.contains(ProjPoint(fld, [a * x + b * y for x, y in zip(r0, r1)]))


def test_real_near_dependent_rows_collapse():
    fld = RealField(1e-6)
    rows = _mat(fld, [[1.0, 2.0], [1.0, 2.0 + 1e-9]])
    assert _rank(rows, fld) == 1
