"""Row reduction and nullspace against brute-force checks."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.linalg import nullspace, rank, rref
from kakeya.scalar import PrimeField, RationalField, RealField

F5 = PrimeField(5)
QQ = RationalField()


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
    assert rank(_mat(QQ, [[1, 2], [2, 4]]), QQ) == 1
    assert rank(_mat(QQ, [[1, 0], [0, 1]]), QQ) == 2
    assert rank([], QQ) == 0


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
        assert rank([list(r) for r in rows], F5) + len(basis) == ncols


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
    assert rank([list(r) for r in rows], QQ) + len(basis) == 3
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


def test_real_near_dependent_rows_collapse():
    fld = RealField(1e-6)
    rows = _mat(fld, [[1.0, 2.0], [1.0, 2.0 + 1e-9]])
    assert rank(rows, fld) == 1
