"""Row reduction and nullspace over matrices of field values.

Matrices are lists of rows, each row a sequence of canonical values of
one field.  The entry arithmetic is inline: residues reduced mod p over
F_p, the native operators on Fractions over the rationals and on floats
over the reals (which is what the field methods compute).  Over the
exact kinds every step is exact; over the real kind pivots are chosen by
largest magnitude and anything at or below the field tolerance counts as
zero.
"""

from __future__ import annotations

from bisect import bisect
from itertools import islice

from .scalar import Field


def _axpy(v: list, f, b, p: int = 0, start: int = 0) -> None:
    """v -= f * b in place from column start on, each entry reduced mod p when p is nonzero."""
    pairs = zip(islice(v, start, None), islice(b, start, None))
    v[start:] = [(x - f * y) % p for x, y in pairs] if p else [x - f * y for x, y in pairs]


def rref(rows, field: Field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Over an exact field the rows are inserted one at a time into the
    reduced basis of the rows read so far: each is reduced against the
    basis, a pivot it keeps is normalised and cleared from the basis
    rows, and reading stops once the rank equals the column count.  The
    reduced form of an exact matrix is unique, so the result does not
    depend on the order of the rows.  Over the reals the columns are
    swept in turn with partial pivoting.
    """
    if not field.exact:
        return _pivoting_rref(rows, field)
    p = field.p if field.kind == "prime" else 0
    red: list[list] = []
    pivots: list[int] = []
    for row in rows:
        # a basis row is zero left of its pivot and at every other pivot, so
        # its factor v[c] is the entry v came with; one reduction mod p at the end
        v = list(row)
        for b, c in zip(red, pivots):
            if v[c]:
                _axpy(v, v[c], b, start=c)
        if p:
            v = [x % p for x in v]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = field.inv(v[lead])
            v[lead:] = [x * inv % p for x in v[lead:]] if p else [x * inv for x in v[lead:]]
            for b in red:
                if b[lead]:
                    _axpy(b, b[lead], v, p, lead)
            k = bisect(pivots, lead)
            red.insert(k, v)
            pivots.insert(k, lead)
        if len(red) == len(v):
            break
    return red, pivots


def _pivoting_rref(rows, field: Field) -> tuple[list[list], list[int]]:
    """Sweep the columns in turn, taking the largest entry above tol in each as its pivot."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    tol = field.tol
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best, mag = None, tol
        for i in range(r, nrows):
            v = abs(mat[i][c])
            if v > mag:
                mag = v
                best = i
        if best is None:
            continue
        mat[r], mat[best] = mat[best], mat[r]
        inv = field.inv(mat[r][c])
        pivot = mat[r] = [x * inv for x in mat[r]]
        pivot[c] = field.one
        for i in range(nrows):
            f = mat[i][c]
            if i != r and not abs(f) <= tol:
                _axpy(mat[i], f, pivot)
                mat[i][c] = field.zero
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def nullspace(rows, field: Field, ncols: int) -> list[list]:
    """Basis of {x : M x = 0}, one vector per free column of the RREF.

    The basis is canonical: vector k has a one in the k-th free column,
    zeros in the other free columns, and the negated RREF entries in the
    pivot columns.
    """
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(red[i][f])
        basis.append(v)
    return basis


def reduce_vector(vec, red, pivots, field: Field) -> list:
    """Residual of vec after eliminating the pivots of an RREF basis."""
    p = field.p if field.kind == "prime" else 0
    v = list(vec)
    for row, c in zip(red, pivots):
        if not field.is_zero(v[c]):
            _axpy(v, v[c], row, p)
            v[c] = field.zero
    return v
