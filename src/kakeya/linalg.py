"""Row reduction, rank and nullspace over matrices of field values.

Matrices are lists of rows, each row a sequence of canonical values of
one field, and every entry operation goes through that field.  Over the
exact kinds every step is exact; over the real kind pivots are chosen by
largest magnitude and anything at or below the field tolerance counts as
zero.
"""

from __future__ import annotations

from .scalar import Field


def rref(rows, field: Field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    sub, mul, is_zero = field.sub, field.mul, field.is_zero
    pivots: list[int] = []
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


def rank(rows, field: Field) -> int:
    return len(rref(rows, field)[0])


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
    sub, mul = field.sub, field.mul
    v = list(vec)
    for row, p in zip(red, pivots):
        c = v[p]
        if not field.is_zero(c):
            v = [sub(a, mul(c, b)) for a, b in zip(v, row)]
            v[p] = field.zero
    return v
