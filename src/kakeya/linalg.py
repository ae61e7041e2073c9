"""Row reduction and nullspace over matrices of field values.

Matrices are lists of rows, each row a sequence of values of one field.
The entry arithmetic is inline: residues reduced mod p over F_p, the
native operators on Fractions over the rationals and on floats over the
reals (which is what the field methods compute).  Over the exact kinds
every step is exact; over the real kind pivots are chosen by largest
magnitude and anything at or below the field tolerance counts as zero.

Over F_p a row is packed into one int once a reduction needs it, entry
k in lane k (bits k*W up to (k+1)*W), so one big-int multiply-add
updates every entry.  W is a whole number of bytes (8 to 64 bits
through `struct`, wider through bytes) with p + ncols*(p-1)^2 < 2^W: a
row starts below p and takes at most ncols additions of (p-x)*b, x and
b's lanes below p, so no lane carries and lanes are reduced mod p once,
on unpacking.  Packing is lazy, as construct solves only systems of at
most four rows (seed, audit, embedding, completion lines): the first
row, a row nothing reduces and a basis row reducing nothing stay lists.
At full column rank the reduced form is the identity, returned as fresh
rows; any other echelon basis is back-substituted at the end.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache
from itertools import islice
from struct import Struct

from .scalar import Field

_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # little-endian struct items by byte size; wider lanes use bytes


def _axpy(v: list, f, b, p: int = 0, start: int = 0) -> None:
    """v -= f * b in place from column start on, each entry reduced mod p when p is nonzero."""
    pairs = zip(islice(v, start, None), islice(b, start, None))
    v[start:] = [(x - f * y) % p for x, y in pairs] if p else [x - f * y for x, y in pairs]


@cache
def _lanes(p: int, ncols: int) -> tuple[Struct | None, int, int, int]:
    """Struct of a row (None past 64-bit lanes), lane bytes, bits and mask, with p + ncols*(p-1)^2 < 2^bits."""
    size = -(-(p + ncols * (p - 1) ** 2).bit_length() // 8)
    size = next((s for s in _STRUCT_CODES if s >= size), size)
    fmt = Struct(f"<{ncols}{_STRUCT_CODES[size]}") if size in _STRUCT_CODES else None
    return fmt, size, 8 * size, (1 << 8 * size) - 1


def _pack(vals: list, fmt: Struct | None, size: int) -> int:
    return int.from_bytes(fmt.pack(*vals) if fmt else b"".join(x.to_bytes(size, "little") for x in vals), "little")


def _unpack(w: int, fmt: Struct | None, size: int, ncols: int) -> tuple[int, ...] | list[int]:
    buf = w.to_bytes(size * ncols, "little")
    return fmt.unpack(buf) if fmt else [int.from_bytes(buf[k : k + size], "little") for k in range(0, len(buf), size)]


def rref(rows, field: Field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Over an exact field the rows are inserted one at a time into the
    basis of the rows read so far, and reading stops once the rank
    equals the column count.  The reduced form of an exact matrix is
    unique, so the result does not depend on the order of the rows.
    Over F_p the entries may be any ints: the basis is kept in echelon
    form (pivot 1, entries below p) on lazily packed rows, an incoming
    row is reduced in pivot order, and the basis is back-substituted at
    the end, or returned as the identity once the rank reaches the
    column count.  Over the rationals a row is reduced against the reduced
    basis, and a pivot it keeps is cleared from the basis rows.  Over
    the reals the columns are swept in turn with partial pivoting.
    """
    if not field.exact:
        return _pivoting_rref(rows, field)
    if field.p:
        return _fp_rref(rows, field.p)
    red: list[list] = []
    pivots: list[int] = []
    for row in rows:
        # a basis row is zero left of its pivot and at every other pivot, so
        # its factor v[c] is the entry v came with
        v = list(row)
        for b, c in zip(red, pivots):
            if v[c]:
                _axpy(v, v[c], b, start=c)
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = field.inv(v[lead])
            v[lead:] = [x * inv for x in v[lead:]]
            for b in red:
                if b[lead]:
                    _axpy(b, b[lead], v, start=lead)
            k = bisect(pivots, lead)
            red.insert(k, v)
            pivots.insert(k, lead)
        if len(red) == len(v):
            break
    return red, pivots


def _fp_rref(rows, p: int) -> tuple[list[list[int]], list[int]]:
    red: list[list[int]] = []  # the echelon basis, sorted by pivot
    packed: list = []  # each basis row packed, None until a reduction needs it
    pivots: list[int] = []
    ncols = -1
    for row in rows:
        v = [x % p for x in row]
        if ncols < 0:
            ncols = len(v)
            fmt, size, bits, mask = _lanes(p, ncols)
        w = 0  # v packed, once a reduction has touched it (a packed row is never 0)
        for k, c in enumerate(pivots):
            x = ((w >> c * bits) & mask) % p if w else v[c]
            if x:
                b = packed[k] = packed[k] or _pack(red[k], fmt, size)
                w = (w or _pack(v, fmt, size)) + (p - x) * b
        if w:
            v = [x % p for x in _unpack(w, fmt, size, ncols)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            if v[lead] != 1:
                inv = pow(v[lead], -1, p)
                v = [x * inv % p for x in v]
            k = bisect(pivots, lead)
            red.insert(k, v)
            packed.insert(k, None)
            pivots.insert(k, lead)
        if len(red) == ncols:  # full column rank: the reduced form is the identity
            return [[0] * i + [1] + [0] * (ncols - 1 - i) for i in range(ncols)], list(range(ncols))
    # bottom-up: a finished row is zero at every other pivot, so row i's factors are its own entries
    for i in range(len(red) - 2, -1, -1):
        factors = [(j, red[i][c]) for j, c in enumerate(pivots[i + 1 :], i + 1) if red[i][c]]
        if factors:
            w = packed[i] or _pack(red[i], fmt, size)
            for j, x in factors:
                packed[j] = packed[j] or _pack(red[j], fmt, size)
                w += (p - x) * packed[j]
            red[i], packed[i] = [x % p for x in _unpack(w, fmt, size, ncols)], None
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
        row, mat[best] = mat[best], mat[r]
        inv = 1.0 / row[c]  # field.inv without its refusal: |row[c]| > tol
        pivot = mat[r] = [x * inv for x in row]
        pivot[c] = 1.0
        for i, v in enumerate(mat):
            if i != r and not abs(f := v[c]) <= tol:
                v = mat[i] = [x - f * y for x, y in zip(v, pivot)]
                v[c] = 0.0
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def nullspace(rows, field: Field, ncols: int) -> list[list]:
    """Basis of {x : M x = 0}, one vector per free column of the RREF.

    The basis is canonical: vector k has a one in the k-th free column,
    zeros in the other free columns, and the negated RREF entries in the
    pivot columns.  Every row has ncols entries.
    """
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
    """Residual of vec after eliminating the pivots of an RREF basis (Subspace.contains runs it inline over the reals)."""
    v = list(vec)
    for row, c in zip(red, pivots):
        if not field.is_zero(v[c]):
            _axpy(v, v[c], row, field.p)
            v[c] = field.zero
    return v
