"""Multivariate polynomials, Hasse derivatives and the grid lower bounds.

Polynomials are sparse maps from exponent tuples to nonzero field values.
The Hasse derivative acts on monomials by

    d^j (X^e) = prod_i binomial(e_i, j_i) X^(e - j)

which differs from the iterated formal derivative in positive
characteristic and is the right notion for counting zero multiplicity
over any field.  A polynomial has a zero of multiplicity at least m at
a point exactly when every Hasse derivative of weight below m vanishes
there, so the space of polynomials of bounded degree vanishing to a
prescribed multiplicity on a finite point set is the nullspace of one
linear system per (point, derivative) pair.

The bound calculators evaluate the exact rational

    binomial(r*N + n - 1, n) / binomial(2r + n - 2, n)

which lower-bounds the size of any point set whose line family covers
an N^(n-1) grid of directions, together with its large-r limit (N/2)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .errors import (
    DimensionMismatch,
    HypothesisViolation,
    UnsupportedField,
    ZeroPolynomial,
)
from .linalg import nullspace
from .projgeom import PointSet, affine_coords, incidence
from .scalar import Field
from .verify import _direction_faults, _grid_coverage, _recovered_cells


def exponent_tuples(nvars: int, total: int):
    """All exponent tuples of the given length summing to total, in lex order."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in exponent_tuples(nvars - 1, total - first):
            yield (first,) + rest


def monomial_basis(nvars: int, deg_bound: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree at most deg_bound, graded then lex."""
    out: list[tuple[int, ...]] = []
    for w in range(deg_bound + 1):
        out.extend(exponent_tuples(nvars, w))
    return out


class Poly:
    """Sparse polynomial in nvars variables over one field; immutable."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        clean: dict[tuple[int, ...], object] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DimensionMismatch(
                    f"exponent tuple {exps} does not have {nvars} entries"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = field(coeff)
            if exps in clean:
                c = field.add(clean[exps], c)
            if field.is_zero(c):
                clean.pop(exps, None)
            else:
                clean[exps] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", dict(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars or other.field != self.field:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.field.eq(other.terms[e], c) for e, c in self.terms.items())

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(
                f"X{i}" if k == 1 else f"X{i}^{k}"
                for i, k in enumerate(e)
                if k
            )
            c = self.field.to_str(self.terms[e])
            bits.append(f"{c}*{mono}" if mono else c)
        return "Poly(" + " + ".join(bits) + ")"

    def evaluate(self, point):
        """Value at an affine point given by nvars field values."""
        point = list(point)
        if len(point) != self.nvars:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        fld = self.field
        total = fld.zero
        for e, c in self.terms.items():
            v = c
            for coord, k in zip(point, e):
                if k:
                    v = fld.mul(v, fld.pow(coord, k))
            total = fld.add(total, v)
        return total


def hasse_derivative(f: Poly, j) -> Poly:
    """Hasse derivative of f with respect to the multi-index j."""
    j = tuple(int(x) for x in j)
    if len(j) != f.nvars:
        raise DimensionMismatch(
            f"multi-index {j} does not have {f.nvars} entries"
        )
    if any(x < 0 for x in j):
        raise ValueError(f"negative entry in multi-index {j}")
    fld = f.field
    terms: dict[tuple[int, ...], object] = {}
    for e, c in f.terms.items():
        if any(ei < ji for ei, ji in zip(e, j)):
            continue
        factor = 1
        for ei, ji in zip(e, j):
            factor *= comb(ei, ji)
        coeff = fld.mul(c, fld(factor))
        if fld.is_zero(coeff):
            continue
        shifted = tuple(ei - ji for ei, ji in zip(e, j))
        terms[shifted] = fld.add(terms[shifted], coeff) if shifted in terms else coeff
    return Poly(fld, f.nvars, terms)


def multiplicity_at(f: Poly, point) -> int:
    """Largest m with every Hasse derivative of weight < m vanishing at the point.

    The search is capped at deg f + 1, which is only reached under
    tolerance arithmetic: over an exact field some derivative of weight
    at most deg f is a nonzero constant.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no multiplicity")
    point = list(point)
    deg = f.degree
    for w in range(deg + 1):
        for j in exponent_tuples(f.nvars, w):
            if not f.field.is_zero(hasse_derivative(f, j).evaluate(point)):
                return w
    return deg + 1


def top_part(f: Poly) -> Poly:
    """The homogeneous part of f of top degree."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no top part")
    deg = f.degree
    return Poly(
        f.field, f.nvars, {e: c for e, c in f.terms.items() if sum(e) == deg}
    )


def vanishing_space(
    points, deg_bound: int, mult: int, nvars: int, fld: Field
) -> list[Poly]:
    """Basis of polynomials of degree <= deg_bound with multiplicity >= mult on points.

    One linear constraint per point and multi-index of weight below
    mult; the basis is the exact nullspace of that system over the
    monomials of degree at most deg_bound.
    """
    if deg_bound < 0:
        raise ValueError("deg_bound must be nonnegative")
    if mult < 1:
        raise ValueError("mult must be at least 1")
    monos = monomial_basis(nvars, deg_bound)
    index = {e: c for c, e in enumerate(monos)}
    p = fld.p
    # X^e = X^(e - unit_i) * X_i for the first i with e_i > 0: (parent column, i)
    # of every monomial after the constant, parents first in the graded order
    steps = []
    for e in monos[1:]:
        i = next(i for i, k in enumerate(e) if k)
        steps.append((index[e[:i] + (e[i] - 1,) + e[i + 1 :]], i))
    # d^j X^e = binomial(e, j) X^(e - j): per multi-index j, the (column,
    # factor, column of e - j) of every monomial e whose factor is nonzero in the field
    derivs = []
    for w in range(mult):
        for j in exponent_tuples(nvars, w):
            keep = []
            for c, e in enumerate(monos):
                if all(ei >= ji for ei, ji in zip(e, j)):
                    factor = fld(prod(map(comb, e, j)))
                    if not fld.is_zero(factor):
                        keep.append((c, factor, index[tuple(ei - ji for ei, ji in zip(e, j))]))
            derivs.append(keep)
    rows: list[list] = []
    zero = fld.zero
    for raw in points:
        u = [fld(c) for c in raw]
        if len(u) != nvars:
            raise DimensionMismatch(
                f"point has {len(u)} coordinates, expected {nvars}"
            )
        val = [fld.one]  # the value of every monomial at u, one product each
        for s, i in steps:
            val.append(val[s] * u[i] % p if p else val[s] * u[i])
        for keep in derivs:
            row = [zero] * len(monos)
            for c, factor, s in keep:
                row[c] = factor * val[s] % p if p else factor * val[s]
            rows.append(row)
    basis_vectors = nullspace(rows, fld, len(monos))
    out = []
    for vec in basis_vectors:
        terms = {e: c for e, c in zip(monos, vec) if not fld.is_zero(c)}
        out.append(Poly(fld, nvars, terms))
    return out


@dataclass
class BoundReport:
    N: int
    n: int
    r: int
    bound: Fraction
    limit: Fraction
    r_max: int | None = None
    best_r: int | None = None

    def to_json(self) -> dict:
        doc = {
            "N": self.N,
            "n": self.n,
            "r": self.r,
            "bound": str(self.bound),
            "bound_approx": float(self.bound),
            "limit": str(self.limit),
            "limit_approx": float(self.limit),
        }
        if self.r_max is not None:
            doc["r_max"] = self.r_max
            doc["best_r"] = self.best_r
        return doc


def _grid_ratio(N: int, n: int, r: int) -> Fraction:
    return Fraction(comb(r * N + n - 1, n), comb(2 * r + n - 2, n))


def bound_grid(N: int, n: int, r: int) -> BoundReport:
    """Exact size lower bound for a point set whose directions fill an N^(n-1) grid."""
    if N < 1 or n < 1 or r < 1:
        raise ValueError("N, n and r must be positive")
    return BoundReport(
        N=N, n=n, r=r, bound=_grid_ratio(N, n, r), limit=Fraction(N, 2) ** n
    )


def bound_best(N: int, n: int, r_max: int = 64) -> BoundReport:
    """Walk r upward and keep the bound at the first local maximum of the ratio.

    The walk stops as soon as increasing r fails to improve the bound,
    or at r_max; the limiting value (N/2)^n is reported alongside so the
    large-r behavior stays visible.
    """
    if N < 1 or n < 1 or r_max < 1:
        raise ValueError("N, n and r_max must be positive")
    best_r, best = 1, _grid_ratio(N, n, 1)
    for r in range(2, r_max + 1):
        value = _grid_ratio(N, n, r)
        if value <= best:
            break
        best_r, best = r, value
    return BoundReport(
        N=N,
        n=n,
        r=best_r,
        bound=best,
        limit=Fraction(N, 2) ** n,
        r_max=r_max,
        best_r=best_r,
    )


@dataclass
class Certificate:
    N: int
    n: int
    r: int
    size: int
    guaranteed: bool
    f: Poly | None
    s_attestations: list[dict]
    d_attestations: list[dict]
    verdict: str

    def to_json(self) -> dict:
        if self.f is None:
            f_doc = None
        else:
            f_doc = {
                "terms": [
                    {"exponents": list(e), "coeff": self.f.field.to_str(self.f.terms[e])}
                    for e in sorted(self.f.terms, key=lambda t: (sum(t), t))
                ]
            }
        return {
            "N": self.N,
            "n": self.n,
            "r": self.r,
            "size": self.size,
            "guaranteed": self.guaranteed,
            "f": f_doc,
            "s_attestations": self.s_attestations,
            "d_attestations": self.d_attestations,
            "verdict": self.verdict,
        }


def certify(K, r: int) -> Certificate:
    """Find a low-degree polynomial crushed to high multiplicity on the point set
    and check that its top part vanishes to order r at every direction.

    The pipeline solves for a nonzero f of degree at most rN - 1 with
    multiplicity at least 2r - 1 at every point, then re-verifies both
    the point multiplicities and the induced direction multiplicities
    independently.  When the dimension count does not force a nonzero f
    and none exists, the verdict is pass-vacuous.  A family with a line
    that is not a line or does not have its stored direction, whose
    directions miss a cell of the N^(n-1) grid, or with a line carrying
    fewer than N distinct points, is outside the bound's hypothesis and
    raises HypothesisViolation.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    fld = K.field
    if not fld.exact:
        raise UnsupportedField(
            "certificates need exact arithmetic; tolerance fields are refused"
        )
    n, N = K.n, K.N
    if fault := next(_direction_faults(K), None):
        raise HypothesisViolation(fault)
    covered, cells = _grid_coverage(K, _recovered_cells(K))
    if covered < cells:
        raise HypothesisViolation(f"directions cover {covered} of {cells} grid cells")
    points = [kp.point for kp in K.points]
    first, on = incidence(fld, [kline.line for kline in K.lines], points)
    for idx, on_line in enumerate(on):
        count = sum(first[i] == i for i in on_line)
        if count < N:
            raise HypothesisViolation(
                f"line {idx} carries {count} distinct points, needs at least {N}"
            )

    affine_points = [affine_coords(p) for i, p in enumerate(points) if first[i] == i]
    size = len(affine_points)
    directions = PointSet(fld, (kline.direction for kline in K.lines)).items

    deg_bound = r * N - 1
    mult = 2 * r - 1
    guaranteed = comb(n + 2 * r - 2, n) * size < comb(n + deg_bound, n)
    basis = vanishing_space(affine_points, deg_bound, mult, n, fld)

    if not basis:
        verdict = "fail" if guaranteed else "pass-vacuous"
        return Certificate(N, n, r, size, guaranteed, None, [], [], verdict)

    f = basis[0]
    ok = not f.is_zero and f.degree <= deg_bound
    s_attestations = []
    for coords in affine_points:
        m = multiplicity_at(f, coords)
        good = m >= mult
        ok = ok and good
        s_attestations.append(
            {
                "point": [fld.to_str(c) for c in coords],
                "multiplicity": m,
                "required": mult,
                "ok": good,
            }
        )
    f_top = top_part(f)
    d_attestations = []
    for d in directions:
        m = multiplicity_at(f_top, list(d.coords[:-1]))
        good = m >= r
        ok = ok and good
        d_attestations.append(
            {
                "direction": d.to_json(),
                "multiplicity": m,
                "required": r,
                "ok": good,
            }
        )
    verdict = "pass" if ok else "fail"
    return Certificate(N, n, r, size, guaranteed, f, s_attestations, d_attestations, verdict)
