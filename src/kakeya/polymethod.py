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

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod
from operator import add, ge, sub

from .errors import HypothesisViolation, UnsupportedField
from .linalg import nullspace
from .projgeom import PointSet, affine_coords
from .scalar import Field
from .verify import Tally, _approx, _grid_ratio


def exponent_tuples(nvars: int, total: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given length summing to total, in lex order.

    Stars and bars: the nvars - 1 bars stand after s_0 <= s_1 <= ... stars, the partial sums
    e_0, e_0 + e_1, ... of the tuple, and lex order on the s is lex order on the tuples.
    """
    if nvars == 0:
        return [()] if total == 0 else []
    return [tuple(map(sub, s + (total,), (0,) + s)) for s in combinations_with_replacement(range(total + 1), nvars - 1)]


def monomial_basis(nvars: int, deg_bound: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree at most deg_bound, graded then lex."""
    out: list[tuple[int, ...]] = []
    for w in range(deg_bound + 1):
        out.extend(exponent_tuples(nvars, w))
    return out


class Poly:
    """Sparse polynomial in nvars variables over one field; immutable.

    terms maps exponent tuples (nvars nonnegative ints each) to coefficients; each coefficient
    is canonicalized by field(c), and the zero ones are dropped.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        clean: dict[tuple[int, ...], object] = {}
        for exps, coeff in (terms or {}).items():
            c = field(coeff)
            if not field.is_zero(c):
                clean[exps] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

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

    def evaluate(self, point):
        """Value at an affine point given by nvars field values."""
        point = list(point)
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
    if any(x < 0 for x in j):
        raise ValueError(f"negative entry in multi-index {j}")
    fld = f.field
    return Poly(
        fld,
        f.nvars,
        {tuple(map(sub, e, j)): fld.mul(c, fld(prod(map(comb, e, j)))) for e, c in f.terms.items() if all(map(ge, e, j))},
    )


def multiplicity_at(f: Poly, point) -> int:
    """Largest m with every Hasse derivative of weight < m of the nonzero f vanishing at the point.

    The search is capped at deg f + 1, which is only reached under
    tolerance arithmetic: over an exact field some derivative of weight
    at most deg f is a nonzero constant.
    """
    point = list(point)
    deg = f.degree
    for w in range(deg + 1):
        for j in exponent_tuples(f.nvars, w):
            if not f.field.is_zero(hasse_derivative(f, j).evaluate(point)):
                return w
    return deg + 1


def top_part(f: Poly) -> Poly:
    """The homogeneous part of the nonzero f of top degree."""
    deg = f.degree
    return Poly(
        f.field, f.nvars, {e: c for e, c in f.terms.items() if sum(e) == deg}
    )


def vanishing_space(
    points, deg_bound: int, mult: int, nvars: int, fld: Field
) -> list[Poly]:
    """Basis of polynomials of degree <= deg_bound with multiplicity >= mult on points.

    One linear constraint per point and multi-index of weight below
    mult and at most deg_bound (a heavier one reaches no monomial, so its
    constraint is zero); the basis is the exact nullspace of that system
    over the monomials of degree at most deg_bound, for deg_bound >= 0,
    mult >= 1 and points of nvars coordinates each.

    The rows go weight by weight: every point's monomial values (its
    weight-0 row, as binomial(e, 0) = 1), then per multi-index of weight
    1, 2, ... its row at every point.  The exact `rref` stops at full
    column rank, and in this order reaches it sooner than point by point
    (107 rows of 140 read at conic q=7 n=2 r=2, 105 columns); the reduced
    form over F_p and the rationals, and so the basis, is unique.
    """
    monos = monomial_basis(nvars, deg_bound)
    index = {e: c for c, e in enumerate(monos)}
    p = fld.p
    # X^e = X^(e - unit_i) * X_i for the first i with e_i > 0: (parent column, i)
    # of every monomial after the constant, parents first in the graded order
    steps = []
    for e in monos[1:]:
        i = next(i for i, k in enumerate(e) if k)
        steps.append((index[e[:i] + (e[i] - 1,) + e[i + 1 :]], i))
    vals = []  # per point, the value of every monomial at it, one product each
    for raw in points:
        u = [fld(c) for c in raw]
        val = [fld.one]
        for s, i in steps:
            val.append(val[s] * u[i] % p if p else val[s] * u[i])
        vals.append(val)
    rows: list[list] = list(vals)
    zero = fld.zero
    for w in range(1, min(mult, deg_bound + 1)):
        # d^j X^e = binomial(e, j) X^(e - j) is zero unless e = e' + j with e' in the
        # prefix of monos of degree <= deg_bound - w: per multi-index j of weight w (the
        # weight-w slice of monos), the (column of e, factor, column of e') of each such e
        # whose factor is nonzero in the field
        reach = monos[: comb(deg_bound - w + nvars, nvars)]
        for j in monos[comb(w - 1 + nvars, nvars) : comb(w + nvars, nvars)]:
            keep = []
            for s, low in enumerate(reach):
                e = tuple(map(add, low, j))
                factor = fld(prod(map(comb, e, j)))
                if not fld.is_zero(factor):
                    keep.append((index[e], factor, s))
            for val in vals:
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


class BoundReport:
    __slots__ = ("N", "n", "r", "bound", "limit", "r_max", "best_r")

    def __init__(self, N: int, n: int, r: int, bound: Fraction, limit: Fraction, r_max: int | None = None, best_r: int | None = None):
        self.N, self.n, self.r, self.bound, self.limit, self.r_max, self.best_r = N, n, r, bound, limit, r_max, best_r

    def to_json(self) -> dict:
        doc = {
            "N": self.N,
            "n": self.n,
            "r": self.r,
            "bound": str(self.bound),
            "bound_approx": _approx("bound", self.bound),
            "limit": str(self.limit),
            "limit_approx": _approx("limit", self.limit),
        }
        if self.r_max is not None:
            doc["r_max"] = self.r_max
            doc["best_r"] = self.best_r
        return doc


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
    report = bound_grid(N, n, best_r)
    report.r_max, report.best_r = r_max, best_r
    return report


class Certificate:
    __slots__ = ("N", "n", "r", "size", "guaranteed", "f", "s_attestations", "d_attestations", "verdict")

    def __init__(
        self, N: int, n: int, r: int, size: int, guaranteed: bool, f: Poly | None,
        s_attestations: list[dict], d_attestations: list[dict], verdict: str,
    ):
        self.N, self.n, self.r, self.size, self.guaranteed, self.f = N, n, r, size, guaranteed, f
        self.s_attestations, self.d_attestations, self.verdict = s_attestations, d_attestations, verdict

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
    that is not a line or lacks its stored direction (Tally.faults), or
    outside the bound's hypothesis (Tally.hypothesis), raises
    HypothesisViolation with the first witness.

    Every family accepted here gives an empty basis and pass-vacuous: such
    an f would have a top part vanishing to order r on the N^(n-1) grid of
    directions, which the grid lemma forbids for a nonzero polynomial of
    degree below rN.  With (deg_bound, mult) fixed at (rN - 1, 2r - 1),
    the attestation branch runs only when the solver is substituted.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    fld = K.field
    if not fld.exact:
        raise UnsupportedField(
            "certificates need exact arithmetic; tolerance fields are refused"
        )
    n, N = K.n, K.N
    t = Tally(K)
    if faults := t.faults + t.hypothesis:
        raise HypothesisViolation(faults[0])

    affine_points = [affine_coords(kp.point) for i, kp in enumerate(K.points) if t.first[i] == i]
    size = len(affine_points)
    deg_bound = r * N - 1
    mult = 2 * r - 1
    guaranteed = size < _grid_ratio(N, n, r)
    basis = vanishing_space(affine_points, deg_bound, mult, n, fld)

    if not basis:
        verdict = "fail" if guaranteed else "pass-vacuous"
        return Certificate(N, n, r, size, guaranteed, None, [], [], verdict)

    f = basis[0]
    directions = PointSet(fld, (kline.direction for kline in K.lines)).items
    s_attestations = _attest(f, ((c, [fld.to_str(x) for x in c]) for c in affine_points), "point", mult)
    d_attestations = _attest(top_part(f), ((d.coords[:-1], d.to_json()) for d in directions), "direction", r)
    ok = not f.is_zero and f.degree <= deg_bound and all(a["ok"] for a in s_attestations + d_attestations)
    verdict = "pass" if ok else "fail"
    return Certificate(N, n, r, size, guaranteed, f, s_attestations, d_attestations, verdict)


def _attest(f: Poly, pairs, key: str, required: int) -> list[dict]:
    """The record of f's multiplicity at each (coordinates, shown) pair, shown under key, against required."""
    out = []
    for coords, shown in pairs:
        m = multiplicity_at(f, coords)
        out.append(
            {
                key: shown,
                "multiplicity": m,
                "required": required,
                "ok": m >= required,
            }
        )
    return out
