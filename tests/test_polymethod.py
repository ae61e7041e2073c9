"""Hasse derivatives, multiplicities, vanishing spaces and bounds."""

import math
import random
from fractions import Fraction
from math import comb, prod

import pytest

from kakeya.errors import (
    DimensionMismatch,
    HypothesisViolation,
    UnsupportedField,
    ZeroPolynomial,
)
from kakeya.polymethod import (
    Poly,
    bound_best,
    bound_grid,
    certify,
    exponent_tuples,
    hasse_derivative,
    monomial_basis,
    multiplicity_at,
    top_part,
    vanishing_space,
)
from kakeya.projgeom import ProjPoint, affine_coords
from kakeya.scalar import PrimeField, RationalField

QQ = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)


def _random_poly(fld, nvars, rng, max_deg=3, max_terms=4):
    while True:
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
            terms[e] = fld(rng.randrange(1, 7))
        f = Poly(fld, nvars, terms)
        if not f.is_zero:
            return f


def _mul(f, g):
    """The product f * g of two polynomials over one field, term by term."""
    fld, terms = f.field, {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = fld.add(terms.get(e, fld.zero), fld.mul(c1, c2))
    return Poly(fld, f.nvars, terms)


def _homogeneous(f):
    return len({sum(e) for e in f.terms}) <= 1


def test_poly_drops_zero_coefficients():
    f = Poly(F5, 2, {(1, 0): 5, (0, 1): 2})
    assert (1, 0) not in f.terms
    assert f.degree == 1


def test_poly_degree_and_zero():
    assert Poly(QQ, 3).degree == -1
    assert Poly(QQ, 3, {}).is_zero
    assert Poly(QQ, 3, {(0, 0, 0): 4}).degree == 0


def test_poly_evaluate():
    f = Poly(QQ, 2, {(2, 0): 1, (0, 1): 2, (0, 0): 1})
    assert f.evaluate([QQ(3), QQ(5)]) == Fraction(20)


def test_hasse_identity_weight_zero():
    rng = random.Random(0)
    f = _random_poly(QQ, 3, rng)
    assert hasse_derivative(f, (0, 0, 0)) == f


def test_hasse_monomial_rule_rationals():
    f = Poly(QQ, 1, {(3,): 1})
    assert hasse_derivative(f, (1,)) == Poly(QQ, 1, {(2,): 3})
    assert hasse_derivative(f, (2,)) == Poly(QQ, 1, {(1,): 3})
    assert hasse_derivative(f, (3,)) == Poly(QQ, 1, {(0,): 1})


def test_hasse_characteristic_two():
    f = Poly(F2, 1, {(2,): 1})
    assert hasse_derivative(f, (1,)).is_zero
    assert hasse_derivative(f, (2,)) == Poly(F2, 1, {(0,): 1})


def test_hasse_dimension_guard():
    f = Poly(QQ, 2, {(1, 0): 1})
    with pytest.raises(DimensionMismatch):
        hasse_derivative(f, (1,))


def test_hasse_composition_identity():
    # d^i d^j = prod binomial(i+j, i) d^(i+j)
    rng = random.Random(31)
    for fld in (F2, F5, PrimeField(101), QQ):
        for _ in range(30):
            f = _random_poly(fld, 2, rng)
            i = tuple(rng.randrange(3) for _ in range(2))
            j = tuple(rng.randrange(3) for _ in range(2))
            left = hasse_derivative(hasse_derivative(f, j), i)
            coeff = 1
            for a, b in zip(i, j):
                coeff *= comb(a + b, a)
            ij = tuple(a + b for a, b in zip(i, j))
            right = _mul(hasse_derivative(f, ij), Poly(fld, 2, {(0, 0): coeff}))
            assert left == right


def test_multiplicity_simple_cases():
    origin = [QQ(0), QQ(0)]
    assert multiplicity_at(Poly(QQ, 2, {(1, 0): 1}), origin) == 1
    assert multiplicity_at(Poly(QQ, 2, {(2, 1): 1}), origin) == 3
    assert multiplicity_at(Poly(QQ, 2, {(1, 0): 1, (0, 0): 1}), origin) == 0
    with pytest.raises(ZeroPolynomial):
        multiplicity_at(Poly(QQ, 2), origin)


def test_multiplicity_downgrade():
    rng = random.Random(5)
    for _ in range(40):
        f = _random_poly(F5, 2, rng)
        u = [F5(rng.randrange(5)) for _ in range(2)]
        m = multiplicity_at(f, u)
        w = rng.randrange(m + 1) if m else 0
        for j in [(w, 0), (0, w)]:
            g = hasse_derivative(f, j)
            if g.is_zero:
                continue
            assert multiplicity_at(g, u) >= m - w


def test_homogeneity_preserved_by_hasse():
    rng = random.Random(23)
    for _ in range(40):
        # build a random homogeneous polynomial of degree 4
        terms = {}
        for _ in range(3):
            a = rng.randrange(5)
            terms[(a, 4 - a)] = F5(rng.randrange(1, 5))
        f = Poly(F5, 2, terms)
        j = (rng.randrange(3), rng.randrange(3))
        g = hasse_derivative(f, j)
        assert g.is_zero or (
            _homogeneous(g) and g.degree == f.degree - sum(j)
        )


def test_top_part_examples():
    xx, xy = Poly(QQ, 2, {(2, 0): 1}), Poly(QQ, 2, {(1, 1): 1})
    assert top_part(Poly(QQ, 2, {(2, 0): 1, (0, 1): 1, (0, 0): 1})) == xx
    assert top_part(Poly(QQ, 2, {(1, 1): 1, (1, 0): 1, (0, 1): 1})) == xy
    assert top_part(xy) == xy
    with pytest.raises(ZeroPolynomial):
        top_part(Poly(QQ, 2))


def test_top_part_multiplicative():
    rng = random.Random(17)
    for _ in range(50):
        f = _random_poly(QQ, 2, rng)
        g = _random_poly(QQ, 2, rng)
        assert top_part(_mul(f, g)) == _mul(top_part(f), top_part(g))


def test_monomial_basis_counts():
    for n in (1, 2, 3):
        for d in (0, 1, 2, 5):
            assert len(monomial_basis(n, d)) == comb(n + d, n)


def test_vanishing_space_single_point():
    basis = vanishing_space([[QQ(0), QQ(0)]], 1, 1, 2, QQ)
    assert len(basis) == 2
    for f in basis:
        assert QQ.is_zero(f.evaluate([QQ(0), QQ(0)]))
        assert f.degree == 1


def test_vanishing_space_no_constraints():
    basis = vanishing_space([], 2, 1, 2, QQ)
    assert len(basis) == comb(4, 2)


def test_vanishing_space_respects_multiplicity():
    rng = random.Random(41)
    pts = [[F5(rng.randrange(5)), F5(rng.randrange(5))] for _ in range(3)]
    basis = vanishing_space(pts, 5, 2, 2, F5)
    dim_lower = comb(2 + 5, 2) - comb(2 + 1, 2) * len(pts)
    assert len(basis) >= dim_lower
    for f in basis:
        for u in pts:
            assert multiplicity_at(f, u) >= 2


def test_vanishing_space_dimension_via_independent_elimination():
    # cross-check the nullspace dimension with a plain gaussian elimination
    pts = [[F5(x), F5((x * x) % 5)] for x in range(5)]
    deg_bound, mult = 3, 1
    basis = vanishing_space(pts, deg_bound, mult, 2, F5)

    monos = monomial_basis(2, deg_bound)
    matrix = []
    for u in pts:
        row = []
        for e in monos:
            v = 1
            for c, k in zip(u, e):
                v = (v * pow(c, k, 5)) % 5
            row.append(v)
        matrix.append(row)
    # row reduce mod 5 without the library
    rank = 0
    ncols = len(monos)
    col = 0
    rows = [list(r) for r in matrix]
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % 5), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, 5)
        rows[rank] = [(x * inv) % 5 for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % 5:
                f = rows[i][col]
                rows[i] = [(a - f * b) % 5 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    assert len(basis) == ncols - rank


def _per_power_rows(points, deg_bound, mult, nvars, fld):
    """The constraint rows built entry by entry from per-variable power tables (the oracle)."""
    monos = monomial_basis(nvars, deg_bound)
    p = fld.p if fld.kind == "prime" else 0
    derivs = []
    for w in range(mult):
        for j in exponent_tuples(nvars, w):
            keep = []
            for c, e in enumerate(monos):
                if all(ei >= ji for ei, ji in zip(e, j)):
                    factor = fld(prod(map(comb, e, j)))
                    if not fld.is_zero(factor):
                        keep.append((c, factor, tuple(ei - ji for ei, ji in zip(e, j))))
            derivs.append(keep)
    rows = []
    for raw in points:
        u = [fld(c) for c in raw]
        powers = [[fld.one] for _ in range(nvars)]
        for i in range(nvars):
            for _ in range(deg_bound):
                powers[i].append(fld.mul(powers[i][-1], u[i]))
        for keep in derivs:
            row = [fld.zero] * len(monos)
            for c, entry, shift in keep:
                for pw, k in zip(powers, shift):
                    entry = entry * pw[k]
                row[c] = entry % p if p else entry
            rows.append(row)
    return rows


@pytest.mark.parametrize("fld", [F5, F7, QQ], ids=["F5", "F7", "Q"])
@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("deg_bound,mult", [(0, 1), (1, 2), (3, 1), (4, 2), (5, 3), (7, 2)])
def test_vanishing_space_rows_match_the_per_power_oracle(fld, nvars, deg_bound, mult, monkeypatch):
    from kakeya import polymethod

    rng = random.Random(deg_bound * 10 + mult)
    coord = (lambda: fld(rng.randrange(fld.p))) if fld.kind == "prime" else (lambda: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
    points = [[coord() for _ in range(nvars)] for _ in range(rng.randrange(1, 6))]
    points.append(list(points[0]))  # a repeated point
    seen = []
    solve = polymethod.nullspace
    monkeypatch.setattr(polymethod, "nullspace", lambda rows, *rest: seen.append(rows) or solve(rows, *rest))
    basis = vanishing_space(points, deg_bound, mult, nvars, fld)
    want = _per_power_rows(points, deg_bound, mult, nvars, fld)
    assert seen == [want]
    assert [[type(x) for x in row] for row in seen[0]] == [[type(x) for x in row] for row in want]
    monos = monomial_basis(nvars, deg_bound)
    assert basis == [Poly(fld, nvars, dict(zip(monos, vec))) for vec in solve(want, fld, len(monos))]


def _direction_multiplicity(f, directions):
    """The least multiplicity of f at the affine parts of directions at infinity."""
    return min(multiplicity_at(f, d.coords[:-1]) for d in directions)


def test_direction_multiplicity_grid_generator():
    # the grid form: the product of (X0 - a * X2) over a in F_5, homogeneous of degree 5
    g = Poly(F5, 3, {(0, 0, 0): 1})
    for a in range(5):
        g = _mul(g, Poly(F5, 3, {(1, 0, 0): 1, (0, 0, 1): -a}))
    assert _homogeneous(g) and g.degree == 5
    grid_points = [
        ProjPoint(F5, [F5(a), F5(b), F5(1), F5(0)]) for a in range(5) for b in range(5)
    ]
    assert _direction_multiplicity(g, grid_points) >= 1
    assert _direction_multiplicity(_mul(g, g), grid_points) >= 2


def test_direction_multiplicity_nonvanishing():
    f = Poly(F5, 3, {(0, 0, 1): 1})
    pts = [ProjPoint(F5, [F5(a), F5(0), F5(1), F5(0)]) for a in range(5)]
    assert _direction_multiplicity(f, pts) == 0


def _factorial_ratio(a, n):
    return Fraction(math.factorial(a), math.factorial(n) * math.factorial(a - n))


def test_bound_grid_frozen_values():
    assert bound_grid(7, 3, 1).bound == 84
    assert bound_grid(16, 4, 1).bound == 3876
    assert bound_grid(16, 4, 2).bound == Fraction(10472, 3)
    assert bound_grid(8, 2, 1).bound == 36


def test_bound_grid_factorial_oracle():
    rng = random.Random(6)
    for _ in range(30):
        N = rng.randrange(2, 20)
        n = rng.randrange(1, 6)
        r = rng.randrange(1, 6)
        expected = _factorial_ratio(r * N + n - 1, n) / _factorial_ratio(
            2 * r + n - 2, n
        )
        rep = bound_grid(N, n, r)
        assert rep.bound == expected
        assert rep.limit == Fraction(N, 2) ** n


def test_bound_best_stops_at_first_drop():
    rep = bound_best(8, 2, 8)
    assert rep.best_r == 1 and rep.bound == 36
    rep = bound_best(16, 4, 64)
    assert rep.best_r == 1 and rep.bound == 3876
    assert rep.limit == 4096


def test_bound_reports_serialize():
    doc = bound_grid(7, 3, 1).to_json()
    assert doc["bound"] == "84"
    assert doc["limit"] == "343/8"
    doc = bound_best(16, 4, 64).to_json()
    assert doc["best_r"] == 1 and doc["r_max"] == 64


def test_bound_input_validation():
    for bad in ((0, 3, 1), (7, 0, 1), (7, 3, 0)):
        with pytest.raises(ValueError):
            bound_grid(*bad)


def test_certify_rejects_real_sets():
    from kakeya.construction import assemble
    from kakeya.seeds import regular_ngon_seed

    K = assemble(regular_ngon_seed(8), 2)
    with pytest.raises(UnsupportedField):
        certify(K, 1)


def test_certify_flags_starved_line():
    from kakeya.construction import assemble
    from kakeya.seeds import dual_conic_seed

    K = assemble(dual_conic_seed(5), 2)
    K.points = K.points[:4]
    with pytest.raises(HypothesisViolation):
        certify(K, 1)


def test_certify_vacuous_on_full_conic_seed():
    from kakeya.construction import assemble
    from kakeya.seeds import dual_conic_seed

    K = assemble(dual_conic_seed(5), 2)
    cert = certify(K, 1)
    assert cert.verdict == "pass-vacuous"
    assert cert.f is None and not cert.guaranteed
    doc = cert.to_json()
    assert doc["f"] is None and doc["verdict"] == "pass-vacuous"


def test_certify_forced_polynomial_single_line():
    # one line with N points: few enough constraints to force a nonzero f,
    # whose top part must then vanish at the line's direction; one direction
    # does not cover the grid, so certify refuses the family
    from kakeya.construction import KakeyaSet, assemble
    from kakeya.seeds import dual_conic_seed

    K = assemble(dual_conic_seed(7), 2)
    kl = K.lines[0]
    pts = [kp for kp in K.points if kl.line.contains(kp.point)]
    small = KakeyaSet(K.field, 2, 7, K.grid, [kl], pts, {})
    with pytest.raises(HypothesisViolation, match="directions cover 1 of 7 grid cells"):
        certify(small, 1)
    affine = [affine_coords(kp.point) for kp in pts]
    assert comb(2 + 6, 2) > len(affine)
    f = vanishing_space(affine, 6, 1, 2, K.field)[0]
    assert f.degree <= 6
    assert all(multiplicity_at(f, u) >= 1 for u in affine)
    assert _direction_multiplicity(top_part(f), [kl.direction]) >= 1


def test_certify_attests_the_solved_polynomial_independently(monkeypatch):
    # on a covering family no f exists; a solver answer is still re-checked
    # point by point and direction by direction, and a wrong one fails
    from kakeya import polymethod
    from kakeya.construction import assemble
    from kakeya.seeds import dual_conic_seed

    K = assemble(dual_conic_seed(5), 2)
    x = Poly(F5, 2, {(0, 1): 1})
    monkeypatch.setattr(polymethod, "vanishing_space", lambda *args: [x])
    cert = certify(K, 1)
    assert cert.f == x and cert.verdict == "fail"
    assert len(cert.s_attestations) == cert.size and len(cert.d_attestations) == len(K.lines)
    assert {a["ok"] for a in cert.s_attestations} == {True, False}
    assert [a["ok"] for a in cert.d_attestations].count(True) == 1  # X1 vanishes at (1 : 0 : 0) alone
