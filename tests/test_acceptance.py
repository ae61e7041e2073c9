"""Acceptance gate: one test per shipped criterion.

Each test prints a single PASS/FAIL line outside pytest's capture so
the verdicts stay visible in the terminal, and asserts the stated
runtime budget on top of the functional checks.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from kakeya.cli import main as cli_main
from kakeya.construction import (
    Lifting,
    assemble,
    build_frame,
    grid_values_from_direction,
    load_kakeya,
)
from kakeya.polymethod import (
    Poly,
    bound_best,
    bound_grid,
    certify,
    hasse_derivative,
    multiplicity_at,
    top_part,
    vanishing_space,
)
from kakeya.projgeom import ProjPoint, affine_coords, incidence, meet, span
from kakeya.scalar import PrimeField, RationalField
from kakeya.seeds import dual_conic_seed, regular_ngon_seed, seed_report
from kakeya.verify import (
    _recovered_cells,
    verify_all,
    verify_bound_consistency,
    verify_directions,
    verify_incidence,
    verify_size,
)


@pytest.fixture
def announce(capsys):
    def emit(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)

    return emit


@pytest.fixture(scope="module")
def conic7():
    return assemble(dual_conic_seed(7), 3)


def test_criterion_1_conic_pipeline(tmp_path, announce):
    start = time.monotonic()
    out = tmp_path / "k7.json"
    assert cli_main(["construct", "--seed", "conic", "--q", "7", "--dim", "3", "--out", str(out)]) == 0
    K = load_kakeya(str(out))

    reports = verify_all(K)
    checks_ok = all(rep.verdict == "pass" for rep in reports)

    cells = []
    for kl in K.lines:
        values = grid_values_from_direction(kl.direction)
        cells.append(tuple(values))
    lifted_idx = [i for i, c in enumerate(cells) if len(set(c)) == len(c)]
    lifted_lines_ok = len(lifted_idx) == 42
    directions_ok = len(set(cells)) == 49 and len(K.lines) == 49

    counts_ok = all(
        sum(1 for kp in K.points if kl.line.contains(kp.point)) >= 7 for kl in K.lines
    )

    lifted_points = [kp for kp in K.points if kp.provenance["kind"] == "lifted"]
    incidence_ok = all(
        sum(1 for i in lifted_idx if K.lines[i].line.contains(kp.point)) == 4
        for kp in lifted_points
    )

    size_rep = next(rep for rep in reports if rep.check == "size")
    leading_ok = size_rep.measured["leading_term"] == "343/4"
    c_reported = "c_measured" in size_rep.measured

    elapsed = time.monotonic() - start
    ok = (
        checks_ok
        and lifted_lines_ok
        and directions_ok
        and counts_ok
        and incidence_ok
        and leading_ok
        and c_reported
        and elapsed < 10
    )
    announce(1, ok, f"49 lines, 42 lifted, {elapsed:.2f}s")
    assert checks_ok
    assert lifted_lines_ok and directions_ok
    assert counts_ok and incidence_ok
    assert leading_ok and c_reported
    assert elapsed < 10


def test_criterion_2_closed_form_oracle(announce):
    # the closed-form directions against the meet recursion of the lifting step
    start = time.monotonic()
    seed = dual_conic_seed(11)
    frame = build_frame(4, seed.field)
    lift = Lifting(frame, seed)
    by_meet = {(a,): p for a, p in enumerate(lift.emb.infinite_points)}
    total = 0
    for length in (2, 3):
        for J in permutations(range(11), length):
            cut = meet(span(frame.x[length + 1], by_meet[J[:-1]]), span(frame.y[length + 1], by_meet[J[:-2] + J[-1:]]))
            by_meet[J] = ProjPoint(cut.field, cut.basis[0])
            assert lift.direction(J) == by_meet[J]
            total += 1
    elapsed = time.monotonic() - start
    ok = total == 1100 and elapsed < 30
    announce(2, ok, f"{total} tuples agree, {elapsed:.2f}s")
    assert total == 1100
    assert elapsed < 30


def test_criterion_3_switch_patterns(announce):
    start = time.monotonic()
    seed = dual_conic_seed(13)
    lift = Lifting(build_frame(4, seed.field), seed)
    emb = lift.emb

    per_m = {}
    for a in range(13):
        for b in range(a + 1, 13):
            pt = ProjPoint(seed.field, meet(emb.lines[a], emb.lines[b]).basis[0])
            for mi, m in enumerate(emb.m_lines):
                if m.contains(pt):
                    per_m.setdefault(mi, []).append((a, b))
                    break

    rng = random.Random(1302)
    checked = 0
    while checked < 200:
        length = rng.randrange(1, 4)
        mi = rng.choice(sorted(k for k, v in per_m.items() if len(v) >= length))
        pairs = rng.sample(per_m[mi], length)
        flat = [x for p in pairs for x in p]
        if len(set(flat)) != 2 * length:
            continue
        J = tuple(p[0] for p in pairs)
        Jbar = tuple(p[1] for p in pairs)
        z = lift.intersection(J, Jbar, mi)
        assert lift.line(J).contains(z)
        for pattern in product((0, 1), repeat=length):
            Js = tuple(p[s] for p, s in zip(pairs, pattern))
            Jbs = tuple(p[1 - s] for p, s in zip(pairs, pattern))
            assert lift.intersection(Js, Jbs, mi) == z
        checked += 1
    elapsed = time.monotonic() - start
    announce(3, True, f"{checked} triples, all patterns agree, {elapsed:.2f}s")
    assert checked == 200


def test_criterion_4_hasse_property_suite(announce):
    start = time.monotonic()
    fields = [PrimeField(2), PrimeField(5), PrimeField(101), RationalField()]
    rng = random.Random(404)
    per_field = 250

    def random_poly(fld, nvars=2, max_deg=3):
        while True:
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
                terms[e] = fld(rng.randrange(1, 11))
            f = Poly(fld, nvars, terms)
            if not f.is_zero:
                return f

    def mul(f, g):
        fld, terms = f.field, {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = fld.add(terms.get(e, fld.zero), fld.mul(c1, c2))
        return Poly(fld, f.nvars, terms)

    for fld in fields:
        for _ in range(per_field):
            f = random_poly(fld)
            g = random_poly(fld)
            i = tuple(rng.randrange(3) for _ in range(2))
            j = tuple(rng.randrange(3) for _ in range(2))

            coeff = 1
            for a, b in zip(i, j):
                coeff *= math.comb(a + b, a)
            ij = tuple(a + b for a, b in zip(i, j))
            assert hasse_derivative(hasse_derivative(f, j), i) == mul(
                hasse_derivative(f, ij), Poly(fld, 2, {(0, 0): coeff})
            )

            u = [fld(rng.randrange(5)) for _ in range(2)]
            m = multiplicity_at(f, u)
            w = sum(j)
            dfj = hasse_derivative(f, j)
            if not dfj.is_zero and w <= m:
                assert multiplicity_at(dfj, u) >= m - w

            ft = top_part(f)
            dft = hasse_derivative(ft, j)
            assert dft.is_zero or (
                len({sum(e) for e in dft.terms}) == 1 and dft.degree == ft.degree - w
            )

            assert top_part(mul(f, g)) == mul(top_part(f), top_part(g))

    F2 = fields[0]
    x2 = Poly(F2, 1, {(2,): 1})
    char2_ok = hasse_derivative(x2, (1,)).is_zero and hasse_derivative(
        x2, (2,)
    ) == Poly(F2, 1, {(0,): 1})
    assert char2_ok

    elapsed = time.monotonic() - start
    announce(4, True, f"{per_field * len(fields)} polynomials, {elapsed:.2f}s")


def test_criterion_5_bound_calculators(announce):
    start = time.monotonic()

    def oracle(a, n):
        return Fraction(math.factorial(a), math.factorial(n) * math.factorial(a - n))

    b1 = bound_grid(7, 3, 1)
    b2 = bound_grid(16, 4, 1)
    best = bound_best(16, 4, 64)
    ok = (
        b1.bound == 84
        and b1.bound == oracle(9, 3) / oracle(3, 3)
        and b2.bound == 3876
        and b2.bound == oracle(19, 4) / oracle(4, 4)
        and best.best_r == 1
        and best.bound == 3876
        and best.limit == 4096
        and isinstance(best.bound, Fraction)
    )
    elapsed = time.monotonic() - start
    announce(5, ok and elapsed < 1, f"84 / 3876 / best_r=1, {elapsed:.3f}s")
    assert ok
    assert elapsed < 1


def _independent_constraint_dimension(points, deg_bound, mult, p):
    """Nullity of the multiplicity system, by plain integer elimination mod p."""
    monos = []
    for w in range(deg_bound + 1):
        for a in range(w + 1):
            monos.append((a, w - a))
    rows = []
    for u in points:
        ux, uy = u
        for wt in range(mult):
            for j1 in range(wt + 1):
                j = (j1, wt - j1)
                row = []
                for e in monos:
                    if e[0] < j[0] or e[1] < j[1]:
                        row.append(0)
                        continue
                    v = math.comb(e[0], j[0]) * math.comb(e[1], j[1])
                    v = v * pow(ux, e[0] - j[0], p) * pow(uy, e[1] - j[1], p)
                    row.append(v % p)
                rows.append(row)
    rank = 0
    for col in range(len(monos)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return len(monos) - rank


def test_criterion_6_certificate_desk_scale(announce):
    start = time.monotonic()
    K = assemble(dual_conic_seed(5), 2)
    fld = K.field
    S = [affine_coords(kp.point) for kp in K.points]
    D = [kl.direction for kl in K.lines]
    raw_points = [tuple(u) for u in S]

    for r in (1, 2):
        deg_bound = r * 5 - 1
        mult = 2 * r - 1
        basis = vanishing_space(S, deg_bound, mult, 2, fld)
        expected_dim = _independent_constraint_dimension(raw_points, deg_bound, mult, 5)
        assert len(basis) == expected_dim
        guaranteed = math.comb(2 + 2 * r - 2, 2) * len(S) < math.comb(2 + deg_bound, 2)
        if guaranteed:
            assert basis
        for f in basis:
            for u in S:
                assert multiplicity_at(f, u) >= mult
            assert min(multiplicity_at(top_part(f), d.coords[:-1]) for d in D) >= r
        cert = certify(K, r)
        assert cert.verdict in ("pass", "pass-vacuous")

    elapsed = time.monotonic() - start
    ok = elapsed < 60
    announce(6, ok, f"r=1,2 pipelines agree with independent elimination, {elapsed:.2f}s")
    assert elapsed < 60


def test_criterion_7_real_ngon_seeds(announce):
    start = time.monotonic()
    rep8 = seed_report(regular_ngon_seed(8))
    eps8 = sorted(rep8.epsilon_measured)
    rep9 = seed_report(regular_ngon_seed(9))
    seeds_ok = (
        rep8.verdict == "pass"
        and eps8 == [0, 0, 0, 0, 1, 1, 1, 1]
        and rep9.verdict == "pass"
        and rep9.epsilon_measured == [Fraction(1, 2)] * 9
    )
    assert seeds_ok

    assembly_ok = True
    for N in (8, 9):
        K = assemble(regular_ngon_seed(N), 3)
        inc = incidence(K.field, [kl.line for kl in K.lines], [kp.point for kp in K.points])
        assembly_ok = (
            assembly_ok
            and verify_incidence(K, inc).verdict == "pass"
            and verify_directions(K, _recovered_cells(K)).verdict == "pass"
        )
    assert assembly_ok

    elapsed = time.monotonic() - start
    announce(7, seeds_ok and assembly_ok, f"N=8,9 seeds and n=3 assemblies, {elapsed:.2f}s")


def test_criterion_8_bound_consistency(conic7, announce):
    start = time.monotonic()
    inc = incidence(conic7.field, [kl.line for kl in conic7.lines], [kp.point for kp in conic7.points])
    cells = _recovered_cells(conic7)
    verdicts = [verify_bound_consistency(conic7, inc, cells, r).verdict for r in (1, 2, 3)]
    ok = verdicts == ["pass"] * 3
    elapsed = time.monotonic() - start
    announce(8, ok, f"r=1,2,3 on the exact construction, {elapsed:.2f}s")
    assert ok
