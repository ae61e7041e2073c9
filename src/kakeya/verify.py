"""Independent re-verification of a constructed or loaded line set.

Every check here recomputes incidence and membership from raw
coordinates: stored directions are compared against the actual
intersection of each line with the hyperplane at infinity (for every
field read off the line's own basis, not the builders' `infinite_point`),
grid membership is recomputed through the published change of basis,
and point counts come from the file's own point coordinates.  A Tally t,
built once per verify_all or certify call, measures what the checks read:
one `projgeom.incidence` pass over an index of the stored points, |S|, the
lines' grid cells and the cells they cover, the lifted lines and points, and
the two lists certify refuses on: t.faults, the direction audit's witnesses,
and t.hypothesis, the misses of the grid bound's hypothesis.
The checks are verify_incidence/directions/size(K, t, verbose) and
verify_bound_consistency(K, t, r, verbose).
The per-record tests run inline, over the reals with RealField's float tests.
Provenance labels are consulted only to classify points for the
reported construction claims (how many points a line acquired before
padding); they never shortcut a geometric test.

A line is recognized as a lifted line when its recovered grid
coordinates are pairwise distinct; the completion lines added to fill
the diagonal cells of the grid all carry a repeated coordinate, so the
distinction is visible in coordinates alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import comb, perm
from operator import not_

from .construction import KakeyaSet, grid_values_from_direction
from .projgeom import PointSet, ProjPoint, incidence, meet  # meet unused; bench/test_bench.py traces it here

WITNESS_LIMIT = 10


def _approx(name: str, value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"the {name} is too large for its float approximation {name}_approx") from None


def _grid_ratio(N: int, n: int, r: int) -> Fraction:
    return Fraction(comb(r * N + n - 1, n), comb(2 * r + n - 2, n))


class VerifyReport:
    __slots__ = ("check", "verdict", "witnesses", "measured")

    def __init__(self, check: str, verdict: str, witnesses: list | None = None, measured: dict | None = None):
        self.check, self.verdict = check, verdict
        self.witnesses, self.measured = [] if witnesses is None else witnesses, {} if measured is None else measured

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "measured": dict(self.measured),
        }


def _finish(check: str, witnesses: list, measured: dict, verbose: bool) -> VerifyReport:
    verdict = "pass" if not witnesses else "fail"
    if not verbose and len(witnesses) > WITNESS_LIMIT:
        kept = witnesses[:WITNESS_LIMIT]
        kept.append(f"... {len(witnesses) - WITNESS_LIMIT} more suppressed")
        witnesses = kept
    return VerifyReport(check=check, verdict=verdict, witnesses=witnesses, measured=measured)


def _recovered_cells(K: KakeyaSet):
    """Per-line grid coordinates resolved to axis indices, None when off-grid; a repeated axis value resolves to its first index."""
    fld = K.field
    if fld.exact:  # one value -> index dict per axis, filled from the end so the first index stays
        find = [{a: i for i, a in reversed([*enumerate(axis)])}.get for axis in K.grid]
    else:
        tol = fld.tol
        find = [lambda v, axis=axis: next((i for i, a in enumerate(axis) if abs(a - v) <= tol), None) for axis in K.grid]
    cells = []
    for kl in K.lines:
        values = grid_values_from_direction(kl.direction)
        cell = None if values is None else tuple(f(v) for f, v in zip(find, values))
        cells.append(None if cell is None or None in cell else cell)
    return cells


def _direction_faults(K: KakeyaSet):
    """Yield a witness for each line that is not a line, or whose meet with infinity is not its stored direction.

    The meet is read off the basis for every field: d = r1[n] r0 - r0[n] r1 (mod p over F_p), or the line itself
    when both last entries are zero (at most tol over the reals).  A d zero (at most tol) everywhere names no point.
    """
    n, fld, p = K.n, K.field, K.field.p
    for idx, kl in enumerate(K.lines):
        if kl.line.proj_dim != 1:
            yield f"line {idx} is a flat of dimension {kl.line.proj_dim}, not a line"
            continue
        r0, r1 = kl.line.basis
        e0, e1 = r0[n], r1[n]
        d = [e1 * x - e0 * y for x, y in zip(r0, r1)]
        if fld.exact:
            at_infinity, d = not (e0 or e1), [v % p for v in d] if p else d
            nowhere = not any(d)
        else:
            tol = fld.tol
            at_infinity, nowhere = abs(e0) <= tol and abs(e1) <= tol, all(map(tol.__ge__, map(abs, d)))
        if at_infinity:
            yield f"line {idx} meets infinity in dimension 1"
        elif nowhere or ProjPoint(fld, d) != kl.direction:
            yield f"line {idx} stores a direction it does not have"


class Tally:
    """What the checks read of K, measured once; built fresh per call, as K may change between calls.

    first, on and counts are incidence's, size is |S|, cells the lines' recovered grid cells and covered
    the number of grid cells they hit; lifted_lines flags each line whose cell has pairwise distinct
    coordinates, lifted each point labelled lifted.  faults are the _direction_faults witnesses in line
    order, and hypothesis the misses of the grid bound's hypothesis: an uncovered grid, then each line
    short of N distinct points.
    """

    __slots__ = ("first", "on", "counts", "size", "cells", "covered", "lifted_lines", "lifted", "faults", "hypothesis")

    def __init__(self, K: KakeyaSet):
        self.first, self.on, self.counts = incidence(K.field, [kl.line for kl in K.lines], [kp.point for kp in K.points])
        self.size = sum(f == i for i, f in enumerate(self.first))
        self.cells = _recovered_cells(K)
        self.covered = len({c for c in self.cells if c is not None})
        self.lifted_lines = [c is not None and len(set(c)) == len(c) for c in self.cells]
        self.lifted = [kp.provenance.get("kind") == "lifted" for kp in K.points]
        self.faults = list(_direction_faults(K))
        grid_cells = K.N ** (K.n - 1)
        self.hypothesis = [f"grid covers {self.covered} of {grid_cells} cells"] if self.covered < grid_cells else []
        self.hypothesis += [f"line {i} carries {c} distinct points, needs at least {K.N}" for i, c in enumerate(self.counts) if c < K.N]


def verify_incidence(K: KakeyaSet, t: Tally, verbose: bool = False) -> VerifyReport:
    """Every point must be affine and every line must carry at least N distinct points.

    A point listed twice on a line is a witness and counts once.  Also
    audits the construction claim that no line picked up more than N
    points before padding, using the lifted provenance labels when they
    are present: a line's lifted points are its distinct points whose
    first entry is labelled lifted.
    """
    first, counts = t.first, t.counts
    have_lifted = any(t.lifted)
    lifted_counts = []
    last = [kp.point.coords[-1] for kp in K.points]
    at_infinity = map(not_, last) if K.field.exact else map(K.field.tol.__ge__, map(abs, last))
    witnesses = [f"point {i} lies at infinity" for i in compress(count(), at_infinity)]
    for idx, (on_line, total) in enumerate(zip(t.on, counts)):
        if t.size < len(first):
            witnesses.extend(f"points {first[i]} and {i} on line {idx} coincide" for i in on_line if first[i] != i)
        if total < K.N:
            witnesses.append(f"line {idx} carries {total} points, needs {K.N}")
        if have_lifted:
            lifted = sum(1 for i in on_line if t.lifted[i] and first[i] == i)
            lifted_counts.append(lifted)
            if lifted > K.N:
                witnesses.append(f"line {idx} carries {lifted} lifted points, claim allows {K.N}")
    measured = {
        "lines": len(K.lines),
        "points": len(K.points),
        "min_count": min(counts) if counts else 0,
        "max_count": max(counts) if counts else 0,
        "incidence_total": sum(counts),
    }
    if have_lifted:
        measured["max_lifted_on_line"] = max(lifted_counts, default=0)
    return _finish("incidence", witnesses, measured, verbose)


def verify_directions(K: KakeyaSet, t: Tally, verbose: bool = False) -> VerifyReport:
    """Directions must be distinct, honest, inside the grid, and cover it.

    Honest means each stored direction equals the actual meet of its
    line with the hyperplane at infinity.  Coverage asks for every cell
    of the N^(n-1) grid; the count of lines whose recovered coordinates
    are pairwise distinct is compared with N(N-1)...(N-n+2).
    """
    n, fld = K.n, K.field
    witnesses = list(t.faults)
    seen = PointSet(fld)
    for idx, kl in enumerate(K.lines):
        first = seen.setdefault(kl.direction, idx)
        if first != idx:
            witnesses.append(f"lines {first} and {idx} share a direction")

    for idx, cell in enumerate(t.cells):
        if cell is None:
            witnesses.append(f"direction of line {idx} lies outside the grid")

    expected_cells = K.N ** (n - 1)
    if t.covered < expected_cells:
        witnesses.append(f"grid covers {t.covered} of {expected_cells} cells")

    distinct_tuple_lines = sum(t.lifted_lines)
    expected_lifted = perm(K.N, n - 1)
    if distinct_tuple_lines != expected_lifted:
        witnesses.append(
            f"{distinct_tuple_lines} lines have pairwise distinct grid coordinates, "
            f"expected {expected_lifted}"
        )

    measured = {
        "directions": len(K.lines),
        "grid_cells": expected_cells,
        "covered_cells": t.covered,
        "distinct_coordinate_lines": distinct_tuple_lines,
        "expected_distinct_coordinate_lines": expected_lifted,
    }
    return _finish("directions", witnesses, measured, verbose)


def verify_size(K: KakeyaSet, t: Tally, verbose: bool = False) -> VerifyReport:
    """Size accounting: leading term, measured constant, lifted-point counts.

    |S| counts distinct points, and every repeated entry is a witness.
    It is compared with the leading term N^n / 2^(n-1) and the overshoot
    constant c = (|S| - leading) / N^(n-1) is reported.
    When lifted points are present their count must match the sum over
    measuring lines of falling products (N/2 - eps_i)...(N/2 - eps_i - n + 2),
    and each lifted point must lie on exactly 2^(n-1) lifted lines.
    """
    n, N, size = K.n, K.N, t.size
    witnesses = [f"points {f} and {i} coincide" for i, f in enumerate(t.first) if f != i]
    leading = Fraction(2) * Fraction(N, 2) ** n
    c_measured = Fraction(size - leading) / Fraction(N) ** (n - 1)
    measured = {
        "size": size,
        "leading_term": str(leading),
        "leading_term_approx": _approx("leading_term", leading),
        "c_measured": str(c_measured),
        "c_measured_approx": _approx("c_measured", c_measured),
    }

    lifted_total = sum(t.lifted)
    measured["lifted_points"] = lifted_total
    if lifted_total:
        epsilon_raw = K.seed_meta.get("epsilon")
        if epsilon_raw is not None:
            expected = Fraction(0)
            for e in epsilon_raw:
                eps = Fraction(e)
                term = Fraction(1)
                for k in range(n - 1):
                    term *= Fraction(N, 2) - eps - k
                expected += term
            measured["lifted_expected"] = str(expected)
            if expected != lifted_total:
                witnesses.append(
                    f"{lifted_total} lifted points, the deficiency formula gives {expected}"
                )

        on_lines = [0] * len(K.points)
        for is_lifted, on_line in zip(t.lifted_lines, t.on):
            if is_lifted:
                for i in on_line:
                    on_lines[i] += 1
        want = 2 ** (n - 1)
        bad = 0
        for idx, is_lifted in enumerate(t.lifted):
            if is_lifted and on_lines[idx] != want:
                bad += 1
                witnesses.append(
                    f"lifted point {idx} lies on {on_lines[idx]} lifted lines, expected {want}"
                )
        measured["lifted_incidence_violations"] = bad
    return _finish("size", witnesses, measured, verbose)


def verify_bound_consistency(K: KakeyaSet, t: Tally, r: int, verbose: bool = False) -> VerifyReport:
    """The grid bound must hold for the number of distinct points at the given r.

    A family outside the bound's hypothesis fails with every t.hypothesis witness, the bound not evaluated.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    n, N, size = K.n, K.N, t.size
    if t.hypothesis:
        measured = {"r": r, "size": size, "covered_cells": t.covered, "grid_cells": N ** (n - 1)}
        return _finish("bound_consistency", list(t.hypothesis), measured, verbose)
    lhs = comb(2 * r + n - 2, n) * size
    rhs = comb(r * N + n - 1, n)
    witnesses = []
    if lhs < rhs:
        witnesses.append(
            f"binomial(2r+n-2, n)*|S| = {lhs} < binomial(rN+n-1, n) = {rhs}"
        )
    measured = {
        "r": r,
        "size": size,
        "lhs": lhs,
        "rhs": rhs,
        "bound": str(_grid_ratio(N, n, r)),
    }
    return _finish("bound_consistency", witnesses, measured, verbose)


def verify_all(K: KakeyaSet, r: int | None = None, verbose: bool = False) -> list[VerifyReport]:
    """Run every check on one Tally of K; bound consistency only when r is given."""
    t = Tally(K)
    reports = [verify_incidence(K, t, verbose), verify_directions(K, t, verbose), verify_size(K, t, verbose)]
    if r is not None:
        reports.append(verify_bound_consistency(K, t, r, verbose))
    return reports
