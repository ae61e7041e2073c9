"""The benchmark's workloads: the commands each one times and what each must output.

Every timed command is an `Op`: one `kakeya` CLI invocation, run in
process through `kakeya.cli.main(argv)` with stdout captured, plus the
result it must give.  Output files of `construct` and the stdout of
`certify` and `bound` must match the SHA-256 values in `golden.json`,
which were recorded from the seed package: outputs are meant to stay
byte-identical.  `verify` must return the expected exit code and
verdicts.  Any mismatch is a failed op.

Why each workload exists (see also BENCHMARK.json):

* conic-lift: the ROADMAP ladder over F_p (conic q=7, 11, 13 at n=3 and
  q=7 at n=4, construct then verify --r 1), plus two tampered q=5, n=3
  files that verify must reject.  Containment tests by row reduction
  make up most of assemble and verify, so an incidence index or a
  faster linear-algebra kernel shows here.
* ngon-real: the same pipeline on regular n-gon seeds N=9, 11 over the
  tolerance RealField: float scalars, the linear-scan point registry and
  the all-pairs direction comparison.  An exact-field hash index cannot
  apply, so an exact-only gain must show no change here, and a change
  that slows the real path shows.
* certify-exact: certify --r 1, 2 on conic q=5, 7 at n=2, --r 1 on q=5 at
  n=3, and bound --optimize.  One large elimination (168 x 105 over F_7
  at r=2) dominates and almost no incidence work is done: it shows a
  raw-value kernel and should not move for an incidence index.

Which per-layer metrics (run.py --trace 1) should move which stage:

  layer         metrics                                      stage moved        mainly on
  cli           cli.main.{calls,self_s}                      all, slightly      all
  construction  assemble, Lifting.{line,direction,           construct, verify  conic-lift, ngon-real
                intersection}, save/load_kakeya {self_s,bytes}
  seeds         dual_conic_seed / regular_ngon_seed self_s,  setup, construct   all
                line_walk_start.calls
  projgeom      meet, span, Subspace.from_vectors,           verify, construct  conic-lift
                Subspace.contains {calls,self_s,hit_ratio}
  linalg        rref {calls,self_s,max_rows,max_cols,work},  certify (rref),    certify-exact;
                nullspace, reduce_vector                     verify (reduce)    conic-lift
  scalar        Scalar.created, field_ops (counting pass)    every stage        certify-exact
  polymethod    vanishing_space {self_s,rows,cols,nullity},  certify            certify-exact
                certify.self_s, multiplicity_at.calls,
                bound_best.self_s
  verify        verify_{incidence,directions,size,           verify             conic-lift; directions
                bound_consistency}.{calls,self_s}                               on ngon-real
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

VERIFY_CHECKS = ["incidence", "directions", "size", "bound_consistency"]

# Ops whose failure is a known, open defect of the package.  They still
# count in `failed`; they only leave `correct` true.  Remove an entry once
# its defect is fixed.
KNOWN_DEFECTS = {
    "verify duplicate-point control": "ROADMAP item 4: verify counts points, not distinct points",
}


@dataclass
class Op:
    name: str
    stage: str  # construct | verify | certify
    argv: list[str]
    expect_exit: int = 0
    hash_file: str | None = None  # construct: hash this output file
    hash_stdout: bool = False  # certify, bound: hash stdout
    all_pass: bool = False  # verify: every check must pass
    must_fail: tuple[str, ...] = ()  # verify: these checks must fail


@dataclass
class Result:
    op: Op
    wall_s: float
    exit: int | None
    stdout: str
    error: str = ""
    problem: str | None = None  # None when the output is as expected
    span_lo: int = 0  # spans recorded while the command ran (traced pass)
    span_hi: int = 0


def run_op(main, op: Op) -> Result:
    """Run one command and time it; an exception is recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    return Result(op, wall, code, out.getvalue(), error or err.getvalue())


def sha256_file(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def check(res: Result, golden: dict) -> Result:
    """Fill in res.problem with the first way the output differs from the expected one."""
    op = res.op
    if res.exit != op.expect_exit:
        detail = res.error.strip().splitlines()[-1:] if res.error.strip() else []
        res.problem = f"exit {res.exit}, expected {op.expect_exit}" + (f" ({detail[0]})" if detail else "")
        return res
    if op.hash_file is not None or op.hash_stdout:
        got = sha256_file(op.hash_file) if op.hash_file else hashlib.sha256(res.stdout.encode()).hexdigest()
        want = golden.get(op.name)
        if want is None:
            res.problem = "no golden hash recorded"
        elif got != want:
            res.problem = f"sha256 {got} differs from golden {want}"
        return res
    if op.stage == "verify":
        try:
            verdicts = {rep["check"]: rep["verdict"] for rep in json.loads(res.stdout)}
        except (ValueError, TypeError, KeyError):
            res.problem = "verify printed no verdict list"
            return res
        if op.all_pass and (sorted(verdicts) != sorted(VERIFY_CHECKS) or set(verdicts.values()) != {"pass"}):
            res.problem = f"verdicts {verdicts}, expected all of {VERIFY_CHECKS} to pass"
        for name in op.must_fail:
            if verdicts.get(name) != "fail":
                res.problem = f"check {name} gave {verdicts.get(name)!r}, expected 'fail'"
    return res


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["sha256"]


def _construct(label: str, seed_args: list[str], n: int, path: str) -> Op:
    return Op(f"construct {label} n={n}", "construct",
              ["construct", *seed_args, "--dim", str(n), "--out", path], hash_file=path)


def _verify(label: str, path: str) -> Op:
    return Op(f"verify {label}", "verify", ["verify", path, "--r", "1"], all_pass=True)


# ---------------------------------------------------------------- conic-lift

CONIC_LADDER = [(7, 3), (11, 3), (13, 3), (7, 4)]


def _tamper(kk, work: str, seed: int):
    """Write the two negative controls, built from the conic q=5, n=3 family.

    moved.json moves one point of an N-point line off that line.
    duplicate.json overwrites a point with a copy of another point on
    the same N-point line (ROADMAP item 4).  The overwritten point lies
    on no other line and neither point is a lifted point, so every
    per-line count and the lifted-point bookkeeping stay as they were:
    only counting distinct points can reveal the copy.  Both files must
    fail incidence.  The seed picks the targets.
    """
    rng = random.Random(seed)
    K = kk.assemble(kk.dual_conic_seed(5), 3)
    on = [[i for i, kp in enumerate(K.points) if kl.line.contains(kp.point)] for kl in K.lines]
    full = [li for li, pts in enumerate(on) if len(pts) == K.N]
    lines_of = [0] * len(K.points)
    for pts in on:
        for i in pts:
            lines_of[i] += 1

    li = rng.choice(full)
    i = rng.choice(on[li])
    original = K.points[i]
    coords = list(kk.affine_coords(original.point))
    for k in range(len(coords)):
        shifted = coords[:k] + [coords[k] + K.field.one] + coords[k + 1:]
        moved = kk.point_from_affine(K.field, shifted)
        if not K.lines[li].line.contains(moved):
            break
    else:
        raise RuntimeError(f"no unit shift moves point {i} off line {li}")
    K.points[i] = kk.KPoint(moved, original.provenance)
    kk.save_kakeya(K, os.path.join(work, "moved.json"))
    K.points[i] = original

    def plain(j):
        return K.points[j].provenance.get("kind") != "lifted"

    candidates = [
        (keep, drop)
        for li in full
        for drop in on[li]
        if lines_of[drop] == 1 and plain(drop)
        for keep in on[li]
        if keep != drop and plain(keep)
    ]
    keep, drop = rng.choice(candidates)
    K.points[drop] = K.points[keep]
    kk.save_kakeya(K, os.path.join(work, "duplicate.json"))


def conic_lift_setup(kk, work: str, seed: int) -> list[Op]:
    _tamper(kk, work, seed)
    return []


def conic_lift_ops(work: str) -> list[Op]:
    ops = []
    for q, n in CONIC_LADDER:
        path = os.path.join(work, f"conic-q{q}-n{n}.json")
        ops.append(_construct(f"conic q={q}", ["--seed", "conic", "--q", str(q)], n, path))
        ops.append(_verify(f"conic q={q} n={n}", path))
    for label in ("moved", "duplicate"):
        path = os.path.join(work, f"{label}.json")
        ops.append(Op(f"verify {label}-point control", "verify", ["verify", path, "--r", "1"],
                      expect_exit=1, must_fail=("incidence",)))
    return ops


# ---------------------------------------------------------------- ngon-real

NGON_SIZES = [9, 11]


def ngon_real_setup(kk, work: str, seed: int) -> list[Op]:
    for N in NGON_SIZES:
        kk.regular_ngon_seed(N)
    return []


def ngon_real_ops(work: str) -> list[Op]:
    ops = []
    for N in NGON_SIZES:
        path = os.path.join(work, f"ngon-N{N}-n3.json")
        ops.append(_construct(f"ngon N={N}", ["--seed", "ngon", "--N", str(N)], 3, path))
        ops.append(_verify(f"ngon N={N} n=3", path))
    return ops


# ---------------------------------------------------------------- certify-exact

CERTIFY_FAMILIES = [(5, 2, (1, 2)), (7, 2, (1, 2)), (5, 3, (1,))]
BOUND_CASES = [(7, 3), (13, 3), (7, 4), (16, 4)]


def _family_path(work: str, q: int, n: int) -> str:
    return os.path.join(work, f"conic-q{q}-n{n}.json")


def certify_exact_setup(kk, work: str, seed: int) -> list[Op]:
    return [
        _construct(f"conic q={q}", ["--seed", "conic", "--q", str(q)], n, _family_path(work, q, n))
        for q, n, _ in CERTIFY_FAMILIES
    ]


def certify_exact_ops(work: str) -> list[Op]:
    ops = [
        Op(f"certify conic q={q} n={n} r={r}", "certify",
           ["certify", _family_path(work, q, n), "--r", str(r)], hash_stdout=True)
        for q, n, rs in CERTIFY_FAMILIES
        for r in rs
    ]
    ops += [
        Op(f"bound N={N} n={n} optimize", "certify",
           ["bound", "--N", str(N), "--dim", str(n), "--optimize"], hash_stdout=True)
        for N, n in BOUND_CASES
    ]
    return ops


@dataclass
class Workload:
    name: str
    setup: Callable[[object, str, int], list[Op]]  # (kakeya, work dir, seed) -> commands run in set-up
    ops: Callable[[str], list[Op]]  # work dir -> the timed commands of one pass
    stages: tuple[str, ...] = ("construct", "verify")


WORKLOADS = {
    "conic-lift": Workload("conic-lift", conic_lift_setup, conic_lift_ops),
    "ngon-real": Workload("ngon-real", ngon_real_setup, ngon_real_ops),
    "certify-exact": Workload("certify-exact", certify_exact_setup, certify_exact_ops, ("certify",)),
}
