"""Command-line frontend: seeds to construction to verification to certificates.

Exit codes: 0 success, 1 a verification or certification produced a
failing verdict, 2 invalid input or a violated precondition.  All JSON
output is deterministic (sorted keys, fixed indentation), and exact
coordinates are serialized as strings so nothing passes through
floating point.  The environment variable KAKEYA_TOL overrides the
default tolerance 1e-9 for real-kind seeds built by this process;
files carry their own tolerance.  `main` builds its argparse parser on
first use and reuses it: the parser holds no per-run state, and each
`parse_args` call returns a fresh namespace.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .construction import assemble, dump, load_kakeya, load_seed, save_kakeya, write_json
from .errors import KakeyaError
from .polymethod import bound_best, bound_grid, certify
from .scalar import DEFAULT_REAL_TOLERANCE, RealField
from .seeds import dual_conic_seed, regular_ngon_seed, seed_report
from .verify import verify_all


def _real_tolerance() -> float:
    raw = os.environ.get("KAKEYA_TOL")
    if raw is None:
        return DEFAULT_REAL_TOLERANCE
    try:
        return float(raw)
    except ValueError as exc:
        raise KakeyaError(f"KAKEYA_TOL must be a number, got {raw!r}") from exc


def _load_seed_arg(selector: str, args) -> object:
    if selector == "conic":
        if args.q is None:
            raise KakeyaError("--seed conic requires --q")
        return dual_conic_seed(args.q)
    if selector == "ngon":
        if args.N is None:
            raise KakeyaError("--seed ngon requires --N")
        return regular_ngon_seed(args.N, RealField(_real_tolerance()))
    if selector.startswith("file:"):
        return load_seed(selector[len("file:"):])
    raise KakeyaError(f"unknown seed {selector!r}; use conic, ngon or file:<path>")


def _cmd_construct(args) -> int:
    seed = _load_seed_arg(args.seed, args)
    K = assemble(seed, args.dim, audit=args.seed.startswith("file:"))  # the built-in seeds pass it by construction
    save_kakeya(K, args.out)
    dump(
        {
            "out": args.out,
            "n": K.n,
            "N": K.N,
            "lines": len(K.lines),
            "points": len(K.points),
        },
        sys.stdout,
    )
    return 0


def _cmd_verify(args) -> int:
    K = load_kakeya(args.path)
    reports = verify_all(K, r=args.r, verbose=args.verbose)
    dump([rep.to_json() for rep in reports], sys.stdout)
    return 0 if all(rep.verdict == "pass" for rep in reports) else 1


def _cmd_bound(args) -> int:
    if args.optimize:
        report = bound_best(args.N, args.dim, 64 if args.r_max is None else args.r_max)
    elif args.r_max is not None:
        raise KakeyaError("--r-max needs --optimize")
    else:
        report = bound_grid(args.N, args.dim, args.r if args.r is not None else 1)
    dump(report.to_json(), sys.stdout)
    return 0


def _cmd_certify(args) -> int:
    K = load_kakeya(args.path)
    cert = certify(K, args.r)
    doc = cert.to_json()
    if args.out:
        write_json(doc, args.out)
        dump({"out": args.out, "verdict": cert.verdict}, sys.stdout)
    else:
        dump(doc, sys.stdout)
    return 0 if cert.verdict in ("pass", "pass-vacuous") else 1


def _cmd_seed_report(args) -> int:
    seed = load_seed(args.path)
    report = seed_report(seed)
    dump(report.to_json(), sys.stdout)
    return 0 if report.verdict == "pass" else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakeya",
        description="Construct, verify and bound Kakeya-type line sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a line set from a planar seed")
    p.add_argument("--seed", required=True, help="conic, ngon or file:<path>")
    p.add_argument("--q", type=int, help="prime order for the conic seed")
    p.add_argument("--N", type=int, help="number of vertices for the ngon seed")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension n")
    p.add_argument("--out", required=True, help="output path for the line set JSON")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("verify", help="re-verify a stored line set")
    p.add_argument("path", help="line set JSON file")
    p.add_argument("--r", type=int, default=None, help="also check the grid bound at this r")
    p.add_argument("--verbose", action="store_true", help="do not truncate witness lists")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("bound", help="evaluate the grid lower bound")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    one_r = p.add_mutually_exclusive_group()
    one_r.add_argument("--r", type=int, default=None)
    one_r.add_argument("--optimize", action="store_true", help="sweep r instead of a single value")
    p.add_argument("--r-max", type=int, default=None, dest="r_max", help="largest r --optimize sweeps (64)")
    p.set_defaults(run=_cmd_bound)

    p = sub.add_parser("certify", help="run the polynomial certificate pipeline")
    p.add_argument("path", help="line set JSON file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default=None, help="write the certificate here instead of stdout")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("seed-report", help="audit a stored planar seed")
    p.add_argument("path", help="seed JSON file")
    p.set_defaults(run=_cmd_seed_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KeyError as exc:  # a file missing a required entry
        print(f"error: missing key {exc}", file=sys.stderr)
        return 2
    except (KakeyaError, OSError, ValueError) as exc:  # ValueError covers malformed JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
