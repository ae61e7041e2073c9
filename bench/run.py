"""Benchmark of the kakeya pipeline, end to end and per layer.

    python3 bench/run.py --workload conic-lift --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`
(nothing is installed).  Workloads are defined in `workloads.py`; `all`
runs each of them in a fresh process and prints one table.

With `--trace 0` a run sets up several times, then repeats untraced
passes over the workload's commands while the next pass still fits in
`--seconds` (always at least one), and reports medians.  Its times are
wall times rescaled to a reference core speed measured during the same
work (`probe.py`), because a core of a shared machine drifts by tens of
percent between runs; the plain wall times are printed alongside.  With
`--trace 1` it runs one untraced pass, one traced pass (spans for every
layer, see `layers.py`) and one counting pass (scalar layer), and
reports the per-layer metrics.  Spans are written to `.bench_work/`.

Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A failed op
is a command whose exit code, verdicts or output hash differs from the
expected value.  `correct` is false when an op fails that is not a
known open defect (`workloads.KNOWN_DEFECTS`); those are still counted
in `failed`.

Self-tests: `python3 -m unittest discover -s bench -p 'test_*.py'`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 21

# ROADMAP "Open items" baseline, seconds: (assemble, verify_all at r=1)
ROADMAP_BASELINE = {(7, 3): (0.19, 0.24), (11, 3): (1.22, 1.82), (13, 3): (2.37, 4.43), (7, 4): (4.35, 11.53)}

from layers import PER_LAYER, install_counter, install_tracer, per_layer  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from spans import Counter, Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, check, load_golden, run_op  # noqa: E402


def fresh_import():
    """Import kakeya from src/ as a process starting up would, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "kakeya" or m.startswith("kakeya.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    kk = importlib.import_module("kakeya")
    importlib.import_module("kakeya.cli")
    if os.path.dirname(os.path.abspath(kk.__file__)) != os.path.join(SRC, "kakeya"):
        raise ImportError(f"kakeya was imported from {kk.__file__}, not from {SRC}")
    return kk


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "kakeya")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


class Ledger:
    """Checks each command's result and keeps the counts of attempted and failed ops."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0

    def record(self, results):
        for res in results:
            check(res, self.golden)
            self.attempted += 1
            if res.problem is not None:
                self.failed += 1
                self.failures.setdefault(res.op.name, res.problem)
        return results

    @property
    def correct(self) -> bool:
        return all(name in KNOWN_DEFECTS for name in self.failures)


def set_up(wl, work: str, seed: int, ledger: Ledger, probe: SpeedProbe):
    """Import kakeya, build the workload's seeds and write its input files.

    Returns (wall seconds, probe speed over them, kakeya).
    """
    gc.collect()  # free the modules of the previous import so they do not add to peak RSS
    mark = probe.mark()
    t0 = time.perf_counter()
    kk = fresh_import()
    results = [run_op(kk.cli.main, op) for op in wl.setup(kk, work, seed)]
    took = time.perf_counter() - t0 - probe.spent_since(mark)
    speed = probe.speed(mark)
    ledger.record(results)
    return took, speed, kk


def run_command(kk, op, probe: SpeedProbe):
    """One timed command, started on a collected heap as a fresh CLI process would be.

    The wall time excludes the time spent in the probe.
    """
    gc.collect()
    mark = probe.mark()
    res = run_op(kk.cli.main, op)
    res.wall_s -= probe.spent_since(mark)
    return res


def run_pass(kk, ops, ledger: Ledger, probe: SpeedProbe):
    return ledger.record([run_command(kk, op, probe) for op in ops])


def stage_totals(results, stages, speed: float) -> dict[str, float]:
    totals = {f"{stage}_s": sum(r.wall_s for r in results if r.op.stage == stage) * speed for stage in stages}
    totals["pipeline_s"] = sum(r.wall_s for r in results) * speed
    return totals


def timed_run(wl, work: str, seed: int, seconds: float, ledger: Ledger):
    """Set up SETUP_REPEATS times, then repeat passes while the next one fits in `seconds`.

    Times are reported at reference speed (multiplied by the probe's
    speed over the same stretch of work) and, for reading only, as plain
    wall time.
    """
    with SpeedProbe() as probe:
        setups, setup_walls = [], []
        for _ in range(SETUP_REPEATS):
            took, speed, kk = set_up(wl, work, seed, ledger, probe)
            setups.append(took * speed)
            setup_walls.append(took)
        ops = wl.ops(work)
        scaled, wall, speeds = [], [], []
        t_start = time.perf_counter()
        while True:
            t = time.perf_counter()
            mark = probe.mark()
            results = run_pass(kk, ops, ledger, probe)
            speeds.append(probe.speed(mark))
            scaled.append(stage_totals(results, wl.stages, speeds[-1]))
            wall.append(stage_totals(results, wl.stages, 1.0))
            took = time.perf_counter() - t
            if time.perf_counter() - t_start + took > seconds:
                break
        samples = len(probe.samples)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {"setup_s": (statistics.median(setups), statistics.median(setup_walls))}
    for key in scaled[0]:
        report[key] = (statistics.median(p[key] for p in scaled), statistics.median(p[key] for p in wall))
    print(f"{wl.name}: {len(scaled)} pass(es), {SETUP_REPEATS} set-ups, src_lines {src_lines()}, "
          f"probe speed {statistics.median(speeds):.3f} ({samples} samples)")
    print(f"  {'metric':14s} {'at ref speed':>14s} {'wall':>12s}")
    for key, (value, raw) in report.items():
        print(f"  {key:14s} {value:12.4f} s {raw:10.4f} s")
    print(f"  {'peak_rss_mib':14s} {rss_mib:12.4f} MiB")
    return {
        "pipeline_s": {"value": report["pipeline_s"][0], "unit": "s"},
        "setup_s": {"value": report["setup_s"][0], "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }


def _baseline_table(tracer: Tracer, untraced, traced):
    """Per-instance assemble / verify_all times next to the ROADMAP figures, with their ratios."""
    print("ROADMAP baseline, seconds: ROADMAP figure | untraced command (ratio) | traced span (ratio)")
    by_name = {r.op.name: (u, r) for u, r in zip(untraced, traced)}
    ratios = []
    for (q, n), figures in ROADMAP_BASELINE.items():
        cells = []
        for (stage, span), road in zip((("construct", "construction.assemble"), ("verify", "verify.verify_all")), figures):
            plain, spanned = by_name[f"{stage} conic q={q} n={n}"]
            inside = tracer.inclusive(span, spanned.span_lo, spanned.span_hi)
            ratios.append(plain.wall_s / road)
            cells.append(f"{span.split('.')[1]:10s} {road:6.2f} | {plain.wall_s:7.3f} (x{plain.wall_s / road:4.2f})"
                         f" | {inside:7.3f} (x{inside / road:4.2f})")
        print(f"  q={q:2d} n={n}  " + "   ".join(cells))
    print(f"  untraced commands run at x{min(ratios):.2f} to x{max(ratios):.2f} of the ROADMAP figures; a command "
          "also loads or writes its file, and single passes on a shared core drift by tens of percent")


def traced_run(wl, work: str, seed: int, ledger: Ledger, workload: str):
    idle = SpeedProbe()  # never entered: records nothing, so times stay plain wall times
    *_, kk = set_up(wl, work, seed, ledger, idle)
    ops = wl.ops(work)
    untraced = run_pass(kk, ops, ledger, idle)

    tracer = Tracer()
    install_tracer(tracer)
    try:
        ledger.record([run_op(kk.cli.main, op) for op in wl.setup(kk, work, seed)])
        traced = []
        for op in ops:
            lo = len(tracer)
            res = run_command(kk, op, idle)
            res.span_lo, res.span_hi = lo, len(tracer)
            traced.append(res)
        ledger.record(traced)
    finally:
        tracer.uninstall()

    counter = Counter()
    install_counter(counter)
    t = time.perf_counter()
    try:
        ledger.record([run_op(kk.cli.main, op) for op in wl.setup(kk, work, seed)])
        run_pass(kk, ops, ledger, idle)
    finally:
        counter.uninstall()
    counting_s = time.perf_counter() - t

    spans_path = os.path.join(WORK_ROOT, f"spans-{workload}.bin")
    tracer.write(spans_path)

    def share(span_name, stage):
        inside = sum(tracer.inclusive(span_name, r.span_lo, r.span_hi) for r in traced if r.op.stage == stage)
        total = sum(r.wall_s for r in traced if r.op.stage == stage)
        return inside / total if total else 0.0

    untraced_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in traced)
    extra = {
        "trace.overhead_s": traced_s - untraced_s,
        "projgeom.Subspace.contains.verify_share": share("projgeom.Subspace.contains", "verify"),
        "linalg.rref.certify_share": share("linalg.rref", "certify"),
        "src_lines": src_lines(),
    }
    metrics = per_layer(tracer, counter, extra)
    print(f"{workload}: untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s, "
          f"counting pass {counting_s:.3f} s, {len(tracer)} spans written to {os.path.relpath(spans_path, ROOT)}")
    if workload == "conic-lift":
        _baseline_table(tracer, untraced, traced)
    for name, unit, _ in PER_LAYER:
        value = metrics[name]["value"]
        if value:
            print(f"  {name:45s} {value:16.6g} {unit}")
    return metrics


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "kakeya", "__init__.py")):
        print(f"error: no kakeya package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ledger = Ledger(load_golden())
    try:
        if args.trace:
            metrics = traced_run(wl, work, args.seed, ledger, args.workload)
        else:
            metrics = timed_run(wl, work, args.seed, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"  ops_attempted {ledger.attempted}  ops_failed {ledger.failed}")
    for name, problem in ledger.failures.items():
        tag = f"known defect, {KNOWN_DEFECTS[name]}" if name in KNOWN_DEFECTS else "FAILED"
        print(f"  {tag}: {name}: {problem}")
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined table and result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
