"""The traced benchmark run (`bench/run.py --trace 1`) wraps package functions by name.

Installing its tracer and counter here turns a deleted or renamed
function that `bench/layers.TRACED` names into a failing test rather
than a broken traced run; running the benchmark's self-tests does the
same for the sites they expect, such as the modules that bind `meet`.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = str(ROOT / "bench")


def test_every_traced_function_is_bound():
    sys.path.insert(0, BENCH)
    try:
        import layers
        from spans import Counter, Tracer

        for module, _ in layers.TRACED:
            importlib.import_module(module)
        tracer, counter = Tracer(), Counter()
        try:
            layers.install_tracer(tracer)
            layers.install_counter(counter)
        finally:
            counter.uninstall()
            tracer.uninstall()
    finally:
        sys.path.remove(BENCH)


def test_bench_self_tests_pass():
    # in a fresh process: the self-tests drop and re-import kakeya; the ones that guard the package's
    # bindings (PatchTest: every traced name and `meet` site) must be among those that ran and passed
    cmd = [sys.executable, "-m", "unittest", "discover", "-v", "-s", "bench", "-p", "test_*.py"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("test_install_patches_every_site_and_uninstall_restores", "test_traced_command_records_every_layer"):
        assert f"(test_bench.PatchTest.{name}) ... ok" in done.stderr, done.stderr


def test_a_traced_certify_passes_its_rows_to_the_hooks():
    # the rref hook takes len() of its rows and the vanishing_space hook reads its
    # first four arguments; a certify under the tracer fails here if either breaks
    sys.path.insert(0, BENCH)
    try:
        import layers
        from spans import Tracer

        from kakeya import assemble, dual_conic_seed, polymethod

        K = assemble(dual_conic_seed(5), 2)
        tracer = Tracer()
        try:
            layers.install_tracer(tracer)
            cert = polymethod.certify(K, 2)
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(BENCH)
    assert cert.verdict == "pass-vacuous"
    stats = tracer.stats  # 15 points, 6 multi-indices of weight below 3, 55 monomials of degree <= 9
    assert (stats["linalg.rref.max_rows"], stats["linalg.rref.max_cols"]) == (90, 55)
    assert [stats[f"polymethod.vanishing_space.{k}"] for k in ("rows", "cols", "nullity")] == [90, 55, 0]
    assert tracer.summary()["polymethod.vanishing_space"]["calls"] == 1


def test_the_traced_lift_records_calls_over_both_field_kinds():
    # the tracer wraps the Lifting methods it finds on the class: a lift split per field kind
    # would leave one workload's Lifting layers at zero calls
    sys.path.insert(0, BENCH)
    try:
        import layers
        from spans import Tracer

        from kakeya import assemble, dual_conic_seed, regular_ngon_seed

        for module, _ in layers.TRACED:
            importlib.import_module(module)
        counts = {}
        for name, seed in (("conic", dual_conic_seed(5)), ("ngon", regular_ngon_seed(9))):
            tracer = Tracer()
            try:
                layers.install_tracer(tracer)
                assemble(seed, 3)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            counts[name] = [summary.get(f"construction.Lifting.{m}", {}).get("calls", 0) for m in ("line", "direction", "intersection")]
    finally:
        sys.path.remove(BENCH)
    assert counts == {"conic": [20, 20, 10], "ngon": [72, 72, 108]}


def test_a_traced_verify_all_records_one_call_of_each_check():
    # the checks take their Tally as an argument that the wrappers pass through; each runs once per verify_all
    sys.path.insert(0, BENCH)
    try:
        import layers
        from spans import Tracer

        from kakeya import assemble, dual_conic_seed, verify

        K = assemble(dual_conic_seed(5), 3)
        tracer = Tracer()
        try:
            layers.install_tracer(tracer)
            reports = verify.verify_all(K, r=1)
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(BENCH)
    assert [rep.verdict for rep in reports] == ["pass"] * 4
    summary = tracer.summary()
    checks = ("incidence", "directions", "size", "bound_consistency")
    assert [summary[f"verify.verify_{c}"]["calls"] for c in checks] == [1, 1, 1, 1]
    assert summary["verify.verify_all"]["calls"] == 1
