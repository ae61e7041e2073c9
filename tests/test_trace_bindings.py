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
    # in a fresh process: the self-tests drop and re-import kakeya
    cmd = [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
