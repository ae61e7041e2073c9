"""The traced benchmark run (`bench/run.py --trace 1`) wraps package functions by name.

Installing its tracer and counter here turns a deleted or renamed
function that `bench/layers.TRACED` names into a failing test rather
than a broken traced run.
"""

import importlib
import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


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
