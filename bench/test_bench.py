"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
import unittest
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from spans import Counter, Tracer, self_times, summarize  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
        names = ["root", "a", "b", "c"]
        ids = array("i", [0, 1, 2, 3])
        parents = array("i", [-1, 0, 1, 0])
        starts = array("d", [0.0, 1.0, 2.0, 5.0])
        ends = array("d", [10.0, 4.0, 3.0, 9.0])
        own, dur = self_times(parents, starts, ends)
        self.assertEqual(list(own), [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(list(dur), [10.0, 3.0, 1.0, 4.0])
        summary = summarize(names, ids, parents, starts, ends)
        self.assertEqual(summary["root"], {"calls": 1, "self_s": 3.0, "total_s": 10.0})
        self.assertEqual(summary["c"]["self_s"], 4.0)

    def test_repeated_names_add_up(self):
        ids = array("i", [0, 1, 1])
        parents = array("i", [-1, 0, 0])
        starts = array("d", [0.0, 1.0, 3.0])
        ends = array("d", [6.0, 2.0, 5.0])
        summary = summarize(["outer", "inner"], ids, parents, starts, ends)
        self.assertEqual(summary["outer"]["self_s"], 3.0)
        self.assertEqual(summary["inner"], {"calls": 2, "self_s": 3.0, "total_s": 3.0})

    def test_tracer_links_nested_calls(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual(inner(0), 1)
        self.assertEqual(list(tracer.parent), [-1, 0, -1])
        self.assertEqual([tracer.names[i] for i in tracer.name_id], ["outer", "inner", "inner"])
        summary = tracer.summary()
        self.assertEqual(summary["inner"]["calls"], 2)
        self.assertGreaterEqual(summary["outer"]["self_s"], 0.0)


def _bindings(modules):
    """Every attribute of the kakeya modules and of the classes they define."""
    out = {}
    for mod in modules:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("kakeya"):
                for attr, raw in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = raw
    return out


class PatchTest(unittest.TestCase):
    def setUp(self):
        run.fresh_import()
        self.modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "kakeya"]

    def test_install_patches_every_site_and_uninstall_restores(self):
        before = _bindings(self.modules)
        meet = sys.modules["kakeya.projgeom"].meet
        tracer, counter = Tracer(), Counter()
        layers.install_tracer(tracer)
        layers.install_counter(counter)
        try:
            for name in ("kakeya.projgeom", "kakeya.construction", "kakeya.verify", "kakeya.seeds", "kakeya"):
                self.assertIsNot(getattr(sys.modules[name], "meet"), meet, name)
            self.assertIs(sys.modules["kakeya.projgeom"]._nullspace, sys.modules["kakeya.linalg"].nullspace)
            self.assertTrue(hasattr(sys.modules["kakeya.linalg"].nullspace, "__wrapped__"))
            during = _bindings(self.modules)
            for key, original in before.items():
                if any(original is value for value in during.values()) and during[key] is not original:
                    self.fail(f"{key} was patched but its original is still bound elsewhere")
            self.assertNotEqual(sum(during[k] is not v for k, v in before.items()), 0)
        finally:
            counter.uninstall()
            tracer.uninstall()
        after = _bindings(self.modules)
        self.assertEqual(set(after), set(before))
        changed = [key for key in before if after[key] is not before[key]]
        self.assertEqual(changed, [])

    def test_traced_command_records_every_layer(self):
        tracer = Tracer()
        layers.install_tracer(tracer)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "k.json")
                main = sys.modules["kakeya.cli"].main
                for argv in (["construct", "--seed", "conic", "--q", "5", "--dim", "3", "--out", path],
                             ["verify", path, "--r", "1"]):
                    res = workloads.run_op(main, workloads.Op("x", "verify", argv))
                    self.assertEqual(res.exit, 0, res.error)
        finally:
            tracer.uninstall()
        layers_seen = {name.split(".")[0] for name, entry in tracer.summary().items() if entry["calls"]}
        self.assertEqual(layers_seen, {"cli", "construction", "seeds", "projgeom", "linalg", "verify"})


class ProbeTest(unittest.TestCase):
    def test_samples_while_active_and_restores_the_handler(self):
        idle = SpeedProbe()
        self.assertEqual((idle.speed(), idle.spent), (1.0, 0.0))
        before = signal.getsignal(signal.SIGALRM)
        with SpeedProbe(interval=0.005) as probe:
            mark = probe.mark()
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(len(probe.samples), 5)
        self.assertGreater(probe.spent_since(mark), 0.0)
        self.assertGreater(probe.speed(mark), 0.0)


class LedgerTest(unittest.TestCase):
    def _result(self, op, exit_code, stdout=""):
        return workloads.Result(op, 0.1, exit_code, stdout)

    def test_wrong_exit_and_wrong_hash_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.json")
            with open(path, "w") as fh:
                fh.write("not the golden bytes\n")
            good_hash = "0" * 64
            ledger = run.Ledger({"construct a": good_hash, "certify b": good_hash})
            ledger.record([
                self._result(workloads.Op("construct a", "construct", [], hash_file=path), 0),
                self._result(workloads.Op("certify b", "certify", [], hash_stdout=True), 1),
                self._result(workloads.Op("verify c", "verify", [], expect_exit=1, must_fail=("incidence",)), 1,
                             '[{"check": "incidence", "verdict": "fail"}]'),
            ])
        self.assertEqual((ledger.attempted, ledger.failed), (3, 2))
        self.assertIn("sha256", ledger.failures["construct a"])
        self.assertIn("exit 1", ledger.failures["certify b"])
        self.assertFalse(ledger.correct)

    def test_known_defect_counts_as_failed_but_keeps_correct(self):
        name = next(iter(workloads.KNOWN_DEFECTS))
        ledger = run.Ledger({})
        op = workloads.Op(name, "verify", [], expect_exit=1, must_fail=("incidence",))
        ledger.record([self._result(op, 0, '[{"check": "incidence", "verdict": "pass"}]')])
        self.assertEqual(ledger.failed, 1)
        self.assertTrue(ledger.correct)


class TamperTest(unittest.TestCase):
    def test_controls_leave_a_line_short_of_distinct_points(self):
        kk = run.fresh_import()
        for seed in range(3):
            with tempfile.TemporaryDirectory() as tmp:
                workloads.conic_lift_setup(kk, tmp, seed)
                for name in ("moved.json", "duplicate.json"):
                    K = kk.load_kakeya(os.path.join(tmp, name))
                    distinct = min(
                        len({kp.point.coords for kp in K.points if kl.line.contains(kp.point)})
                        for kl in K.lines
                    )
                    self.assertEqual(distinct, K.N - 1, (seed, name))


if __name__ == "__main__":
    unittest.main()
