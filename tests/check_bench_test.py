#!/usr/bin/env python3
"""Unit test for tools/check_bench.py's gate logic, on synthetic JSON.

Covers the three ways a gate path can be absent — from both files (a dead
gate: fails), from the fresh output only (a vanished metric: fails), from
the baseline only (a new metric: reported, passes) — plus the tolerance
band and a pinned tolerance.  Also checks that every gate of every suite
resolves in the committed baseline it is run against, so a renamed or
deleted metric cannot leave a gate behind.

Run: python3 tests/check_bench_test.py  (ctest: check_bench_test)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import check_bench  # noqa: E402


def run_check(gates, baseline, fresh, tolerance=0.15):
    suite = {"gates": gates, "informational": []}
    with contextlib.redirect_stdout(io.StringIO()):
        return check_bench.check(suite, baseline, fresh, tolerance)


class GateLogic(unittest.TestCase):
    def test_dead_gate_fails(self):
        failures = run_check([("a.b", "lower", 0.0)], {"a": {}}, {"a": {}})
        self.assertEqual(len(failures), 1)
        self.assertIn("dead gate", failures[0])

    def test_gate_missing_from_fresh_output_fails(self):
        failures = run_check([("a.b", "lower", 0.0)], {"a": {"b": 1.0}}, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("missing from fresh", failures[0])

    def test_new_gate_passes(self):
        self.assertEqual(run_check([("a.b", "higher", 0.0)], {}, {"a": {"b": 2.0}}), [])

    def test_tolerance_band(self):
        gates = [("up", "higher", 0.0), ("down", "lower", 0.0)]
        base = {"up": 10.0, "down": 10.0}
        self.assertEqual(run_check(gates, base, {"up": 8.6, "down": 11.4}), [])
        failures = run_check(gates, base, {"up": 8.4, "down": 11.6})
        self.assertEqual(len(failures), 2)

    def test_pinned_tolerance_overrides_the_suite_band(self):
        gates = [("walks", "lower", 0.0, 0.0)]
        self.assertEqual(run_check(gates, {"walks": 0.0}, {"walks": 0.0}, 0.5), [])
        self.assertEqual(len(run_check(gates, {"walks": 0.0}, {"walks": 0.001}, 0.5)), 1)


class CommittedBaselines(unittest.TestCase):
    def test_every_gate_resolves_in_its_committed_baseline(self):
        for name, suite in check_bench.SUITES.items():
            with open(os.path.join(ROOT, suite["json"])) as f:
                baseline = json.load(f)
            for path, *_ in suite["gates"]:
                with self.subTest(suite=name, gate=path):
                    self.assertIsNotNone(check_bench.lookup(baseline, path))


if __name__ == "__main__":
    unittest.main()
