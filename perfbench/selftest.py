"""Self-tests of the benchmark.

Run from the repository root with ``python3 perfbench/selftest.py``
(about two minutes: every workload runs once at reduced size, traced
and untraced).  The file is deliberately not named ``test_*.py``, so
the repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from layers import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CatalogTest(unittest.TestCase):
    def test_names_are_well_formed(self):
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_emitted_catalog(self):
        spec = _spec()
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(run.WORKLOADS)
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END,
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {k: v[:2] for k, v in run.PER_LAYER.items()},
        )


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 3.0, 6.0, 0],  # overlaps b: the overlap counts once
            ["d", 2.0, 3.0, 1],
        ]
        self.assertEqual(self_times(spans), [5.0, 2.0, 3.0, 1.0])

    def test_dropped_span_reparents_its_children(self):
        tracer = Tracer(clock=iter(range(100)).__next__)

        class Owner:
            @staticmethod
            def outer(fn):
                return fn()

            @staticmethod
            def inner():
                return 1

        tracer.wrap(Owner, "outer", "outer", keep=lambda: 0)
        tracer.wrap(Owner, "inner", "inner")
        Owner.outer(Owner.inner)
        tracer.stop()
        self.assertEqual([s[0] for s in tracer.spans()], ["inner"])
        self.assertEqual(tracer.spans()[0][3], -1)
        self.assertEqual(Owner.inner(), 1)


class WorkloadRunTest(unittest.TestCase):
    """A reduced-size run of each workload completes, emits every
    metric with its unit, and its spans nest."""

    def _check(self, workload):
        spec = _spec()
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(_bench(workload, trace))
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[table]},
            )
        trace_path = os.path.join(
            run.WORK, "traces", f"{workload}-seed5.json"
        )
        with open(trace_path, encoding="utf-8") as fh:
            reps = json.load(fh)
        for rep in reps:
            spans = rep["spans"]
            self.assertTrue(spans)
            for (layer, start, end, parent), own in zip(
                spans, self_times(spans)
            ):
                self.assertGreaterEqual(own, -1e-9, layer)
                self.assertLessEqual(own, end - start + 1e-9, layer)
                if parent >= 0:
                    _, p_start, p_end, _ = spans[parent]
                    self.assertLessEqual(own, p_end - p_start + 1e-9, layer)

    def test_cold_study(self):
        self._check("cold_study")

    def test_fleet_campaign(self):
        self._check("fleet_campaign")


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(run.WORK, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(
            BENCH_DIR, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = _bench("cold_study", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
