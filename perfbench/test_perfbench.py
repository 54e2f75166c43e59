"""Self-tests of the benchmark: its oracles flag perturbed results, its
generators are deterministic, and its output matches BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from infolab.infospace import InfoVector  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _flatten(value):
    if isinstance(value, dict):
        return [item for key in sorted(value) for item in (key, *_flatten(value[key]))]
    if isinstance(value, (list, tuple)):
        return [item for part in value for item in _flatten(part)]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    return [value]


class OracleTests(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.tracer = spans.Tracer()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _first(self, workload, kind, seed=3):
        block = workload.make_block(np.random.default_rng(seed))
        return next(inputs for k, inputs in block if k == kind)

    def test_generators_are_deterministic_per_seed(self):
        for cls in wl.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                first = _flatten(cls(self.tmp).make_block(np.random.default_rng(5)))
                again = _flatten(cls(self.tmp).make_block(np.random.default_rng(5)))
                other = _flatten(cls(self.tmp).make_block(np.random.default_rng(6)))
                self.assertEqual([str(v) for v in first], [str(v) for v in again])
                self.assertNotEqual([str(v) for v in first], [str(v) for v in other])

    def test_entangle_flags_a_maximum_lowered_by_1e_5(self):
        workload = wl.Entangle(self.tmp)
        inputs = self._first(workload, "werner")
        corr, pair, verdict, best = workload.run(self.tracer, "werner", inputs)
        self.assertEqual(workload.check("werner", inputs, (corr, pair, verdict, best)), [])
        lowered = dataclasses.replace(best, total_bits=best.total_bits - 1e-5)
        failures = workload.check("werner", inputs, (corr, pair, verdict, lowered))
        self.assertIn(wl.ACCURACY, [severity for severity, _ in failures])

    def test_dynamics_flags_an_info_vector_shifted_by_1e_9(self):
        workload = wl.Dynamics(self.tmp)
        inputs = self._first(workload, "read")
        output = list(workload.run(self.tracer, "read", inputs))
        self.assertEqual(workload.check("read", inputs, output), [])
        iv = output[4]
        output[4] = InfoVector(iv.i1, iv.i2 - np.copysign(1e-9, iv.i2), iv.i3)  # stays inside the ball
        self.assertNotEqual(workload.check("read", inputs, output), [])

    def test_dynamics_flags_an_edited_evolve_csv(self):
        workload = wl.Dynamics(self.tmp)
        inputs = self._first(workload, "write")
        output = workload.run(self.tracer, "write", inputs)
        lines = inputs["out"].read_text().splitlines(keepends=True)
        t, i1, rest = lines[11].split(",", 2)  # the row at t = 0.2
        lead = int(i1.startswith("-"))
        i1 = i1[:lead] + ("5" if i1[lead] != "5" else "6") + i1[lead + 1:]  # its first digit
        lines[11] = ",".join((t, i1, rest))
        inputs["out"].write_text("".join(lines))
        self.assertNotEqual(workload.check("write", inputs, output), [])

    def test_sweep_flags_one_edited_figure_byte(self):
        workload = wl.Sweep(self.tmp)
        block = workload.make_block(np.random.default_rng(3))
        writes = [inputs for kind, inputs in block if kind == "write"]
        for inputs in writes[:1]:
            self.assertEqual(workload.check("write", inputs, workload.run(self.tracer, "write", inputs)), [])
        inputs = writes[1]
        output = workload.run(self.tracer, "write", inputs)
        path = inputs[0] / "fig2.csv"
        data = bytearray(path.read_bytes())
        last_digit = max(i for i, byte in enumerate(data) if chr(byte).isdigit())
        data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        self.assertEqual(
            workload.check("write", inputs, output), [(wl.INVARIANT, "fig2.csv differs from the first write")]
        )

    def test_sweep_oracle_flags_a_wrong_first_figure(self):
        workload = wl.Sweep(self.tmp)
        inputs = self._first(workload, "write")
        workload.run(self.tracer, "write", inputs)
        files = {name: (inputs[0] / name).read_bytes() for name in wl.FIGURE_FILES}
        self.assertEqual(wl.Sweep._check_figures(files), [])
        files["fig1.csv"] = files["fig1.csv"].replace(b"\n0.5,", b"\n0.6,", 1)
        self.assertNotEqual(wl.Sweep._check_figures(files), [])


class ContractTests(unittest.TestCase):
    def _results(self, *args) -> list[dict]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=170
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        return [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]

    def test_each_workload_reports_every_benchmark_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOAD_NAMES))
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            results = self._results(
                "--workload", "all", "--seed", "1", "--seconds", "0.5", "--trace", trace, "--pool-blocks", "1"
            )
            self.assertEqual(len(results), len(run.WORKLOAD_NAMES))
            for result in results:
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[group]})
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name], name)

    def test_attempted_and_failed_depend_on_the_seed_not_the_run_length(self):
        counts = []
        for seconds in ("0.1", "5"):  # one pass over the pool, then about three
            (result,) = self._results(
                "--workload", "entangle", "--seed", "1", "--seconds", seconds, "--trace", "0", "--pool-blocks", "2"
            )
            counts.append((result["attempted"], result["failed"]))
        self.assertEqual(counts[0][0], 2 * len(wl.Entangle.cycle) * wl.Entangle.cycles_per_block)
        self.assertEqual(counts[0], counts[1])

    def test_refuses_to_run_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
