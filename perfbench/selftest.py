"""The benchmark's own tests.

Run from the root of a checkout:  python3 perfbench/selftest.py

Takes about a minute: every workload runs once at minimal length in both
modes.  Kept out of the package's pytest suite on purpose (the file name
does not match ``test_*.py``), because it times whole CLI runs.
"""

import json
import subprocess
import sys
import unittest

import gate
import run

SEED = 7


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


class WorkloadRuns(unittest.TestCase):
    def check_result(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {spec["name"]: spec["unit"] for spec in specs},
        )
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_match_benchmark_json(self):
        for workload in run.BENCHMARK["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = bench(workload["name"], 0)
                self.check_result(result, run.BENCHMARK["end_to_end"])
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)
                for name in ("setup_s", "wall_s", "first_row_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_per_layer_metrics_match_benchmark_json(self):
        for workload in run.BENCHMARK["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = bench(workload["name"], 1)
                self.check_result(result, run.BENCHMARK["per_layer"])
                self.assertGreater(result["metrics"]["trace.overhead_s"]["value"], 0)
                trace_file = run.OUT_DIR / f"trace-{workload['name']}-seed{SEED}.json"
                spans = json.loads(trace_file.read_text())["spans"]
                self.assertTrue(spans)
                self.assertTrue(all(end >= start for *_, start, end, _extra in spans))


class Gate(unittest.TestCase):
    """Small real outputs pass; one mutated row turns the invocation into a failure."""

    def gated(self, argv, mutate=None) -> run.Invocation:
        inv = run.invoke(argv, capture=True)
        self.assertEqual(inv.exit, 0)
        if mutate is not None:
            inv.out = mutate(inv.out)
        run.gate_reps([[inv]], SEED)
        return inv

    def test_real_outputs_pass(self):
        for argv in (["figure1", "--k-to", "4", "--m-to", "8"],
                     ["signs", "--k-max", "20", "--format", "json"],
                     ["figure2", "--k-to", "20"],
                     ["search", "--k", "1..5", "--m", "3..50"],
                     ["threshold", "--k", "20"]):
            with self.subTest(argv=argv):
                self.assertEqual(self.gated(argv).problems, [])

    def test_mutated_grid_row_fails(self):
        # 3 x 6 rows, fewer than SAMPLE_ROWS, so the oracle reads every row
        def mutate(out):
            lines = out.decode().splitlines(keepends=True)
            cells = lines[5].split(",")
            cells[2] = str(int(cells[2]) + 1)  # sum_exact
            lines[5] = ",".join(cells)
            return "".join(lines).encode()

        self.assertTrue(self.gated(["figure1", "--k-to", "4", "--m-to", "8"], mutate).failed)

    def test_mutated_sign_value_fails(self):
        def mutate(out):
            doc = json.loads(out)
            doc["rows"][0]["value"] = str(int(doc["rows"][0]["value"]) - 1)
            return json.dumps(doc).encode()

        self.assertTrue(self.gated(["signs", "--k-max", "6", "--format", "json"], mutate).failed)

    def test_unparsable_json_fails(self):
        inv = self.gated(["signs", "--k-max", "6", "--format", "json"], lambda out: out[:-5])
        self.assertTrue(inv.failed)

    def test_wrong_crossing_fails(self):
        def mutate(out):
            head, row = out.decode().splitlines()
            cells = row.split(",")
            cells[-1] = str(int(cells[-1]) + 1)
            return f"{head}\n{','.join(cells)}\n".encode()

        self.assertTrue(self.gated(["threshold", "--k", "20"], mutate).failed)

    def test_extra_search_hit_fails(self):
        inv = self.gated(["search", "--k", "1..5", "--m", "3..50"], lambda out: out + b"2,7\n")
        self.assertTrue(inv.failed)

    def test_golden_digest(self):
        argv = ["search", "--k", "1..40", "--m", "3..20000", "--jobs", "2"]
        self.assertEqual(self.gated(argv).problems, [])
        self.assertTrue(gate.golden(argv, "0" * 64))


class PeakMemory(unittest.TestCase):
    def test_peak_rss_ignores_driver_memory(self):
        argv = ["threshold", "--k", "40"]
        alone = run.invoke(argv).vmhwm_kb
        ballast = bytearray(b"\x01") * (96 << 20)  # resident: every page written
        try:
            loaded = run.invoke(argv).vmhwm_kb
        finally:
            del ballast
        self.assertGreater(alone, 0)
        self.assertLess(loaded, alone + 4096, "child peak rose with the driver's memory")


if __name__ == "__main__":
    unittest.main()
