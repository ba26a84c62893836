"""Self-tests of the benchmark: span arithmetic and a toy-size run of every workload.

    python3 perfbench/selftest.py

The smoke cases run each workload once at toy size, traced and untraced,
with every output check on, and compare the printed metric names with
``BENCHMARK.json``.  The file is not named ``test_*.py`` so the package's
own pytest run does not collect it.
"""

import io
import json
import shutil
import subprocess
import unittest
from contextlib import redirect_stdout

import run
import speed
from spans import SpanStats, Tracer

ROOT = run.ROOT


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.advance(4)

        def middle():
            clock.advance(2)
            tracer.call("leaf", leaf)
            clock.advance(1)

        def outer():
            clock.advance(1)
            tracer.call("middle", middle)
            tracer.call("middle", middle)
            clock.advance(3)

        tracer.call("outer", outer)
        stats = tracer.stats
        self.assertEqual((stats["leaf"].count, stats["leaf"].total_ns, stats["leaf"].self_ns), (2, 8, 8))
        self.assertEqual((stats["middle"].count, stats["middle"].total_ns, stats["middle"].self_ns), (2, 14, 6))
        self.assertEqual((stats["outer"].count, stats["outer"].total_ns, stats["outer"].self_ns), (1, 18, 4))
        self.assertEqual(list(stats["middle"].samples), [7, 7])

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def failing():
            clock.advance(5)
            raise ValueError("boom")

        def outer():
            with self.assertRaises(ValueError):
                tracer.call("failing", failing)
            clock.advance(2)

        tracer.call("outer", outer)
        self.assertEqual(tracer.stats["failing"].total_ns, 5)
        self.assertEqual((tracer.stats["outer"].total_ns, tracer.stats["outer"].self_ns), (7, 2))

    def test_nearest_rank_percentiles(self):
        stats = SpanStats()
        self.assertEqual(stats.percentile_ns(50), 0.0)
        stats.samples.extend(range(100, 0, -1))
        self.assertEqual(stats.percentile_ns(50), 50.0)
        self.assertEqual(stats.percentile_ns(99), 99.0)

    def test_unpatch_restores_inherited_and_module_attributes(self):
        class Base:
            def step(self):
                return "base"

        class Child(Base):
            pass

        tracer = Tracer(FakeClock())
        with tracer.installed(lambda t: t.patch_span(Child, "step", "child.step")):
            self.assertEqual(Child().step(), "base")
            self.assertIn("step", Child.__dict__)
        self.assertNotIn("step", Child.__dict__)
        self.assertEqual(tracer.stats["child.step"].count, 1)

        original = json.dumps
        with tracer.installed(lambda t: t.patch_span(json, "dumps", "json.dumps")):
            self.assertIsNot(json.dumps, original)
        self.assertIs(json.dumps, original)


class SpeedMeterTest(unittest.TestCase):
    def test_segments_scale_by_the_probes_around_them(self):
        clock = FakeClock()
        ref = speed.PROBE_REF_S
        probe_time = [2 * ref]  # the host runs at half the reference speed
        calls = []

        def probe():
            calls.append(probe_time[0])
            return probe_time[0]

        meter = speed.SpeedMeter(probe=probe, clock=clock)
        meter.before_op()
        clock.advance(2.0)
        meter.add(2.0)
        probe_time[0] = ref  # back to the reference speed
        meter.before_op()  # 2 s since the last probes: closes the first segment
        for seconds in (0.2, 0.3):  # too soon for new probes: one segment
            clock.advance(seconds)
            meter.add(seconds)
            meter.before_op()
        meter.finish()
        self.assertAlmostEqual(meter.raw_s, 2.5)
        self.assertAlmostEqual(meter.ref_s, 2.0 * ref * 2 / (2 * ref + ref) + 0.5)
        self.assertEqual(meter.probes, [2 * ref, ref, ref])
        self.assertEqual(len(calls), 3 * speed.PROBE_REPEATS)


class SmokeTest(unittest.TestCase):
    """Every workload at toy size, traced and untraced, with every check on."""

    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def _run(self, workload, trace):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke"])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_every_workload_passes_its_checks(self):
        for entry in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=entry["name"], trace=trace):
                    result = self._run(entry["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_fails_without_the_package_source(self):
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        for path in self.spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [*self.spec["command"], "--workload", "pipeline-desk5", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
