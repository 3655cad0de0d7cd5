"""Tests of the benchmark itself: the correctness gate, the tracer and the speed probe.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402


def cli_output(*argv: str) -> bytes:
    import rrfair.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert rrfair.cli.main(list(argv)) == 0
    return buffer.getvalue().encode("utf-8")


def rewrite(text: bytes, change) -> bytes:
    """Apply `change` to the parsed document and render it the way the CLI does."""
    doc = json.loads(text)
    change(doc)
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        import rrfair

        cls.workdir = HERE / ".work" / f"test-{os.getpid()}"
        cls.workdir.mkdir(parents=True, exist_ok=True)
        cls.scan_doc = cls.workdir / "scan.json"
        rrfair.save(rrfair.generate(rrfair.GeneratorSpec("oxs", 2, 3, 7)), cls.scan_doc)
        cls.table_doc = cls.workdir / "table.json"
        rrfair.save(rrfair.generate(rrfair.GeneratorSpec("submodular_table", 2, 4, 7)),
                    cls.table_doc)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def judge(self, command: Command, text: bytes, seed: int = 5) -> run.Tally:
        harness = run.Harness("scan-exhaustive", seed, self.workdir, run.load_expected())
        tally = run.Tally()
        tally.record("op", harness.judge(command, 0, text, b""))
        return tally

    def test_one_altered_rational_in_a_scan_is_a_failure(self) -> None:
        text = cli_output("scan", str(self.scan_doc), "--exhaustive", "--json")
        command = Command((), "unused", partial(gate.check_scan, profiles=36, goods=3,
                                                exhaustive=True), pinned=False)
        self.assertEqual(self.judge(command, text).failed, 0)

        def raise_last_pne(doc):
            doc["records"][-1]["pne_factor"] = {"frac": "3/2", "dec": 1.5}

        def skew_first_ef1(doc):
            doc["records"][0]["ef1_factor"]["frac"] = "999/1000"

        for change in (raise_last_pne, skew_first_ef1):
            tally = self.judge(command, rewrite(text, change))
            self.assertEqual((tally.attempted, tally.failed), (1, 1), change.__name__)

        # A consistent change inside the summary's range passes the structural
        # gate; on the default seed the stored digest still catches it.
        def nudge_first_pne(doc):
            doc["records"][0]["pne_factor"] = {"frac": "1/1000", "dec": 0.001}

        nudged = rewrite(text, nudge_first_pne)
        self.assertEqual(self.judge(command, nudged).failed, 0)
        pinned = Command((), "scan-exhaustive/0", command.check, pinned=False)
        self.assertEqual(self.judge(pinned, nudged, seed=workloads.DEFAULT_SEED).failed, 1)

    def test_one_altered_rational_in_a_reproduction_is_a_failure(self) -> None:
        text = cli_output("reproduce", "additive-tightness", "--json")
        command = Command((), "fixtures/additive-tightness",
                          partial(gate.check_reproduce, fixture="additive-tightness"),
                          pinned=True)
        self.assertEqual(self.judge(command, text).failed, 0)

        def alter(doc):
            doc["rows"][0]["actual"]["frac"] = "2/3"
            doc["rows"][0]["actual"]["dec"] = 2 / 3

        self.assertTrue(gate.check_reproduce(rewrite(text, alter), "additive-tightness"))
        self.assertEqual(self.judge(command, rewrite(text, alter)).failed, 1)

    def test_digest_pins_the_default_seed(self) -> None:
        text = cli_output("reproduce", "no-pne", "--json")
        command = Command((), "fixtures/no-pne",
                          partial(gate.check_reproduce, fixture="no-pne"), pinned=False)
        self.assertEqual(self.judge(command, text, seed=workloads.DEFAULT_SEED).failed, 0)
        spaced = text.replace(b'"pass": true', b'"pass":  true')
        self.assertEqual(gate.check_reproduce(spaced, "no-pne"), [])
        self.assertEqual(self.judge(command, spaced, seed=workloads.DEFAULT_SEED).failed, 1)
        self.assertEqual(self.judge(command, spaced, seed=1).failed, 0)

    def test_certify_verdicts_are_checked_against_the_table(self) -> None:
        text = cli_output("certify", str(self.table_doc), "--json")
        doc = json.loads(self.table_doc.read_text(encoding="utf-8"))
        self.assertEqual(gate.check_certify(text, doc), [])

        def flip_additive(out):
            entry = out["agents"][0]["additive"]
            entry["holds"] = not entry["holds"]

        self.assertTrue(gate.check_certify(rewrite(text, flip_additive), doc))


class TraceTest(unittest.TestCase):
    def test_counts_repeat_exactly_across_traced_processes(self) -> None:
        workdir = HERE / ".work" / f"trace-test-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            import rrfair

            doc = workdir / "doc.json"
            rrfair.save(rrfair.generate(rrfair.GeneratorSpec("oxs", 2, 3, 3)), doc)
            env = dict(os.environ, PYTHONPATH=str(run.SRC))
            passes = []
            for _ in range(2):
                spec = {"argv": ["scan", str(doc), "--exhaustive", "--json"],
                        "stdout": str(workdir / "out.json"), "spans": str(workdir / "spans.json")}
                subprocess.run([sys.executable, str(HERE / "child.py"), "trace", json.dumps(spec)],
                               env=env, check=True, capture_output=True)
                passes.append(tracing.layer_metrics(
                    [json.loads((workdir / "spans.json").read_text(encoding="utf-8"))]))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        counts = [{k: v for k, v in p.items() if k not in tracing.TIMINGS} for p in passes]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["equilibria.profiles"], 36)
        self.assertEqual(counts[0]["equilibria.best_response.calls"], 72)
        self.assertEqual(counts[0]["mechanism.round_robin.per_profile"], 2)
        self.assertGreater(counts[0]["valuations.value_mask.calls"], 0)
        self.assertGreater(passes[0]["cli.self_s"], 0)

    def test_a_renamed_target_fails_the_trace(self) -> None:
        saved = tracing.TARGETS
        tracing.TARGETS = {"equilibria": ("no_such_function",)}
        try:
            with self.assertRaises(LookupError):
                tracing.Tracer().install()
        finally:
            tracing.TARGETS = saved


class SpeedProbeTest(unittest.TestCase):
    def probe(self, times: list[float]) -> speed.SpeedProbe:
        probe = speed.SpeedProbe()
        probe.starts = [float(i) for i in range(len(times))]
        probe.times = times
        return probe

    def test_factor_scales_to_the_reference_speed(self) -> None:
        probe = self.probe([speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10)
        self.assertAlmostEqual(probe.factor(0, 9), 1.0)
        self.assertAlmostEqual(probe.factor(10, 19), 0.5)

    def test_a_short_interval_takes_the_nearest_samples(self) -> None:
        probe = self.probe([speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10)
        self.assertAlmostEqual(probe.factor(15.2, 15.3), 0.5)
        self.assertAlmostEqual(probe.factor(30, 31), 0.5)

    def test_the_thread_samples_and_stops(self) -> None:
        with speed.SpeedProbe() as probe:
            while len(probe.times) < speed.MIN_SAMPLES:
                time.sleep(speed.PERIOD)
        self.assertFalse(probe._thread.is_alive())
        self.assertGreater(probe.factor(0, time.perf_counter()), 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_harness_reports(self) -> None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         dict(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
