"""Benchmark of the rrfair CLI: cold commands, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Untraced (`--trace 0`): each repeat runs the workload's CLI commands as
`python3 -m rrfair.cli ...` (through child.py, which records the peak
resident set), each in a fresh process, so every repeat pays
the oracle caches and memos the way a CLI user does.  Each repeat also
starts fresh interpreters that only import rrfair and load the inputs
(set-up).  Repeats go on until the next one would pass S seconds.  The
harness and its processes are pinned to one CPU, and every time is scaled
to the reference speed of that CPU by speed.SpeedProbe, which samples it
while the commands run: on a shared 2-core host the same command ran up to
1.5 times slower for minutes while other tenants were busy.  Each metric
is the median over the run's repeats (set-ups); perfbench/README.md has
the figures.

Traced (`--trace 1`): untraced repeats alternate with traced passes (at
least two, more while S allows) in which child.py wraps the package's
functions; the overhead is the fastest traced minus the fastest untraced.  The
per-layer counts must repeat exactly across traced passes, and every span
the workload is predicted to use must record calls.

Every command's output passes the correctness gate (gate.py, plus stored
digests for the default seed); a non-zero exit, a traceback or a failed
gate counts the operation as failed.  The last stdout line is the result
object; `--out` appends the result with its provenance to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import speed
import tracing
import workloads
from workloads import Case, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SETUPS_PER_REPEAT = 4
CHILD_CPU_SECONDS = 150  # a child that runs longer is killed and its operation fails
# (name, unit); each is the median of the run's samples
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TRACED_PASSES = 2


@dataclass
class Tally:
    """Operations attempted and failed; a failure is reported, never dropped."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{label}: " + "; ".join(errors[:5]))


def load_expected() -> dict[str, str]:
    """Stored digests; none at all makes every digest check fail."""
    return json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}


class Harness:
    def __init__(self, workload: str, seed: int, workdir: Path,
                 expected: dict[str, str] | None) -> None:
        """`expected` maps digest keys to digests; None skips digest checks."""
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected = expected
        self.tally = Tally()
        self.trace_errors: list[str] = []
        self.probe: speed.SpeedProbe | None = None  # set while untraced repeats run
        self.last_factor = 1.0
        self.spawns: list[tuple[float, float]] = []  # (wall seconds, speed factor) per process
        self._cases: dict[int, Case] = {}
        self.stdout = workdir / "stdout.txt"
        self.stderr = workdir / "stderr.txt"

    def case(self, repeat: int) -> Case:
        k = repeat % workloads.SUBINSTANCES
        if k not in self._cases:
            self._cases[k] = workloads.make_case(self.workload, self.seed, k, self.workdir)
        return self._cases[k]

    def _spawn(self, argv: list[str], stdout: Path) -> tuple[float, int]:
        """Run one process to completion: (wall seconds, exit code).

        While a speed probe runs, the wall time is scaled to its reference speed.
        """
        with open(stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                    preexec_fn=_limit_cpu)
            try:
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_factor = self.probe.factor(start, end) if self.probe else 1.0
        self.spawns.append((end - start, self.last_factor))
        return (end - start) * self.last_factor, proc.returncode

    def judge(self, command: Command, rc: int, stdout: bytes, stderr: bytes) -> list[str]:
        """Errors of one operation: exit code, traceback, gate, digest."""
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}")
        if b"Traceback" in stderr:
            errors.append("traceback on stderr")
        errors += command.check(stdout)
        if self.expected is not None and (command.pinned or
                                          self.seed == workloads.DEFAULT_SEED):
            want = self.expected.get(command.key)
            if want != gate.digest(stdout):
                errors.append(f"stdout digest differs from the stored one for {command.key}")
        return errors

    def run_command(self, command: Command) -> tuple[float, float]:
        rss = self.workdir / "rss.txt"
        rss.unlink(missing_ok=True)
        spec = {"argv": list(command.argv), "rss": str(rss)}
        wall, rc = self._spawn([sys.executable, str(HERE / "child.py"), "cli", json.dumps(spec)],
                               self.stdout)
        self.tally.record(" ".join(command.argv), self.judge(
            command, rc, self.stdout.read_bytes(), self.stderr.read_bytes()))
        return wall, int(rss.read_text(encoding="ascii")) / 1024 if rss.is_file() else 0.0

    def run_repeat(self, case: Case) -> tuple[float, float]:
        """Wall time of the case's commands and the largest peak RSS among them."""
        results = [self.run_command(c) for c in case.commands]
        return sum(w for w, _ in results), max(r for _, r in results)

    def _child(self, mode: str, spec: dict) -> dict:
        """Run child.py to completion; a failing set-up child ends the run."""
        _, rc = self._spawn([sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)],
                            self.stdout)
        if rc != 0:
            raise RuntimeError(f"{mode} child failed:\n{self.stderr.read_text(encoding='utf-8')}")
        return json.loads(self.stdout.read_text(encoding="utf-8").splitlines()[-1])

    def run_setup(self, case: Case) -> float:
        setup_s = self._child("setup", {"docs": case.docs, "fixtures": case.fixtures})["setup_s"]
        return setup_s * self.last_factor

    def traced_pass(self, case: Case) -> tuple[float, list[dict]]:
        """Set-up then each command, each in a traced fresh process."""
        spans = self.workdir / "spans.json"
        dumps = []
        self._child("trace", {"docs": case.docs, "fixtures": case.fixtures, "spans": str(spans)})
        dumps.append(json.loads(spans.read_text(encoding="utf-8")))
        total = 0.0
        for command in case.commands:
            spec = {"argv": list(command.argv), "stdout": str(self.stdout), "spans": str(spans)}
            wall, rc = self._spawn(
                [sys.executable, str(HERE / "child.py"), "trace", json.dumps(spec)],
                self.workdir / "child-stdout.txt")
            total += wall
            self.tally.record("traced " + " ".join(command.argv), self.judge(
                command, rc, self.stdout.read_bytes(), self.stderr.read_bytes()))
            if rc == 0:
                dumps.append(json.loads(spans.read_text(encoding="utf-8")))
        return total, dumps

    def measure(self, seconds: float) -> tuple[dict, dict]:
        start = time.perf_counter()
        walls, rss, setups, costs = [], [], [], []
        repeat = 0
        with speed.SpeedProbe() as self.probe:
            while True:
                began = time.perf_counter()
                case = self.case(repeat)
                setups += [self.run_setup(case) for _ in range(SETUPS_PER_REPEAT)]
                wall, peak = self.run_repeat(case)
                walls.append(wall)
                rss.append(peak)
                repeat += 1
                costs.append(time.perf_counter() - began)
                if time.perf_counter() - start + statistics.median(costs) > seconds:
                    break
        self.probe = None
        samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
                   "spawns": self.spawns}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
        return metrics, samples

    def trace(self, seconds: float) -> tuple[dict, dict]:
        start = time.perf_counter()
        case = self.case(0)
        untraced, walls, passes = [], [], []
        while True:
            began = time.perf_counter()
            untraced.append(self.run_repeat(case)[0])
            wall, dumps = self.traced_pass(case)
            walls.append(wall)
            passes.append(tracing.layer_metrics(dumps))
            if (len(passes) >= TRACED_PASSES and
                    time.perf_counter() - start + time.perf_counter() - began > seconds):
                break
        self._check_trace(passes)
        combined = tracing.combine(passes, min(walls) - min(untraced))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in combined.items()}
        return metrics, {"traced_wall_s": walls, "untraced_wall_s": untraced}

    def _check_trace(self, passes: list[dict]) -> None:
        counts = [{k: v for k, v in p.items() if k not in tracing.TIMINGS} for p in passes]
        if any(c != counts[0] for c in counts[1:]):
            differing = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
            self.trace_errors.append(f"counts differ between traced passes: {differing}")
        calls = passes[0]["_calls"]
        silent = [s for s in ("cli.main", *workloads.EXPECTED_SPANS[self.workload])
                  if not calls.get(s)]
        if silent:
            self.trace_errors.append(f"spans predicted to record calls recorded none: {silent}")
        if not passes[0]["valuations.value_mask.calls"]:
            self.trace_errors.append("Valuation.value_mask recorded no calls")


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS))


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace, nproc: int, cpu: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "sub_seeds": [workloads.sub_seed(args.seed, k) for k in range(workloads.SUBINSTANCES)],
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the result and its provenance to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "rrfair" / "__init__.py").is_file():
        print(f"error: no rrfair package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    cpu = speed.pin_to_one_cpu()
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(args.workload, args.seed, workdir, load_expected())
        # Compiles the package's bytecode and fails early if it does not import.
        warm = subprocess.run([sys.executable, "-c", "import rrfair.cli"], env=harness.env,
                              cwd=ROOT, capture_output=True, text=True)
        if warm.returncode != 0:
            print(f"error: rrfair does not import:\n{warm.stderr}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, samples = harness.trace(args.seconds)
        else:
            metrics, samples = harness.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = harness.tally
    for message in tally.errors + harness.trace_errors:
        print(f"FAILED {message}", file=sys.stderr)
    correct = tally.failed == 0 and not harness.trace_errors
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    if args.out is not None:
        record = {"provenance": provenance(args, nproc, cpu), "result": result, "samples": samples}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
