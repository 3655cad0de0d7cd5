"""One fresh interpreter of the benchmark, started by run.py.

    python3 child.py cli SPEC     `python3 -m rrfair.cli ARGV`, then record peak RSS
    python3 child.py setup SPEC   time `import rrfair` plus loading the inputs
    python3 child.py trace SPEC   the same, or one CLI command, under the tracer

SPEC is a JSON object: "argv" (the CLI arguments), "rss" (where `cli`
writes the peak resident set in KiB), "docs" (paths for `instances.load`),
"fixtures" (names for `instances.build_fixture`), and for `trace` "stdout"
(where the command's output goes) and "spans" (where the trace goes).
`setup` and `trace` print a JSON object with their measurements as the
last line of stdout.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import resource
import runpy
import sys
import time


def peak_rss_kib() -> int:
    """This process's own peak resident set.

    VmHWM belongs to the address space made at exec, whereas ru_maxrss also
    counts the parent's pages that the child held before exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cli(spec: dict) -> None:
    def record() -> None:
        with open(spec["rss"], "w", encoding="ascii") as f:
            f.write(str(peak_rss_kib()))

    atexit.register(record)
    sys.argv = ["rrfair.cli", *spec["argv"]]
    runpy.run_module("rrfair.cli", run_name="__main__", alter_sys=True)


def load_inputs(spec: dict) -> None:
    from rrfair import instances

    for path in spec.get("docs", ()):
        instances.load(path)
    for name in spec.get("fixtures", ()):
        instances.build_fixture(name)


def setup(spec: dict) -> dict:
    start = time.perf_counter()
    import rrfair  # noqa: F401

    load_inputs(spec)
    return {"setup_s": time.perf_counter() - start}


def trace(spec: dict) -> dict:
    import rrfair.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    load_inputs(spec)
    rc = 0
    if spec.get("argv") is not None:
        with open(spec["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            rc = rrfair.cli.main(spec["argv"])
    with open(spec["spans"], "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f)
    return {"rc": rc}


if __name__ == "__main__":
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "cli":
        cli(spec)  # exits through the CLI's own sys.exit
    result = {"setup": setup, "trace": trace}[mode](spec)
    print(json.dumps(result))
    sys.exit(result.get("rc", 0))
