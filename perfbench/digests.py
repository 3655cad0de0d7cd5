"""Record expected.json: the stdout digest of every command for the default seed.

    python3 perfbench/digests.py

Each output must first pass its structural gate; re-record only when an
output change is intended, and say why in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workdir = run.HERE / ".work" / "digests"
    workdir.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}
    try:
        for workload in workloads.WORKLOADS:
            harness = run.Harness(workload, workloads.DEFAULT_SEED, workdir, expected=None)
            for k in range(workloads.SUBINSTANCES):
                for command in harness.case(k).commands:
                    if command.key in digests:
                        continue
                    harness.run_command(command)
                    text = harness.stdout.read_bytes()
                    errors = harness.tally.errors
                    if errors:
                        print(f"{command.key}: {errors}", file=sys.stderr)
                        return 1
                    digests[command.key] = gate.digest(text)
                    print(command.key, digests[command.key])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
