"""The four workloads: inputs made from a seed, their CLI commands and gates.

All four are closed loops: one client, one process at a time, commands in
sequence.  None passes `--threads`: the thread pool is bound by the
interpreter lock and measured slower than one thread.

A run with seed S cycles through SUBINSTANCES inputs with sub-seeds
S * SUBINSTANCES + k, so that a run spans several instances and not
one instance's quirks.  The program only ever sees the generated documents.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import gate

SUBINSTANCES = 4
DEFAULT_SEED = 0

FIXTURE_NAMES = ("no-pne", "bluff-tightness", "additive-tightness", "oxs-lower-bound")

WORKLOADS = ("fixtures", "scan-exhaustive", "scan-sampled-deep", "certify-tables")

EXHAUSTIVE_GOODS = 5
DEEP_GOODS = 14
DEEP_SAMPLES = 40
TABLE_GOODS = 9

# Spans that must record calls on a workload's traced run, so that a rename
# in the program cannot silently blind a layer.
_SCAN_SPANS = (
    "instances.load", "mechanism.round_robin", "fairness.ef1_factor", "fairness.ef_factor",
    "equilibria.best_response", "equilibria.pne_factor", "equilibria.applicable_bound_rule",
    "equilibria.scan_one_profile",
)
_CHECK_SPANS = tuple(f"valuations.is_{c}" for c in
                     ("monotone", "additive", "submodular", "cancelable", "subadditive"))
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "fixtures": ("instances.build_fixture", "matching.max_weight_matching_value",
                 "mechanism.round_robin", "profiles.bluff_profile", "profiles.truthful_profile",
                 "fairness.ef1_factor", "fairness.ef_factor", "equilibria.best_response",
                 "equilibria.pne_factor", "equilibria.applicable_bound_rule",
                 "equilibria.evaluate_profile") + _CHECK_SPANS,
    "scan-exhaustive": _SCAN_SPANS,
    "scan-sampled-deep": _SCAN_SPANS + ("matching.max_weight_matching_value",),
    "certify-tables": ("instances.load",) + _CHECK_SPANS,
}


@dataclass(frozen=True)
class Command:
    """One operation: a CLI invocation and the gate its stdout must pass."""

    argv: tuple[str, ...]
    key: str                             # digest key in expected.json
    check: Callable[[bytes], list[str]]
    pinned: bool                         # digest checked on every seed, not only the default


@dataclass(frozen=True)
class Case:
    """The inputs of one repeat: its commands and what set-up loads."""

    commands: tuple[Command, ...]
    docs: tuple[str, ...] = ()       # instance documents set-up loads with instances.load
    fixtures: tuple[str, ...] = ()   # fixtures set-up builds with instances.build_fixture


def sub_seed(seed: int, k: int) -> int:
    return seed * SUBINSTANCES + k


def deep_document(seed: int) -> dict:
    """2 agents x 14 goods, one additive and one OXS agent, integer weights 0..8.

    Written here because `generate` refuses m > 12.  The OXS agent draws
    its slots and edges the way `generate` does.
    """
    rng = random.Random(seed)
    m = DEEP_GOODS
    weights = [str(rng.randint(0, 8)) for _ in range(m)]
    slots = rng.randint(m // 2, m)
    edges = [[g, rng.randrange(slots), str(rng.randint(0, 8))]
             for g in range(m) for _ in range(rng.randint(1, 2))]
    return {
        "n": 2,
        "m": m,
        "agents": [{"class": "additive", "weights": weights}, {"class": "oxs", "edges": edges}],
        "description": f"benchmark: additive vs oxs, seed {seed}",
    }


def make_case(workload: str, seed: int, k: int, workdir: Path) -> Case:
    """Write the inputs of sub-instance k of `seed` and return its commands."""
    import rrfair

    sub = sub_seed(seed, k)
    doc_path = workdir / f"{workload}-{sub}.json"
    key = f"{workload}/{k}"
    if workload == "fixtures":
        commands = tuple(
            Command(("reproduce", name, "--json"), f"fixtures/{name}",
                    partial(gate.check_reproduce, fixture=name), pinned=True)
            for name in FIXTURE_NAMES
        )
        return Case(commands, fixtures=FIXTURE_NAMES)
    if workload == "scan-exhaustive":
        rrfair.save(rrfair.generate(rrfair.GeneratorSpec("oxs", 2, EXHAUSTIVE_GOODS, sub)),
                    doc_path)
        profiles = math.factorial(EXHAUSTIVE_GOODS) ** 2
        check = partial(gate.check_scan, profiles=profiles, goods=EXHAUSTIVE_GOODS,
                        exhaustive=True)
        argv = ("scan", str(doc_path), "--exhaustive", "--json")
    elif workload == "scan-sampled-deep":
        doc_path.write_text(json.dumps(deep_document(sub), indent=2) + "\n", encoding="utf-8")
        check = partial(gate.check_scan, profiles=DEEP_SAMPLES, goods=DEEP_GOODS,
                        exhaustive=False)
        argv = ("scan", str(doc_path), "--samples", str(DEEP_SAMPLES), "--seed", str(sub),
                "--json")
    elif workload == "certify-tables":
        inst = rrfair.generate(rrfair.GeneratorSpec("submodular_table", 2, TABLE_GOODS, sub))
        rrfair.save(inst, doc_path)
        check = partial(gate.check_certify,
                        instance_doc=json.loads(doc_path.read_text(encoding="utf-8")))
        argv = ("certify", str(doc_path), "--json")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Case((Command(argv, key, check, pinned=False),), docs=(str(doc_path),))
