"""Spans and counters recorded from outside rrfair, around the calls into each module.

The tracer wraps each function named in TARGETS wherever a module of the
package binds it -- `equilibria.round_robin` as well as
`mechanism.round_robin`, the `cli` imports, the `FIXTURES` table -- and
counts `Valuation.value_mask` calls on the class.  Spans (name, start, end,
parent) stay in memory until the traced process ends and writes them out;
`layer_metrics` turns the spans of one traced pass into per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable

CHECKS = ("is_monotone", "is_additive", "is_submodular", "is_cancelable", "is_subadditive")
FIXTURE_BUILDERS = ("no_pne_instance", "bluff_tightness_instance",
                    "additive_tightness_instance", "oxs_lower_bound_instance")

TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "instances": ("load", "build_fixture") + FIXTURE_BUILDERS,
    "valuations": CHECKS,
    "matching": ("max_weight_matching_value",),
    "mechanism": ("round_robin",),
    "profiles": ("bluff_profile", "truthful_profile"),
    "fairness": ("ef1_factor", "ef_factor"),
    "equilibria": ("best_response", "pne_factor", "applicable_bound_rule",
                   "evaluate_profile", "scan_one_profile"),
}

# (name, unit, better); the order of BENCHMARK.json's per_layer list.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("cli.self_s", "s", "lower"),
    ("instances.load_s", "s", "lower"),
    ("instances.build_fixture_s", "s", "lower"),
    ("valuations.value_mask.calls", "count", "lower"),
    ("valuations.value_mask.misses", "count", "lower"),
    ("valuations.value_mask.hit_ratio", "ratio", "higher"),
    *((f"valuations.{c}{suffix}", unit, "lower") for c in CHECKS
      for suffix, unit in (("_s", "s"), (".calls", "count"))),
    ("matching.max_weight_matching_value.calls", "count", "lower"),
    ("matching.max_weight_matching_value_s", "s", "lower"),
    ("mechanism.round_robin.calls", "count", "lower"),
    ("mechanism.round_robin_s", "s", "lower"),
    ("mechanism.round_robin.per_profile", "calls/profile", "lower"),
    ("profiles.bluff_profile_s", "s", "lower"),
    ("profiles.truthful_profile_s", "s", "lower"),
    ("fairness.ef1_factor.calls", "count", "lower"),
    ("fairness.ef1_factor_s", "s", "lower"),
    ("fairness.ef_factor_s", "s", "lower"),
    ("equilibria.profiles", "count", "higher"),
    ("equilibria.best_response.calls", "count", "lower"),
    ("equilibria.best_response_s", "s", "lower"),
    ("equilibria.best_response.states", "count", "lower"),
    ("equilibria.best_response.states_per_s", "1/s", "higher"),
    ("equilibria.best_response.repeat_share", "ratio", "lower"),
    ("equilibria.pne_factor_s", "s", "lower"),
    ("equilibria.applicable_bound_rule_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Timings vary from run to run; every other per-layer metric is a count (or
# a ratio of counts) and must repeat exactly across traced passes.
TIMINGS = frozenset(name for name, unit, _ in PER_LAYER if unit in ("s", "1/s"))


class Tracer:
    """Records spans and counters for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index or -1]
        self._stack: list[int] = []
        self._oracles: dict[int, Any] = {}   # keeps counted oracles alive, so ids stay unique
        self._masks: set[tuple[int, int]] = set()
        self._instances: dict[int, Any] = {}
        self._responses: set[tuple] = set()
        self.counters = Counter()

    def _span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            row = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where it is bound; fail if a target is gone."""
        import rrfair.cli  # noqa: F401  (imports every module of the package)
        from rrfair.valuations import Valuation

        modules = [m for name, m in sys.modules.items()
                   if name == "rrfair" or name.startswith("rrfair.")]
        for short, names in TARGETS.items():
            home = sys.modules[f"rrfair.{short}"]
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    raise LookupError(f"rrfair.{short}.{fname} is gone; its layer would go "
                                      f"untraced")
                after = self._best_response_done(original) if fname == "best_response" else None
                wrapper = self._span(f"{short}.{fname}", original, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, entry in list(value.items()):
                                if entry is original:
                                    value[key] = wrapper
        Valuation.value_mask = self._count_value_mask(Valuation.value_mask)

    def _count_value_mask(self, original: Callable) -> Callable:
        counters, masks, oracles = self.counters, self._masks, self._oracles

        def value_mask(oracle, mask):
            counters["valuations.value_mask.calls"] += 1
            key = (id(oracle), mask)
            if key not in masks:
                masks.add(key)
                oracles[id(oracle)] = oracle
                counters["valuations.value_mask.misses"] += 1
            return original(oracle, mask)

        return value_mask

    def _best_response_done(self, original: Callable) -> Callable:
        signature = inspect.signature(original)
        counters, seen, instances = self.counters, self._responses, self._instances

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            inst, others = bound["inst"], bound["others"]
            instances[id(inst)] = inst
            key = (id(inst), bound["agent"],
                   tuple(sorted((i, r.order) for i, r in others.items())))
            counters["equilibria.best_response.repeats"] += key in seen
            seen.add(key)
            counters["equilibria.best_response.states"] += result.explored_states

        return after

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the dumps of all its processes).

    A function's time counts only its outermost spans, so nested calls of
    the same group are not counted twice.  `trace.overhead_s` is filled in
    by the caller, which knows the untraced wall time.
    """
    calls: Counter = Counter()
    seconds: Counter = Counter()
    counters: Counter = Counter()
    cli_self = 0.0
    build_group = {"instances.build_fixture"} | {f"instances.{b}" for b in FIXTURE_BUILDERS}
    for dump in dumps:
        counters.update(dump["counters"])
        names = [dump["names"][row[0]] for row in dump["spans"]]
        spans = dump["spans"]
        child_time = Counter()
        for row in spans:
            if row[3] >= 0:
                child_time[row[3]] += row[2] - row[1]
        for index, (name, row) in enumerate(zip(names, spans)):
            calls[name] += 1
            group = build_group if name in build_group else {name}
            parent = row[3]
            while parent >= 0 and names[parent] not in group:
                parent = spans[parent][3]
            if parent < 0:
                seconds["instances.build_fixture" if group is build_group else name] += (
                    row[2] - row[1])
            if name == "cli.main":
                cli_self += row[2] - row[1] - child_time[index]

    value_calls = counters["valuations.value_mask.calls"]
    profiles = calls["equilibria.scan_one_profile"] + calls["equilibria.evaluate_profile"]
    responses = calls["equilibria.best_response"]
    states = counters["equilibria.best_response.states"]
    out: dict[str, float] = {
        "cli.self_s": cli_self,
        "instances.load_s": seconds["instances.load"],
        "instances.build_fixture_s": seconds["instances.build_fixture"],
        "valuations.value_mask.calls": value_calls,
        "valuations.value_mask.misses": counters["valuations.value_mask.misses"],
        "valuations.value_mask.hit_ratio": (
            1 - counters["valuations.value_mask.misses"] / value_calls if value_calls else 0.0),
    }
    for check in CHECKS:
        out[f"valuations.{check}_s"] = seconds[f"valuations.{check}"]
        out[f"valuations.{check}.calls"] = calls[f"valuations.{check}"]
    out.update({
        "matching.max_weight_matching_value.calls": calls["matching.max_weight_matching_value"],
        "matching.max_weight_matching_value_s": seconds["matching.max_weight_matching_value"],
        "mechanism.round_robin.calls": calls["mechanism.round_robin"],
        "mechanism.round_robin_s": seconds["mechanism.round_robin"],
        "mechanism.round_robin.per_profile": (
            calls["mechanism.round_robin"] / profiles if profiles else 0.0),
        "profiles.bluff_profile_s": seconds["profiles.bluff_profile"],
        "profiles.truthful_profile_s": seconds["profiles.truthful_profile"],
        "fairness.ef1_factor.calls": calls["fairness.ef1_factor"],
        "fairness.ef1_factor_s": seconds["fairness.ef1_factor"],
        "fairness.ef_factor_s": seconds["fairness.ef_factor"],
        "equilibria.profiles": profiles,
        "equilibria.best_response.calls": responses,
        "equilibria.best_response_s": seconds["equilibria.best_response"],
        "equilibria.best_response.states": states,
        "equilibria.best_response.states_per_s": (
            states / seconds["equilibria.best_response"] if states else 0.0),
        "equilibria.best_response.repeat_share": (
            counters["equilibria.best_response.repeats"] / responses if responses else 0.0),
        "equilibria.pne_factor_s": seconds["equilibria.pne_factor"],
        "equilibria.applicable_bound_rule_s": seconds["equilibria.applicable_bound_rule"],
    })
    out["_calls"] = dict(calls)  # raw span counts, for the predicted-non-zero check
    return out


def combine(passes: list[dict[str, float]], overhead: float) -> dict[str, float]:
    """Counts from the first pass, the fastest pass's value of each timing, plus the overhead."""
    out = {name: (min(p[name] for p in passes) if name in TIMINGS else passes[0][name])
           for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = overhead
    return out
