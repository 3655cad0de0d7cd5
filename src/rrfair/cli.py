"""Command-line interface: batch reproduction, verification, and analysis.

Subcommands: run, reproduce, scan, certify, generate, best-response.
Exit codes: 0 success, 1 reproduction mismatch, 2 malformed input,
3 guard-policy violation.

The document format is zero-based; this layer renders goods as g1..gm and
agents/rounds one-based, and prints every rational both exactly ("p/q") and
as a decimal approximation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Sequence

from .equilibria import (
    BoundRule,
    NoApplicableBoundError,
    applicable_bound_rule,
    best_response,
    evaluate_profile,
    profile_space_scan,
)
from .fairness import UNBOUNDED, Factor
from .instances import (
    FIXTURES,
    ConstraintError,
    GeneratorSpec,
    SchemaError,
    dumps,
    generate,
    load,
)
from .mechanism import Profile, Ranking, pad_to_multiple, round_robin
from .profiles import bluff_profile, truthful_profile
from .valuations import (
    OXS,
    Additive,
    BudgetAdditive,
    Instance,
    SizeGuardError,
    Table,
    UnitDemand,
    is_additive,
    is_cancelable,
    is_monotone,
    is_subadditive,
    is_submodular,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


class InputError(Exception):
    """Malformed user input (file, profile, or parameter)."""


# ---------------------------------------------------------------------------
# Rendering


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}" + ("" if count == 1 else "s")


def fmt_frac(x: Factor) -> str:
    if x == UNBOUNDED:
        return "unbounded"
    text = str(x)
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{text} (~{float(x):.6g})"
    return text


def json_frac(x: Factor) -> dict[str, Any]:
    if x == UNBOUNDED:
        return {"frac": "unbounded", "dec": None}
    return {"frac": str(x), "dec": float(x)}


def fmt_good(g: int) -> str:
    return f"g{g + 1}"


def fmt_goods(goods: Iterable[int]) -> str:
    items = sorted(goods)
    return "{" + ", ".join(fmt_good(g) for g in items) + "}" if items else "{}"


def fmt_ranking(r: Ranking) -> str:
    return " > ".join(fmt_good(g) for g in r.order)


def valuation_class_name(v: Any) -> str:
    return {
        Additive: "additive",
        BudgetAdditive: "budget_additive",
        UnitDemand: "unit_demand",
        OXS: "oxs",
        Table: "table",
    }[type(v)]


# ---------------------------------------------------------------------------
# Shared input plumbing


def load_instance(path: str) -> Instance:
    try:
        return load(path)
    except (OSError, SchemaError) as exc:
        raise InputError(f"cannot load instance {path!r}: {exc}") from None


def parse_profile_file(path: str, m: int, n: int) -> Profile:
    try:
        lines = [
            line.strip()
            for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
    except OSError as exc:
        raise InputError(f"cannot read profile {path!r}: {exc}") from None
    if len(lines) != n:
        raise InputError(f"profile {path!r} has {len(lines)} rankings, instance needs {n}")
    rankings = []
    for i, line in enumerate(lines):
        try:
            order = tuple(int(tok) for tok in line.split())
            rankings.append(Ranking(order))
        except ValueError as exc:
            raise InputError(f"profile {path!r}, line {i + 1}: {exc}") from None
        if len(order) != m:
            raise InputError(f"profile {path!r}, line {i + 1}: expected {m} goods")
    return Profile(tuple(rankings))


def profile_from_source(inst: Instance, source: str) -> tuple[Profile, str]:
    """Build the reported profile over the real goods from a source spec."""
    if source == "bluff":
        padded, _ = pad_to_multiple(inst)
        restricted = tuple(
            Ranking(tuple(g for g in r.order if g < inst.m))
            for r in bluff_profile(padded).rankings
        )
        return Profile(restricted), "bluff"
    if source == "truthful":
        return truthful_profile(inst), "truthful"
    return parse_profile_file(source, inst.m, inst.n), f"file:{source}"


def parse_param_value(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {raw!r}: {exc}") from None


def parse_params(pairs: Sequence[str]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep:
            raise InputError(f"--param expects NAME=VALUE, got {pair!r}")
        out[name.strip()] = parse_param_value(raw.strip())
    return out


# ---------------------------------------------------------------------------
# run


def cmd_run(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    profile, source = profile_from_source(inst, args.profile)
    evaluation = evaluate_profile(inst, profile)

    bound_note: dict[str, Any]
    try:
        rule = applicable_bound_rule(inst)
        if evaluation.equilibrium is None:
            bound_note = {"rule": rule.name, "verdict": "skipped: no equilibrium report"}
        else:
            alpha = evaluation.equilibrium.pne_factor
            bound = rule(alpha)
            holds = evaluation.fairness.ef1_factor >= bound
            bound_note = {
                "rule": rule.name,
                "bound": bound,
                "verdict": "holds" if holds else "VIOLATED",
            }
    except NoApplicableBoundError as exc:
        bound_note = {"rule": None, "verdict": f"not applicable: {exc}"}
    except SizeGuardError as exc:
        bound_note = {"rule": None, "verdict": f"skipped: {exc}"}

    if args.json:
        doc = {
            "instance": instance_summary(inst),
            "profile": {"source": source, "rankings": [list(r.order) for r in profile.rankings]},
            "padding": evaluation.padding,
            "allocation": [sorted(b) for b in evaluation.allocation.bundles],
            "equilibrium": equilibrium_json(evaluation),
            "fairness": fairness_json(evaluation),
            "bound": {
                "rule": bound_note.get("rule"),
                "value": json_frac(bound_note["bound"]) if "bound" in bound_note else None,
                "verdict": bound_note["verdict"],
            },
        }
        print(json.dumps(doc, indent=2))
    else:
        print_run_report(inst, profile, source, evaluation, bound_note)

    if evaluation.equilibrium is None and args.require_equilibrium:
        print(f"error: equilibrium report required but {evaluation.equilibrium_skipped}",
              file=sys.stderr)
        return EXIT_GUARD
    return EXIT_OK


def instance_summary(inst: Instance) -> dict[str, Any]:
    return {
        "agents": inst.n,
        "goods": inst.m,
        "classes": [valuation_class_name(v) for v in inst.valuations],
        "description": inst.description,
    }


def equilibrium_json(evaluation) -> dict[str, Any] | None:
    eq = evaluation.equilibrium
    if eq is None:
        return {"skipped": evaluation.equilibrium_skipped}
    return {
        "pne_factor": json_frac(eq.pne_factor),
        "per_agent": [
            {
                "agent": a.agent + 1,
                "current_value": json_frac(a.current_value),
                "best_response_value": json_frac(a.best_response_value),
                "ratio": json_frac(a.ratio),
            }
            for a in eq.per_agent
        ],
    }


def fairness_json(evaluation) -> dict[str, Any]:
    fair = evaluation.fairness
    return {
        "ef1_factor": json_frac(fair.ef1_factor),
        "ef_factor": json_frac(fair.ef_factor),
        "worst_pair": (
            {
                "agent": fair.worst_pair[0] + 1,
                "towards": fair.worst_pair[1] + 1,
                "removed_good": fmt_good(fair.worst_pair[2]),
            }
            if fair.worst_pair
            else None
        ),
        "pair_ratios": {
            f"{i + 1}->{j + 1}": json_frac(r) for (i, j), r in sorted(fair.pair_ratios.items())
        },
    }


def print_run_report(inst, profile, source, evaluation, bound_note) -> None:
    print(f"instance: {inst.n} agents, {inst.m} goods "
          f"({', '.join(valuation_class_name(v) for v in inst.valuations)})")
    if inst.description:
        print(f"  {inst.description}")
    print(f"profile: {source}" + (f" (padded with {_plural(evaluation.padding, 'dummy good')})"
                                  if evaluation.padding else ""))
    for i, r in enumerate(profile.rankings):
        print(f"  agent {i + 1}: {fmt_ranking(r)}")
    print("allocation:")
    for i, bundle in enumerate(evaluation.allocation.bundles):
        value = inst.valuations[i].value(bundle)
        print(f"  agent {i + 1}: {fmt_goods(bundle)}  worth {fmt_frac(value)} to them")
    eq = evaluation.equilibrium
    if eq is None:
        print(f"equilibrium: skipped ({evaluation.equilibrium_skipped})")
    else:
        print(f"equilibrium: pne_factor = {fmt_frac(eq.pne_factor)}")
        for a in eq.per_agent:
            print(f"  agent {a.agent + 1}: current {fmt_frac(a.current_value)}, "
                  f"best response {fmt_frac(a.best_response_value)}, ratio {fmt_frac(a.ratio)}")
    fair = evaluation.fairness
    print(f"fairness: ef1_factor = {fmt_frac(fair.ef1_factor)}, "
          f"ef_factor = {fmt_frac(fair.ef_factor)}")
    if fair.worst_pair:
        i, j, g = fair.worst_pair
        print(f"  binding pair: agent {i + 1} towards agent {j + 1}, removing {fmt_good(g)}")
    if bound_note.get("rule"):
        bound = bound_note.get("bound")
        suffix = f" (bound {fmt_frac(bound)})" if bound is not None else ""
        print(f"bound: {bound_note['rule']}{suffix}: {bound_note['verdict']}")
    else:
        print(f"bound: {bound_note['verdict']}")


# ---------------------------------------------------------------------------
# reproduce


FIXTURE_PARAM_NAMES: dict[str, tuple[str, ...]] = {
    "no-pne": (),
    "bluff-tightness": ("eps1", "eps2", "eps3"),
    "additive-tightness": ("delta", "beta"),
    "oxs-lower-bound": ("eps1", "eps2", "eps3", "eps4", "eps5", "eps6", "beta"),
}


def build_named_fixture(name: str, params: dict[str, Fraction]) -> Instance:
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    allowed = FIXTURE_PARAM_NAMES[name]
    unknown = set(params) - set(allowed)
    if unknown:
        raise InputError(f"fixture {name!r} takes parameters {allowed}, not {sorted(unknown)}")
    if name == "no-pne":
        return FIXTURES[name]()
    if name == "bluff-tightness":
        defaults = {"eps1": Fraction(1, 100), "eps2": Fraction(2, 100), "eps3": Fraction(3, 100)}
        defaults.update(params)
        return FIXTURES[name](defaults["eps1"], defaults["eps2"], defaults["eps3"])
    if name == "additive-tightness":
        defaults = {"delta": Fraction(1, 1000), "beta": Fraction(1, 2)}
        defaults.update(params)
        return FIXTURES[name](defaults["delta"], defaults["beta"])
    defaults = {f"eps{k}": Fraction(7 - k, 1000) for k in range(1, 7)}
    defaults["beta"] = Fraction(3, 5)
    defaults.update(params)
    eps = tuple(defaults[f"eps{k}"] for k in range(1, 7))
    return FIXTURES[name](eps, defaults["beta"])


def reproduction_rows(name: str, params: dict[str, Fraction]) -> list[tuple[str, Factor, Factor]]:
    """(quantity, expected, actual) rows; expectations are closed forms in the parameters."""
    inst = build_named_fixture(name, params)

    if name == "no-pne":
        best = max(rec.equilibrium.pne_factor for rec in profile_space_scan(inst))
        count = 24 * 24
        return [
            (f"max pne_factor over {count} profiles", Fraction(3, 4), best),
        ]

    if name == "bluff-tightness":
        e1 = params.get("eps1", Fraction(1, 100))
        e2 = params.get("eps2", Fraction(2, 100))
        e3 = params.get("eps3", Fraction(3, 100))
        evaluation = evaluate_profile(inst, profile_from_source(inst, "bluff")[0])
        assert evaluation.equilibrium is not None
        return [
            ("agent 2 best-response value", 2 - e1 - e2,
             evaluation.equilibrium.per_agent[1].best_response_value),
            ("pne_factor", 1 / (2 - e1 - e2), evaluation.equilibrium.pne_factor),
            ("agent 2 -> 1 ef1 ratio", 1 / (2 - e1 - e3),
             evaluation.fairness.pair_ratios[1, 0]),
            ("ef1_factor", 1 / (2 - e1 - e3), evaluation.fairness.ef1_factor),
        ]

    if name == "additive-tightness":
        d = params.get("delta", Fraction(1, 1000))
        b = params.get("beta", Fraction(1, 2))
        profile = Profile((truthful_profile(inst).rankings[0], Ranking((4, 3, 0, 1, 2))))
        evaluation = evaluate_profile(inst, profile)
        assert evaluation.equilibrium is not None
        alpha = (1 + d) / (3 * b + Fraction(1, 2) + 2 * d)
        ratio = (1 + d) / (6 * b + d)
        bound = alpha / (2 - alpha)
        return [
            ("pne_factor", alpha, evaluation.equilibrium.pne_factor),
            ("agent 2 -> 1 ef1 ratio", ratio, evaluation.fairness.pair_ratios[1, 0]),
            ("bound alpha/(2-alpha)", bound,
             applicable_bound_rule(inst)(evaluation.equilibrium.pne_factor)),
            ("ratio >= bound", Fraction(1), Fraction(int(ratio >= bound))),
            ("ratio < bound + 1/100", Fraction(1),
             Fraction(int(evaluation.fairness.pair_ratios[1, 0] < bound + Fraction(1, 100)))),
        ]

    assert name == "oxs-lower-bound"
    eps = [params.get(f"eps{k}", Fraction(7 - k, 1000)) for k in range(1, 7)]
    b = params.get("beta", Fraction(3, 5))
    agent4 = Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8))
    profile = Profile(truthful_profile(inst).rankings[:3] + (agent4,))
    evaluation = evaluate_profile(inst, profile)
    assert evaluation.equilibrium is not None
    alpha = (1 + eps[0]) / (2 * b + eps[0])
    ratio = (1 + eps[0]) / (4 * b - eps[3])
    return [
        ("agent 4 best-response value", 2 * b + eps[0],
         evaluation.equilibrium.per_agent[3].best_response_value),
        ("pne_factor", alpha, evaluation.equilibrium.pne_factor),
        ("agent 4 -> 1 ef1 ratio", ratio, evaluation.fairness.pair_ratios[3, 0]),
        ("bound alpha/3", alpha / 3,
         applicable_bound_rule(inst)(evaluation.equilibrium.pne_factor)),
        ("ratio >= alpha/3", Fraction(1), Fraction(int(ratio >= alpha / 3))),
        ("ratio < alpha/2 + 1/100", Fraction(1),
         Fraction(int(evaluation.fairness.pair_ratios[3, 0] < alpha / 2 + Fraction(1, 100)))),
    ]


def cmd_reproduce(args: argparse.Namespace) -> int:
    params = parse_params(args.param)
    try:
        rows = reproduction_rows(args.fixture, params)
    except ConstraintError as exc:
        raise InputError(str(exc)) from None

    mismatches = [(q, e, a) for q, e, a in rows if e != a]
    if args.json:
        doc = {
            "fixture": args.fixture,
            "parameters": {k: str(v) for k, v in sorted(params.items())},
            "rows": [
                {"quantity": q, "expected": json_frac(e), "actual": json_frac(a),
                 "match": e == a}
                for q, e, a in rows
            ],
            "pass": not mismatches,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"reproduce {args.fixture}"
              + (f" with {', '.join(f'{k}={v}' for k, v in sorted(params.items()))}"
                 if params else ""))
        for quantity, expected, actual in rows:
            status = "ok" if expected == actual else "MISMATCH"
            print(f"  {quantity}: expected {fmt_frac(expected)}, got {fmt_frac(actual)} [{status}]")
        print("PASS" if not mismatches else "FAIL")
    if mismatches:
        quantity, expected, actual = mismatches[0]
        print(f"first mismatch: {quantity}: expected {fmt_frac(expected)}, "
              f"got {fmt_frac(actual)}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if args.exhaustive and args.samples is not None:
        raise InputError("choose one of --exhaustive / --samples")
    if not args.exhaustive and args.samples is None:
        raise InputError("scan needs --exhaustive or --samples N")

    try:
        rule: BoundRule | None = applicable_bound_rule(inst)
    except (NoApplicableBoundError, SizeGuardError):
        rule = None

    samples = None if args.exhaustive else args.samples
    count = 0
    min_pne: Factor = UNBOUNDED
    max_pne: Factor = Fraction(0)
    min_ef1: Factor = UNBOUNDED
    violations = 0
    lines: list[dict[str, Any]] = []
    for record in profile_space_scan(inst, samples=samples, seed=args.seed):
        count += 1
        pne = record.equilibrium.pne_factor
        ef1 = record.fairness.ef1_factor
        min_pne = min(min_pne, pne)
        max_pne = max(max_pne, pne)
        min_ef1 = min(min_ef1, ef1)
        verdict = ""
        if rule is not None:
            ok = ef1 >= rule(pne)
            if not ok:
                violations += 1
            verdict = "ok" if ok else "VIOLATED"
        if args.json:
            lines.append(
                {
                    "profile": [list(r.order) for r in record.profile.rankings],
                    "pne_factor": json_frac(pne),
                    "ef1_factor": json_frac(ef1),
                    "bound_ok": None if rule is None else verdict == "ok",
                }
            )
        else:
            profile_txt = " | ".join(
                "".join(str(g) for g in r.order) if inst.m <= 10 else str(list(r.order))
                for r in record.profile.rankings
            )
            print(f"profile {profile_txt}  pne {fmt_frac(pne)}  ef1 {fmt_frac(ef1)}"
                  + (f"  bound {verdict}" if rule is not None else ""))

    summary = {
        "profiles": count,
        "min_pne_factor": json_frac(min_pne),
        "max_pne_factor": json_frac(max_pne),
        "min_ef1_factor": json_frac(min_ef1),
        "bound_rule": rule.name if rule is not None else None,
        "violations": violations if rule is not None else None,
    }
    if args.json:
        print(json.dumps({"records": lines, "summary": summary}, indent=2))
    else:
        print(f"{count} profiles, pne_factor in [{fmt_frac(min_pne)}, {fmt_frac(max_pne)}], "
              f"min ef1_factor {fmt_frac(min_ef1)}, "
              + (f"bound violations {violations} ({rule.name})"
                 if rule is not None else "no certified bound"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    report: list[dict[str, Any]] = []
    for i, v in enumerate(inst.valuations):
        entry: dict[str, Any] = {"agent": i + 1, "class": valuation_class_name(v)}
        for check_name, runner in (
            ("monotone", lambda v=v: (is_monotone(v), None)),
            ("additive", lambda v=v: (is_additive(v), None)),
            ("submodular", lambda v=v: _with_witness(is_submodular(v))),
            ("cancelable", lambda v=v: _with_witness(is_cancelable(v))),
            ("subadditive", lambda v=v: (is_subadditive(v), None)),
        ):
            try:
                holds, witness = runner()
                entry[check_name] = {"holds": holds, "witness": witness}
            except SizeGuardError as exc:
                entry[check_name] = {"holds": None, "skipped": str(exc)}
        report.append(entry)

    if args.json:
        print(json.dumps({"agents": report}, indent=2))
    else:
        for entry in report:
            print(f"agent {entry['agent']} ({entry['class']}):")
            for check in ("monotone", "additive", "submodular", "cancelable", "subadditive"):
                result = entry[check]
                if result["holds"] is None:
                    print(f"  {check}: skipped ({result['skipped']})")
                elif result["holds"]:
                    print(f"  {check}: yes")
                else:
                    witness = result.get("witness")
                    detail = ""
                    if witness:
                        detail = (f"  witness S={fmt_goods(witness[0])} "
                                  f"T={fmt_goods(witness[1])} g={fmt_good(witness[2])}")
                    print(f"  {check}: no{detail}")
    return EXIT_OK


def _with_witness(check) -> tuple[bool, list | None]:
    if check.holds:
        return True, None
    s, t, g = check.witness
    return False, [sorted(s), sorted(t), g]


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    if (args.valuation_class is None) == (args.fixture is None):
        raise InputError("choose one of --class / --fixture")
    if args.fixture is not None:
        inst = build_named_fixture(args.fixture, parse_params(args.param))
    else:
        if args.param:
            raise InputError("--param only applies to --fixture")
        try:
            spec = GeneratorSpec(
                valuation_class=args.valuation_class,
                n=args.agents,
                m=args.goods,
                seed=args.seed,
                weight_range=_parse_weight_range(args.weights),
            )
            inst = generate(spec)
        except (ValueError, SizeGuardError) as exc:
            raise InputError(str(exc)) from None
    text = dumps(inst)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text)
    return EXIT_OK


def _parse_weight_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise InputError(f"--weights expects LO:HI, got {raw!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise InputError(f"--weights expects integers, got {raw!r}") from None


# ---------------------------------------------------------------------------
# best-response


def cmd_best_response(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if not 1 <= args.agent <= inst.n:
        raise InputError(f"--agent must be in 1..{inst.n}")
    agent = args.agent - 1
    profile, source = profile_from_source(inst, args.profile)
    padded, padding = pad_to_multiple(inst)
    padded_profile = profile.extended(padded.m)
    response = best_response(padded, agent, padded_profile.others(agent))
    alloc, _ = round_robin(padded, padded_profile)
    current = padded.valuations[agent].value(alloc.bundles[agent])
    real_bundle = frozenset(g for g in response.bundle if g < inst.m)
    ratio: Factor = UNBOUNDED if response.value == 0 else current / response.value

    if args.json:
        doc = {
            "agent": args.agent,
            "profile_source": source,
            "current_value": json_frac(current),
            "best_response": {
                "value": json_frac(response.value),
                "bundle": sorted(real_bundle),
                "ranking": list(response.ranking.order),
                "explored_states": response.explored_states,
            },
            "ratio": json_frac(ratio),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"agent {args.agent} vs {source}"
              + (f" (padded with {_plural(padding, 'dummy good')})" if padding else ""))
        print(f"  current value: {fmt_frac(current)}")
        print(f"  best response: {fmt_frac(response.value)} with {fmt_goods(real_bundle)}")
        print(f"  ranking: {fmt_ranking(response.ranking)}")
        print(f"  ratio current/best: {fmt_frac(ratio)}")
        print(f"  explored states: {response.explored_states}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrfair",
        description="Round-robin allocation under strategic agents: "
                    "equilibria, fairness, and reproduction of the benchmark constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the mechanism on an instance and score the outcome")
    run.add_argument("instance", help="instance document path")
    run.add_argument("--profile", default="bluff",
                     help="bluff | truthful | path to a profile file (default: bluff)")
    run.add_argument("--json", action="store_true")
    run.add_argument("--require-equilibrium", action="store_true",
                     help="exit 3 when the equilibrium report is skipped by a size guard")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("reproduce", help="rebuild a fixture and compare against known values")
    rep.add_argument("fixture", choices=sorted(FIXTURES))
    rep.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                     help="override a fixture parameter (rational, e.g. eps1=1/100)")
    rep.add_argument("--json", action="store_true")
    rep.set_defaults(func=cmd_reproduce)

    scan = sub.add_parser("scan", help="evaluate many (or all) profiles of an instance")
    scan.add_argument("instance")
    scan.add_argument("--exhaustive", action="store_true")
    scan.add_argument("--samples", type=int, default=None)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--json", action="store_true")
    scan.set_defaults(func=cmd_scan)

    cert = sub.add_parser("certify", help="exhaustive valuation-class report per agent")
    cert.add_argument("instance")
    cert.add_argument("--json", action="store_true")
    cert.set_defaults(func=cmd_certify)

    gen = sub.add_parser("generate", help="emit an instance document (random or fixture)")
    gen.add_argument("--class", dest="valuation_class", default=None,
                     choices=("additive", "budget_additive", "unit_demand", "oxs",
                              "submodular_table"))
    gen.add_argument("--agents", type=int, default=2)
    gen.add_argument("--goods", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weights", default="0:8", metavar="LO:HI")
    gen.add_argument("--fixture", default=None, choices=sorted(FIXTURES))
    gen.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_generate)

    br = sub.add_parser("best-response", help="exact best response of one agent")
    br.add_argument("instance")
    br.add_argument("--agent", type=int, required=True, help="1-based agent index")
    br.add_argument("--profile", default="truthful",
                    help="bluff | truthful | path (others' reports; default: truthful)")
    br.add_argument("--json", action="store_true")
    br.set_defaults(func=cmd_best_response)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:  # downstream pager closed; not an error
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
