"""Command-line interface: batch reproduction, verification, and analysis.

Subcommands: run, reproduce, scan, certify, generate, best-response.
Exit codes: 0 success, 1 reproduction mismatch, 2 malformed input,
3 size-guard refusal (estimated or stored work over the budget, a search too deep,
or a reported rational with more digits than a document can hold).

The document format is zero-based; this layer renders goods as g1..gm and
agents/rounds one-based, and prints every rational both exactly ("p/q") and
as a decimal approximation.

Each reporting command builds one report document: `--json` prints it, and
the text output is rendered from it alone, so both say the same things.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .equilibria import (
    BoundRule,
    NoApplicableBoundError,
    ProfileEvaluation,
    applicable_bound_rule,
    best_response,
    evaluate_profile,
    profile_space_scan,
)
from .fairness import UNBOUNDED, Factor, FairnessReport
from .instances import (
    FIXTURES,
    GENERATOR_CLASSES,
    ConstraintError,
    GeneratorSpec,
    SchemaError,
    build_fixture,
    dumps,
    generate,
    load,
    save,
)
from .mechanism import Profile, Ranking, round_robin
from .profiles import bluff_profile, truthful_profile
from .scan_json import SCAN_JSON, ScanFormat
from .valuations import CLASS_CHECKS, Instance, SizeGuardError, Table, as_fraction, int_digit_limit

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


class InputError(Exception):
    """Malformed user input (file, profile, or parameter)."""


# ---------------------------------------------------------------------------
# Rendering


def emit(doc: dict[str, Any], as_json: bool, render: Callable[[dict[str, Any]], None]) -> None:
    """Print a command's report document as JSON, or render it as text."""
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        render(doc)


def json_frac(x: Factor) -> dict[str, Any]:
    """An exact `"frac"` string and its `"dec"` float, null beyond float range.

    A rational past the digits `str` writes, as a sum of two in a document can
    be, is refused with `SizeGuardError`.
    """
    if x == UNBOUNDED:
        return {"frac": "unbounded", "dec": None}
    try:
        frac = str(x)
    except ValueError:  # its message names a setting of Python's, not of this tool
        raise SizeGuardError("size guard: a reported rational has a numerator or denominator "
                             f"of more than {int_digit_limit():,} digits") from None
    try:
        dec = float(x)
    except OverflowError:
        dec = None
    return {"frac": frac, "dec": dec}


def fmt_frac(x: dict[str, Any]) -> str:
    """A `json_frac` entry as text; a non-integer also shows its decimal, if it has one."""
    if "/" in x["frac"] and x["dec"] is not None:
        return f"{x['frac']} (~{x['dec']:.6g})"
    return x["frac"]


def fmt_good(g: int) -> str:
    return f"g{g + 1}"


def fmt_goods(goods: Iterable[int]) -> str:
    return "{" + ", ".join(fmt_good(g) for g in sorted(goods)) + "}"


def fmt_ranking(order: Sequence[int]) -> str:
    return " > ".join(fmt_good(g) for g in order)


# ---------------------------------------------------------------------------
# Shared input plumbing


def load_instance(path: str) -> Instance:
    try:
        return load(path)
    except (OSError, SchemaError) as exc:
        raise InputError(f"cannot load instance {path!r}: {exc}") from None


def integer(text: str, sign: str = "-") -> int:
    """An int of ASCII digits after an optional `sign`: int() also takes ٢, +1, 1_0 and ' 1'."""
    digits = text.removeprefix(sign)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed good {text!r}")  # argparse and --weights word their own
    return int(text)


def parse_profile_file(path: str, m: int, n: int) -> Profile:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read profile {path!r}: {exc}") from None
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if len(lines) != n:
        raise InputError(f"profile {path!r} has {len(lines)} rankings, instance needs {n}")
    rankings = []
    for i, line in enumerate(lines):
        try:
            order = tuple(integer(tok, sign="") for tok in line.split())
            rankings.append(Ranking(order))
        except ValueError as exc:
            raise InputError(f"profile {path!r}, line {i + 1}: {exc}") from None
        if len(order) != m:
            raise InputError(f"profile {path!r}, line {i + 1}: expected {m} goods")
    return Profile(tuple(rankings))


def profile_from_source(inst: Instance, source: str) -> tuple[Profile, str]:
    """Build the reported profile from a source spec."""
    if source == "bluff":
        return bluff_profile(inst), "bluff"
    if source == "truthful":
        return truthful_profile(inst), "truthful"
    return parse_profile_file(source, inst.m, inst.n), f"file:{source}"


def parse_params(pairs: Sequence[str]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep:
            raise InputError(f"--param expects NAME=VALUE, got {pair!r}")
        name = name.strip()
        if name in out:
            raise InputError(f"--param {name} given twice")
        try:
            out[name] = as_fraction(raw.strip())
        except (TypeError, ValueError) as exc:
            raise InputError(f"--param {name}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# run


def cmd_run(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    profile, source = profile_from_source(inst, args.profile)
    evaluation = evaluate_profile(inst, profile)
    bundles = evaluation.allocation.bundles
    doc = {
        "instance": {
            "agents": inst.n,
            "goods": inst.m,
            "classes": [v.kind for v in inst.valuations],
            "description": inst.description,
        },
        "profile": {"source": source, "rankings": [list(r.order) for r in profile.rankings]},
        "allocation": [sorted(b) for b in bundles],
        "bundle_values": [json_frac(v.value(b)) for v, b in zip(inst.valuations, bundles)],
        "equilibrium": equilibrium_json(evaluation),
        "fairness": fairness_json(evaluation.fairness),
        "bound": bound_json(inst, evaluation),
    }
    emit(doc, args.json, print_run_report)

    skipped = doc["equilibrium"].get("skipped")
    if skipped is not None and args.require_equilibrium:
        print(f"error: equilibrium report required but {skipped}", file=sys.stderr)
        return EXIT_GUARD
    return EXIT_OK


def equilibrium_json(evaluation: ProfileEvaluation) -> dict[str, Any]:
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


def fairness_json(fair: FairnessReport) -> dict[str, Any]:
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


def bound_json(inst: Instance, evaluation: ProfileEvaluation) -> dict[str, Any]:
    """The certified bound rule and whether the evaluated profile meets it."""
    try:
        rule = applicable_bound_rule(inst)
    except NoApplicableBoundError as exc:
        return {"rule": None, "value": None, "verdict": f"not applicable: {exc}"}
    except SizeGuardError as exc:
        return {"rule": None, "value": None, "verdict": f"skipped: {exc}"}
    if evaluation.equilibrium is None:
        return {"rule": rule.name, "value": None, "verdict": "skipped: no equilibrium report"}
    bound = rule(evaluation.equilibrium.pne_factor)
    verdict = "holds" if evaluation.fairness.ef1_factor >= bound else "VIOLATED"
    return {"rule": rule.name, "value": json_frac(bound), "verdict": verdict}


def print_run_report(doc: dict[str, Any]) -> None:
    inst = doc["instance"]
    print(f"instance: {inst['agents']} agents, {inst['goods']} goods "
          f"({', '.join(inst['classes'])})")
    if inst["description"]:
        print(f"  {inst['description']}")
    print(f"profile: {doc['profile']['source']}")
    for i, order in enumerate(doc["profile"]["rankings"]):
        print(f"  agent {i + 1}: {fmt_ranking(order)}")
    print("allocation:")
    for i, (bundle, value) in enumerate(zip(doc["allocation"], doc["bundle_values"])):
        print(f"  agent {i + 1}: {fmt_goods(bundle)}  worth {fmt_frac(value)} to them")
    eq = doc["equilibrium"]
    if "skipped" in eq:
        print(f"equilibrium: skipped ({eq['skipped']})")
    else:
        print(f"equilibrium: pne_factor = {fmt_frac(eq['pne_factor'])}")
        for a in eq["per_agent"]:
            print(f"  agent {a['agent']}: current {fmt_frac(a['current_value'])}, "
                  f"best response {fmt_frac(a['best_response_value'])}, "
                  f"ratio {fmt_frac(a['ratio'])}")
    fair = doc["fairness"]
    print(f"fairness: ef1_factor = {fmt_frac(fair['ef1_factor'])}, "
          f"ef_factor = {fmt_frac(fair['ef_factor'])}")
    pair = fair["worst_pair"]
    if pair:
        print(f"  binding pair: agent {pair['agent']} towards agent {pair['towards']}, "
              f"removing {pair['removed_good']}")
    bound = doc["bound"]
    value = f" (bound {fmt_frac(bound['value'])})" if bound["value"] is not None else ""
    rule = f"{bound['rule']}{value}: " if bound["rule"] else ""
    print(f"bound: {rule}{bound['verdict']}")


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(args: argparse.Namespace) -> int:
    params = parse_params(args.param)
    inst = build_fixture(args.fixture, **params)
    fixture = FIXTURES[args.fixture]
    rows = fixture.rows(inst, {**fixture.parameters, **params})
    doc = {
        "fixture": args.fixture,
        "parameters": {k: str(v) for k, v in sorted(params.items())},
        "rows": [
            {"quantity": q, "expected": json_frac(e), "actual": json_frac(a), "match": e == a}
            for q, e, a in rows
        ],
        "pass": all(e == a for _, e, a in rows),
    }
    emit(doc, args.json, print_reproduce_report)

    if not doc["pass"]:
        row = next(row for row in doc["rows"] if not row["match"])
        print(f"first mismatch: {row['quantity']}: expected {fmt_frac(row['expected'])}, "
              f"got {fmt_frac(row['actual'])}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def print_reproduce_report(doc: dict[str, Any]) -> None:
    params = doc["parameters"]
    print(f"reproduce {doc['fixture']}"
          + (f" with {', '.join(f'{k}={v}' for k, v in params.items())}" if params else ""))
    for row in doc["rows"]:
        status = "ok" if row["match"] else "MISMATCH"
        print(f"  {row['quantity']}: expected {fmt_frac(row['expected'])}, "
              f"got {fmt_frac(row['actual'])} [{status}]")
    print("PASS" if doc["pass"] else "FAIL")


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args: argparse.Namespace) -> int:
    if args.exhaustive and args.samples is not None:
        raise InputError("choose one of --exhaustive / --samples")
    if not args.exhaustive and args.samples is None:
        raise InputError("scan needs --exhaustive or --samples N")
    if args.samples is not None and args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    inst = load_instance(args.instance)

    # Built first, so an oversized scan is refused before the bound rule is certified.
    scanned = profile_space_scan(inst, samples=args.samples, seed=args.seed)
    try:
        rule: BoundRule | None = applicable_bound_rule(inst)
    except (NoApplicableBoundError, SizeGuardError):
        rule = None

    fmt = SCAN_JSON if args.json else SCAN_TEXT
    order_text = functools.cache(fmt.order)
    # Each record's tail text and bound verdict by the record's int key, which
    # the scan makes equal exactly for equal (pne_factor, ef1_factor); Fractions
    # are compared only for a new key, and the summary's extremes are taken
    # over those keys' factors.
    tails: dict[tuple[int, ...], tuple[str, bool | None]] = {}
    pnes: list[Factor] = []
    ef1s: list[Factor] = []
    count = violations = 0
    refused = None
    write = sys.stdout.write
    try:
        for record in scanned:  # each record is written as it is pulled; no list is built
            tail = tails.get(record.key)
            if tail is None:
                pne, ef1 = record.pne_factor, record.fairness.ef1_factor
                verdict = None if rule is None else ef1 >= rule(pne)
                tail = tails[record.key] = (fmt.tail(json_frac(pne), json_frac(ef1), verdict),
                                            verdict)
                pnes.append(pne)  # only once written: the summary's extremes then fit too
                ef1s.append(ef1)
            violations += tail[1] is False
            write(fmt.record(count, [order_text(order) for order in record.orders], tail[0]))
            count += 1
    except SizeGuardError as exc:  # close the document on the records so far
        refused = str(exc)
        print(f"error: {refused}", file=sys.stderr)
    summary = {
        "profiles": count,
        "min_pne_factor": json_frac(min(pnes, default=UNBOUNDED)),
        "max_pne_factor": json_frac(max(pnes, default=Fraction(0))),
        "min_ef1_factor": json_frac(min(ef1s, default=UNBOUNDED)),
        "bound_rule": rule.name if rule is not None else None,
        "violations": violations if rule is not None else None,
    }
    if refused is not None:
        summary["refused"] = refused
    write(fmt.end(summary))
    return EXIT_OK if refused is None else EXIT_GUARD


# The text pieces of a scan, rendered from the JSON record's blocks and summary.
SCAN_TEXT = ScanFormat(
    order=lambda order: "".join(map(str, order)) if len(order) <= 10 else str(list(order)),
    tail=lambda pne, ef1, verdict: (
        f"  pne {fmt_frac(pne)}  ef1 {fmt_frac(ef1)}"
        + ("" if verdict is None else f"  bound {'ok' if verdict else 'VIOLATED'}")),
    record=lambda index, orders, tail: f"profile {' | '.join(orders)}{tail}\n",
    end=lambda summary: (
        f"{summary['profiles']} profiles, pne_factor in "
        f"[{fmt_frac(summary['min_pne_factor'])}, {fmt_frac(summary['max_pne_factor'])}], "
        f"min ef1_factor {fmt_frac(summary['min_ef1_factor'])}, "
        + (f"bound violations {summary['violations']} ({summary['bound_rule']})"
           if summary["bound_rule"] is not None else "no certified bound") + "\n"
        + (f"refused after {summary['profiles']} profiles: {summary['refused']}\n"
           if "refused" in summary else "")),
)


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    doc: dict[str, list[dict[str, Any]]] = {"agents": []}
    for i, v in enumerate(inst.valuations):
        entry: dict[str, Any] = {"agent": i + 1, "class": v.kind}
        for check_name, check in CLASS_CHECKS.items():
            if check_name == "monotone" and isinstance(v, Table):
                # `Instance` refuses a table that is not monotone: report that verdict.
                entry[check_name] = {"holds": True, "witness": None}
                continue
            try:
                result = check(v)
            except SizeGuardError as exc:
                entry[check_name] = {"holds": None, "skipped": str(exc)}
                continue
            witness = result.witness
            if witness is not None:
                witness = [sorted(witness[0]), sorted(witness[1]), witness[2]]
            entry[check_name] = {"holds": bool(result), "witness": witness}
        doc["agents"].append(entry)
    emit(doc, args.json, print_certify_report)
    return EXIT_OK


def print_certify_report(doc: dict[str, Any]) -> None:
    for entry in doc["agents"]:
        print(f"agent {entry['agent']} ({entry['class']}):")
        for check in CLASS_CHECKS:
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


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    if (args.valuation_class is None) == (args.fixture is None):
        raise InputError("choose one of --class / --fixture")
    if args.fixture is not None:
        inst = build_fixture(args.fixture, **parse_params(args.param))
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
        except ValueError as exc:
            raise InputError(str(exc)) from None
        inst = generate(spec)
    if args.output:
        try:
            save(inst, args.output)
        except OSError as exc:
            raise InputError(f"cannot write {args.output!r}: {exc}") from None
        print(f"wrote {args.output}")
    else:
        print(dumps(inst))
    return EXIT_OK


def _parse_weight_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise InputError(f"--weights expects LO:HI, got {raw!r}")
    try:
        return integer(lo), integer(hi)
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
    response = best_response(inst, agent, profile.others(agent))
    alloc = round_robin(inst, profile)
    current = inst.valuations[agent].value(alloc.bundles[agent])
    ratio: Factor = UNBOUNDED if response.value == 0 else current / response.value
    doc = {
        "agent": args.agent,
        "profile_source": source,
        "current_value": json_frac(current),
        "best_response": {
            "value": json_frac(response.value),
            "bundle": sorted(response.bundle),
            "ranking": list(response.ranking.order),
            "explored_states": response.explored_states,
        },
        "ratio": json_frac(ratio),
    }
    emit(doc, args.json, print_best_response_report)
    return EXIT_OK


def print_best_response_report(doc: dict[str, Any]) -> None:
    response = doc["best_response"]
    print(f"agent {doc['agent']} vs {doc['profile_source']}")
    print(f"  current value: {fmt_frac(doc['current_value'])}")
    print(f"  best response: {fmt_frac(response['value'])} with {fmt_goods(response['bundle'])}")
    print(f"  ranking: {fmt_ranking(response['ranking'])}")
    print(f"  ratio current/best: {fmt_frac(doc['ratio'])}")
    print(f"  explored states: {response['explored_states']}")


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
    scan.add_argument("--samples", type=integer, default=None)
    scan.add_argument("--seed", type=integer, default=0)
    scan.add_argument("--json", action="store_true")
    scan.set_defaults(func=cmd_scan)

    cert = sub.add_parser("certify", help="exhaustive valuation-class report per agent")
    cert.add_argument("instance")
    cert.add_argument("--json", action="store_true")
    cert.set_defaults(func=cmd_certify)

    gen = sub.add_parser("generate", help="emit an instance document (random or fixture)")
    gen.add_argument("--class", dest="valuation_class", default=None, choices=GENERATOR_CLASSES)
    gen.add_argument("--agents", type=integer, default=2)
    gen.add_argument("--goods", type=integer, default=4)
    gen.add_argument("--seed", type=integer, default=0)
    gen.add_argument("--weights", default="0:8", metavar="LO:HI")
    gen.add_argument("--fixture", default=None, choices=sorted(FIXTURES))
    gen.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_generate)

    br = sub.add_parser("best-response", help="exact best response of one agent")
    br.add_argument("instance")
    br.add_argument("--agent", type=integer, required=True, help="1-based agent index")
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
    except (InputError, ConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:  # downstream pager closed; not an error
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
