"""Correctness gate: each CLI command's output is checked before it counts.

Every check returns a list of error strings; an empty list means the output
passed.  The checks recompute what they can from the output itself (scan
summaries from the scan records, bound verdicts from the rule's formula,
decimals from the exact rationals) and from the input document, so they
hold for any seed.  For the default seed the stored digests pin the output
byte for byte on top of that.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Any, Callable

UNBOUNDED = math.inf

# Bound-rule formulas, keyed by the part of the rule name before " [".
RULES: dict[str, Callable[[Fraction], Fraction]] = {
    "alpha/(2-alpha)": lambda a: a / (2 - a),
    "alpha/2": lambda a: a / 2,
    "alpha/3": lambda a: a / 3,
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rational(entry: Any, where: str, errors: list[str]) -> Fraction | float | None:
    """Parse a {"frac", "dec"} pair, checking that the decimal matches the fraction."""
    try:
        frac, dec = entry["frac"], entry["dec"]
        if frac == "unbounded":
            if dec is not None:
                errors.append(f"{where}: unbounded value carries decimal {dec!r}")
            return UNBOUNDED
        value = Fraction(frac)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        errors.append(f"{where}: malformed rational {entry!r} ({exc})")
        return None
    if dec != float(value):
        errors.append(f"{where}: decimal {dec!r} does not match {frac}")
    return value


def _parse(text: bytes, errors: list[str]) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:
        errors.append(f"output is not JSON: {exc}")
        return None


def check_reproduce(text: bytes, fixture: str) -> list[str]:
    """Every row of `reproduce --json` matches, and the document says PASS."""
    errors: list[str] = []
    doc = _parse(text, errors)
    if doc is None:
        return errors
    try:
        if doc["fixture"] != fixture:
            errors.append(f"fixture is {doc['fixture']!r}, expected {fixture!r}")
        if doc["pass"] is not True:
            errors.append("reproduction did not pass")
        if not doc["rows"]:
            errors.append("no reproduction rows")
        for k, row in enumerate(doc["rows"]):
            where = f"rows[{k}] {row['quantity']!r}"
            expected = rational(row["expected"], f"{where}.expected", errors)
            actual = rational(row["actual"], f"{where}.actual", errors)
            if row["match"] is not True or expected != actual:
                errors.append(f"{where}: expected {expected}, got {actual}")
    except (KeyError, TypeError) as exc:
        errors.append(f"reproduce document lacks {exc}")
    return errors


def check_scan(text: bytes, profiles: int, goods: int, exhaustive: bool) -> list[str]:
    """Record count, profile shape, and a summary recomputed from the records."""
    errors: list[str] = []
    doc = _parse(text, errors)
    if doc is None:
        return errors
    try:
        records, summary = doc["records"], doc["summary"]
        if len(records) != profiles or summary["profiles"] != profiles:
            errors.append(f"{len(records)} records, summary says {summary['profiles']}, "
                          f"requested {profiles}")
        rule_name = summary["bound_rule"]
        rule = None
        if rule_name is not None:
            rule = RULES.get(rule_name.split(" [")[0])
            if rule is None:
                errors.append(f"unknown bound rule {rule_name!r}")
        pnes, ef1s, seen = [], [], set()
        violations = 0
        for k, record in enumerate(records):
            where = f"records[{k}]"
            profile = tuple(tuple(r) for r in record["profile"])
            if any(sorted(r) != list(range(goods)) for r in profile):
                errors.append(f"{where}: profile {profile} does not rank {goods} goods")
            seen.add(profile)
            pne = rational(record["pne_factor"], f"{where}.pne_factor", errors)
            ef1 = rational(record["ef1_factor"], f"{where}.ef1_factor", errors)
            if pne is not None and not 0 <= pne <= 1:
                errors.append(f"{where}: pne_factor {pne} outside [0, 1]")
            pnes.append(pne)
            ef1s.append(ef1)
            if rule_name is None:
                if record["bound_ok"] is not None:
                    errors.append(f"{where}: bound verdict without a bound rule")
            elif rule is not None and pne is not None and ef1 is not None:
                ok = ef1 >= rule(pne)
                violations += not ok
                if record["bound_ok"] is not ok:
                    errors.append(f"{where}: bound_ok is {record['bound_ok']}, recomputed {ok}")
        if exhaustive and len(seen) != len(records):
            errors.append(f"exhaustive scan repeats profiles: {len(seen)} distinct")
        if None in pnes or None in ef1s or not records:
            return errors
        for key, value in (("min_pne_factor", min(pnes)), ("max_pne_factor", max(pnes)),
                           ("min_ef1_factor", min(ef1s))):
            if rational(summary[key], f"summary.{key}", errors) != value:
                errors.append(f"summary.{key} does not equal {value} from the records")
        expected_violations = None if rule_name is None else violations
        if summary["violations"] != expected_violations:
            errors.append(f"summary.violations is {summary['violations']}, "
                          f"records give {expected_violations}")
    except (KeyError, TypeError) as exc:
        errors.append(f"scan document lacks {exc}")
    return errors


def check_certify(text: bytes, instance_doc: dict) -> list[str]:
    """Class verdicts on coverage tables, checked against the table values.

    Coverage tables are monotone and submodular, hence subadditive, so those
    verdicts must hold.  Additivity is recomputed from the table; a failed
    cancelability verdict must carry a witness that the table confirms.
    """
    errors: list[str] = []
    doc = _parse(text, errors)
    if doc is None:
        return errors
    try:
        agents = doc["agents"]
        if len(agents) != instance_doc["n"]:
            errors.append(f"{len(agents)} agents certified, document has {instance_doc['n']}")
        for entry, agent_doc in zip(agents, instance_doc["agents"]):
            where = f"agent {entry['agent']}"
            values = [Fraction(x) for x in agent_doc["values"]]
            if entry["class"] != "table":
                errors.append(f"{where}: class {entry['class']!r}, expected 'table'")
            for check in ("monotone", "submodular", "subadditive"):
                if entry[check]["holds"] is not True:
                    errors.append(f"{where}: {check} must hold for a coverage table")
            additive = all(values[mask] == values[mask & -mask] + values[mask ^ (mask & -mask)]
                           for mask in range(1, len(values)))
            if entry["additive"]["holds"] is not additive:
                errors.append(f"{where}: additive is {entry['additive']['holds']}, "
                              f"table gives {additive}")
            cancelable = entry["cancelable"]
            if cancelable["holds"] is False:
                s_goods, t_goods, g = cancelable["witness"]
                s = sum(1 << x for x in s_goods)
                t = sum(1 << x for x in t_goods)
                bit = 1 << g
                if (s | t) & bit or not (values[s | bit] > values[t | bit]
                                         and values[s] <= values[t]):
                    errors.append(f"{where}: cancelability witness {cancelable['witness']} "
                                  f"does not violate the property")
            elif cancelable["holds"] is not True:
                errors.append(f"{where}: cancelable verdict missing")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errors.append(f"certify document malformed: {exc!r}")
    return errors
