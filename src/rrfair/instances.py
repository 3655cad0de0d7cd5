"""Benchmark instances: parameterized fixtures, random generators, and I/O.

The four fixtures are exact constructions whose equilibrium and fairness
numbers are known in closed form; their parameters are rationals with
validated strict inequalities.  Generators produce random instances of a
valuation class from a seed.  Instances serialize to a strict JSON document with
"p/q" rationals; floats are rejected end to end.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .valuations import (
    OXS,
    Additive,
    BudgetAdditive,
    Instance,
    SizeGuardError,
    Table,
    UnitDemand,
    Valuation,
    as_fraction,
    check_subset_work,
    check_work,
)


class ConstraintError(ValueError):
    """A fixture parameter violates its strict-inequality constraints."""


def _require(condition: bool, inequality: str) -> None:
    if not condition:
        raise ConstraintError(f"parameter constraint violated: requires {inequality}")


def no_pne_instance() -> Instance:
    """Two agents, four goods, explicit tables; no profile is a near-exact equilibrium.

    Every singleton is worth 2, every set of three or four goods is worth 4,
    and the six pairs split 3/4 so that one agent always lands on a
    3-valued pair while a 4-valued pair was reachable.  Both tables are
    submodular.  The best factor any profile attains is 3/4.
    """
    pair_values_1 = {(0, 1): 3, (0, 2): 3, (0, 3): 4, (1, 2): 4, (1, 3): 3, (2, 3): 3}
    pair_values_2 = {(0, 1): 4, (0, 2): 4, (0, 3): 3, (1, 2): 3, (1, 3): 4, (2, 3): 4}

    def table(pairs: dict[tuple[int, int], int]) -> Table:
        values: list[int] = []
        for mask in range(16):
            members = [g for g in range(4) if mask >> g & 1]
            if len(members) == 0:
                values.append(0)
            elif len(members) == 1:
                values.append(2)
            elif len(members) == 2:
                values.append(pairs[members[0], members[1]])
            else:
                values.append(4)
        return Table(4, values)

    return Instance(
        n=2,
        m=4,
        valuations=(table(pair_values_1), table(pair_values_2)),
        description="two agents, four goods; every profile leaves one agent at 3 vs 4",
    )


def bluff_tightness_instance(
    eps1: Fraction | int | str = Fraction(1, 100),
    eps2: Fraction | int | str = Fraction(2, 100),
    eps3: Fraction | int | str = Fraction(3, 100),
) -> Instance:
    """Additive agent vs OXS agent on five goods; the bluff factor 1/2 is tight.

    Requires 1 > eps3 > eps2 > eps1 > 0.  Under the bluff profile agent 2
    keeps value 1 while a deviation reaches 2 - eps1 - eps2, so the bluff
    equilibrium factor approaches 1/2 as the epsilons shrink.
    """
    e1, e2, e3 = as_fraction(eps1), as_fraction(eps2), as_fraction(eps3)
    _require(0 < e1, "eps1 > 0")
    _require(e1 < e2, "eps2 > eps1")
    _require(e2 < e3, "eps3 > eps2")
    _require(e3 < 1, "1 > eps3")
    agent1 = Additive([2, 1, 1 - e1, 1 - e2, 1 - e3])
    agent2 = OXS(
        5,
        [
            (0, "slot-a", 2),
            (1, "slot-b", 1),
            (2, "slot-c", 1 - e1),
            (3, "slot-b", 1 - e2),
            (4, "slot-b", 1 - e3),
        ],
    )
    return Instance(
        n=2,
        m=5,
        valuations=(agent1, agent2),
        description=(
            "additive agent 1 with weights (2, 1, 1-eps1, 1-eps2, 1-eps3) -- the fourth "
            "weight is deliberately 1-eps2 -- vs an OXS agent whose goods 2/4/5 compete "
            "for one slot"
        ),
    )


def additive_tightness_instance(
    delta: Fraction | int | str = Fraction(1, 1000),
    beta: Fraction | int | str = Fraction(1, 2),
) -> Instance:
    """Two additive agents on five goods; the a/(2-a) envy bound is tight.

    Requires 0 < delta < 1/2 and beta > 1/6 + delta.
    """
    d, b = as_fraction(delta), as_fraction(beta)
    _require(0 < d, "delta > 0")
    _require(d < Fraction(1, 2), "1/2 > delta")
    _require(b > Fraction(1, 6) + d, "beta > 1/6 + delta")
    half = Fraction(1, 2)
    agent1 = Additive([6, 3 + d, 3, half + d, half])
    agent2 = Additive([6 * b, 3 * b + d, 3 * b, half + d, half])
    return Instance(
        n=2,
        m=5,
        valuations=(agent1, agent2),
        description="two additive agents whose second agent scales the top goods by beta",
    )


def oxs_lower_bound_instance(
    eps1: Fraction | int | str = Fraction(6, 1000),
    eps2: Fraction | int | str = Fraction(5, 1000),
    eps3: Fraction | int | str = Fraction(4, 1000),
    eps4: Fraction | int | str = Fraction(3, 1000),
    eps5: Fraction | int | str = Fraction(2, 1000),
    eps6: Fraction | int | str = Fraction(1, 1000),
    beta: Fraction | int | str = Fraction(3, 5),
) -> Instance:
    """Three additive agents plus one OXS agent on nine goods.

    Requires 1 > eps1 > eps2 > ... > eps6 > 0 and beta > (1 + eps4)/2.
    An equilibrium profile leaves the OXS agent at factor a while her envy
    toward agent 1 stays near a/2, showing the a/2 fairness level is not
    reachable for submodular agents in general.
    """
    e = [as_fraction(x) for x in (eps1, eps2, eps3, eps4, eps5, eps6)]
    _require(e[5] > 0, "eps6 > 0")
    for idx in range(5):
        _require(e[idx] > e[idx + 1], f"eps{idx + 1} > eps{idx + 2}")
    _require(e[0] < 1, "1 > eps1")
    b = as_fraction(beta)
    _require(b > (1 + e[3]) / 2, "beta > (1 + eps4)/2")
    e1, e2, e3, e4, e5, e6 = e
    agent1 = Additive([5, e5, e6, 1, 2, e1, e2, e3, e4])
    agent2 = Additive([e5, 5, e6, 1, e1, e2, 2, e3, e4])
    agent3 = Additive([e5, e6, 5, e1, e2, 2, e3, e4, 1])
    agent4 = OXS(
        9,
        [
            (0, "s0", 5 * b),
            (1, "s1", 4 * b),
            (2, "s2", 3 * b),
            (3, "s3", 2 * b),
            (4, "s4", 2 * b - e4),
            (5, "s3", 1),
            (6, "s4", 1 - e3),
            (7, "s5", e1),
            (8, "s6", e2),
        ],
    )
    return Instance(
        n=4,
        m=9,
        valuations=(agent1, agent2, agent3, agent4),
        description="three additive agents and an OXS agent whose heavy slots overlap goods 4/6 and 5/7",
    )


FixtureBuilder = Callable[..., Instance]

FIXTURES: dict[str, FixtureBuilder] = {
    "no-pne": no_pne_instance,
    "bluff-tightness": bluff_tightness_instance,
    "additive-tightness": additive_tightness_instance,
    "oxs-lower-bound": oxs_lower_bound_instance,
}


def build_fixture(name: str, **params: Fraction | int | str) -> Instance:
    """Build a named fixture, validating parameter constraints."""
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}") from None
    return builder(**params)


# ---------------------------------------------------------------------------
# Random generation


GENERATOR_CLASSES = ("additive", "budget_additive", "unit_demand", "oxs", "submodular_table")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a seeded random instance of one valuation class."""

    valuation_class: str
    n: int
    m: int
    seed: int
    weight_range: tuple[int, int] = (0, 8)

    def __post_init__(self) -> None:
        if self.valuation_class not in GENERATOR_CLASSES:
            raise ValueError(
                f"unknown class {self.valuation_class!r}; known: {GENERATOR_CLASSES}"
            )
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one agent and one good")
        lo, hi = self.weight_range
        if not 0 <= lo <= hi:
            raise ValueError(f"weight range {self.weight_range} must satisfy 0 <= lo <= hi")


def generate(spec: GeneratorSpec) -> Instance:
    """Deterministic instance for a spec; its class holds by construction, unchecked.

    Additive, budget-additive, and unit-demand oracles are cancelable and
    subadditive by algebra, OXS oracles submodular by construction, and
    `submodular_table` oracles are weighted-coverage functions tabulated
    over all subsets, which are monotone submodular by construction too.
    """
    check_work(spec.m, f"generating {spec.m} goods")
    if spec.valuation_class == "submodular_table":  # 2^m subsets, each covering ~3m
        check_work(3 * spec.m << spec.m, f"generating a submodular_table on {spec.m} goods")
    rng = random.Random(spec.seed)
    lo, hi = spec.weight_range
    valuations: list[Valuation] = []
    for _ in range(spec.n):
        valuations.append(_generate_valuation(spec, rng, lo, hi))
    return Instance(
        n=spec.n,
        m=spec.m,
        valuations=tuple(valuations),
        description=f"generated: {spec.valuation_class}, seed {spec.seed}",
    )


def _generate_valuation(spec: GeneratorSpec, rng: random.Random, lo: int, hi: int) -> Valuation:
    m = spec.m
    cls = spec.valuation_class
    if cls == "additive":
        return Additive([Fraction(rng.randint(lo, hi)) for _ in range(m)])
    if cls == "unit_demand":
        return UnitDemand([Fraction(rng.randint(lo, hi)) for _ in range(m)])
    if cls == "budget_additive":
        weights = [Fraction(rng.randint(lo, hi)) for _ in range(m)]
        total = int(sum(weights))
        cap = Fraction(rng.randint(max(hi, 1), max(total, hi, 1)))
        return BudgetAdditive(weights, cap)
    if cls == "oxs":
        slots = rng.randint(max(1, m // 2), m)
        edges = []
        for g in range(m):
            for _ in range(rng.randint(1, 2)):
                edges.append((g, rng.randrange(slots), Fraction(rng.randint(lo, hi))))
        return OXS(m, edges)
    assert cls == "submodular_table"
    return _coverage_table(rng, m, lo, hi)


def _coverage_table(rng: random.Random, m: int, lo: int, hi: int) -> Table:
    """Weighted-coverage oracle tabulated over all subsets (monotone submodular)."""
    universe = max(2, m + rng.randint(0, m))
    element_weight = [rng.randint(max(lo, 1), max(hi, 1)) for _ in range(universe)]
    covers = []
    for _ in range(m):
        size = rng.randint(1, max(1, universe // 2))
        cover = 0
        for element in rng.sample(range(universe), size):
            cover |= 1 << element
        covers.append(cover)
    values = []
    for mask in range(1 << m):
        covered = 0
        for g in range(m):
            if mask >> g & 1:
                covered |= covers[g]
        values.append(sum(element_weight[u] for u in range(universe) if covered >> u & 1))
    return Table(m, values)


# ---------------------------------------------------------------------------
# Serialization


class SchemaError(ValueError):
    """An instance document violates the schema."""


# The document's class name of each oracle type.
CLASS_NAMES: dict[type, str] = {
    Additive: "additive",
    BudgetAdditive: "budget_additive",
    UnitDemand: "unit_demand",
    OXS: "oxs",
    Table: "table",
}

_AGENT_FIELDS = {
    "additive": {"class", "weights"},
    "budget_additive": {"class", "weights", "cap"},
    "unit_demand": {"class", "weights"},
    "oxs": {"class", "edges"},
    "table": {"class", "values"},
}


# The rational forms a document or a flag may spell: an integer, p/q, or a
# plain decimal, in ASCII digits.  Exponents are refused: "1e99999999" would
# make `Fraction` build a 10^99999999.
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+)")


def parse_fraction(raw: Any, where: str) -> Fraction:
    """An exact rational from an int or a string of the `_RATIONAL` forms, else `SchemaError`."""
    if isinstance(raw, bool) or isinstance(raw, float):
        raise SchemaError(f"{where}: only exact rationals are accepted, got {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        if not _RATIONAL.fullmatch(raw):
            raise SchemaError(f"{where}: malformed rational {raw!r} "
                              "(expected an integer, p/q or a plain decimal)")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: malformed rational {raw!r} ({exc})") from None
    raise SchemaError(f"{where}: expected a rational string, got {type(raw).__name__}")


def to_document(inst: Instance) -> dict:
    """JSON-compatible document; rationals as 'p/q' strings, goods zero-based."""
    agents = []
    for v in inst.valuations:
        agent: dict = {"class": CLASS_NAMES[type(v)]}
        if isinstance(v, (Additive, BudgetAdditive, UnitDemand)):
            agent["weights"] = [str(w) for w in v.weights]
        if isinstance(v, BudgetAdditive):
            agent["cap"] = str(v.cap)
        if isinstance(v, OXS):
            agent["edges"] = [[g, label, str(w)] for g, label, w in v.edges]
        if isinstance(v, Table):
            agent["values"] = [str(x) for x in v.values]
        agents.append(agent)
    doc: dict = {"n": inst.n, "m": inst.m, "agents": agents}
    if inst.description:
        doc["description"] = inst.description
    return doc


def from_document(doc: Any) -> Instance:
    """Validate a document and rebuild the instance (tables re-checked)."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    unknown = set(doc) - {"n", "m", "agents", "description"}
    if unknown:
        raise SchemaError(f"unknown top-level fields: {sorted(unknown)}")
    for key in ("n", "m", "agents"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    n, m = doc["n"], doc["m"]
    if not isinstance(n, int) or not isinstance(m, int) or isinstance(n, bool) or isinstance(m, bool):
        raise SchemaError("'n' and 'm' must be integers")
    agents_doc = doc["agents"]
    if not isinstance(agents_doc, list) or len(agents_doc) != n:
        raise SchemaError(f"'agents' must be a list of {n} entries")
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise SchemaError("'description' must be a string")

    valuations = []
    for i, agent_doc in enumerate(agents_doc):
        where = f"agents[{i}]"
        if not isinstance(agent_doc, dict):
            raise SchemaError(f"{where}: must be an object")
        cls = agent_doc.get("class")
        if cls not in _AGENT_FIELDS:
            raise SchemaError(f"{where}: unknown class {cls!r}")
        unknown = set(agent_doc) - _AGENT_FIELDS[cls]
        if unknown:
            raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
        missing = _AGENT_FIELDS[cls] - set(agent_doc)
        if missing:
            raise SchemaError(f"{where}: missing fields {sorted(missing)}")
        try:
            valuations.append(_agent_from_document(cls, agent_doc, m, where))
        except (SchemaError, SizeGuardError):
            raise
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{where}: {exc}") from None

    try:
        return Instance(n=n, m=m, valuations=tuple(valuations), description=description)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _agent_from_document(cls: str, agent_doc: dict, m: int, where: str) -> Valuation:
    if cls in ("additive", "budget_additive", "unit_demand"):
        weights_doc = agent_doc["weights"]
        if not isinstance(weights_doc, list) or len(weights_doc) != m:
            raise SchemaError(f"{where}: 'weights' must list {m} rationals")
        weights = [parse_fraction(w, f"{where}.weights[{g}]") for g, w in enumerate(weights_doc)]
        if cls == "additive":
            return Additive(weights)
        if cls == "unit_demand":
            return UnitDemand(weights)
        return BudgetAdditive(weights, parse_fraction(agent_doc["cap"], f"{where}.cap"))
    if cls == "oxs":
        edges_doc = agent_doc["edges"]
        if not isinstance(edges_doc, list):
            raise SchemaError(f"{where}: 'edges' must be a list")
        edges = []
        for k, edge in enumerate(edges_doc):
            if not isinstance(edge, list) or len(edge) != 3:
                raise SchemaError(f"{where}.edges[{k}]: expected [good, slot, weight]")
            good, label, weight = edge
            if not isinstance(good, int) or isinstance(good, bool):
                raise SchemaError(f"{where}.edges[{k}]: good must be an integer index")
            if not isinstance(label, (int, str)) or isinstance(label, bool):
                raise SchemaError(f"{where}.edges[{k}]: slot label must be int or string")
            edges.append((good, label, parse_fraction(weight, f"{where}.edges[{k}]")))
        return OXS(m, edges)
    assert cls == "table"
    check_subset_work(m, f"the table of {where}")
    values_doc = agent_doc["values"]
    if not isinstance(values_doc, list) or len(values_doc) != 1 << m:
        raise SchemaError(f"{where}: 'values' must list {1 << m} rationals")
    values = [parse_fraction(x, f"{where}.values[{k}]") for k, x in enumerate(values_doc)]
    return Table(m, values)


def save(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps(inst) + "\n", encoding="utf-8")


def load(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from None
    return loads(text)


def dumps(inst: Instance) -> str:
    return json.dumps(to_document(inst), indent=2)


def loads(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (RecursionError, json.JSONDecodeError) as exc:  # too deep or malformed
        raise SchemaError(f"not valid JSON: {exc}") from None
    except ValueError:  # an integer over the interpreter's int-string conversion limit
        raise SchemaError(f"not valid JSON: the document holds an integer of more than "
                          f"{sys.get_int_max_str_digits():,} digits") from None
    return from_document(doc)
