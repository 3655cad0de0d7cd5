"""The instance document codec: strict JSON to and from an `Instance`.

Each agent is its oracle's `kind` and `fields`, with "p/q" rationals;
floats are rejected end to end.  The reader checks only the document's
shape (objects, known keys, a known class) and hands every value to the
constructors, which judge it; their refusal names the agent.  Loading a
document compiles only this module, `valuations` and `matching`, and
`checks` for a table, whose monotonicity `Instance` checks.

The fixtures (`fixtures`) and the seeded generators (`generators`) live
in their own modules; their names still resolve here, each importing its
module on first use (PEP 562).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from . import _lazy
from .valuations import (
    OXS,
    Additive,
    BudgetAdditive,
    Instance,
    SizeGuardError,
    Table,
    UnitDemand,
    Valuation,
    document_form,
    int_digit_limit,
)

if TYPE_CHECKING:
    from os import PathLike

__getattr__, __dir__ = _lazy(globals(), {
    "fixtures": ("FIXTURES", "ConstraintError", "Fixture", "additive_tightness_instance",
                 "bluff_tightness_instance", "build_fixture", "no_pne_instance",
                 "oxs_lower_bound_instance"),
    "generators": ("GENERATOR_CLASSES", "GeneratorSpec", "generate"),
})


class SchemaError(ValueError):
    """An instance document violates the schema."""


_CLASSES: dict[str, type[Valuation]] = {
    cls.kind: cls for cls in (Additive, BudgetAdditive, UnitDemand, OXS, Table)}


def to_document(inst: Instance) -> dict:
    """JSON-compatible document; rationals as 'p/q' strings, goods zero-based."""
    agents = [{"class": v.kind, **{name: document_form(getattr(v, name)) for name in v.fields}}
              for v in inst.valuations]
    doc: dict = {"n": inst.n, "m": inst.m, "agents": agents}
    if inst.description:
        doc["description"] = inst.description
    return doc


def from_document(doc: Any) -> Instance:
    """Rebuild the instance of a document; `Instance` and the oracles judge its values."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    unknown = set(doc) - {"n", "m", "agents", "description"}
    if unknown:
        raise SchemaError(f"unknown top-level fields: {sorted(unknown)}")
    for key in ("n", "m", "agents"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    if not isinstance(doc["agents"], list):
        raise SchemaError("'agents' must be a list")
    agents = (_agent(f"agents[{i}]", agent, doc["m"]) for i, agent in enumerate(doc["agents"]))
    try:  # `Instance` checks n, m and the description before it builds the agents
        return Instance(doc["n"], doc["m"], agents, doc.get("description", ""))
    except (SchemaError, SizeGuardError):
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def _agent(where: str, doc: Any, m: int) -> Valuation:
    """The oracle of one agent document, every refusal of it naming `where`."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: must be an object")
    kind = doc.get("class")
    cls = _CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"{where}: unknown class {kind!r}")
    names = {"class", *cls.fields}
    unknown = set(doc) - names
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = names - set(doc)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    fields = [doc[name] for name in cls.fields]
    try:
        return cls(m, *fields) if cls in (OXS, Table) else cls(*fields)
    except SizeGuardError as exc:  # still a guard, now naming the agent
        raise SizeGuardError(str(exc).replace("size guard: ", f"size guard: {where}: ", 1)) from None
    except (TypeError, ValueError) as exc:  # "weights[2]: ..." reads "agents[0].weights[2]: ..."
        field = str(exc).partition(":")[0].partition("[")[0]
        raise SchemaError(f"{where}{'.' if field in cls.fields else ': '}{exc}") from None


def save(inst: Instance, path: str | PathLike[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(inst) + "\n")


def load(path: str | PathLike[str]) -> Instance:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from None
    return loads(text)


def dumps(inst: Instance) -> str:
    import json  # here and in `loads` only: building a fixture loads no JSON module

    return json.dumps(to_document(inst), indent=2)


def loads(text: str) -> Instance:
    import json

    try:
        doc = json.loads(text)
    except (RecursionError, json.JSONDecodeError) as exc:  # too deep or malformed
        raise SchemaError(f"not valid JSON: {exc}") from None
    except ValueError:  # an integer over the interpreter's int-string conversion limit
        raise SchemaError(f"not valid JSON: the document holds an integer of more than "
                          f"{int_digit_limit():,} digits") from None
    return from_document(doc)
