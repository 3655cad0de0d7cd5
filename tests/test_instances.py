"""Fixtures, random generation, and the instance document format."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rrfair.instances import (
    ConstraintError,
    GeneratorSpec,
    SchemaError,
    additive_tightness_instance,
    bluff_tightness_instance,
    build_fixture,
    dumps,
    from_document,
    generate,
    load,
    loads,
    no_pne_instance,
    oxs_lower_bound_instance,
    save,
    to_document,
)
from rrfair.valuations import (
    OXS,
    Additive,
    BudgetAdditive,
    Instance,
    Table,
    UnitDemand,
    int_digit_limit,
    is_additive,
    is_cancelable,
    is_monotone,
    is_subadditive,
    is_submodular,
)

F = Fraction


# ---------------------------------------------------------------------------
# fixtures


def test_fixture_values_are_exact():
    npne = no_pne_instance()
    assert npne.valuations[1].value({2, 3}) == 4
    assert npne.valuations[0].value({0}) == 2

    thm4 = bluff_tightness_instance()
    assert thm4.valuations[0].value({0}) == 2
    assert thm4.valuations[0].weights[3] == 1 - F(2, 100)

    prop10 = oxs_lower_bound_instance(beta=F(3, 5))
    assert prop10.valuations[3].value({0}) == 3  # 5 * beta


def test_fixture_registry_dispatch():
    inst = build_fixture("additive-tightness", delta=F(1, 500), beta=F(2, 5))
    assert inst.n == 2 and inst.m == 5
    with pytest.raises(ValueError, match="unknown fixture"):
        build_fixture("nope")


def test_fixture_constraints_name_the_violated_inequality():
    with pytest.raises(ConstraintError, match="beta > 1/6 \\+ delta"):
        additive_tightness_instance(delta=F(1, 1000), beta=F(1, 6))
    with pytest.raises(ConstraintError, match="eps3 > eps2"):
        bluff_tightness_instance(F(1, 100), F(3, 100), F(2, 100))
    with pytest.raises(ConstraintError, match="eps1 > 0"):
        bluff_tightness_instance(0, F(2, 100), F(3, 100))
    with pytest.raises(ConstraintError, match="eps1 > eps2"):
        oxs_lower_bound_instance(*(F(k, 1000) for k in (1, 2, 3, 4, 5, 6)), beta=F(3, 5))
    with pytest.raises(ConstraintError, match="beta > \\(1 \\+ eps4\\)/2"):
        oxs_lower_bound_instance(beta=F(1, 2))


def test_fixtures_certify_their_advertised_classes():
    npne = no_pne_instance()
    for v in npne.valuations:
        assert is_monotone(v)
        assert is_submodular(v)

    thm4 = bluff_tightness_instance()
    assert is_additive(thm4.valuations[0])
    assert is_submodular(thm4.valuations[1])

    thm9 = additive_tightness_instance()
    for v in thm9.valuations:
        assert is_additive(v)
        assert is_cancelable(v)
        assert is_subadditive(v)

    prop10 = oxs_lower_bound_instance()
    for v in prop10.valuations[:3]:
        assert is_additive(v)
    assert is_submodular(prop10.valuations[3])


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic_per_seed():
    spec = GeneratorSpec(valuation_class="additive", n=2, m=4, seed=42)
    assert generate(spec) == generate(spec)
    other = GeneratorSpec(valuation_class="additive", n=2, m=4, seed=43)
    assert generate(spec) != generate(other)


def test_generated_classes_certify():
    for seed in range(5):
        oxs = generate(GeneratorSpec(valuation_class="oxs", n=2, m=5, seed=seed))
        for v in oxs.valuations:
            assert isinstance(v, OXS)
            assert is_submodular(v)
        table = generate(GeneratorSpec(valuation_class="submodular_table", n=2, m=4, seed=seed))
        for v in table.valuations:
            assert isinstance(v, Table)
            assert is_submodular(v)
        budget = generate(GeneratorSpec(valuation_class="budget_additive", n=2, m=4, seed=seed))
        for v in budget.valuations:
            assert isinstance(v, BudgetAdditive)
            assert is_cancelable(v)
            assert is_subadditive(v)


def test_generator_spec_validation():
    with pytest.raises(ValueError, match="unknown class"):
        GeneratorSpec(valuation_class="xos", n=2, m=4, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(valuation_class="additive", n=2, m=4, seed=0, weight_range=(5, 2))
    from rrfair.valuations import SizeGuardError

    assert generate(GeneratorSpec(valuation_class="additive", n=2, m=13, seed=0)).m == 13
    with pytest.raises(SizeGuardError):
        generate(GeneratorSpec(valuation_class="submodular_table", n=2, m=18, seed=0))


# ---------------------------------------------------------------------------
# documents


def all_class_instance() -> Instance:
    return Instance(
        n=5,
        m=3,
        valuations=(
            Additive([F(1, 3), 2, 0]),
            BudgetAdditive([1, 2, 3], cap=F(7, 2)),
            UnitDemand([0, F(5, 4), 1]),
            OXS(3, [(0, "a", 1), (1, "a", F(1, 2)), (2, "b", 3)]),
            Table(3, [0, 1, 1, 2, 1, 2, 2, 3]),
        ),
        description="one of each oracle family",
    )


def test_round_trip_identity(tmp_path):
    for inst in (
        no_pne_instance(),
        bluff_tightness_instance(),
        additive_tightness_instance(),
        oxs_lower_bound_instance(),
        all_class_instance(),
    ):
        path = tmp_path / "inst.json"
        save(inst, path)
        assert load(path) == inst


def test_documents_use_fraction_strings():
    doc = to_document(bluff_tightness_instance())
    assert doc["agents"][0]["weights"][2] == "99/100"
    assert doc["agents"][1]["edges"][0] == [0, "slot-a", "2"]
    text = dumps(all_class_instance())
    assert "0.333" not in text  # no decimal leakage


def test_load_rejects_malformed_documents():
    good = to_document(no_pne_instance())

    def corrupted(**changes):
        doc = json.loads(json.dumps(good))
        doc.update(changes)
        return doc

    with pytest.raises(SchemaError, match="unknown top-level"):
        from_document(corrupted(extra=1))
    with pytest.raises(SchemaError, match="missing field"):
        from_document({"n": 1, "m": 2})
    with pytest.raises(SchemaError, match="expected 2 valuations, got 0"):
        from_document(corrupted(agents=[]))
    with pytest.raises(SchemaError, match="'agents' must be a list"):
        from_document(corrupted(agents={}))
    with pytest.raises(SchemaError, match="not valid JSON"):
        loads("{")

    bad_rational = corrupted()
    bad_rational["agents"][0]["values"][3] = "1/0"
    with pytest.raises(SchemaError, match="malformed rational"):
        from_document(bad_rational)

    decimal = corrupted()
    decimal["agents"][0]["values"][3] = 1.5
    with pytest.raises(SchemaError, match="exact rationals"):
        from_document(decimal)

    unnormalized = corrupted()
    unnormalized["agents"][0]["values"][0] = "1"
    with pytest.raises(SchemaError) as refused:
        from_document(unnormalized)
    assert str(refused.value) == (
        "agents[0]: table is not normalized, value on the empty set must be 0")

    unknown_field = corrupted()
    unknown_field["agents"][0]["cap"] = "3"
    with pytest.raises(SchemaError, match="unknown fields"):
        from_document(unknown_field)

    unknown_class = corrupted()
    unknown_class["agents"][0]["class"] = "xos"
    with pytest.raises(SchemaError, match="unknown class"):
        from_document(unknown_class)


def test_load_recertifies_table_monotonicity():
    doc = to_document(no_pne_instance())
    doc["agents"][0]["values"][15] = "1"  # full set below a pair value
    with pytest.raises(SchemaError, match="not monotone"):
        from_document(doc)


def test_negative_weights_are_rejected():
    doc = to_document(additive_tightness_instance())
    doc["agents"][0]["weights"][0] = "-1"
    with pytest.raises(SchemaError) as refused:
        from_document(doc)
    assert str(refused.value) == "agents[0].weights[0]: negative value -1"


# Library calls a document cannot express, each refused by its constructor
# with the message that names the entry (all but the last two built, or
# crashed inside the interpreter, before the constructors judged their
# entries).
_REFUSED = {
    "boolean-good": (lambda: OXS(2, [(True, "s", 1)]), "edges[0]: good must be an integer index"),
    "float-good": (lambda: OXS(2, [(0.0, "s", 1)]), "edges[0]: good must be an integer index"),
    "boolean-label": (lambda: OXS(2, [(0, True, 1)]), "edges[0]: slot label must be int or string"),
    "tuple-label": (lambda: OXS(2, [(0, ("a", 1), 1)]), "edges[0]: slot label must be int or string"),
    "float-label": (lambda: OXS(2, [(0, 1.5, 1)]), "edges[0]: slot label must be int or string"),
    "none-label": (lambda: OXS(2, [(0, None, 1)]), "edges[0]: slot label must be int or string"),
    "short-edge": (lambda: OXS(2, [(0, "s", 1), (0, "s")]), "edges[1]: expected [good, slot, weight]"),
    "good-out-of-range": (lambda: OXS(2, [(2, "s", 1)]), "edges[0]: good 2 out of range [0, 2)"),
    "weights-mapping": (lambda: Additive({"1": 0}), "weights: expected a list, got dict"),
    "weights-string": (lambda: UnitDemand("12"), "weights: expected a list, got str"),
    "negative-cap": (lambda: BudgetAdditive([1], -1), "cap: negative value -1"),
    "negative-table-value": (lambda: Table(1, [0, -1]), "values[1]: negative value -1"),
    "table-negative-m": (lambda: Table(-2, ["0"]), "a valuation needs at least one good"),
    "oxs-string-m": (lambda: OXS("2", []), "m must be an integer, got str"),
    "string-description": (lambda: Instance(1, 1, (Additive([1]),), description=3),
                           "'description' must be a string"),
    "boolean-n": (lambda: Instance(True, 1, (Additive([1]),)), "'n' and 'm' must be integers"),
    "not-an-oracle": (lambda: Instance(1, 1, (1,)), "agent 0 valuation must be a Valuation, got int"),
    "one-oracle-bare": (lambda: Instance(1, 1, Additive([1])), "valuations: expected a list, got Additive"),
}


@pytest.mark.parametrize("build, message", _REFUSED.values(), ids=_REFUSED)
def test_constructors_refuse_what_a_document_cannot_express(build, message):
    with pytest.raises((TypeError, ValueError)) as refused:
        build()
    assert str(refused.value) == message


def test_an_instance_stores_its_valuations_as_a_tuple():
    inst = Instance(1, 2, [OXS(2, ((g, "s", 1) for g in range(2)))])
    assert isinstance(inst.valuations, tuple)
    assert hash(inst) == hash(loads(dumps(inst)))
    assert loads(dumps(inst)) == inst


# Values of every type a caller might pass: a few that build, most refused.
_JUNK = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=3),
                  st.tuples(st.integers(0, 2)), st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.text(max_size=1), st.integers(0, 2), max_size=1),
                  st.sampled_from([-1, Fraction(-1, 2), "-1", "1e3", " 1", "1/0", 10**400]))


def _mostly(valid: st.SearchStrategy) -> st.SearchStrategy:
    """`valid` eleven draws in twelve, else one of `_JUNK`."""
    return st.integers(0, 11).flatmap(lambda k: _JUNK if k == 0 else valid)


_ENTRY = _mostly(st.one_of(st.integers(0, 9), st.fractions(0, 9, max_denominator=6),
                           st.sampled_from(["0", "1/2", "0.25", "7"])))
_COUNT = _mostly(st.integers(1, 3))


def _list_of(size: int) -> st.SearchStrategy:
    """A list or tuple of `size` entries, or one of `_JUNK`."""
    exact = st.lists(_ENTRY, min_size=size, max_size=size)
    return _mostly(st.one_of(exact, exact.map(tuple)))


@st.composite
def _oracle_calls(draw, m: int):
    """A thunk calling one of the five oracle constructors on drawn arguments."""
    kind = draw(st.sampled_from(["additive", "budget_additive", "unit_demand", "oxs", "table"]))
    goods = draw(_mostly(st.just(m)))
    if kind in ("additive", "unit_demand"):
        weights = draw(_list_of(m))
        return lambda: (Additive if kind == "additive" else UnitDemand)(weights)
    if kind == "budget_additive":
        weights, cap = draw(_list_of(m)), draw(_ENTRY)
        return lambda: BudgetAdditive(weights, cap)
    if kind == "oxs":
        triple = st.tuples(_mostly(st.integers(0, m - 1)),
                           _mostly(st.one_of(st.integers(0, 3), st.text(max_size=2))), _ENTRY)
        edges = draw(_mostly(st.lists(_mostly(st.one_of(triple, triple.map(list))), max_size=4)))
        into = draw(st.sampled_from([list, tuple, iter]))  # iter: a one-pass iterable
        return lambda: OXS(goods, into(edges) if isinstance(edges, list) else edges)
    # monotone by construction: the value of a set grows with its size
    levels = [0, *accumulate(draw(st.lists(st.fractions(0, 3, max_denominator=4),
                                           min_size=m, max_size=m)))]
    values = [draw(st.sampled_from([x, str(x)])) for x in
              (levels[bin(mask).count("1")] for mask in range(1 << m))]
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_ENTRY)
    values = draw(_mostly(st.sampled_from([values, tuple(values)])))
    return lambda: Table(goods, values)


@st.composite
def _instance_calls(draw):
    """A thunk building an `Instance` of drawn oracles from drawn n, m and description."""
    n, m = draw(_COUNT), draw(_COUNT)
    size = m if m in (1, 2, 3) and not isinstance(m, bool) else 2
    count = n if n in (1, 2, 3) and not isinstance(n, bool) else 1
    calls = [draw(_oracle_calls(size)) for _ in range(count)]
    container = draw(st.sampled_from([tuple, list]))
    description = draw(_mostly(st.text(max_size=5)))
    return lambda: Instance(n, m, container(call() for call in calls), description)


@seed(20221022)
@settings(max_examples=400, deadline=None)
@given(build=_instance_calls())
def test_an_instance_either_is_refused_or_round_trips(build):
    try:
        inst = build()
    except (TypeError, ValueError):
        return
    text = dumps(inst)
    again = loads(text)
    assert again == inst and hash(again) == hash(inst)
    assert dumps(again) == text


LIMIT = int_digit_limit()
TOO_LONG = 10**LIMIT  # one digit over the limit


@pytest.mark.skipif(not LIMIT, reason="this interpreter writes ints of any length")
@pytest.mark.parametrize("build, where", [
    (lambda: Additive([1, TOO_LONG]), "weights[1]: numerator"),
    (lambda: Additive([F(1, TOO_LONG)]), "weights[0]: denominator"),
    (lambda: UnitDemand(["0." + "0" * (LIMIT - 1) + "1"]),  # reads as 1/10^LIMIT
     "weights[0]: denominator"),
    (lambda: BudgetAdditive([1], -TOO_LONG), "cap: numerator"),
    (lambda: Table(1, [0, F(TOO_LONG, 3)]), "values[1]: numerator"),
    (lambda: OXS(1, [(0, "s", 1), (0, "s", TOO_LONG)]), "edges[1]: numerator"),
    (lambda: OXS(1, [(0, TOO_LONG, 1)]), "edges[0]: slot label"),
    (lambda: OXS(1, [(0, -TOO_LONG, 1)]), "edges[0]: slot label"),
])
def test_values_no_document_can_hold_fail_to_build(build, where):
    with pytest.raises(ValueError) as exc_info:
        build()
    assert str(exc_info.value) == (
        f"{where} has more than {LIMIT:,} digits, more than a document can hold")


@pytest.mark.skipif(not LIMIT, reason="this interpreter writes ints of any length")
def test_values_at_the_digit_limit_round_trip():
    longest = TOO_LONG - 1
    inst = Instance(2, 1, (Additive([F(longest, longest - 1)]), OXS(1, [(0, -longest, longest)])))
    assert loads(dumps(inst)) == inst


def test_the_digit_limit_falls_back_to_the_default_where_python_has_none(monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert int_digit_limit() == 4300
