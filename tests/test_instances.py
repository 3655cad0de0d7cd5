"""Fixtures, random generation, and the instance document format."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

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
    with pytest.raises(SchemaError, match="must be a list of"):
        from_document(corrupted(agents=[]))
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
    with pytest.raises(SchemaError, match="negative weight"):
        from_document(doc)
