"""The package's records: values with exact equality, hashing and `repr`, and no assignment.

Eleven types hold results and inputs: seven plain records and the four
validating types `Ranking`, `Profile`, `Instance` and `GeneratorSpec`.
Each is pinned here by its `repr`, its equality and hash, its refusal of
assignment, and the messages its constructor refuses with.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

from rrfair import (
    UNBOUNDED,
    Additive,
    Allocation,
    BestResponse,
    BoundRule,
    ClassCheck,
    EquilibriumReport,
    FairnessReport,
    GeneratorSpec,
    Instance,
    Profile,
    ProfileEvaluation,
    Ranking,
    Table,
)
from rrfair.equilibria import AgentEquilibrium


def _fairness(worst: int = 2) -> FairnessReport:
    return FairnessReport({(0, 1): F(1, 2), (1, 0): UNBOUNDED}, F(1, 2), UNBOUNDED, (0, 1, worst))


# (build, a variant differing in one field, the exact repr, hashable)
RECORDS = {
    "Ranking": (
        lambda: Ranking((1, 0, 2)),
        lambda: Ranking((0, 1, 2)),
        "Ranking(order=(1, 0, 2))",
        True,
    ),
    "Profile": (
        lambda: Profile((Ranking((0, 1)), Ranking((1, 0)))),
        lambda: Profile((Ranking((0, 1)), Ranking((0, 1)))),
        "Profile(rankings=(Ranking(order=(0, 1)), Ranking(order=(1, 0))))",
        True,
    ),
    "Allocation": (
        lambda: Allocation((frozenset({0}), frozenset({1, 2}))),
        lambda: Allocation((frozenset({1}), frozenset({0, 2}))),
        "Allocation(bundles=(frozenset({0}), frozenset({1, 2})))",
        True,
    ),
    "Instance": (
        lambda: Instance(2, 2, (Additive([1, F(1, 2)]), Table(2, [0, 1, 1, 2])), "two agents"),
        lambda: Instance(2, 2, (Additive([1, F(1, 2)]), Table(2, [0, 1, 1, 2]))),
        "Instance(n=2, m=2, valuations=(Additive(m=2, weights=['1', '1/2']), "
        "Table(m=2, values=['0', '1', '1', '2'])), description='two agents')",
        True,
    ),
    "ClassCheck": (
        lambda: ClassCheck(False, (frozenset(), frozenset({1}), 2)),
        lambda: ClassCheck(False),
        "ClassCheck(holds=False, witness=(frozenset(), frozenset({1}), 2))",
        True,
    ),
    "FairnessReport": (
        _fairness,
        lambda: _fairness(worst=1),
        "FairnessReport(pair_ratios={(0, 1): Fraction(1, 2), (1, 0): inf}, "
        "ef1_factor=Fraction(1, 2), ef_factor=inf, worst_pair=(0, 1, 2))",
        False,  # pair_ratios is a dict
    ),
    "BestResponse": (
        lambda: BestResponse(Ranking((1, 0)), frozenset({1}), F(3, 2), 4),
        lambda: BestResponse(Ranking((1, 0)), frozenset({1}), F(3, 2), 5),
        "BestResponse(ranking=Ranking(order=(1, 0)), bundle=frozenset({1}), "
        "value=Fraction(3, 2), explored_states=4)",
        True,
    ),
    "EquilibriumReport": (
        lambda: EquilibriumReport((AgentEquilibrium(0, F(1), F(2), F(1, 2)),), F(1, 2)),
        lambda: EquilibriumReport((AgentEquilibrium(0, F(1), F(2), F(1, 2)),), F(1, 3)),
        "EquilibriumReport(per_agent=(AgentEquilibrium(agent=0, current_value=Fraction(1, 1), "
        "best_response_value=Fraction(2, 1), ratio=Fraction(1, 2)),), pne_factor=Fraction(1, 2))",
        True,
    ),
    "ProfileEvaluation": (
        lambda: ProfileEvaluation(Allocation((frozenset({0}),)), _fairness(), None, "skipped"),
        lambda: ProfileEvaluation(Allocation((frozenset({0}),)), _fairness(), None, "other"),
        "ProfileEvaluation(allocation=Allocation(bundles=(frozenset({0}),)), "
        "fairness=FairnessReport(pair_ratios={(0, 1): Fraction(1, 2), (1, 0): inf}, "
        "ef1_factor=Fraction(1, 2), ef_factor=inf, worst_pair=(0, 1, 2)), "
        "equilibrium=None, equilibrium_skipped='skipped')",
        False,  # its fairness report holds a dict
    ),
    "BoundRule": (
        lambda: BoundRule("abs", abs),
        lambda: BoundRule("abs", round),
        "BoundRule(name='abs', formula=<built-in function abs>)",
        True,
    ),
    "GeneratorSpec": (
        lambda: GeneratorSpec("additive", 2, 3, 0),
        lambda: GeneratorSpec("additive", 2, 3, 0, (1, 8)),
        "GeneratorSpec(valuation_class='additive', n=2, m=3, seed=0, weight_range=(0, 8))",
        True,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_equality_and_hash(name):
    build, variant, text, hashable = RECORDS[name]
    record, twin, other = build(), build(), variant()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record != object()
    if hashable:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]()
    field = repr(record).partition("(")[2].partition("=")[0]  # the first field
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_records_keep_their_keywords_defaults_and_methods():
    assert Ranking(order=(1, 0)).m == 2
    profile = Profile(rankings=(Ranking((0, 1)), Ranking((1, 0))))
    assert (profile.n, profile.m) == (2, 2)
    assert profile.replace(1, Ranking((0, 1))) == Profile((Ranking((0, 1)),) * 2)
    assert profile.others(0) == {1: Ranking((1, 0))}
    inst = Instance(n=1, m=1, valuations=[Additive([1])])
    assert inst.description == "" and inst.valuations == (Additive([1]),)
    spec = GeneratorSpec(valuation_class="oxs", n=1, m=2, seed=3)
    assert spec.weight_range == (0, 8)
    assert ClassCheck(True).witness is None
    assert bool(ClassCheck(True)) and not ClassCheck(False)
    assert not ClassCheck(False, (frozenset(), frozenset(), 0))
    assert BoundRule("half", lambda a: a / 2)(F(1, 3)) == F(1, 6)
    assert Allocation((frozenset({0}), frozenset())).n == 2
    assert _fairness().ratios_of(1) == {0: UNBOUNDED}


@pytest.mark.parametrize("build, error, message", [
    (lambda: Ranking((0, 0)), ValueError, "ranking (0, 0) is not a permutation of 0..1"),
    (lambda: Ranking((1, 2)), ValueError, "ranking (1, 2) is not a permutation of 0..1"),
    (lambda: Profile(()), ValueError, "a profile needs at least one agent"),
    (lambda: Profile((Ranking((0,)), Ranking((0, 1)))), ValueError,
     "ranking 1 covers 2 goods, expected 1"),
    (lambda: Instance(1.0, 1, ()), TypeError, "'n' and 'm' must be integers"),
    (lambda: Instance(1, True, ()), TypeError, "'n' and 'm' must be integers"),
    (lambda: Instance(0, 1, ()), ValueError, "need at least one agent and one good"),
    (lambda: Instance(1, 1, (), 3), TypeError, "'description' must be a string"),
    (lambda: Instance(1, 1, 5), TypeError, "valuations: expected a list, got int"),
    (lambda: Instance(2, 1, (Additive([1]),)), ValueError, "expected 2 valuations, got 1"),
    (lambda: Instance(1, 1, (3,)), TypeError, "agent 0 valuation must be a Valuation, got int"),
    (lambda: Instance(1, 2, (Additive([1]),)), ValueError,
     "agent 0 valuation covers 1 goods, instance has 2"),
    (lambda: Instance(1, 2, (Table(2, [0, 2, 1, 1]),)), ValueError,
     "agent 0 table is not monotone"),
    (lambda: GeneratorSpec("nope", 1, 1, 0), ValueError,
     "unknown class 'nope'; known: ('additive', 'budget_additive', 'unit_demand', 'oxs', "
     "'submodular_table')"),
    (lambda: GeneratorSpec("additive", 0, 1, 0), ValueError,
     "need at least one agent and one good"),
    (lambda: GeneratorSpec("additive", 1, 1, 0, (3, 2)), ValueError,
     "weight range (3, 2) must satisfy 0 <= lo <= hi"),
])
def test_validating_records_refuse_with_their_messages(build, error, message):
    with pytest.raises(error) as exc_info:
        build()
    assert str(exc_info.value) == message
