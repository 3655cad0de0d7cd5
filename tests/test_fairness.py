"""Envy-freeness factors, exact on the benchmark constructions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import assert_unbounded, reference_fairness, value_table
from rrfair.fairness import UNBOUNDED, ef1_factor, ef_factor
from rrfair.instances import (
    GENERATOR_CLASSES,
    GeneratorSpec,
    bluff_tightness_instance,
    generate,
    oxs_lower_bound_instance,
)
from rrfair.mechanism import Allocation, round_robin
from rrfair.profiles import bluff_profile, truthful_profile
from rrfair.valuations import Additive, Instance, Table

F = Fraction


def bluff_tightness_outcome():
    inst = bluff_tightness_instance()
    alloc = round_robin(inst, bluff_profile(inst))
    return inst, alloc


def least_ratio_of(inst, alloc, agent):
    """`agent`'s least EF1 pair ratio: she is alpha-EF1 towards everyone iff it reaches alpha."""
    ratios = ef1_factor(inst, alloc).pair_ratios
    return min((r for (i, _), r in ratios.items() if i == agent), default=UNBOUNDED)


# ---------------------------------------------------------------------------
# plain envy factor


def test_ef_factor_on_bluff_allocation():
    inst, alloc = bluff_tightness_outcome()
    e1, e2, e3 = F(1, 100), F(2, 100), F(3, 100)
    # agent 1 towards agent 2: (4 - e1 - e3) / (2 - e2); agent 2 towards 1:
    # 1 / (4 - e1 - e3).  The latter binds.
    assert ef_factor(inst, alloc) == 1 / (4 - e1 - e3)
    report = ef1_factor(inst, alloc)
    assert report.ef_factor == 1 / (4 - e1 - e3)


def test_ef_factor_single_agent_is_unbounded():
    inst = Instance(n=1, m=2, valuations=(Additive([1, 2]),))
    alloc = Allocation((frozenset({0, 1}),))
    assert_unbounded(ef_factor(inst, alloc))
    report = ef1_factor(inst, alloc)
    assert_unbounded(report.ef1_factor)
    assert report.worst_pair is None


def test_symmetric_equal_bundles_score_exactly_one():
    inst = Instance(n=2, m=2, valuations=(Additive([1, 1]), Additive([1, 1])))
    alloc = Allocation((frozenset({0}), frozenset({1})))
    assert ef_factor(inst, alloc) == 1


# ---------------------------------------------------------------------------
# envy up to one good


def test_ef1_pair_ratio_on_bluff_allocation():
    inst, alloc = bluff_tightness_outcome()
    report = ef1_factor(inst, alloc)
    assert report.pair_ratios[1, 0] == F(25, 49)  # 1 / (2 - e1 - e3)
    assert report.ef1_factor == F(25, 49)
    assert report.worst_pair == (1, 0, 0)  # agent 2 towards 1, removing g1
    # agent 1 towards agent 2: remove g2, keep 1 - e2
    assert report.pair_ratios[0, 1] == (4 - F(1, 100) - F(3, 100)) / (1 - F(2, 100))


def test_singleton_bundles_make_every_pair_unbounded():
    inst = Instance(n=2, m=2, valuations=(Additive([1, 2]), Additive([2, 1])))
    alloc = Allocation((frozenset({0}), frozenset({1})))
    report = ef1_factor(inst, alloc)
    assert_unbounded(report.pair_ratios[0, 1])
    assert_unbounded(report.pair_ratios[1, 0])
    assert_unbounded(report.ef1_factor)


def test_ef1_ratio_on_lower_bound_fixture():
    inst = oxs_lower_bound_instance()
    from rrfair.mechanism import Profile, Ranking
    from rrfair.profiles import truthful_ranking

    profile = Profile(
        tuple(truthful_ranking(inst.valuations[i]) for i in range(3))
        + (Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8)),)
    )
    alloc = round_robin(inst, profile)
    report = ef1_factor(inst, alloc)
    e1, e4, b = F(6, 1000), F(3, 1000), F(3, 5)
    assert report.pair_ratios[3, 0] == (1 + e1) / (4 * b - e4)


def test_ef1_factor_rejects_non_partitions():
    inst = Instance(n=2, m=2, valuations=(Additive([1, 2]), Additive([2, 1])))
    with pytest.raises(ValueError):
        ef1_factor(inst, Allocation((frozenset({0}), frozenset({0, 1}))))
    with pytest.raises(ValueError):
        ef1_factor(inst, Allocation((frozenset({0}), frozenset())))
    with pytest.raises(ValueError, match=r"^allocation has 1 bundles, instance has 2 agents$"):
        ef1_factor(inst, Allocation((frozenset({0, 1}),)))


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(GENERATOR_CLASSES),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=6),
    instance_seed=st.integers(min_value=0, max_value=10**6),
)
def test_fairness_matches_the_fraction_reference(kind, n, m, instance_seed):
    # Each agent is a generated oracle over its own denominator, so the
    # agents' scales differ; any partition, empty bundles included.
    rng = random.Random(instance_seed)
    agents = []
    for v in generate(GeneratorSpec(kind, n, m, instance_seed, (0, 3))).valuations:
        d = rng.randint(1, 12)
        agents.append(Table(m, [x / d for x in value_table(v)]))
    inst = Instance(n, m, tuple(agents))
    owners = [rng.randrange(n) for _ in range(m)]
    alloc = Allocation(tuple(frozenset(g for g in range(m) if owners[g] == i) for i in range(n)))
    report = ef1_factor(inst, alloc)
    assert (report.pair_ratios, report.ef1_factor, report.ef_factor, report.worst_pair) == (
        reference_fairness(inst, alloc))


@seed(20261022)
@settings(max_examples=100, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(GENERATOR_CLASSES), min_size=1, max_size=4),
    m=st.integers(min_value=1, max_value=8),
    instance_seed=st.integers(min_value=0, max_value=10**6),
)
def test_additive_least_remainders_match_the_generic_minimum(kinds, m, instance_seed):
    # Additive agents, with ties and zero weights, next to agents of the
    # other classes; their tables take the generic minimum over v(A_j - g).
    rng = random.Random(instance_seed)
    agents = tuple(generate(GeneratorSpec(kind, 1, m, instance_seed + i, (0, 3))).valuations[0]
                   for i, kind in enumerate(("additive", *kinds)))
    n = len(agents)
    inst = Instance(n, m, agents)
    tables = Instance(n, m, tuple(Table(m, value_table(v)) for v in agents))
    owners = [rng.randrange(n) for _ in range(m)]
    alloc = Allocation(tuple(frozenset(g for g in range(m) if owners[g] == i) for i in range(n)))
    fast, generic = ef1_factor(inst, alloc), ef1_factor(tables, alloc)
    assert (fast.pair_ratios, fast.worst_pair) == (generic.pair_ratios, generic.worst_pair)
    assert fast == generic


# ---------------------------------------------------------------------------
# per-perspective checks


def test_truthful_round_robin_is_ef1_from_every_perspective():
    rng = random.Random(55)
    for cls in ("additive", "budget_additive", "unit_demand"):
        for _ in range(8):
            n = rng.choice([2, 3])
            m = n * rng.randint(1, 3)
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            alloc = round_robin(inst, truthful_profile(inst))
            for agent in range(n):
                assert least_ratio_of(inst, alloc, agent) >= F(1)


def test_alpha_zero_always_holds():
    inst, alloc = bluff_tightness_outcome()
    for agent in range(inst.n):
        assert least_ratio_of(inst, alloc, agent) >= F(0)


def test_perspective_threshold_is_exact_on_tightness_fixture():
    inst, alloc = bluff_tightness_outcome()
    # Agent 2's binding ratio is exactly 25/49 ~ 0.5102: barely above
    # 1/2 + 1/100 but below 1/2 + 1/50.
    assert F(25, 49) > F(1, 2) + F(1, 100)
    least = least_ratio_of(inst, alloc, 1)
    assert least >= F(25, 49)
    assert least >= F(1, 2) + F(1, 100)
    assert not least >= F(1, 2) + F(1, 50)
    assert not least >= F(25, 49) + F(1, 10**9)


def test_perspective_is_downward_closed_in_alpha():
    inst, alloc = bluff_tightness_outcome()
    report = ef1_factor(inst, alloc)
    thresholds = sorted(
        {r for r in report.pair_ratios.values() if r != UNBOUNDED} | {F(0), F(1), F(2)}
    )
    for agent in range(inst.n):
        # once true at some alpha, true for every smaller alpha
        least = least_ratio_of(inst, alloc, agent)
        flags = [least >= a for a in thresholds]
        assert flags == sorted(flags, reverse=True)


def test_ef_implies_ef1():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice([2, 3])
        m = n * rng.randint(1, 3)
        inst = generate(
            GeneratorSpec(valuation_class="additive", n=n, m=m, seed=rng.randrange(10**6))
        )
        from conftest import random_profile

        alloc = round_robin(inst, random_profile(rng, n, m))
        report = ef1_factor(inst, alloc)
        assert report.ef1_factor >= report.ef_factor
