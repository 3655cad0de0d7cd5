"""Round-robin execution, padding, and trace bookkeeping."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_profile
from rrfair.instances import (
    additive_tightness_instance,
    bluff_tightness_instance,
    generate,
    GeneratorSpec,
    no_pne_instance,
    oxs_lower_bound_instance,
)
from rrfair.mechanism import (
    Allocation,
    Profile,
    Ranking,
    pad_to_multiple,
    round_robin,
    strip_padding,
)
from rrfair.profiles import truthful_profile, truthful_ranking
from rrfair.valuations import Additive, Instance, Table

F = Fraction


# ---------------------------------------------------------------------------
# padding


def test_padding_counts():
    nine = oxs_lower_bound_instance()
    padded, extra = pad_to_multiple(nine)
    assert (padded.m, extra) == (12, 3)

    four = no_pne_instance()
    same, extra = pad_to_multiple(four)
    assert extra == 0 and same is four

    one = Instance(n=3, m=1, valuations=(Additive([1]), Additive([2]), Additive([3])))
    padded, extra = pad_to_multiple(one)
    assert (padded.m, extra) == (3, 2)


def test_padding_adds_zero_marginal_goods_for_every_class():
    for inst in (bluff_tightness_instance(), oxs_lower_bound_instance()):
        padded, extra = pad_to_multiple(inst)
        assert extra > 0
        for v in padded.valuations:
            for dummy in range(inst.m, padded.m):
                assert v.singleton(dummy) == 0
                assert v.marginal(dummy, set(range(inst.m))) == 0


def test_padding_extends_tables_by_copy():
    inst = Instance(n=3, m=2, valuations=(Table(2, [0, 1, 2, 2]),) * 3)
    padded, extra = pad_to_multiple(inst)
    assert extra == 1
    v = padded.valuations[0]
    assert v.value({0, 1}) == v.value({0, 1, 2}) == 2
    assert v.value({2}) == 0


# ---------------------------------------------------------------------------
# rankings and profiles


def test_ranking_must_be_a_permutation():
    with pytest.raises(ValueError):
        Ranking((0, 0, 1))
    with pytest.raises(ValueError):
        Ranking((1, 2, 3))


def test_profile_rankings_must_agree_on_m():
    with pytest.raises(ValueError):
        Profile((Ranking((0, 1)), Ranking((0, 1, 2))))


def test_extending_to_the_same_size_returns_the_same_objects():
    ranking = Ranking((2, 0, 1))
    profile = Profile((ranking, Ranking((0, 1, 2))))
    assert ranking.extended(3) is ranking
    assert profile.extended(3) is profile
    grown = profile.extended(5)
    assert [r.order for r in grown.rankings] == [(2, 0, 1, 3, 4), (0, 1, 2, 3, 4)]
    with pytest.raises(ValueError, match="shrink"):
        ranking.extended(2)
    with pytest.raises(ValueError, match="shrink"):
        profile.extended(2)


def test_round_robin_rejects_mismatched_inputs():
    inst = no_pne_instance()
    with pytest.raises(ValueError, match="profile has"):
        round_robin(inst, Profile((Ranking((0, 1, 2, 3)),)))
    bad_m = Profile((Ranking((0, 1)), Ranking((0, 1))))
    with pytest.raises(ValueError, match="ranks"):
        round_robin(inst, bad_m)
    odd = Instance(n=2, m=3, valuations=(Additive([1, 2, 3]),) * 2)
    with pytest.raises(ValueError, match="multiple"):
        round_robin(odd, Profile((Ranking((0, 1, 2)),) * 2))


# ---------------------------------------------------------------------------
# executions pinned by the benchmark constructions


def test_identical_bids_alternate_down_the_order():
    inst, _ = pad_to_multiple(bluff_tightness_instance())
    order = Ranking((0, 1, 2, 3, 4, 5))
    alloc, trace = round_robin(inst, Profile((order, order)))
    assert alloc.bundles[0] == {0, 2, 4}
    assert alloc.bundles[1] == {1, 3, 5}
    assert [s.good for s in trace.steps] == [0, 1, 2, 3, 4, 5]


def test_additive_tightness_run():
    inst = additive_tightness_instance()
    padded, _ = pad_to_multiple(inst)
    profile = Profile(
        (truthful_ranking(inst.valuations[0]), Ranking((4, 3, 0, 1, 2)))
    ).extended(padded.m)
    alloc, _ = round_robin(padded, profile)
    real = strip_padding(alloc, inst.m)
    assert real.bundles == (frozenset({0, 1, 2}), frozenset({3, 4}))


def test_oxs_lower_bound_run():
    inst = oxs_lower_bound_instance()
    padded, _ = pad_to_multiple(inst)
    profile = Profile(
        tuple(truthful_ranking(inst.valuations[i]) for i in range(3))
        + (Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8)),)
    ).extended(padded.m)
    alloc, _ = round_robin(padded, profile)
    real = strip_padding(alloc, inst.m)
    assert real.bundles == (
        frozenset({0, 3, 4}),
        frozenset({1, 6}),
        frozenset({2, 8}),
        frozenset({5, 7}),
    )


def test_single_agent_takes_everything_in_ranking_order():
    inst = Instance(n=1, m=4, valuations=(Additive([1, 5, 2, 4]),))
    ranking = truthful_ranking(inst.valuations[0])
    alloc, trace = round_robin(inst, Profile((ranking,)))
    assert alloc.bundles[0] == frozenset(range(4))
    assert tuple(s.good for s in trace.steps) == ranking.order


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), n=st.integers(2, 4))
def test_partition_positional_and_consistency_invariants(seed, n):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    m = n * k
    inst = generate(GeneratorSpec(valuation_class="additive", n=n, m=m, seed=seed))
    profile = random_profile(rng, n, m)
    alloc, trace = round_robin(inst, profile)

    alloc.validate_partition(m)  # partition law
    assert len(trace.steps) == m

    for idx, step in enumerate(trace.steps):
        # positional law: agent i's r-th good arrives at step r*n + i
        assert (step.round, step.agent) == divmod(idx, n)

    taken: set[int] = set()
    for step in trace.steps:
        # ranking consistency: the pick precedes everything still available
        available = set(range(m)) - taken
        order = profile.rankings[step.agent].order
        position = {g: p for p, g in enumerate(order)}
        assert all(position[step.good] <= position[g] for g in available)
        taken.add(step.good)

    for agent in range(n):
        assert alloc.bundles[agent] == {
            s.good for s in trace.steps if s.agent == agent
        }


def test_prefix_sets_views():
    inst, _ = pad_to_multiple(bluff_tightness_instance())
    order = Ranking((0, 1, 2, 3, 4, 5))
    _, trace = round_robin(inst, Profile((order, order)))
    # agent 1 (index 0): before her pick in rounds 0,1,2
    assert trace.prefix_sets(0) == (frozenset(), frozenset({0, 1}), frozenset({0, 1, 2, 3}))
    # agent 2 (index 1): one extra step each round
    assert trace.prefix_sets(1) == (
        frozenset({0}),
        frozenset({0, 1, 2}),
        frozenset({0, 1, 2, 3, 4}),
    )


def deviation_prefix_invariants_hold(inst, profile, agent, deviation) -> bool:
    """Prefix-set drift laws between a run and a one-agent deviation.

    With everyone else fixed, (1) at most r goods of the deviation run's
    r-th prefix are missing from the base run's r-th prefix, and (2) no
    agent's base bundle contains more than 2r goods of that prefix beyond
    the shared round-0 prefix.
    """
    alloc, base_trace = round_robin(inst, profile)
    _, dev_trace = round_robin(inst, profile.replace(agent, deviation))
    base = base_trace.prefix_sets(agent)
    dev = dev_trace.prefix_sets(agent)
    k = base_trace.rounds
    for r in range(k):
        if len(dev[r] - base[r]) > r:
            return False
        for j in range(inst.n):
            if len(alloc.bundles[j] & (dev[r] - dev[0])) > 2 * r:
                return False
    return True


def test_deviation_prefix_invariants_on_random_runs():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = n * rng.randint(2, 3)
        inst = generate(GeneratorSpec(valuation_class="additive", n=n, m=m, seed=rng.randrange(10**6)))
        profile = random_profile(rng, n, m)
        agent = rng.randrange(n)
        deviation = Ranking(tuple(rng.sample(range(m), m)))
        assert deviation_prefix_invariants_hold(inst, profile, agent, deviation)


def test_strip_padding_drops_only_dummies():
    alloc = Allocation((frozenset({0, 4}), frozenset({1, 2, 3, 5})))
    stripped = strip_padding(alloc, 4)
    assert stripped.bundles == (frozenset({0}), frozenset({1, 2, 3}))
