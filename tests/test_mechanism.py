"""Round-robin execution, the partial last round, and trace bookkeeping."""

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
from rrfair.mechanism import Profile, Ranking, round_robin
from rrfair.profiles import truthful_profile, truthful_ranking
from rrfair.valuations import Additive, Instance

F = Fraction


# ---------------------------------------------------------------------------
# the partial last round


@pytest.mark.parametrize("n, m, sizes, rounds", [
    (2, 5, (3, 2), 3),
    (3, 4, (2, 1, 1), 2),
    (3, 1, (1, 0, 0), 1),
])
def test_partial_last_round_deals_every_good_once(n, m, sizes, rounds):
    inst = Instance(n=n, m=m, valuations=(Additive([1] * m),) * n)
    order = Ranking(tuple(range(m)))
    alloc, trace = round_robin(inst, Profile((order,) * n))
    alloc.validate_partition(m)
    assert tuple(len(b) for b in alloc.bundles) == sizes
    assert trace.picks == tuple(range(m))
    assert trace.rounds == rounds
    assert trace.steps[-1].round == rounds - 1


def test_prefix_sets_stop_at_the_last_turn_each_agent_gets():
    inst = Instance(n=3, m=4, valuations=(Additive([1, 1, 1, 1]),) * 3)
    order = Ranking((0, 1, 2, 3))
    _, trace = round_robin(inst, Profile((order,) * 3))
    # agent 1 picks in both rounds, agents 2 and 3 only in the first
    assert trace.prefix_sets(0) == (frozenset(), frozenset({0, 1, 2}))
    assert trace.prefix_sets(1) == (frozenset({0}),)
    assert trace.prefix_sets(2) == (frozenset({0, 1}),)


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


def test_round_robin_rejects_mismatched_inputs():
    inst = no_pne_instance()
    with pytest.raises(ValueError, match="profile has"):
        round_robin(inst, Profile((Ranking((0, 1, 2, 3)),)))
    bad_m = Profile((Ranking((0, 1)), Ranking((0, 1))))
    with pytest.raises(ValueError, match="ranks"):
        round_robin(inst, bad_m)


# ---------------------------------------------------------------------------
# executions pinned by the benchmark constructions


def test_identical_bids_alternate_down_the_order():
    inst = bluff_tightness_instance()
    order = Ranking((0, 1, 2, 3, 4))
    alloc, trace = round_robin(inst, Profile((order, order)))
    assert alloc.bundles[0] == {0, 2, 4}
    assert alloc.bundles[1] == {1, 3}
    assert [s.good for s in trace.steps] == [0, 1, 2, 3, 4]


def test_additive_tightness_run():
    inst = additive_tightness_instance()
    profile = Profile((truthful_ranking(inst.valuations[0]), Ranking((4, 3, 0, 1, 2))))
    alloc, _ = round_robin(inst, profile)
    assert alloc.bundles == (frozenset({0, 1, 2}), frozenset({3, 4}))


def test_oxs_lower_bound_run():
    inst = oxs_lower_bound_instance()
    profile = Profile(
        tuple(truthful_ranking(inst.valuations[i]) for i in range(3))
        + (Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8)),)
    )
    alloc, _ = round_robin(inst, profile)
    assert alloc.bundles == (
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
    inst = Instance(n=2, m=6, valuations=(Additive([1] * 6),) * 2)
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

