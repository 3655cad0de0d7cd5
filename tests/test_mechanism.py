"""Round-robin execution, the partial last round, and pick-sequence bookkeeping."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deal_goods, prefix_sets, random_profile
from rrfair.instances import (
    additive_tightness_instance,
    bluff_tightness_instance,
    generate,
    GeneratorSpec,
    no_pne_instance,
    oxs_lower_bound_instance,
)
from rrfair.mechanism import Profile, Ranking, bit_order, deal, round_robin
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
    alloc = round_robin(inst, Profile((order,) * n))
    picks, _ = deal_goods((order.order,) * n, m)
    alloc.validate_partition(m)
    assert tuple(len(b) for b in alloc.bundles) == sizes
    assert picks == list(range(m))
    assert (len(picks) - 1) // n == rounds - 1  # the round of the last pick


def test_prefix_sets_stop_at_the_last_turn_each_agent_gets():
    picks, _ = deal_goods(((0, 1, 2, 3),) * 3, 4)
    # agent 1 picks in both rounds, agents 2 and 3 only in the first
    assert prefix_sets(picks, 3, 0) == (frozenset(), frozenset({0, 1, 2}))
    assert prefix_sets(picks, 3, 1) == (frozenset({0}),)
    assert prefix_sets(picks, 3, 2) == (frozenset({0, 1}),)


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
    alloc = round_robin(inst, Profile((order, order)))
    assert alloc.bundles[0] == {0, 2, 4}
    assert alloc.bundles[1] == {1, 3}
    assert deal((bit_order(order.order),) * 2, 5) == ([1, 2, 4, 8, 16], [0b10101, 0b01010])


def test_additive_tightness_run():
    inst = additive_tightness_instance()
    profile = Profile((truthful_ranking(inst.valuations[0]), Ranking((4, 3, 0, 1, 2))))
    alloc = round_robin(inst, profile)
    assert alloc.bundles == (frozenset({0, 1, 2}), frozenset({3, 4}))


def test_oxs_lower_bound_run():
    inst = oxs_lower_bound_instance()
    profile = Profile(
        tuple(truthful_ranking(inst.valuations[i]) for i in range(3))
        + (Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8)),)
    )
    alloc = round_robin(inst, profile)
    assert alloc.bundles == (
        frozenset({0, 3, 4}),
        frozenset({1, 6}),
        frozenset({2, 8}),
        frozenset({5, 7}),
    )


def test_single_agent_takes_everything_in_ranking_order():
    inst = Instance(n=1, m=4, valuations=(Additive([1, 5, 2, 4]),))
    ranking = truthful_ranking(inst.valuations[0])
    alloc = round_robin(inst, Profile((ranking,)))
    assert alloc.bundles[0] == frozenset(range(4))
    assert tuple(deal_goods((ranking.order,), 4)[0]) == ranking.order


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
    alloc = round_robin(inst, profile)
    picks, masks = deal_goods([r.order for r in profile.rankings], m)

    alloc.validate_partition(m)  # partition law
    assert len(picks) == m

    taken: set[int] = set()
    for idx, good in enumerate(picks):
        # ranking consistency: pick idx, agent idx mod n's, precedes everything still available
        available = set(range(m)) - taken
        order = profile.rankings[idx % n].order
        position = {g: p for p, g in enumerate(order)}
        assert all(position[good] <= position[g] for g in available)
        taken.add(good)

    for agent in range(n):
        # positional law: agent i's r-th good arrives at pick r*n + i
        assert alloc.bundles[agent] == set(picks[agent::n])
        assert masks[agent] == sum(1 << g for g in picks[agent::n])


def test_prefix_sets_views():
    picks, _ = deal_goods(((0, 1, 2, 3, 4, 5),) * 2, 6)
    # agent 1 (index 0): before her pick in rounds 0,1,2
    assert prefix_sets(picks, 2, 0) == (frozenset(), frozenset({0, 1}), frozenset({0, 1, 2, 3}))
    # agent 2 (index 1): one extra step each round
    assert prefix_sets(picks, 2, 1) == (
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
    alloc = round_robin(inst, profile)
    base_picks, _ = deal_goods([r.order for r in profile.rankings], inst.m)
    dev_picks, _ = deal_goods(
        [r.order for r in profile.replace(agent, deviation).rankings], inst.m)
    base = prefix_sets(base_picks, inst.n, agent)
    dev = prefix_sets(dev_picks, inst.n, agent)
    k = -(-inst.m // inst.n)  # rounds
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

