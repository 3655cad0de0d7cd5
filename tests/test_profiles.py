"""Truthful rankings, bluff orders, deviation renaming, greedy responses."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import enumerate_reachable_bundles
from rrfair.instances import (
    GENERATOR_CLASSES,
    GeneratorSpec,
    additive_tightness_instance,
    bluff_tightness_instance,
    generate,
    no_pne_instance,
)
from rrfair.mechanism import Profile, Ranking, deal, round_robin
from rrfair.profiles import (
    bluff_order,
    bluff_profile,
    deviation_renaming,
    greedy_response,
    truthful_profile,
    truthful_ranking,
)
from rrfair.valuations import Additive, Instance, UnitDemand

F = Fraction


# ---------------------------------------------------------------------------
# truthful rankings


def test_truthful_ranking_examples():
    inst = additive_tightness_instance()
    assert truthful_ranking(inst.valuations[0]).order == (0, 1, 2, 3, 4)

    flat = Additive([2, 2, 2])
    assert truthful_ranking(flat).order == (0, 1, 2)  # pure tie-break

    oxs_agent = bluff_tightness_instance().valuations[1]
    assert truthful_ranking(oxs_agent).order == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# bluff order / profile


def test_bluff_order_on_tightness_fixture():
    inst = bluff_tightness_instance()
    order = bluff_order(inst).order
    assert order == (0, 1, 2, 3, 4)
    assert round_robin(inst, bluff_profile(inst)).bundles == (
        frozenset(order[0::2]), frozenset(order[1::2])) == (frozenset({0, 2, 4}), frozenset({1, 3}))


def test_bluff_order_on_additive_tightness_fixture():
    assert bluff_order(additive_tightness_instance()).order == (0, 1, 2, 3, 4)


def test_bluff_single_agent_is_descending_weight():
    inst = Instance(n=1, m=4, valuations=(Additive([1, 5, 2, 4]),))
    assert bluff_order(inst).order == (1, 3, 2, 0)


def test_bluff_profile_is_identical_rankings():
    inst = no_pne_instance()
    profile = bluff_profile(inst)
    assert all(r == profile.rankings[0] for r in profile.rankings)


def test_bluff_allocation_equals_greedy_piles():
    rng = random.Random(8)
    for cls in ("additive", "oxs", "submodular_table"):
        for _ in range(5):
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=2, m=6, seed=rng.randrange(10**6))
            )
            order = bluff_order(inst).order
            alloc = round_robin(inst, bluff_profile(inst))
            assert alloc.bundles == (frozenset(order[0::2]), frozenset(order[1::2]))


def test_bluff_equals_truthful_allocation_for_cancelable_agents():
    rng = random.Random(17)
    for cls in ("additive", "budget_additive", "unit_demand"):
        for _ in range(12):
            n = rng.choice([2, 3])
            m = n * rng.randint(1, 3)
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            bluff_alloc = round_robin(inst, bluff_profile(inst))
            truthful_alloc = round_robin(inst, truthful_profile(inst))
            assert bluff_alloc == truthful_alloc, (cls, inst.description)


def test_bluff_equals_truthful_even_with_coarse_ties():
    # Marginal ties are coarser than singleton ties for unit-demand agents;
    # the singleton refinement in the greedy keeps both runs aligned.
    inst = Instance(
        n=2, m=4, valuations=(UnitDemand([5, 1, 2, 0]), Additive([0, 0, 0, 1]))
    )
    bluff_alloc = round_robin(inst, bluff_profile(inst))
    truthful_alloc = round_robin(inst, truthful_profile(inst))
    assert bluff_alloc == truthful_alloc
    assert bluff_alloc.bundles == (frozenset({0, 2}), frozenset({1, 3}))


def test_bluff_allocation_equals_greedy_piles_on_partial_rounds():
    rng = random.Random(23)
    for cls in GENERATOR_CLASSES:
        for n, m in ((2, 5), (3, 4), (3, 5), (4, 6)):
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            order = bluff_order(inst).order
            alloc = round_robin(inst, bluff_profile(inst))
            assert alloc.bundles == tuple(frozenset(order[i::n]) for i in range(n)), (
                cls, inst.description)


def test_bluff_equals_truthful_allocation_on_partial_rounds():
    rng = random.Random(29)
    for cls in ("additive", "budget_additive", "unit_demand"):
        for _ in range(12):
            n = rng.choice([2, 3])
            m = n * rng.randint(1, 2) + rng.randint(1, n - 1)
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            bluff_alloc = round_robin(inst, bluff_profile(inst))
            truthful_alloc = round_robin(inst, truthful_profile(inst))
            assert bluff_alloc == truthful_alloc, (cls, inst.description)


# ---------------------------------------------------------------------------
# deviation renaming


def test_deviation_renaming_additive_sorts_descending():
    v = Additive([5, 1, 3, 2, 2, 2])
    # Additive marginals against the (disjoint) greedy prefix are constants,
    # so the back-to-front argmin leaves descending weights.
    assert deviation_renaming((3, 4, 5), {0, 1, 2}, v) == (0, 2, 1)


def test_deviation_renaming_single_element():
    v = Additive([5, 1, 3])
    assert deviation_renaming((0, 2), {1}, v) == (1,)


def test_deviation_renaming_tie_keeps_smaller_good_earlier():
    v1 = no_pne_instance().valuations[0]
    # Greedy pile of agent 1 is (g1, g4); both g2 and g3 have marginal 1
    # against {g1}, so the back position takes the larger id.
    assert deviation_renaming((0, 3), {1, 2}, v1) == (1, 2)


def test_deviation_renaming_is_a_permutation():
    rng = random.Random(4)
    for _ in range(20):
        inst = generate(
            GeneratorSpec(valuation_class="submodular_table", n=1, m=5, seed=rng.randrange(10**6))
        )
        v = inst.valuations[0]
        x = tuple(rng.sample(range(5), 4))
        y = set(rng.sample(range(5), rng.randint(1, 4)))
        renamed = deviation_renaming(x, y, v)
        assert sorted(renamed) == sorted(y)


def test_deviation_renaming_rejects_oversized_bundles():
    with pytest.raises(ValueError):
        deviation_renaming((0,), {1, 2}, Additive([1, 1, 1]))


@pytest.mark.parametrize("x_order, y", [((0, 1), {7}), ((0, 1), {-1}), ((5, 1), {0, 1})])
def test_deviation_renaming_rejects_out_of_range_goods(x_order, y):
    with pytest.raises(ValueError, match="out of range"):
        deviation_renaming(x_order, y, Additive([1, 2]))


def test_renamed_deviations_are_marginally_dominated_by_greedy_bundles():
    # For submodular agents: against the bluff bundle X (in pick order), any
    # reachable deviation bundle Y, renamed, satisfies
    # v(prefix + x_j) - v(prefix) >= v(prefix + y_j) - v(prefix) for every j.
    rng = random.Random(31)
    cases = [("oxs", 2, 6), ("submodular_table", 2, 6), ("oxs", 2, 8), ("submodular_table", 3, 6)]
    for cls, n, m in cases:
        inst = generate(GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6)))
        order = bluff_order(inst).order
        profile = bluff_profile(inst)
        for agent in range(n):
            v = inst.valuations[agent]
            x_order = order[agent::n]
            for y in enumerate_reachable_bundles(inst, agent, profile.others(agent)):
                renamed = deviation_renaming(x_order, y, v)
                for j, y_good in enumerate(renamed):
                    prefix = set(x_order[:j])
                    base = v.value(prefix)
                    assert (v.value(prefix | {x_order[j]}) - base
                            >= v.value(prefix | {y_good}) - base)


# ---------------------------------------------------------------------------
# greedy response


def test_greedy_response_on_tightness_fixture():
    inst = bluff_tightness_instance()
    others = {0: truthful_ranking(inst.valuations[0])}
    ranking = greedy_response(inst, 1, others)
    # Picks g2, then g4 among the goods of marginal 0: it wins on its larger
    # singleton, 1 - eps2 > 1 - eps3.  The last round is agent 1's alone.
    assert ranking.order[:2] == (1, 3)
    alloc = round_robin(inst, Profile((others[0], ranking)))
    assert alloc.bundles[1] == {1, 3}
    assert inst.valuations[1].value(alloc.bundles[1]) == 1


def test_greedy_response_additive_takes_best_available():
    inst = generate(GeneratorSpec(valuation_class="additive", n=2, m=6, seed=5))
    rng = random.Random(0)
    others = {0: Ranking(tuple(rng.sample(range(6), 6)))}
    ranking = greedy_response(inst, 1, others)
    picks, _ = deal((others[0].order, ranking.order), 6)
    weights = inst.valuations[1].weights
    taken: set[int] = set()
    for k, good in enumerate(picks):
        if k % 2 == 1:
            available = set(range(6)) - taken
            assert weights[good] == max(weights[g] for g in available)
        taken.add(good)


def test_greedy_response_single_agent_is_greedy_marginal_order():
    inst = Instance(n=1, m=4, valuations=(Additive([1, 5, 2, 4]),))
    assert greedy_response(inst, 0, {}).order == (1, 3, 2, 0)


def test_bluff_order_is_every_agents_greedy_response_to_the_others_bluff():
    # Weights 0..1 and 0..2 make marginal ties common, so the tie-breaks of
    # the two greedy runs must agree, not just their marginal values.
    rng = random.Random(2021)
    for cls in GENERATOR_CLASSES:
        for weight_range in ((0, 1), (0, 2)):
            for n in (1, 2, 3):
                for _ in range(25):
                    inst = generate(GeneratorSpec(cls, n, rng.randint(1, 7),
                                                  rng.randrange(10**6), weight_range))
                    order = bluff_order(inst)
                    for i in range(n):
                        others = {j: order for j in range(n) if j != i}
                        response = greedy_response(inst, i, others)
                        assert response.order[:len(order.order[i::n])] == order.order[i::n], (
                            cls, inst.description, i)


def test_greedy_response_replay_returns_the_picked_set():
    rng = random.Random(77)
    for cls in ("oxs", "submodular_table", "budget_additive"):
        for _ in range(6):
            n = rng.choice([2, 3])
            m = n * rng.randint(2, 3)
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            agent = rng.randrange(n)
            others = {
                i: Ranking(tuple(rng.sample(range(m), m))) for i in range(n) if i != agent
            }
            ranking = greedy_response(inst, agent, others)
            rankings = [others.get(i) for i in range(n)]
            rankings[agent] = ranking
            alloc = round_robin(inst, Profile(tuple(rankings)))
            assert alloc.bundles[agent] == frozenset(ranking.order[: m // n])
