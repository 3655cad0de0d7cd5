"""Best responses, equilibrium factors, scans, and fairness bounds."""

from __future__ import annotations

import gc
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_best_response,
    dummy_padded,
    eager_bound_rule_name,
    random_monotone_table_values,
    random_profile,
    reference_best_response,
    search_states,
    with_dummies_last,
)
from rrfair import cli, equilibria, fairness, valuations
from rrfair.equilibria import (
    NoApplicableBoundError,
    ResponseMemo,
    applicable_bound_rule,
    best_response,
    evaluate_profile,
    pne_factor,
    profile_orders,
    profile_space_scan,
    scan_one_profile,
)
from rrfair.fairness import UNBOUNDED, ef1_factor
from rrfair.instances import (
    FIXTURES,
    GENERATOR_CLASSES,
    GeneratorSpec,
    additive_tightness_instance,
    bluff_tightness_instance,
    generate,
    no_pne_instance,
    oxs_lower_bound_instance,
)
from rrfair.mechanism import Profile, Ranking, deal, ranking_from_picks, round_robin
from rrfair.profiles import bluff_profile, truthful_profile, truthful_ranking
from rrfair.valuations import (
    OXS,
    Additive,
    BudgetAdditive,
    Instance,
    SizeGuardError,
    Table,
    UnitDemand,
    is_subadditive,
)

F = Fraction


# ---------------------------------------------------------------------------
# best responses on the benchmark constructions


def test_best_response_on_bluff_tightness():
    inst = bluff_tightness_instance()
    profile = bluff_profile(inst)
    response = best_response(inst, 1, profile.others(1))
    assert response.value == 2 - F(1, 100) - F(2, 100)
    assert response.bundle == {2, 3}
    # replay realizes the bundle
    alloc = round_robin(inst, profile.replace(1, response.ranking))
    assert alloc.bundles[1] == response.bundle


def test_best_response_on_additive_tightness():
    inst = additive_tightness_instance()
    profile = Profile((truthful_ranking(inst.valuations[0]), Ranking((4, 3, 0, 1, 2))))
    response = best_response(inst, 1, profile.others(1))
    d, b = F(1, 1000), F(1, 2)
    assert response.value == 3 * b + F(1, 2) + 2 * d
    assert response.bundle == {1, 3}


def test_best_response_on_oxs_lower_bound():
    inst = oxs_lower_bound_instance()
    profile = Profile(
        tuple(truthful_ranking(inst.valuations[i]) for i in range(3))
        + (Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8)),)
    )
    response = best_response(inst, 3, profile.others(3))
    assert response.value == 2 * F(3, 5) + F(6, 1000)  # 2*beta + eps1


def test_best_response_never_loses_to_the_current_report():
    rng = random.Random(13)
    for cls in ("additive", "oxs", "submodular_table", "unit_demand"):
        for _ in range(5):
            n = rng.choice([2, 3])
            m = n * rng.randint(1, 3)
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            profile = random_profile(rng, n, m)
            alloc = round_robin(inst, profile)
            for agent in range(n):
                response = best_response(inst, agent, profile.others(agent))
                assert response.value >= inst.valuations[agent].value(alloc.bundles[agent])


def test_best_response_matches_brute_force_over_all_rankings():
    rng = random.Random(41)
    for cls in ("additive", "oxs", "submodular_table"):
        for _ in range(3):
            n = 2
            m = 4
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            profile = random_profile(rng, n, m)
            for agent in range(n):
                others = profile.others(agent)
                assert (
                    best_response(inst, agent, others).value
                    == brute_force_best_response(inst, agent, others)
                )


def test_best_response_is_deterministic_and_lexicographic():
    inst = bluff_tightness_instance()
    profile = bluff_profile(inst)
    first = best_response(inst, 1, profile.others(1))
    second = best_response(inst, 1, profile.others(1))
    assert first.ranking == second.ranking
    assert first.explored_states == second.explored_states
    # The counter is deterministic: the OXS agent's flow values every state
    # without expanding it, where the exhaustive reference expands 5 states.
    assert first.explored_states == 0
    assert reference_best_response(inst, 1, profile.others(1)).explored_states == 5
    # {g3,g4,...} and {g4,g3,...} tie in value; the pick sequence starts with g3
    assert first.ranking.order[0] == 2


def test_best_response_guards(monkeypatch):
    inst = Instance(n=2, m=4, valuations=(Additive([1, 2, 3, 4]),) * 2)
    with pytest.raises(ValueError, match="others"):
        best_response(inst, 0, {})
    monkeypatch.setattr(valuations, "WORK_BUDGET", 100)  # 6 states of 16 children
    big = Instance(n=2, m=16, valuations=(Additive([1] * 16),) * 2)
    with pytest.raises(SizeGuardError, match=r"^size guard: best_response for agent 1 of 2 on "
                       r"16 goods stored 6 states \(96 steps\) and needs another, over the "
                       r"budget of 100$"):
        best_response(big, 0, {1: Ranking(tuple(range(16)))})


@pytest.mark.parametrize("ranking", [True, False])
@pytest.mark.parametrize("order", [(0, 1), (0, 1, 2, 3, 4, 5)])
def test_best_response_refuses_a_ranking_of_another_good_count(order, ranking):
    # Unchecked, a short ranking fails the reconstruction, or the value search
    # silently scores a truncated run at 2 where the best response is worth 7.
    inst = Instance(n=2, m=4, valuations=(Additive([1, 2, 3, 4]), Additive([4, 3, 2, 1])))
    with pytest.raises(ValueError, match=f"^ranking of agent 2 covers {len(order)} goods, "
                       "instance has 4$"):
        best_response(inst, 0, {1: Ranking(order)}, ranking=ranking)
    assert best_response(inst, 0, {1: Ranking((0, 1, 2, 3))}, ranking=ranking).value == 7


@pytest.mark.parametrize("n, m", [(1, 1000), (3, 3000)])
def test_a_search_too_deep_to_recurse_is_refused_before_it_starts(n, m):
    # `solve` recurses once per turn of the agent; its first descent stores one
    # state per turn, so the budget alone would admit 1,000 turns.  (A two-agent
    # exact-bound search never recurses: see the next test.)
    inst = Instance(n=n, m=m, valuations=(Additive([1] * m),) * n)
    message = (f"size guard: best_response for agent 1 of {n} on {m} goods recurses 1,000 turns "
               "deep, over the 500 the recursion limit allows")
    with pytest.raises(SizeGuardError) as refused:
        best_response(inst, 0, truthful_profile(inst).others(0))
    assert str(refused.value) == message
    evaluation = evaluate_profile(inst, truthful_profile(inst))
    assert evaluation.equilibrium is None
    assert evaluation.equilibrium_skipped == message


def test_an_exact_bound_search_is_not_refused_for_turns_it_never_recurses():
    # The root's bound is its value, and each reconstruction probe's too: 600
    # turns, past the 500 the recursion limit allows a recursing search.
    inst = Instance(n=2, m=1200, valuations=(Additive([1, 2, 3] * 400),) * 2)
    profile = truthful_profile(inst)
    evaluation = evaluate_profile(inst, profile)
    assert evaluation.equilibrium_skipped is None
    assert evaluation.equilibrium.pne_factor == 1  # both pick by true value
    assert best_response(inst, 1, profile.others(1), ranking=False).value == 1200


def test_the_deepest_admitted_search_reaches_its_last_turn(monkeypatch):
    # 500 turns, under the test runner's own frames: the first descent reaches
    # the last turn, and the budget, not the recursion limit, ends the search.
    monkeypatch.setattr(valuations, "WORK_BUDGET", 600 * 500)
    inst = Instance(n=1, m=500, valuations=(Additive([1] * 500),))
    with pytest.raises(SizeGuardError, match=r"^size guard: best_response for agent 1 of 1 on "
                       r"500 goods stored 600 states \(300,000 steps\) and needs another"):
        best_response(inst, 0, {})


def test_best_response_leaves_no_reference_cycle():
    # The search's memo tables are freed when it returns, not at the next
    # cyclic collection, so peak memory does not follow the collector's timing.
    inst = generate(GeneratorSpec(valuation_class="submodular_table", n=2, m=8, seed=0))
    others = truthful_profile(inst).others(1)
    gc.disable()
    try:
        gc.collect()
        assert best_response(inst, 1, others).explored_states > 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def table_refusal(inst: Instance) -> str:
    """The refusal of agent 2's search on a 2 x 8 submodular table, under the patched budget."""
    try:
        best_response(inst, 1, truthful_profile(inst).others(1))
    except SizeGuardError as exc:
        return str(exc)
    raise AssertionError("the search was not refused")


def test_a_refused_search_refuses_identically_and_leaves_no_reference_cycle(monkeypatch):
    # Two fresh oracles, generated before the patched budget would refuse generating them.
    tables = [generate(GeneratorSpec(valuation_class="submodular_table", n=2, m=8, seed=0))
              for _ in range(2)]
    monkeypatch.setattr(valuations, "WORK_BUDGET", 100)
    gc.disable()
    try:
        gc.collect()
        first = table_refusal(tables[0])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert first == table_refusal(tables[1]) == (
        "size guard: best_response for agent 2 of 2 on 8 goods stored 12 states (96 steps) "
        "and needs another, over the budget of 100")


@pytest.mark.parametrize("kind", ["additive", "oxs"])
def test_best_response_returns_on_20_goods(kind):
    # The up-front estimate, m * search_states, refused both agents' searches.
    inst = generate(GeneratorSpec(valuation_class=kind, n=2, m=20, seed=0))
    profile = truthful_profile(inst)
    for agent in range(2):
        assert 20 * search_states(20, 2, agent) > valuations.WORK_BUDGET
        response = best_response(inst, agent, profile.others(agent))
        assert response.value >= inst.valuations[agent].value(
            round_robin(inst, profile).bundles[agent])


@pytest.mark.parametrize("kind", ["additive", "budget_additive", "unit_demand"])
def test_two_agent_weighted_searches_return_their_exact_bound_on_200_goods(kind):
    # The deadline bound is exact for these classes: no state is expanded.
    inst = generate(GeneratorSpec(valuation_class=kind, n=2, m=200, seed=0))
    profile = truthful_profile(inst)
    alloc = round_robin(inst, profile)
    for agent in range(2):
        response = best_response(inst, agent, profile.others(agent))
        assert response.explored_states == 0
        assert response.value >= inst.valuations[agent].value(alloc.bundles[agent])
        deviated = round_robin(inst, profile.replace(agent, response.ranking))
        assert deviated.bundles[agent] == response.bundle


# ---------------------------------------------------------------------------
# the branch-and-bound search against the exhaustive reference search


ORACLE_KINDS = ("additive", "budget_additive", "unit_demand", "oxs", "table", "convex_table")


def rational_oracle(rng: random.Random, kind: str, m: int):
    """A random oracle of `kind` whose values have mixed small denominators."""

    def weight() -> Fraction:
        return F(rng.randint(0, 12), rng.randint(1, 12))

    if kind == "additive":
        return Additive([weight() for _ in range(m)])
    if kind == "budget_additive":
        return BudgetAdditive([weight() for _ in range(m)], weight() * rng.randint(1, 4))
    if kind == "unit_demand":
        return UnitDemand([weight() for _ in range(m)])
    if kind == "oxs":
        slots = rng.randint(1, m)
        return OXS(m, [(rng.randrange(m), rng.randrange(slots), weight())
                       for _ in range(rng.randint(0, 2 * m))])
    if kind == "table":
        # The monotone closure of random entries: v(S) = max over T in S of r(T).
        values = [F(0)] + [weight() for _ in range((1 << m) - 1)]
        for mask in range(1, 1 << m):
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                values[mask] = max(values[mask], values[mask ^ bit])
        return Table(m, values)
    # v(S) = w(S)^2 / d: monotone and superadditive, so not subadditive once
    # two goods have positive weight.
    weights = [weight() for _ in range(m)]
    d = rng.randint(1, 7)
    return Table(m, [sum((w for g, w in enumerate(weights) if mask >> g & 1), F(0)) ** 2 / d
                     for mask in range(1 << m)])


@seed(20230131)
@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    m=st.integers(min_value=1, max_value=9),
    kinds=st.lists(st.sampled_from(ORACLE_KINDS), min_size=4, max_size=4),
    instance_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_branch_and_bound_matches_the_exhaustive_reference(n, m, kinds, instance_seed):
    # Full and partial last rounds: the bound reads the turns left and the
    # deadlines off the goods still available.
    rng = random.Random(instance_seed)
    inst = Instance(n, m, tuple(rational_oracle(rng, kinds[i], m) for i in range(n)))
    profile = random_profile(rng, n, m)
    for agent in range(n):
        others = profile.others(agent)
        response = best_response(inst, agent, others)
        reference = reference_best_response(inst, agent, others)
        assert (response.value, response.bundle, response.ranking) == (
            reference.value, reference.bundle, reference.ranking)
        assert response.explored_states <= reference.explored_states
        if m <= 6:
            assert response.value == brute_force_best_response(inst, agent, others)
        # The value-only search is the full search without its reconstruction: the
        # same value, no ranking or bundle, and at most the full search's states.
        value_only = best_response(inst, agent, others, ranking=False)
        assert value_only.value == reference.value
        assert value_only.ranking is None and value_only.bundle is None
        assert value_only.explored_states <= response.explored_states


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(GENERATOR_CLASSES + ("convex_table",)),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=9),
    instance_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_states_bound_every_search(kind, n, m, instance_seed):
    rng = random.Random(instance_seed)
    if kind == "convex_table":
        inst = Instance(n, m, tuple(rational_oracle(rng, kind, m) for _ in range(n)))
    else:
        inst = generate(GeneratorSpec(kind, n, m, instance_seed))
    profile = random_profile(rng, n, m)
    for agent in range(n):
        others = profile.others(agent)
        bound = search_states(m, n, agent)
        assert best_response(inst, agent, others).explored_states <= bound
        assert reference_best_response(inst, agent, others).explored_states <= bound


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(GENERATOR_CLASSES),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=9),
    instance_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_stored_state_guard_admits_every_search_the_estimate_admitted(
        kind, n, m, instance_seed):
    # A stored state sits at one of the agent's turns, so the states stored
    # never pass search_states: under a budget of exactly the old estimate,
    # m * search_states, every search returns what it returns unguarded.
    rng = random.Random(instance_seed)
    inst = generate(GeneratorSpec(kind, n, m, instance_seed))
    profile = random_profile(rng, n, m)
    for agent in range(n):
        others = profile.others(agent)
        unguarded = best_response(inst, agent, others)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(valuations, "WORK_BUDGET", m * search_states(m, n, agent))
            assert best_response(inst, agent, others) == unguarded


class PickTreeOXS(OXS):
    """An OXS oracle that the pick-tree search values, as it did every OXS oracle before
    the flow: the same σ-order picks and singleton bound, state by state."""

    deadline_bound_exact = False


@seed(20261020)
@settings(max_examples=500, deadline=None)
@given(m=st.integers(min_value=1, max_value=14),
       instance_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_two_agent_oxs_flows_match_the_pick_tree_and_the_exhaustive_reference(
        m, instance_seed):
    # Two full searches per example, 1,000 in all, odd and even m, each against the
    # pick-tree search and, where the budget admits it, the exhaustive reference.
    rng = random.Random(instance_seed)
    inst = Instance(2, m, tuple(rational_oracle(rng, "oxs", m) for _ in range(2)))
    pick_tree = Instance(2, m, tuple(PickTreeOXS(m, v.edges) for v in inst.valuations))
    profile = random_profile(rng, 2, m)
    for agent in range(2):
        others = profile.others(agent)
        response = best_response(inst, agent, others)
        assert response.explored_states == 0
        searched = best_response(pick_tree, agent, others)
        assert response[:3] == searched[:3]
        if m * search_states(m, 2, agent) <= valuations.WORK_BUDGET:
            assert response[:3] == reference_best_response(inst, agent, others)[:3]
        value_only = best_response(inst, agent, others, ranking=False)
        assert value_only == (None, None, response.value, 0)


# ---------------------------------------------------------------------------
# the pick schedule that the search's bound relaxes


def meets_the_schedule(gained: int, avail: int, order) -> bool:
    """Whether each j goods of `avail` first in `order` hold at most ⌈j/2⌉ of `gained`."""
    j = held = 0
    for g in order:
        if avail >> g & 1:
            j += 1
            held += gained >> g & 1
            if held > (j + 1) // 2:
                return False
    return True


def schedule_greedy_inputs(follower, weights) -> tuple[dict, list, list]:
    """`_scheduled_singles`'s goods and deadlines: per good, the goods up to it in `follower`."""
    ahead, seen = {}, 0
    for g in follower:
        seen |= 1 << g
        ahead[g] = seen
    by_value = sorted(range(len(weights)), key=lambda g: -weights[g])
    goods = [(1 << g, weights[g], ahead[g]) for g in by_value]
    return ahead, goods, [(1 << (j + 1 >> 1)) - 1 for j in range(len(weights) + 1)]


@st.composite
def schedule_cases(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    m = draw(st.sampled_from(range(1, 9)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return (n, m, draw(st.integers(min_value=0, max_value=n - 1)),
            [r.order for r in random_profile(rng, n, m).rankings],
            [rng.randint(0, 9) for _ in range(m)])


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(case=schedule_cases())
def test_the_pick_schedule_holds_every_reachable_bundle_and_the_greedy_is_its_optimum(case):
    n, m, agent, orders, weights = case
    follower = orders[(agent + 1) % n]
    _, goods, due = schedule_greedy_inputs(follower, weights)

    def advance(avail: int, step: int) -> tuple[int, int]:
        while step < m and step % n != agent:
            avail ^= 1 << next(g for g in orders[step % n] if avail >> g & 1)
            step += 1
        return avail, step

    gains: dict[int, set[int]] = {}

    def reach(avail: int, step: int) -> set[int]:
        # Every set of goods `agent` gains from this state on, over the whole pick tree.
        if step >= m:
            return {0}
        if avail in gains:
            return gains[avail]
        out = set()
        for g in range(m):
            if avail >> g & 1:
                out.update(rest | 1 << g for rest in reach(*advance(avail ^ 1 << g, step + 1)))
        turns = (m - step + n - 1) // n
        for gained in out:
            assert gained.bit_count() <= turns
            assert meets_the_schedule(gained, avail, follower)
        feasible = (s for s in range(1 << m) if s & avail == s and s.bit_count() <= turns
                    and meets_the_schedule(s, avail, follower))
        best = max(sum(weights[g] for g in range(m) if s >> g & 1) for s in feasible)
        assert equilibria._scheduled_singles(goods, due, avail, avail, turns) == best
        # With no deadlines, as for three or more agents, every pick is free.
        free_goods = [(bit, single, 0) for bit, single, _ in goods]
        assert equilibria._scheduled_singles(free_goods, [-1], avail, avail, turns) == sum(
            sorted((weights[g] for g in range(m) if avail >> g & 1), reverse=True)[:turns])
        gains[avail] = out
        return out

    reach(*advance((1 << m) - 1, 0))


@seed(20261020)
@settings(max_examples=80, deadline=None)
@given(m=st.integers(min_value=1, max_value=7), agent=st.sampled_from((0, 1)),
       order_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_two_agents_gain_exactly_the_sets_that_meet_the_schedule_in_the_others_order(
        m, agent, order_seed):
    # The lemma in `best_response`: with two agents, the deadlines are sufficient too.
    rng = random.Random(order_seed)
    sigma = tuple(rng.sample(range(m), m))
    weights = [rng.randint(0, 9) for _ in range(m)]
    avail = ((1 << m) - 1) ^ (1 << sigma[0] if agent else 0)  # at her first turn
    turns = len(range(agent, m, 2))

    def dealt(ranking) -> tuple[list[int], int]:
        picks, masks = deal((ranking, sigma) if agent == 0 else (sigma, ranking), m)
        return picks[agent::2], masks[agent]

    gained = {dealt(ranking)[1] for ranking in itertools.permutations(range(m))}
    feasible = [s for s in range(1 << m) if s & avail == s and s.bit_count() <= turns
                and meets_the_schedule(s, avail, sigma)]
    assert gained == {s for s in feasible if s.bit_count() == turns}
    for s in feasible:
        in_sigma = [g for g in sigma if s >> g & 1]
        assert dealt(ranking_from_picks(in_sigma, m).order)[0][:len(in_sigma)] == in_sigma
    # The search's bound after a pick in σ-order: the greedy over the goods after
    # it, whose deadlines still count every available good, is their best total.
    ahead, goods, due = schedule_greedy_inputs(sigma, weights)
    for cand in [avail] + [avail & ~ahead[g] for g in sigma]:
        best = max(sum(weights[g] for g in range(m) if s >> g & 1)
                   for s in feasible if s & cand == s)
        assert equilibria._scheduled_singles(goods, due, avail, cand, turns) == best


# ---------------------------------------------------------------------------
# the partial last round against the paper's dummy goods


def generated_agents(draw, n: int, m: int) -> Instance:
    """n agents on m goods, each of a drawn generator class and seed, with small weights."""
    return Instance(n=n, m=m, valuations=tuple(
        generate(GeneratorSpec(draw(st.sampled_from(GENERATOR_CLASSES)), 1, m,
                               draw(st.integers(min_value=0, max_value=10**6)),
                               weight_range=(0, 3))).valuations[0]
        for _ in range(n)))


@st.composite
def partial_round_cases(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    m = draw(st.integers(min_value=1, max_value=7).filter(lambda m: m % n))
    inst = generated_agents(draw, n, m)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return inst, random_profile(rng, n, m), generated_agents(draw, 2, 3)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(case=partial_round_cases())
def test_partial_last_round_equals_dummy_padding(case):
    inst, profile, small = case
    padded = dummy_padded(inst)
    for agent in range(inst.n):
        others = profile.others(agent)
        padded_others = {i: with_dummies_last(r, padded.m) for i, r in others.items()}
        response = best_response(inst, agent, others)
        reference = reference_best_response(padded, agent, padded_others)
        assert response.value == reference.value
        assert response.ranking.order == tuple(g for g in reference.ranking.order if g < inst.m)
        if padded.m <= 7:  # a brute force over 8! rankings takes most of a second
            assert response.value == brute_force_best_response(padded, agent, padded_others)
    # Every profile of a 2 x 3 scan scores as its padded profile does.
    padded = dummy_padded(small)
    for record in profile_space_scan(small):
        report = pne_factor(padded, Profile(tuple(
            with_dummies_last(Ranking(order), padded.m) for order in record.orders)))
        assert record.pne_factor == report.pne_factor
        profile = Profile(tuple(map(Ranking, record.orders)))
        assert pne_factor(small, profile).per_agent == report.per_agent


def test_convex_tables_exercise_the_monotone_bound():
    rng = random.Random(3)
    tables = [rational_oracle(rng, "convex_table", 6) for _ in range(10)]
    assert not any(v.subadditive_by_construction for v in tables)
    assert sum(not is_subadditive(v) for v in tables) >= 8


# Per search: explored states, value, ranking.  A faster oracle or bound
# must leave them as they are; a change to what the bounds prune, or to the
# order picks are tried in, moves the state counts.  Both agents' bounds are
# exact here, the additive agent's singleton greedy and the OXS agent's flow,
# so no search expands a state.
PINNED_SEARCHES = [
    (0, 41, (4, 1, 2, 6, 8, 9, 3, 0, 5, 7, 10, 11, 12, 13)),
    (0, 34, (7, 4, 1, 11, 9, 10, 13, 0, 2, 3, 5, 6, 8, 12)),
    (0, 41, (8, 2, 4, 6, 13, 1, 3, 0, 5, 7, 9, 10, 11, 12)),
    (0, 36, (0, 4, 10, 11, 1, 5, 12, 2, 3, 6, 7, 8, 9, 13)),
    (0, 42, (0, 1, 2, 3, 4, 6, 8, 5, 7, 9, 10, 11, 12, 13)),
    (0, 35, (0, 5, 10, 3, 11, 8, 9, 1, 2, 4, 6, 7, 12, 13)),
    (0, 40, (0, 1, 6, 2, 9, 13, 4, 3, 5, 7, 8, 10, 11, 12)),
    (0, 37, (4, 10, 5, 7, 1, 2, 9, 0, 3, 6, 8, 11, 12, 13)),
    (0, 42, (6, 0, 1, 2, 4, 3, 8, 5, 7, 9, 10, 11, 12, 13)),
    (0, 37, (0, 5, 7, 10, 11, 4, 6, 1, 2, 3, 8, 9, 12, 13)),
    (0, 39, (0, 6, 8, 1, 13, 4, 9, 2, 3, 5, 7, 10, 11, 12)),
    (0, 37, (0, 2, 4, 5, 10, 7, 9, 1, 3, 6, 8, 11, 12, 13)),
    (0, 42, (0, 2, 8, 1, 6, 3, 4, 5, 7, 9, 10, 11, 12, 13)),
    (0, 37, (4, 7, 10, 3, 5, 8, 11, 0, 1, 2, 6, 9, 12, 13)),
    (0, 42, (0, 1, 2, 4, 9, 6, 8, 3, 5, 7, 10, 11, 12, 13)),
    (0, 37, (7, 1, 5, 9, 10, 4, 6, 0, 2, 3, 8, 11, 12, 13)),
]


def additive_vs_oxs_instance() -> Instance:
    # 2 x 14, drawn the way the benchmark's deep scan draws its documents.
    rng = random.Random(16)
    m = 14
    weights = [rng.randint(0, 8) for _ in range(m)]
    slots = rng.randint(m // 2, m)
    edges = [(g, rng.randrange(slots), rng.randint(0, 8))
             for g in range(m) for _ in range(rng.randint(1, 2))]
    return Instance(2, m, (Additive(weights), OXS(m, edges)))


def test_search_work_is_pinned_on_an_additive_vs_oxs_instance():
    inst = additive_vs_oxs_instance()
    searches = []
    for orders in profile_orders(inst, samples=8, seed=16):
        for agent in range(2):
            response = best_response(inst, agent, {1 - agent: Ranking(orders[1 - agent])})
            searches.append((response.explored_states, response.value, response.ranking.order))
    assert searches == PINNED_SEARCHES
    assert sum(states for states, _, _ in searches) == 0


# Per 3-agent search: the value-only search's explored states, then the full
# search's value and ranking.  The bound gives every pick of three or more
# agents no deadline, so only the singleton values decide what it prunes.
PINNED_THREE_AGENT_SEARCHES = [
    (19, 27, (1, 9, 6, 4, 0, 2, 3, 5, 7, 8, 10)),
    (14, 30, (0, 8, 6, 7, 1, 2, 3, 4, 5, 9, 10)),
    (3, 24, (0, 3, 8, 1, 2, 4, 5, 6, 7, 9, 10)),
    (28, 26, (4, 1, 2, 9, 0, 3, 5, 6, 7, 8, 10)),
    (13, 30, (8, 6, 10, 2, 0, 1, 3, 4, 5, 7, 9)),
    (7, 24, (6, 3, 10, 0, 1, 2, 4, 5, 7, 8, 9)),
    (11, 27, (1, 6, 4, 9, 0, 2, 3, 5, 7, 8, 10)),
    (14, 30, (2, 0, 4, 10, 1, 3, 5, 6, 7, 8, 9)),
    (3, 24, (0, 1, 4, 2, 3, 5, 6, 7, 8, 9, 10)),
    (23, 27, (1, 4, 6, 9, 0, 2, 3, 5, 7, 8, 10)),
    (7, 31, (0, 10, 2, 6, 1, 3, 4, 5, 7, 8, 9)),
    (4, 24, (1, 6, 10, 0, 2, 3, 4, 5, 7, 8, 9)),
]


def test_value_search_work_is_pinned_on_a_three_agent_oxs_instance():
    inst = generate(GeneratorSpec("oxs", 3, 11, 1))
    searches = []
    for orders in profile_orders(inst, samples=4, seed=1):
        for agent in range(3):
            others = {i: Ranking(orders[i]) for i in range(3) if i != agent}
            states = best_response(inst, agent, others, ranking=False).explored_states
            response = best_response(inst, agent, others)
            searches.append((states, response.value, response.ranking.order))
    assert searches == PINNED_THREE_AGENT_SEARCHES
    assert sum(states for states, _, _ in searches) == 146


# ---------------------------------------------------------------------------
# equilibrium factors


def test_bluff_profile_is_exact_equilibrium_for_cancelable_agents():
    rng = random.Random(70)
    for cls in ("additive", "budget_additive", "unit_demand"):
        for _ in range(6):
            n = rng.choice([2, 3])
            m = n * rng.randint(1, 3)
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            report = pne_factor(inst, bluff_profile(inst))
            assert report.pne_factor == 1, (cls, inst.description)


def test_bluff_profile_factor_on_tightness_fixture():
    inst = bluff_tightness_instance()
    report = pne_factor(inst, bluff_profile(inst))
    assert report.pne_factor == F(100, 197)
    assert report.per_agent[0].ratio == 1
    assert report.per_agent[1].ratio == F(100, 197)


def test_bluff_profile_is_half_equilibrium_for_submodular_agents():
    rng = random.Random(71)
    for cls in ("oxs", "submodular_table"):
        for _ in range(6):
            n = rng.choice([2, 3])
            m = n * rng.randint(2, 3)
            inst = generate(
                GeneratorSpec(valuation_class=cls, n=n, m=m, seed=rng.randrange(10**6))
            )
            report = pne_factor(inst, bluff_profile(inst))
            assert report.pne_factor >= F(1, 2), (cls, inst.description)


def test_equilibrium_factors_read_best_response_values_without_a_ranking(monkeypatch):
    seen = []

    def recording(*args, **kwargs):
        result = best_response(*args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(equilibria, "best_response", recording)
    no_pne, pinned = no_pne_instance(), additive_vs_oxs_instance()
    orders = next(profile_orders(pinned, samples=8, seed=16))  # the first pinned profile
    for inst, profile in ((no_pne, truthful_profile(no_pne)),
                          (pinned, Profile(tuple(map(Ranking, orders))))):
        seen.clear()
        report = pne_factor(inst, profile)
        assert len(seen) == inst.n
        assert all(result.ranking is None and result.bundle is None for result in seen)
        for agent in report.per_agent:
            full = best_response(inst, agent.agent, profile.others(agent.agent))
            assert agent.best_response_value == full.value


def test_zero_value_agents_impose_no_constraint():
    inst = Instance(n=2, m=2, valuations=(Additive([0, 0]), Additive([1, 1])))
    profile = Profile((Ranking((0, 1)), Ranking((0, 1))))
    report = pne_factor(inst, profile)
    assert report.per_agent[0].ratio == UNBOUNDED
    assert report.pne_factor == 1


# ---------------------------------------------------------------------------
# profile-space scans


def test_scan_of_the_no_pne_instance():
    inst = no_pne_instance()
    records = list(profile_space_scan(inst))
    assert len(records) == 576
    best = max(r.pne_factor for r in records)
    assert best == F(3, 4)
    assert all(r.pne_factor <= F(3, 4) for r in records)


def test_single_agent_profiles_are_exact_equilibria():
    inst = Instance(n=1, m=3, valuations=(Additive([3, 1, 2]),))
    for record in profile_space_scan(inst):
        assert record.pne_factor == 1


def test_scan_guard_rejects_oversized_exhaustive_runs():
    inst = Instance(n=2, m=8, valuations=(Additive([1] * 8),) * 2)
    with pytest.raises(SizeGuardError):
        next(profile_space_scan(inst))


def test_sampled_scan_is_deterministic_per_seed():
    inst = no_pne_instance()
    first = [r.orders for r in profile_space_scan(inst, samples=20, seed=9)]
    second = [r.orders for r in profile_space_scan(inst, samples=20, seed=9)]
    other = [r.orders for r in profile_space_scan(inst, samples=20, seed=10)]
    assert first == second
    assert first != other


def unshared_scan(inst, *, samples=None, seed=0):
    """Each profile's orders, equilibrium report and fairness, with no memo shared between profiles."""
    for orders in profile_orders(inst, samples=samples, seed=seed):
        profile = Profile(tuple(Ranking(order) for order in orders))
        alloc = round_robin(inst, profile)
        yield orders, pne_factor(inst, profile), ef1_factor(inst, alloc)


@st.composite
def scan_cases(draw):
    # Per-agent classes from the generator; small weights make ties, zero
    # values and repeated allocations common.  m need not be a multiple of n.
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(min_value=1, max_value=4))
    inst = generated_agents(draw, n, m)
    exhaustive = math.factorial(m) ** n <= 576 and draw(st.booleans())
    samples = None if exhaustive else draw(st.integers(min_value=1, max_value=40))
    return inst, samples, draw(st.integers(min_value=0, max_value=1000))


@seed(20230131)
@settings(max_examples=60, deadline=None)
@given(case=scan_cases())
def test_scan_memos_match_unshared_evaluation(case):
    inst, samples, scan_seed = case
    records = list(profile_space_scan(inst, samples=samples, seed=scan_seed))
    unshared = list(unshared_scan(inst, samples=samples, seed=scan_seed))
    assert [(record.orders, record.pne_factor, record.fairness) for record in records] == [
        (orders, equilibrium.pne_factor, report) for orders, equilibrium, report in unshared]
    # Per-agent rows built from a memo a scan has warmed equal unshared rows,
    # and reading them runs no search.
    warm = ResponseMemo(inst)
    for record in records:
        scan_one_profile(warm, record.orders)
    searched = dict(warm.best)
    for record, (orders, equilibrium, _) in zip(records, unshared):
        rows = pne_factor(inst, Profile(tuple(map(Ranking, orders))), responses=warm).per_agent
        assert rows == equilibrium.per_agent
        # The factor is the least ratio, an unbounded one counting as 1, and
        # the key spells out both factors as reduced int pairs.
        pne, ef1 = record.pne_factor, record.fairness.ef1_factor
        assert pne == min([F(1), *(row.ratio for row in rows)])
        assert record.key == (pne.numerator, pne.denominator) + (
            (1, 0) if ef1 == UNBOUNDED else (ef1.numerator, ef1.denominator))
    assert warm.best == searched


def test_scan_memo_holds_one_value_per_best_response_key():
    inst = no_pne_instance()
    memo = ResponseMemo(inst)
    allocations = set()
    for orders in profile_orders(inst):
        scan_one_profile(memo, orders)
        allocations.add(tuple(deal(orders, inst.m)[1]))
    # n (m!)^(n-1) best-response values, each an int on the agent's scale;
    # one fairness report per allocation; nothing keyed by bundle.
    orders = list(itertools.permutations(range(inst.m)))
    assert memo.best.keys() == {(i, (order,)) for i in range(inst.n) for order in orders}
    assert all(type(value) is int for value in memo.best.values())
    assert memo.reports.keys() == allocations
    assert vars(memo).keys() == {"inst", "best", "reports"}


def test_scan_runs_each_mechanism_search_and_score_once(monkeypatch):
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("deal", "round_robin", "best_response", "pne_factor", "ef1_factor"):
        monkeypatch.setattr(equilibria, name, counting(name, getattr(equilibria, name)))
    monkeypatch.setattr(fairness, "ef_factor", counting("ef_factor", fairness.ef_factor))
    monkeypatch.setattr(Profile, "__init__", counting("Profile", Profile.__init__))
    inst = no_pne_instance()
    records = list(profile_space_scan(inst))
    scan_calls = dict(calls)
    assert len(records) == 576
    allocations = {}
    for record in records:
        allocations[record.orders] = round_robin(
            inst, Profile(tuple(Ranking(order) for order in record.orders)))
    # One deal per profile, one search per (agent, other agent's ranking),
    # one score per distinct allocation.
    assert (scan_calls["deal"], scan_calls["best_response"], scan_calls["ef1_factor"]) == (
        576, 2 * 24, len(set(allocations.values())))
    # A `Profile` is built, and `pne_factor` run on it, only for a profile
    # with a new best-response key, and each build searches at least one key.
    assert scan_calls["Profile"] == scan_calls["pne_factor"] <= scan_calls["best_response"]
    # The benchmark's traced run needs each of these spans to record calls:
    # a new best response goes through `pne_factor` and so through the mechanism.
    assert scan_calls["pne_factor"] >= 1
    assert scan_calls["round_robin"] == scan_calls["pne_factor"]
    assert scan_calls["ef_factor"] == scan_calls["ef1_factor"]

    calls.clear()
    evaluate_profile(inst, truthful_profile(inst))
    assert calls["round_robin"] == 1


def test_submodular_scan_respects_half_bound_per_profile():
    inst = no_pne_instance()
    rule = applicable_bound_rule(inst)
    assert rule.name.startswith("alpha/2")
    for record in profile_space_scan(inst):
        alpha = record.pne_factor
        assert record.fairness.ef1_factor >= alpha / 2


# ---------------------------------------------------------------------------
# fairness bounds per certified class


def test_bound_rule_selection():
    assert applicable_bound_rule(additive_tightness_instance()).name.startswith("alpha/(2-alpha)")
    assert applicable_bound_rule(no_pne_instance()).name.startswith("alpha/2 [two submodular")
    assert applicable_bound_rule(oxs_lower_bound_instance()).name.startswith("alpha/3")
    three_additive = Instance(n=3, m=3, valuations=(Additive([1, 2, 3]),) * 3)
    assert applicable_bound_rule(three_additive).name.startswith("alpha/2 [subadditive")
    one_coverage = generate(GeneratorSpec("submodular_table", 1, 6, 0))  # not cancelable
    assert applicable_bound_rule(one_coverage).name.startswith("alpha/3")


def test_bound_rule_error_when_nothing_certifies():
    superadditive = Table(2, [0, 1, 1, 3])
    inst = Instance(n=2, m=2, valuations=(superadditive, superadditive))
    with pytest.raises(NoApplicableBoundError):
        applicable_bound_rule(inst)


@st.composite
def bound_rule_instances(draw):
    """n ≤ 4 agents on m ≤ 6 goods: generated ones and monotone tables, one kind or mixed."""
    n, m = draw(st.sampled_from((1, 2, 3, 4))), draw(st.integers(min_value=1, max_value=6))
    kinds = st.sampled_from(GENERATOR_CLASSES + ("monotone_table",))
    first, same = draw(kinds), draw(st.booleans())
    agents = []
    for _ in range(n):
        kind = first if same else draw(kinds)
        agent_seed = draw(st.integers(min_value=0, max_value=10**6))
        if kind == "monotone_table":
            agents.append(Table(m, random_monotone_table_values(random.Random(agent_seed), m)))
        else:
            hi = draw(st.sampled_from((1, 3, 8)))
            agents.append(generate(GeneratorSpec(kind, 1, m, agent_seed, (0, hi))).valuations[0])
    return Instance(n, m, tuple(agents))


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(inst=bound_rule_instances())
def test_bound_rule_matches_the_eager_reference(inst):
    try:
        expected = eager_bound_rule_name(inst)
    except NoApplicableBoundError:
        with pytest.raises(NoApplicableBoundError):
            applicable_bound_rule(inst)
    else:
        assert applicable_bound_rule(inst).name == expected


def test_bound_rule_runs_only_the_checks_its_rules_need(monkeypatch):
    checks = ("is_monotone", "is_additive", "is_submodular", "is_cancelable", "is_subadditive")
    log: list[tuple[str, object, bool]] = []  # (check, oracle, verdict), in call order

    def logged(name, original):
        def wrapper(v):
            result = original(v)
            log.append((name, v, bool(result)))
            return result

        return wrapper

    for name in checks:  # wherever the package binds it, as the benchmark's tracer does
        wrapper = logged(name, getattr(valuations, name))
        for module in (valuations, equilibria):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    called = set()
    for fixture in FIXTURES:
        log.clear()
        assert cli.main(["reproduce", fixture]) == 0
        names = [name for name, _, _ in log]
        called.update(names)
        if fixture == "oxs-lower-bound":  # four agents: the two-additive rule cannot apply
            assert "is_additive" not in names
        for k, (name, v, _) in enumerate(log):
            if name == "is_subadditive":
                assert k and log[k - 1] == ("is_cancelable", v, True)
    # Each check must record calls on a traced `reproduce` of the four fixtures.
    assert called == set(checks)


def bound_check(inst, profile):
    """(alpha, bound, ef1, holds) for one profile under the instance's certified rule."""
    evaluation = evaluate_profile(inst, profile)
    alpha = evaluation.equilibrium.pne_factor
    bound = applicable_bound_rule(inst)(alpha)
    ef1 = evaluation.fairness.ef1_factor
    return alpha, bound, ef1, ef1 >= bound


def test_verify_bound_on_additive_tightness():
    inst = additive_tightness_instance()
    profile = Profile((truthful_ranking(inst.valuations[0]), Ranking((4, 3, 0, 1, 2))))
    alpha, bound, ef1, holds = bound_check(inst, profile)
    assert alpha == F(1, 2)
    assert bound == F(1, 3)
    assert bound == F(1001, 3003)
    assert ef1 == F(1001, 3001)
    assert holds
    assert ef1 < bound + F(1, 100)


def test_verify_bound_on_oxs_lower_bound():
    inst = oxs_lower_bound_instance()
    profile = Profile(
        tuple(truthful_ranking(inst.valuations[i]) for i in range(3))
        + (Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8)),)
    )
    alpha, bound, ef1, holds = bound_check(inst, profile)
    assert alpha == F(503, 603)
    assert bound == alpha / 3
    assert ef1 == F(1006, 2397)
    assert holds
    assert ef1 < alpha / 2 + F(1, 100)  # the alpha/2 level is not met for epsilons this small


def test_exact_equilibrium_of_two_additive_agents_gives_full_ef1():
    inst = generate(GeneratorSpec(valuation_class="additive", n=2, m=4, seed=3))
    alpha, bound, _, holds = bound_check(inst, truthful_profile(inst))
    assert alpha == 1
    assert bound == 1
    assert holds


# ---------------------------------------------------------------------------
# shared evaluation plumbing


def test_evaluate_profile_skips_equilibrium_beyond_guard(monkeypatch):
    monkeypatch.setattr(valuations, "WORK_BUDGET", 100)  # the first search stores 43 states
    inst = Instance(n=3, m=15, valuations=(Additive([1] * 15),) * 3)
    evaluation = evaluate_profile(inst, truthful_profile(inst))
    assert evaluation.equilibrium is None
    assert evaluation.equilibrium_skipped == (
        "size guard: best_response for agent 1 of 3 on 15 goods stored 6 states (90 steps) "
        "and needs another, over the budget of 100")
    assert evaluation.fairness is not None
