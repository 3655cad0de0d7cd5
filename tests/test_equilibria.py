"""Best responses, equilibrium factors, scans, and fairness bounds."""

from __future__ import annotations

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
    random_profile,
    reference_best_response,
    with_dummies_last,
)
from rrfair import equilibria, fairness
from rrfair.equilibria import (
    NoApplicableBoundError,
    applicable_bound_rule,
    best_response,
    evaluate_profile,
    pne_factor,
    profile_orders,
    profile_space_scan,
    search_states,
)
from rrfair.fairness import UNBOUNDED, ef1_factor
from rrfair.instances import (
    GENERATOR_CLASSES,
    GeneratorSpec,
    additive_tightness_instance,
    bluff_tightness_instance,
    generate,
    no_pne_instance,
    oxs_lower_bound_instance,
)
from rrfair.mechanism import Profile, Ranking, round_robin
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
    alloc, _ = round_robin(inst, profile.replace(1, response.ranking))
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
            alloc, _ = round_robin(inst, profile)
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
    # The counter is deterministic; the exhaustive reference expands 5 states.
    assert first.explored_states == 3
    assert reference_best_response(inst, 1, profile.others(1)).explored_states == 5
    # {g3,g4,...} and {g4,g3,...} tie in value; the pick sequence starts with g3
    assert first.ranking.order[0] == 2


def test_best_response_guards():
    inst = Instance(n=2, m=4, valuations=(Additive([1, 2, 3, 4]),) * 2)
    with pytest.raises(ValueError, match="others"):
        best_response(inst, 0, {})
    big = Instance(n=2, m=16, valuations=(Additive([1] * 16),) * 2)
    with pytest.raises(SizeGuardError):
        best_response(big, 0, {1: Ranking(tuple(range(16)))})


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
    n=st.sampled_from([2, 3]),
    rounds=st.integers(min_value=1, max_value=4),
    kinds=st.lists(st.sampled_from(ORACLE_KINDS), min_size=3, max_size=3),
    instance_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_branch_and_bound_matches_the_exhaustive_reference(n, rounds, kinds, instance_seed):
    m = n * min(rounds, 9 // n)
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
        assert (record.per_agent, record.pne_factor) == (report.per_agent, report.pne_factor)


def test_convex_tables_exercise_the_monotone_bound():
    rng = random.Random(3)
    tables = [rational_oracle(rng, "convex_table", 6) for _ in range(10)]
    assert not any(v.subadditive_by_construction for v in tables)
    assert sum(not is_subadditive(v) for v in tables) >= 8


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
    """Each profile's orders, rows, factor and fairness, with no memo shared between profiles."""
    for orders in profile_orders(inst, samples=samples, seed=seed):
        profile = Profile(tuple(Ranking(order) for order in orders))
        alloc, _ = round_robin(inst, profile)
        equilibrium = pne_factor(inst, profile)
        yield orders, equilibrium.per_agent, equilibrium.pne_factor, ef1_factor(inst, alloc)


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
    assert [record[:4] for record in records] == list(
        unshared_scan(inst, samples=samples, seed=scan_seed))
    for record in records:
        # The factor is the least ratio, an unbounded one counting as 1, and
        # the key spells out both factors as reduced int pairs.
        pne, ef1 = record.pne_factor, record.fairness.ef1_factor
        assert pne == min([F(1), *(row.ratio for row in record.per_agent)])
        assert record.key == (pne.numerator, pne.denominator) + (
            (1, 0) if ef1 == UNBOUNDED else (ef1.numerator, ef1.denominator))


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
    monkeypatch.setattr(Profile, "__post_init__", counting("Profile", Profile.__post_init__))
    inst = no_pne_instance()
    records = list(profile_space_scan(inst))
    scan_calls = dict(calls)
    assert len(records) == 576
    allocations = {}
    for record in records:
        allocations[record.orders] = round_robin(
            inst, Profile(tuple(Ranking(order) for order in record.orders)))[0]
    # One deal per profile, one search per (agent, other agent's ranking),
    # one score per distinct allocation.
    assert (scan_calls["deal"], scan_calls["best_response"], scan_calls["ef1_factor"]) == (
        576, 2 * 24, len(set(allocations.values())))
    # A `Profile` is built only for a profile that misses a memoised row.
    misses = {(i, orders[:i] + orders[i + 1:], alloc.bundles[i])
              for orders, alloc in allocations.items() for i in range(inst.n)}
    assert scan_calls["Profile"] <= len(misses) < 576
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


def test_bound_rule_error_when_nothing_certifies():
    superadditive = Table(2, [0, 1, 1, 3])
    inst = Instance(n=2, m=2, valuations=(superadditive, superadditive))
    with pytest.raises(NoApplicableBoundError):
        applicable_bound_rule(inst)


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


def test_evaluate_profile_skips_equilibrium_beyond_guard():
    inst = Instance(n=3, m=15, valuations=(Additive([1] * 15),) * 3)
    evaluation = evaluate_profile(inst, truthful_profile(inst))
    assert evaluation.equilibrium is None
    assert "size guard" in evaluation.equilibrium_skipped
    assert evaluation.fairness is not None
