"""Acceptance suite: one test per criterion, exact rationals throughout.

Every test prints a single "ACCEPTANCE <n> <name>: PASS/FAIL" line; run
with `pytest tests/test_acceptance.py -v -s` to see them live.  All
expected values are exact (no tolerances); time budgets are asserted where
the criterion states one.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import brute_force_best_response, brute_force_matching_value, prefix_sets
from rrfair.equilibria import (
    applicable_bound_rule,
    best_response,
    pne_factor,
    profile_space_scan,
)
from rrfair.fairness import ef1_factor, ef1_from_perspective
from rrfair.instances import (
    GeneratorSpec,
    additive_tightness_instance,
    bluff_tightness_instance,
    generate,
    no_pne_instance,
    oxs_lower_bound_instance,
)
from rrfair.mechanism import Profile, Ranking, deal, round_robin
from rrfair.profiles import bluff_profile, greedy_response, truthful_profile, truthful_ranking
from rrfair.valuations import OXS, is_submodular

F = Fraction
HALF = F(1, 2)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# seeded instance pools


def cancelable_pool(count: int):
    """Cancelable instances cycling class, agent count, and good count."""
    classes = ("additive", "budget_additive", "unit_demand")
    shapes = ((2, 4), (2, 5), (2, 6), (2, 8), (3, 6), (3, 7), (3, 9))
    for seed in range(count):
        cls = classes[seed % len(classes)]
        n, m = shapes[seed % len(shapes)]
        yield generate(GeneratorSpec(valuation_class=cls, n=n, m=m, seed=1000 + seed))


def submodular_pool(count: int):
    """Certified-submodular instances (bipartite-matching and table oracles)."""
    classes = ("oxs", "submodular_table")
    shapes = ((2, 4), (2, 6), (2, 8), (3, 6), (2, 7), (3, 5))
    for seed in range(count):
        cls = classes[seed % len(classes)]
        n, m = shapes[seed % len(shapes)]
        inst = generate(GeneratorSpec(valuation_class=cls, n=n, m=m, seed=2000 + seed))
        for v in inst.valuations:
            assert is_submodular(v), f"generated oracle not submodular (seed {2000 + seed})"
        yield inst


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_no_pne_scan():
    with criterion(1, "no profile of the 2x4 table instance beats factor 3/4"):
        start = time.perf_counter()
        factors = [
            record.pne_factor for record in profile_space_scan(no_pne_instance())
        ]
        elapsed = time.perf_counter() - start
        assert len(factors) == 576
        assert max(factors) == F(3, 4)
        assert elapsed < 10.0, f"scan took {elapsed:.1f}s"


def test_criterion_02_bluff_is_exact_equilibrium_for_cancelable():
    with criterion(2, "bluff profile is an exact equilibrium on 200 cancelable instances"):
        start = time.perf_counter()
        for inst in cancelable_pool(200):
            report = pne_factor(inst, bluff_profile(inst))
            assert report.pne_factor == 1, inst.description
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_truthful_round_robin_is_ef1_for_cancelable():
    with criterion(3, "truthful round-robin is fully EF1 on the same 200 instances"):
        for inst in cancelable_pool(200):
            alloc = round_robin(inst, truthful_profile(inst))
            report = ef1_factor(inst, alloc)
            assert report.ef1_factor >= 1, inst.description


def test_criterion_04_bluff_is_half_equilibrium_for_submodular():
    with criterion(4, "bluff profile is a 1/2-equilibrium on 100 submodular instances"):
        for inst in submodular_pool(100):
            assert pne_factor(inst, bluff_profile(inst)).pne_factor >= HALF, inst.description
        fixture = bluff_tightness_instance()
        assert pne_factor(fixture, bluff_profile(fixture)).pne_factor == F(100, 197)


def test_criterion_05_bluff_allocation_is_half_ef1_for_submodular():
    with criterion(5, "bluff allocation is 1/2-EF1 on the same 100 instances"):
        for inst in submodular_pool(100):
            alloc = round_robin(inst, bluff_profile(inst))
            report = ef1_factor(inst, alloc)
            assert report.ef1_factor >= HALF, inst.description
        fixture = bluff_tightness_instance()
        alloc = round_robin(fixture, bluff_profile(fixture))
        report = ef1_factor(fixture, alloc)
        assert report.pair_ratios[1, 0] == F(25, 49)


def test_criterion_06_greedy_response_is_half_ef1_from_own_perspective():
    with criterion(6, "greedy response secures 1/2-EF1 from the deviator's perspective"):
        rng = random.Random(606)
        for inst in submodular_pool(100):
            for agent in range(inst.n):
                others = {
                    j: Ranking(tuple(rng.sample(range(inst.m), inst.m)))
                    for j in range(inst.n)
                    if j != agent
                }
                ranking = greedy_response(inst, agent, others)
                rankings = [others.get(j) for j in range(inst.n)]
                rankings[agent] = ranking
                alloc = round_robin(inst, Profile(tuple(rankings)))
                assert ef1_from_perspective(inst, alloc, agent, HALF), inst.description


def test_criterion_07_two_agent_bounds_hold_on_exhaustive_scans():
    with criterion(7, "exhaustive two-agent scans respect a/2 and a/(2-a) bounds"):
        instances = []
        for seed in range(10):
            cls = "oxs" if seed % 2 == 0 else "submodular_table"
            instances.append(generate(GeneratorSpec(valuation_class=cls, n=2, m=4, seed=7000 + seed)))
        for seed in range(10):
            instances.append(
                generate(GeneratorSpec(valuation_class="additive", n=2, m=4, seed=7100 + seed))
            )
        for inst in instances:
            rule = applicable_bound_rule(inst)
            count = 0
            for record in profile_space_scan(inst):
                count += 1
                alpha = record.pne_factor
                assert record.fairness.ef1_factor >= rule(alpha), inst.description
            assert count == 576


def test_criterion_08_three_agent_bounds_hold_on_sampled_scans():
    with criterion(8, "sampled three-agent scans respect a/3 and a/2 bounds"):
        start = time.perf_counter()
        pools = [
            ("oxs", "submodular_table"),          # submodular: bound alpha/3 (or stronger)
            ("additive", "budget_additive", "unit_demand"),  # subadditive cancelable: alpha/2
        ]
        for pool_index, classes in enumerate(pools):
            for k in range(5):
                cls = classes[k % len(classes)]
                inst = generate(
                    GeneratorSpec(valuation_class=cls, n=3, m=6, seed=8000 + 100 * pool_index + k)
                )
                rule = applicable_bound_rule(inst)
                for record in profile_space_scan(inst, samples=1000, seed=80 + k):
                    alpha = record.pne_factor
                    assert record.fairness.ef1_factor >= rule(alpha), inst.description
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_09_tightness_fixtures_reproduce_exactly():
    with criterion(9, "tightness fixtures reproduce their closed-form factors"):
        # Two additive agents: delta = 1/1000, beta = 1/2.
        inst = additive_tightness_instance(F(1, 1000), F(1, 2))
        profile = Profile((truthful_ranking(inst.valuations[0]), Ranking((4, 3, 0, 1, 2))))
        alloc = round_robin(inst, profile)
        report = ef1_factor(inst, alloc)
        equilibrium = pne_factor(inst, profile)
        alpha = equilibrium.pne_factor
        ratio = report.pair_ratios[1, 0]
        bound = alpha / (2 - alpha)
        assert alpha == F(1001, 2002) == HALF
        assert ratio == F(1001, 3001)
        assert bound == F(1001, 3003)
        assert bound <= ratio < bound + F(1, 100)

        # Three additive agents and an OXS agent: eps = (6..1)/1000, beta = 3/5.
        eps1, eps4, beta = F(6, 1000), F(3, 1000), F(3, 5)
        inst = oxs_lower_bound_instance()
        profile = Profile(
            tuple(truthful_ranking(inst.valuations[i]) for i in range(3))
            + (Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8)),)
        )
        alloc = round_robin(inst, profile)
        report = ef1_factor(inst, alloc)
        equilibrium = pne_factor(inst, profile)
        alpha = equilibrium.pne_factor
        ratio = report.pair_ratios[3, 0]
        assert alpha == (1 + eps1) / (2 * beta + eps1) == F(503, 603)
        assert ratio == (1 + eps1) / (4 * beta - eps4) == F(1006, 2397)
        assert alpha / 3 <= ratio < alpha / 2 + F(1, 100)


def test_criterion_10_search_and_matching_match_brute_force():
    with criterion(10, "pick-tree search and matching agree with brute-force oracles"):
        classes = ("additive", "oxs", "submodular_table", "budget_additive", "unit_demand")
        shapes = ((2, 4), (2, 6), (3, 6))
        rng = random.Random(1010)
        for seed in range(50):
            cls = classes[seed % len(classes)]
            n, m = shapes[seed % len(shapes)]
            inst = generate(GeneratorSpec(valuation_class=cls, n=n, m=m, seed=10_000 + seed))
            profile = Profile(
                tuple(Ranking(tuple(rng.sample(range(m), m))) for _ in range(n))
            )
            for agent in range(n):
                others = profile.others(agent)
                assert (
                    best_response(inst, agent, others).value
                    == brute_force_best_response(inst, agent, others)
                ), (cls, seed, agent)

        for graph_seed in range(30):
            grng = random.Random(3000 + graph_seed)
            m = grng.randint(2, 6)
            slots = grng.randint(1, 5)
            edges = [
                (grng.randrange(m), grng.randrange(slots), F(grng.randint(0, 9)))
                for _ in range(grng.randint(1, 8))
            ]
            oracle = OXS(m, edges)
            for mask in range(1 << m):
                members = {g for g in range(m) if mask >> g & 1}
                expected = brute_force_matching_value([e for e in edges if e[0] in members])
                assert oracle.value(members) == expected, (graph_seed, members)


def test_criterion_11_prefix_set_drift_laws_hold_under_deviations():
    with criterion(11, "prefix-set drift laws hold for sampled unilateral deviations"):
        rng = random.Random(1111)
        classes = ("additive", "oxs", "unit_demand", "submodular_table", "budget_additive")
        shapes = ((2, 4), (2, 6), (3, 6), (2, 8), (4, 8))
        for seed in range(50):
            cls = classes[seed % len(classes)]
            n, m = shapes[seed % len(shapes)]
            inst = generate(GeneratorSpec(valuation_class=cls, n=n, m=m, seed=11_000 + seed))
            base_profile = Profile(
                tuple(Ranking(tuple(rng.sample(range(m), m))) for _ in range(n))
            )
            alloc = round_robin(inst, base_profile)
            base_picks, _ = deal([r.order for r in base_profile.rankings], m)
            k = -(-m // n)  # rounds
            for agent in range(n):
                base_prefixes = prefix_sets(base_picks, n, agent)
                for _ in range(100):
                    deviation = Ranking(tuple(rng.sample(range(m), m)))
                    dev_picks, _ = deal(
                        [r.order for r in base_profile.replace(agent, deviation).rankings], m)
                    dev_prefixes = prefix_sets(dev_picks, n, agent)
                    for r in range(k):
                        assert len(dev_prefixes[r] - base_prefixes[r]) <= r
                        moved = dev_prefixes[r] - dev_prefixes[0]
                        for j in range(n):
                            assert len(alloc.bundles[j] & moved) <= 2 * r
