"""Exact best responses, equilibrium factors, and profile-space analysis.

A best response is found by depth-first search over the deviating agent's
per-turn pick choices: between her turns the other agents pick
deterministically from their fixed rankings, and any feasible pick sequence
is realizable by the ranking that lists those picks first.  The search is
therefore exact over all m! ranking deviations while visiting only the
reachable outcomes.

The search is branch and bound on the oracle's `value_mask` ints, `scale`
times the true values; only its result becomes a Fraction.  A state whose
optimistic bound cannot beat the best value found so far is not expanded.
Every oracle is monotone, so v(B | available) bounds each completion of
the bundle B.  For oracles subadditive by construction, v(B) plus the k
largest singleton values still available (k picks to go) is a second
bound, and the search takes the smaller.  No bound prunes an optimum, so
the value, the bundle and the lexicographically least optimal pick
sequence are those of the exhaustive search.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple

from .fairness import UNBOUNDED, Factor, FairnessReport, ef1_factor
from .mechanism import (
    Allocation,
    Profile,
    Ranking,
    pad_to_multiple,
    ranking_from_picks,
    round_robin,
    strip_padding,
)
from .valuations import (
    Instance,
    SizeGuardError,
    check_subset_work,
    check_work,
    is_additive,
    is_cancelable,
    is_subadditive,
    is_submodular,
)

_ONE = Fraction(1)


@dataclass(frozen=True)
class BestResponse:
    """An exact value-maximizing deviation for one agent.

    `ranking` lists the optimal picks first (lexicographically least among
    maximizers) and the remaining goods ascending; replaying the mechanism
    with it gives `bundle` back.  `explored_states` counts the distinct
    search states whose children were generated.  States cut off by their
    bound are not counted, and a state opened again, for a tighter answer
    than its first visit gave, counts once.
    """

    ranking: Ranking
    bundle: frozenset[int]
    value: Fraction
    explored_states: int


class AgentEquilibrium(NamedTuple):
    agent: int
    current_value: Fraction
    best_response_value: Fraction
    ratio: Factor  # current / best, UNBOUNDED when the best response is worthless


# Scan memos.  `ResponseMemo`: by (agent, the other agents' orders in agent
# order), the agent's equilibrium row for each bundle she was seen to get;
# all rows of one key share its best-response value.  `ReportMemo`: fairness
# reports by the bundles over the real goods.
ResponseMemo = dict[
    tuple[int, tuple[tuple[int, ...], ...]], dict[frozenset[int], AgentEquilibrium]
]
ReportMemo = dict[tuple[frozenset[int], ...], FairnessReport]


@dataclass(frozen=True)
class EquilibriumReport:
    """Per-agent deviation incentives and the profile's equilibrium factor.

    `pne_factor` is the largest a for which the profile is an a-approximate
    pure Nash equilibrium: the minimum over agents of current value divided
    by best-response value, with unbounded ratios counting as 1.
    """

    per_agent: tuple[AgentEquilibrium, ...]
    pne_factor: Fraction


def search_states(m: int, n: int, agent: int) -> int:
    """A bound on the states a best-response search for `agent` expands.

    At her k-th turn a state is her k goods and the k(n-1) + agent goods the
    others took: C(m, k) C(m-k, k(n-1) + agent) of them, summed over k < m/n.
    A binomial C(x, y) with min(y, x-y) > 64 exceeds 2^64 and is slow to
    compute, so the sum stops there, below its true value.
    """
    total = 0
    for k in range(m // n):
        others = k * (n - 1) + agent
        if min(k, m - k) > 64 or min(others, m - k - others) > 64:
            return total + (1 << 64)
        total += math.comb(m, k) * math.comb(m - k, others)
    return total


def best_response(inst: Instance, agent: int, others: Mapping[int, Ranking]) -> BestResponse:
    """Maximize `agent`'s true value over all ranking deviations.

    Requires m to be a multiple of n and the search within the work budget.
    Ties in value resolve toward the lexicographically least pick sequence.
    """
    if inst.m % inst.n != 0:
        raise ValueError(f"m = {inst.m} is not a multiple of n = {inst.n}; pad first")
    if set(others) != set(range(inst.n)) - {agent}:
        raise ValueError("`others` must cover exactly the agents other than `agent`")
    check_work(inst.m * search_states(inst.m, inst.n, agent),  # m children per state
               f"best_response for agent {agent + 1} of {inst.n} on {inst.m} goods")

    m, n = inst.m, inst.n
    v = inst.valuations[agent]
    order_of = {i: others[i].order for i in others}
    full = (1 << m) - 1

    def advance(avail: int, step: int) -> tuple[int, int]:
        # Apply the fixed agents' picks until it is `agent`'s turn (or the end).
        while step < m and step % n != agent:
            for g in order_of[step % n]:
                bit = 1 << g
                if avail & bit:
                    avail ^= bit
                    break
            step += 1
        return avail, step

    value = v.value_mask  # scale * v(mask), an int, cached by the oracle

    # Single-bit masks, by decreasing singleton value and then ascending good:
    # the search tries promising picks first, so the incumbent rises early.
    by_value = sorted((1 << g for g in range(m)), key=lambda bit: -value(bit))

    subadditive = v.subadditive_by_construction

    def bound(avail: int, bundle: int, step: int) -> int:
        # An upper bound on every completion of `bundle` with k goods of `avail`.
        monotone = value(bundle | avail)
        if not subadditive:
            return monotone
        k = (m - step + n - 1) // n
        total = value(bundle)
        for bit in by_value:
            if not k:
                break
            if avail & bit:
                total += value(bit)
                k -= 1
        return min(total, monotone)

    exact: dict[tuple[int, int], int] = {}
    upper: dict[tuple[int, int], int] = {}
    opened: set[tuple[int, int]] = set()

    def solve(avail: int, bundle: int, step: int, need: int) -> int:
        # The state's exact value when it exceeds `need`, else an upper bound <= need.
        if step >= m:
            return value(bundle)
        key = (avail, bundle)
        hit = exact.get(key)
        if hit is not None:
            return hit
        ub = upper.get(key)
        if ub is None:
            ub = upper[key] = bound(avail, bundle, step)
        if ub <= need:
            return ub
        opened.add(key)
        best = -1
        for bit in by_value:
            if avail & bit:
                next_avail, next_step = advance(avail ^ bit, step + 1)
                result = solve(next_avail, bundle | bit, next_step, max(need, best))
                if result > best:
                    best = result
        if best > need:
            exact[key] = best
        else:
            upper[key] = best
        return best

    avail0, step0 = advance(full, 0)
    best_value = solve(avail0, 0, step0, -1)  # values are >= 0, so this is exact

    # Reconstruct the lexicographically least optimal pick sequence: the first
    # child, in ascending good order, whose value reaches the target.
    picks: list[int] = []
    avail, bundle, step, target = avail0, 0, step0, best_value
    while step < m:
        mask = avail
        while mask:
            bit = mask & -mask
            mask ^= bit
            next_avail, next_step = advance(avail ^ bit, step + 1)
            if solve(next_avail, bundle | bit, next_step, target - 1) == target:
                picks.append(bit.bit_length() - 1)
                avail, bundle, step = next_avail, bundle | bit, next_step
                break
        else:
            raise AssertionError("no pick reproduces the optimum")

    return BestResponse(
        ranking=ranking_from_picks(picks, m),
        bundle=frozenset(picks),
        value=Fraction(best_value, v.scale),
        explored_states=len(opened),
    )


def pne_factor(
    inst: Instance,
    profile: Profile,
    *,
    allocation: Allocation | None = None,
    responses: ResponseMemo | None = None,
) -> EquilibriumReport:
    """Equilibrium factor of a reported profile under the true valuations.

    Per agent: the value she currently gets against her exact best-response
    value.  A zero best response (possible only for identically worthless
    reachable bundles) imposes no constraint and counts as ratio 1.

    `allocation` is the mechanism's outcome on `profile`, when the caller
    already has it.  A row depends only on the agent, the other agents'
    orders and her bundle, so it is read from `responses` (a
    `ResponseMemo`); `best_response` runs only for a new (agent, others)
    key, and a new bundle under a known key reuses its best-response value.
    Pass one dict across calls on the same instance to share the rows;
    without one, a fresh dict serves this call alone.
    """
    if allocation is None:
        allocation, _ = round_robin(inst, profile)
    if responses is None:
        responses = {}
    orders = tuple(r.order for r in profile.rankings)
    per_agent = []
    factor = _ONE
    for i in range(inst.n):
        bundle = allocation.bundles[i]
        key = (i, orders[:i] + orders[i + 1:])
        rows = responses.get(key)
        if rows is None:
            rows = responses[key] = {}
        row = rows.get(bundle)
        if row is None:
            if rows:
                best = next(iter(rows.values())).best_response_value
            else:
                best = best_response(inst, i, profile.others(i)).value
            current = inst.valuations[i].value(bundle)
            ratio: Factor = UNBOUNDED if best == 0 else current / best
            row = rows[bundle] = AgentEquilibrium(i, current, best, ratio)
        if row.ratio < factor:
            factor = row.ratio
        per_agent.append(row)
    return EquilibriumReport(tuple(per_agent), factor)


class ScanRecord(NamedTuple):
    profile: Profile  # over the real goods (dummies stripped)
    equilibrium: EquilibriumReport
    fairness: FairnessReport


@dataclass(frozen=True)
class ProfileEvaluation:
    """One profile pushed through the whole pipeline (padding included)."""

    allocation: Allocation  # real goods only
    fairness: FairnessReport
    equilibrium: EquilibriumReport | None
    equilibrium_skipped: str | None
    padding: int


def evaluate_profile(inst: Instance, profile: Profile) -> ProfileEvaluation:
    """Pad, run the mechanism, strip dummies, and score the outcome.

    `profile` ranks the real goods; dummies are appended at the end of each
    ranking.  The equilibrium report is skipped, with the guard's message
    as the reason, when a best-response search exceeds the work budget.
    """
    padded, padding = pad_to_multiple(inst)
    padded_profile = profile.extended(padded.m)
    alloc, _ = round_robin(padded, padded_profile)
    real = strip_padding(alloc, inst.m)
    fairness = ef1_factor(inst, real)
    equilibrium = None
    skipped = None
    try:
        equilibrium = pne_factor(padded, padded_profile, allocation=alloc)
    except SizeGuardError as exc:
        skipped = str(exc)
    return ProfileEvaluation(
        allocation=real,
        fairness=fairness,
        equilibrium=equilibrium,
        equilibrium_skipped=skipped,
        padding=padding,
    )


def profile_orders(
    inst: Instance, *, samples: int | None = None, seed: int = 0
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Per-agent good orders for a scan: all of them, or a seeded sample.

    Exhaustive enumeration is lexicographic and refuses (m!)^n profiles
    times the padded m beyond the work budget, since a truncated scan would
    invalidate non-existence claims.
    """
    if samples is None:
        n, m = inst.n, inst.m
        what = f"an exhaustive scan of {n} agents and {m} goods"
        check_work(m << m, what)  # cheap, and below (m!)^n·m wherever it refuses
        check_work(math.factorial(m) ** n * (-(-m // n) * n), what)  # padded m
        yield from itertools.product(itertools.permutations(range(m)), repeat=n)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            yield tuple(tuple(rng.sample(range(inst.m), inst.m)) for _ in range(inst.n))


def scan_one_profile(
    inst: Instance,
    padded: Instance,
    profile: Profile,
    padded_profile: Profile,
    responses: ResponseMemo,
    reports: ReportMemo,
) -> ScanRecord:
    """Evaluate a single scanned profile (equilibrium plus fairness).

    `profile` ranks the real goods and `padded_profile` is its extension to
    `padded` (the same object when nothing is padded).  The mechanism runs
    once.  Equilibrium rows come from `responses` (see `pne_factor`) and
    fairness reports from `reports`, keyed by the allocation's bundles over
    the real goods; both dicts belong to `padded` and fill up as the scan
    goes.
    """
    alloc, _ = round_robin(padded, padded_profile)
    equilibrium = pne_factor(padded, padded_profile, allocation=alloc, responses=responses)
    real = alloc if padded.m == inst.m else strip_padding(alloc, inst.m)
    fairness = reports.get(real.bundles)
    if fairness is None:
        fairness = reports[real.bundles] = ef1_factor(inst, real)
    return ScanRecord(profile, equilibrium, fairness)


def profile_space_scan(
    inst: Instance, *, samples: int | None = None, seed: int = 0
) -> Iterator[ScanRecord]:
    """Evaluate profiles over the real goods, exhaustively or sampled.

    Exhaustive mode (samples=None) walks all (m!)^n profiles in
    lexicographic order; sampled mode draws `samples` uniform profiles from
    a seeded generator.  Both are deterministic.

    The scan runs the mechanism once per profile and keeps two memos for its
    whole length: equilibrium rows by (agent, the other agents' orders,
    bundle), with one best response per (agent, others), and fairness
    reports by allocation.  All are pure functions of their keys, so the
    records equal those of unshared evaluation; only values are kept, never
    a search's own memo table.  Each distinct order's `Ranking`, and its
    extension to the padded goods, is built once per scan.
    """
    padded, _ = pad_to_multiple(inst)
    responses: ResponseMemo = {}
    reports: ReportMemo = {}
    rankings: dict[tuple[int, ...], tuple[Ranking, Ranking]] = {}
    for orders in profile_orders(inst, samples=samples, seed=seed):
        pairs = []
        for order in orders:
            pair = rankings.get(order)
            if pair is None:
                ranking = Ranking(order)
                pair = rankings[order] = (ranking, ranking.extended(padded.m))
            pairs.append(pair)
        profile = Profile(tuple(real for real, _ in pairs))
        padded_profile = profile if padded.m == inst.m else Profile(
            tuple(extended for _, extended in pairs))
        yield scan_one_profile(inst, padded, profile, padded_profile, responses, reports)


@dataclass(frozen=True)
class BoundRule:
    """The strongest equilibrium-to-fairness guarantee an instance certifies for."""

    name: str
    formula: Callable[[Fraction], Fraction]

    def __call__(self, alpha: Fraction) -> Fraction:
        return self.formula(alpha)


class NoApplicableBoundError(ValueError):
    """The instance certifies for none of the supported valuation classes."""


def applicable_bound_rule(inst: Instance) -> BoundRule:
    """Certify the instance's valuation classes and pick the strongest bound.

    Two additive agents: a/(2-a).  Subadditive cancelable agents, or two
    submodular agents: a/2.  Submodular agents: a/3.  The formulas are
    ordered pointwise on (0, 1], so the first applicable rule is strongest.

    Certification runs four exhaustive class checks per agent, so the
    largest of their estimates is checked once, before the first check.
    """
    check_subset_work(inst.m, "class certification for the bound rule",
                      "is_additive", "is_submodular", "is_cancelable", "is_subadditive")
    checks = [
        (
            is_additive(v),
            bool(is_submodular(v)),
            bool(is_cancelable(v)),
            is_subadditive(v),
        )
        for v in inst.valuations
    ]
    all_additive = all(c[0] for c in checks)
    all_submodular = all(c[1] for c in checks)
    all_subadd_cancelable = all(c[2] and c[3] for c in checks)

    if all_additive and inst.n == 2:
        return BoundRule("alpha/(2-alpha) [two additive agents]", lambda a: a / (2 - a))
    if all_subadd_cancelable:
        return BoundRule("alpha/2 [subadditive cancelable agents]", lambda a: a / 2)
    if all_submodular and inst.n == 2:
        return BoundRule("alpha/2 [two submodular agents]", lambda a: a / 2)
    if all_submodular:
        return BoundRule("alpha/3 [submodular agents]", lambda a: a / 3)
    raise NoApplicableBoundError(
        "instance fits no certified class (additive / submodular / subadditive cancelable)"
    )
