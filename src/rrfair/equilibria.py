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

`ResponseMemo.score` is the one scoring loop: it builds each agent's row,
her current value against her best-response value, once per key the row
depends on, and takes the least ratio on the rows' int pairs.
`pne_factor` scores one profile with it, and a scan shares one memo across
all its profiles.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .fairness import UNBOUNDED, Factor, FairnessReport, ef1_factor
from .mechanism import (
    Allocation,
    Profile,
    Ranking,
    deal,
    ranking_from_picks,
    round_robin,
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
    mask_to_bundle,
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


Orders = tuple[tuple[int, ...], ...]  # one order of the goods per agent
# An agent's equilibrium row: her ratio capped at 1 (an unbounded ratio
# counts as 1) as a reduced int pair (p, q) and as a Fraction, and her entry.
Row = tuple[int, int, Fraction, AgentEquilibrium]


class ResponseMemo:
    """Equilibrium rows, best-response values and fairness reports of one instance's profiles.

    `rows` is keyed by (agent, the other agents' orders in agent order,
    bundle mask) and `best` by (agent, others' orders): a row depends on
    nothing else, and its best-response value not on the bundle.  `reports`
    holds a scan's fairness reports, with their ef1 int pair, by the bundle
    masks.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self.rows: dict[tuple[int, Orders, int], Row] = {}
        self.best: dict[tuple[int, Orders], Fraction] = {}
        self.reports: dict[tuple[int, ...], tuple[FairnessReport, tuple[int, int]]] = {}

    def score(self, orders: Orders, masks: Sequence[int], respond: Callable[[int], Fraction]
              ) -> tuple[tuple[AgentEquilibrium, ...], Fraction, int, int]:
        """Each agent's row for the bundle masks the profile `orders` deals, and their minimum.

        `respond(i)` gives agent i's best-response value; it is called only
        for a new (agent, others) key.  Returns the agents' entries and the
        least capped ratio, as a Fraction and as its reduced int pair (p, q),
        found by cross-multiplying the rows' int pairs.
        """
        per_agent = []
        p, q, factor = 1, 1, _ONE
        for i, mask in enumerate(masks):
            others = orders[:i] + orders[i + 1:]
            row = self.rows.get((i, others, mask))
            if row is None:
                best = self.best.get((i, others))
                if best is None:
                    best = self.best[i, others] = respond(i)
                v = self.inst.valuations[i]
                current = Fraction(v.value_mask(mask), v.scale)
                ratio: Factor = UNBOUNDED if best == 0 else current / best
                capped = ratio if ratio < 1 else _ONE
                row = self.rows[i, others, mask] = (
                    capped.numerator, capped.denominator, capped,
                    AgentEquilibrium(i, current, best, ratio))
            if row[0] * q < p * row[1]:
                p, q, factor = row[0], row[1], row[2]
            per_agent.append(row[3])
        return tuple(per_agent), factor, p, q


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
    others took: C(m, k) C(m-k, k(n-1) + agent) of them, summed over her
    turns, the steps agent, agent + n, ... below m.  A binomial C(x, y) with
    min(y, x-y) > 64 exceeds 2^64 and is slow to compute, so the sum stops
    there, below its true value.
    """
    total = 0
    for k in range(len(range(agent, m, n))):
        others = k * (n - 1) + agent
        if min(k, m - k) > 64 or min(others, m - k - others) > 64:
            return total + (1 << 64)
        total += math.comb(m, k) * math.comb(m - k, others)
    return total


def check_search_work(m: int, n: int, agent: int) -> None:
    """Refuse a best-response search for `agent` on m goods over the work budget."""
    check_work(m * search_states(m, n, agent),  # m children per state
               f"best_response for agent {agent + 1} of {n} on {m} goods")


def best_response(inst: Instance, agent: int, others: Mapping[int, Ranking]) -> BestResponse:
    """Maximize `agent`'s true value over all ranking deviations.

    Requires the search within the work budget.  Ties in value resolve
    toward the lexicographically least pick sequence.

    When n does not divide m the last round is partial.  The paper pads
    instead, with dummy goods that are worth nothing and that the others rank
    last; both give the same best response.  Call a dummy pick of `agent`
    made while a real good remains a pass, and take an optimal padded run
    with a pass at turn t.  If she picks a real good later, let x be the
    first: she takes x at t and the dummy at x's old turn.  Nobody took x in
    between, and the others, who rank dummies last, pick as before; after
    x's old turn the taken set is the same as before, and so is her bundle.
    If she picks no real good later, she takes any real good at t instead:
    her real goods only grow, so by monotonicity she loses nothing.  Each
    change moves one of her real picks earlier or adds one, so repeating it
    ends in a run without a pass, which is a partial-round run followed by
    dummy picks.  So best-response values, current values and `pne_factor`s
    are equal.  The argument holds from every search state, and real ids sit
    below dummy ids, so the lexicographically least optimal picks are the
    padded ones with their trailing dummies dropped.
    """
    if set(others) != set(range(inst.n)) - {agent}:
        raise ValueError("`others` must cover exactly the agents other than `agent`")
    check_search_work(inst.m, inst.n, agent)

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
    already has it.  Rows are read from `responses` (see `ResponseMemo.score`):
    `best_response` runs only for a new (agent, others) key.  Pass one memo
    across calls on the same instance to share the rows; without one, a
    fresh memo serves this call alone.
    """
    if allocation is None:
        allocation, _ = round_robin(inst, profile)
    if responses is None:
        responses = ResponseMemo(inst)
    per_agent, factor, _, _ = responses.score(
        tuple(r.order for r in profile.rankings),
        [sum(1 << g for g in bundle) for bundle in allocation.bundles],
        lambda i: best_response(inst, i, profile.others(i)).value)
    return EquilibriumReport(per_agent, factor)


class ScanRecord(NamedTuple):
    orders: Orders
    per_agent: tuple[AgentEquilibrium, ...]
    pne_factor: Fraction
    fairness: FairnessReport
    # pne_factor and fairness.ef1_factor as reduced int pairs (p, q, p', q'),
    # an unbounded ef1 factor as (1, 0): equal keys mean equal factors.
    key: tuple[int, int, int, int]


@dataclass(frozen=True)
class ProfileEvaluation:
    """One profile pushed through the whole pipeline."""

    allocation: Allocation
    fairness: FairnessReport
    equilibrium: EquilibriumReport | None
    equilibrium_skipped: str | None


def evaluate_profile(inst: Instance, profile: Profile) -> ProfileEvaluation:
    """Run the mechanism and score the outcome.

    The equilibrium report is skipped, with the guard's message as the
    reason, when a best-response search exceeds the work budget.
    """
    alloc, _ = round_robin(inst, profile)
    fairness = ef1_factor(inst, alloc)
    equilibrium = None
    skipped = None
    try:
        equilibrium = pne_factor(inst, profile, allocation=alloc)
    except SizeGuardError as exc:
        skipped = str(exc)
    return ProfileEvaluation(
        allocation=alloc,
        fairness=fairness,
        equilibrium=equilibrium,
        equilibrium_skipped=skipped,
    )


def profile_orders(
    inst: Instance, *, samples: int | None = None, seed: int = 0
) -> Iterator[Orders]:
    """Per-agent good orders for a scan: all of them, or a seeded sample.

    Exhaustive enumeration is lexicographic and refuses (m!)^n profiles
    times m beyond the work budget, when called, since a truncated scan
    would invalidate non-existence claims.
    """
    n, m = inst.n, inst.m
    if samples is None:
        what = f"an exhaustive scan of {n} agents and {m} goods"
        check_work(m << m, what)  # cheap, and below (m!)^n·m wherever it refuses
        check_work(math.factorial(m) ** n * m, what)
        return itertools.product(itertools.permutations(range(m)), repeat=n)
    rng = random.Random(seed)
    return (tuple(tuple(rng.sample(range(m), m)) for _ in range(n)) for _ in range(samples))


def scan_one_profile(scan: ResponseMemo, orders: Orders) -> ScanRecord:
    """Evaluate a single scanned profile (equilibrium plus fairness).

    The profile is dealt once; rows and the fairness report come from
    `scan`.  Only a profile that needs a new best response builds a
    `Profile`, on which `pne_factor` fills its rows.
    """
    inst = scan.inst
    _, masks = deal(orders, inst.m)

    def respond(i: int) -> Fraction:
        # Routed through pne_factor for the benchmark's tracer, until ROADMAP item 1 lands.
        pne_factor(inst, Profile(tuple(map(Ranking, orders))), responses=scan)
        return scan.best[i, orders[:i] + orders[i + 1:]]

    per_agent, factor, p, q = scan.score(orders, masks, respond)
    bundles = tuple(masks)
    fairness = scan.reports.get(bundles)
    if fairness is None:
        report = ef1_factor(inst, Allocation(tuple(map(mask_to_bundle, bundles))))
        ef1 = report.ef1_factor
        fairness = scan.reports[bundles] = (
            report, (1, 0) if ef1 == UNBOUNDED else (ef1.numerator, ef1.denominator))
    return ScanRecord(orders, per_agent, factor, fairness[0], (p, q) + fairness[1])


def profile_space_scan(
    inst: Instance, *, samples: int | None = None, seed: int = 0
) -> Iterator[ScanRecord]:
    """Evaluate profiles, exhaustively or sampled.

    Exhaustive mode (samples=None) walks all (m!)^n profiles in
    lexicographic order; sampled mode draws `samples` uniform profiles from
    a seeded generator.  Both are deterministic.

    The scan deals each profile once and keeps a `ResponseMemo` for its
    whole length: equilibrium rows by (agent, the other agents' orders,
    bundle), with one best response per (agent, others), and fairness
    reports by allocation.  All are pure functions of their keys, so the
    records equal those of unshared evaluation; no search's own memo table
    is kept.  An oversized exhaustive scan is refused when called.
    """
    orders = profile_orders(inst, samples=samples, seed=seed)
    scan = ResponseMemo(inst)
    return (scan_one_profile(scan, profile) for profile in orders)


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
            is_submodular(v),
            is_cancelable(v),
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
