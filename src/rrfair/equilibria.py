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
the bundle B.  For oracles subadditive by construction, v(B) plus the
largest singleton total that the k picks to go can still win is a second
bound, and the search takes the smaller.  With two agents the pick
schedule decides what the deviator can win: exactly the sets with at most
⌈j/2⌉ of the first j goods still available in the other agent's order,
each won by picking it in that order (see `best_response`).  So a
two-agent search picks only in that order; for additive, budget-additive
and unit-demand oracles its bound is exact, and for OXS oracles one
min-cost flow gives each state's exact value.  With more
agents the same greedy runs with no deadline: it takes the k largest
singletons.  No bound prunes an optimum, so the value, the bundle and the
lexicographically least optimal pick sequence are those of the
exhaustive search.

Finding that pick sequence is a second pass over the search's memo tables,
and only `best_response`'s default, which the `best-response` command
uses, makes it.  Equilibrium factors depend on values alone, so
`pne_factor` asks for the value only: its searches stop after the first
pass, and their `explored_states` counts that pass's states.

`ResponseMemo.score` is the one scoring loop: it compares each agent's
current and best-response values, `value_mask` ints on her oracle's scale,
by cross-multiplication, and keeps the least ratio as a reduced int pair.
`pne_factor` scores one profile with it and builds its report from the same
ints; a scan shares one memo across all its profiles and builds no
`Fraction` for a profile whose keys it has seen.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import valuations
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
    OXS,
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


class BestResponse(NamedTuple):
    """An exact value-maximizing deviation for one agent.

    `ranking` lists the optimal picks first (lexicographically least among
    maximizers) and the remaining goods ascending; replaying the mechanism
    with it gives `bundle` back.  Both are None for a value-only search.
    `explored_states` counts the distinct (available goods, bundle) states
    whose children were generated, with whichever candidate picks: by the
    value search alone, or by it and the reconstruction.  States cut off,
    or answered exactly, by their bound are not counted, and a state opened
    again, for a tighter answer or with other candidates, counts once.
    """

    ranking: Ranking | None
    bundle: frozenset[int] | None
    value: Fraction
    explored_states: int


class AgentEquilibrium(NamedTuple):
    agent: int
    current_value: Fraction
    best_response_value: Fraction
    ratio: Factor  # current / best, UNBOUNDED when the best response is worthless


Orders = tuple[tuple[int, ...], ...]  # one order of the goods per agent


class ResponseMemo:
    """Best-response values and fairness reports of one instance's profiles.

    `best` is keyed by (agent, the other agents' orders in agent order),
    the only things her best-response value depends on, and holds that
    value times her oracle's `scale`, an int.  `reports` holds a scan's
    fairness reports, with their ef1 int pair, by the bundle masks.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self.best: dict[tuple[int, Orders], int] = {}
        self.reports: dict[tuple[int, ...], tuple[FairnessReport, tuple[int, int]]] = {}

    def score(self, orders: Orders, masks: Sequence[int], respond: Callable[[int], int]
              ) -> tuple[int, int]:
        """The least capped ratio of current to best-response value, as a reduced (p, q).

        `masks` are the bundles the profile `orders` deals.  `respond(i)`
        gives agent i's best-response value times her `scale`; it is called
        only for a new (agent, others) key.  A zero best response, or a
        current value that reaches it, counts as ratio 1.
        """
        p = q = 1
        best = self.best
        valuations = self.inst.valuations
        for i, mask in enumerate(masks):
            key = (i, orders[:i] + orders[i + 1:])
            top = best.get(key)
            if top is None:
                top = best[key] = respond(i)
            current = valuations[i].value_mask(mask)
            if current * q < p * top:
                p, q = current, top
        d = math.gcd(p, q)
        return p // d, q // d


class EquilibriumReport(NamedTuple):
    """Per-agent deviation incentives and the profile's equilibrium factor.

    `pne_factor` is the largest a for which the profile is an a-approximate
    pure Nash equilibrium: the minimum over agents of current value divided
    by best-response value, with unbounded ratios counting as 1.
    """

    per_agent: tuple[AgentEquilibrium, ...]
    pne_factor: Fraction


def _scheduled_singles(goods: Sequence[tuple[int, int, int]], due: Sequence[int],
                       avail: int, cand: int, turns: int) -> int:
    """The largest singleton total of goods of `cand` that fit `turns` picks by their deadlines.

    `goods` holds (bit, value, ahead) by decreasing value, `ahead` marking the
    goods up to this one in the next picker's order.  A good's deadline
    counts the goods of `avail` up to it there, `cand` being some of them:
    the j-th may fill the picks marked in `due[j]`, bit t - 1 for the t-th
    pick from here (`best_response` marks the first ⌈j/2⌉ with two agents,
    and all, `due = [-1]`, with more).  Each good in turn takes the latest
    free pick it may fill, if one is free; the deadlines make a matroid, so
    this greedy is optimal.
    """
    total = 0
    free = (1 << turns) - 1
    for bit, single, ahead in goods:
        if cand & bit:
            fits = free & due[(avail & ahead).bit_count()]
            if fits:
                free ^= 1 << fits.bit_length() - 1
                total += single
                if not free:
                    break
    return total


def best_response(inst: Instance, agent: int, others: Mapping[int, Ranking], *,
                  ranking: bool = True) -> BestResponse:
    """Maximize `agent`'s true value over all ranking deviations.

    With `ranking=False` the search returns its value alone, with `ranking`
    and `bundle` None, and never runs the reconstruction: the budget then
    charges the value search's states only.

    Ties in value resolve toward the lexicographically least pick sequence.
    Each state stored charges m steps, and an OXS agent's flows one step per
    good whose edges they relax, as they run; the search refuses with
    `SizeGuardError`, returning nothing, before either count passes the
    budget.  It recurses once per turn of `agent`, so it refuses up front
    when her turns exceed half the recursion limit, unless its bound is
    exact: then it never recurses past the root's children.

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

    The search's second bound rests on the pick schedule.  From a state at
    `agent`'s turn, let i be the agent who picks next after her, and P the
    first j goods still available in i's order.  While P is non-empty, i
    picks from P.  Say `agent` takes s goods of P, the last at her t-th turn
    from here, so t >= s.  Before that turn i has made t - 1 picks, all from
    P, and `agent` has taken s - 1 goods of P; so (t - 1) + s <= j, which
    gives s <= ⌈j/2⌉.  So the goods S she gains from here meet the deadline
    of the j-th good of i's order: her ⌈j/2⌉-th turn, or her last of the k
    to go if that comes first.  By subadditivity v(B ∪ S) <= v(B) plus the
    singleton values of S, for her bundle B so far.  Nested prefix caps form
    a laminar matroid, so `_scheduled_singles`, the greedy that takes goods
    by decreasing value while they still fit their deadlines, finds the
    largest such total.  The caps hold for any n, but with three or more
    agents they pruned 4% of the states at more than twice the cost per
    bound.  So there no pick has a deadline: `due` is [-1], every good's
    `ahead` is 0, and the same greedy takes the k largest singleton values.

    With two agents the caps are also sufficient.  Lemma: from a state at
    `agent`'s turn, with σ the other agent's order over the available goods,
    she can gain a set S of at most k goods if and only if S meets the
    deadlines, |S ∩ P_j| <= ⌈j/2⌉ for every prefix P_j of σ; and she gains
    it by picking S in σ-order.  Proof of sufficiency: let her pick s_1,
    s_2, ... in σ-order, and say the other agent first takes a good of S at
    its r-th pick.  She has taken s_1..s_r by then, so it takes s_{r+1}, and
    only if every good before s_{r+1} in σ is gone.  Those are s_1..s_r and
    at most r - 1 others, taken by its earlier picks, so s_{r+1} is at most
    the 2r-th good of σ; its deadline then allows at most r goods of S up
    to it, not r + 1.  So she gains S in her first |S| turns.

    Every gainable set, and by monotonicity every optimum, is thus gained
    by picks in σ-order, and the two-agent search tries only those: a
    state's candidates are the available goods after its last pick in σ
    (every available good when n != 2, and at the root), and its memo key
    holds them.  A state whose candidates run out while she has turns left
    scores its bundle alone: her further picks could only add value, and
    the set they would complete is itself tried in σ-order.  The lemma
    holds from every state, so a child searched with every available good
    as candidates gets its exact optimum.  The reconstruction searches each
    child so, in ascending good order, and takes the first whose value
    reaches the target: the least optimal pick, as in the exhaustive search.

    For additive, budget-additive and unit-demand oracles the two-agent
    bound, the smaller of v(B) plus `_scheduled_singles` over the
    candidates C and v(B ∪ C), is then the state's exact value: the greedy
    maximizes the sum of S over the deadline matroid, hence min(cap, ·) of
    it too, and the best single good is a candidate alone.  For an OXS
    oracle the state's exact value, the largest v(B ∪ S) over the sets S of
    C that meet the caps, is a maximum-weight matching whose goods meet a
    laminar matroid: one min-cost flow (`flow.DeadlineFlow`, which
    proves it), on a graph built once per search.  These four classes
    declare `deadline_bound_exact`, and the search returns the exact value
    without expanding the state, so a value-only search is one bound at the
    root, and the reconstruction one per pick it tries.  For tables, and
    for every class with three or more agents, v(B ∪ C), an oracle read on
    a new bundle, is made only when v(B) plus `_scheduled_singles` does not
    already prune.
    """
    if set(others) != set(range(inst.n)) - {agent}:
        raise ValueError("`others` must cover exactly the agents other than `agent`")
    m, n = inst.m, inst.n
    for i, r in others.items():
        if r.m != m:
            raise ValueError(f"ranking of agent {i + 1} covers {r.m} goods, instance has {m}")

    what = f"best_response for agent {agent + 1} of {n} on {m} goods"
    v = inst.valuations[agent]
    exact_bound = v.deadline_bound_exact and n == 2
    turns, deepest = len(range(agent, m, n)), sys.getrecursionlimit() // 2
    if not exact_bound and turns > deepest:
        # `solve` recurses once per turn, unless the bound answers every state; the
        # caller keeps the other half.
        raise SizeGuardError(f"size guard: {what} recurses {turns:,} turns deep, "
                             f"over the {deepest:,} the recursion limit allows")
    budget = valuations.WORK_BUDGET
    most = budget // m  # states stored, m children each
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
    # Two agents and an OXS agent: one min-cost flow gives a state's exact value, so no
    # state is expanded, and the search needs no pick order and no singleton bound.
    flow = v.deadline_flow(order_of[1 - agent]) if exact_bound and isinstance(v, OXS) else None
    subadditive = v.subadditive_by_construction and n > 1
    if flow is None:
        # (single-bit mask, its value) by decreasing value and then ascending good:
        # the search tries promising picks first, so the incumbent rises early.
        singles = sorted(((1 << g, value(1 << g)) for g in range(m)),
                         key=lambda single: -single[1])

        # Per good: the goods up to it in the other agent's order, so a pick leaves the
        # goods after it, `full ^ ahead`, as the next candidates; none when n != 2, so all
        # stay.
        ahead = dict.fromkeys((bit for bit, _ in singles), 0)
        if n == 2:
            seen = 0
            for g in order_of[1 - agent]:
                seen |= 1 << g
                ahead[1 << g] = seen
        children = [(bit, full ^ ahead[bit]) for bit, _ in singles]

        # One agent: v(bundle | avail) is exact.  Two: the other's order sets deadlines
        # (above).  More: every pick is free (`ahead` is 0), so the greedy takes the k
        # largest singles.
        if subadditive:
            goods = [(bit, single, ahead[bit]) for bit, single in singles if single]
            due = [(1 << (j + 1 >> 1)) - 1 for j in range(m + 1)] if n == 2 else [-1]

    def bound(avail: int, bundle: int, cand: int, step: int, need: int) -> int:
        # An upper bound on every completion of `bundle` with goods of `cand`.
        k = (m - step + n - 1) // n  # picks to go
        if flow is not None:
            exact_value = flow.value(avail, bundle, cand, k, budget)
            if exact_value is None:
                raise SizeGuardError(f"size guard: {what} took {flow.work:,} flow steps, one "
                                     f"per good whose edges a flow relaxed, over the budget "
                                     f"of {budget:,}")
            return exact_value
        if not subadditive:
            return value(bundle | cand)
        total = value(bundle) + _scheduled_singles(goods, due, avail, cand, k)
        if total <= need and not exact_bound:
            return total  # pruned without reading v(bundle | cand), a new bundle
        return min(total, value(bundle | cand))

    exact: dict[tuple[int, int, int], int] = {}
    upper: dict[tuple[int, int, int], int] = {}
    opened: set[tuple[int, int]] = set()

    def solve(avail: int, bundle: int, cand: int, step: int, need: int) -> int:
        # The state's exact value when it exceeds `need`, else an upper bound <= need.
        if step >= m or not cand:
            return value(bundle)
        key = (avail, bundle, cand)
        hit = exact.get(key)
        if hit is not None:
            return hit
        ub = upper.get(key)
        if ub is None:
            if len(upper) >= most:
                raise SizeGuardError(f"size guard: {what} stored {most:,} states "
                                     f"({most * m:,} steps) and needs another, "
                                     f"over the budget of {budget:,}")
            ub = upper[key] = bound(avail, bundle, cand, step, need)
        if ub <= need or exact_bound:
            return ub
        opened.add((avail, bundle))
        best = -1
        for bit, after in children:
            if cand & bit:
                next_avail, next_step = advance(avail ^ bit, step + 1)
                result = solve(next_avail, bundle | bit, next_avail & after, next_step,
                               max(need, best))
                if result > best:
                    best = result
        if best > need:
            exact[key] = best
        else:
            upper[key] = best
        return best

    try:
        avail0, step0 = advance(full, 0)
        best_value = solve(avail0, 0, avail0, step0, -1)  # values are >= 0, so this is exact
        if not ranking:
            return BestResponse(None, None, Fraction(best_value, v.scale), len(opened))

        # Reconstruct the lexicographically least optimal pick sequence: the first
        # child, in ascending good order, whose value with every available good as
        # candidates reaches the target.
        picks: list[int] = []
        avail, bundle, step, target = avail0, 0, step0, best_value
        while step < m:
            mask = avail
            while mask:
                bit = mask & -mask
                mask ^= bit
                next_avail, next_step = advance(avail ^ bit, step + 1)
                if solve(next_avail, bundle | bit, next_avail, next_step, target - 1) == target:
                    picks.append(bit.bit_length() - 1)
                    avail, bundle, step = next_avail, bundle | bit, next_step
                    break
            else:
                raise AssertionError("no pick reproduces the optimum")
    finally:
        del solve  # it refers to itself: free the search's tables now, not at the next gc pass

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
    already has it.  Best-response values are read from `responses` (see
    `ResponseMemo.score`): `best_response` runs only for a new (agent,
    others) key.  Pass one memo across calls on the same instance to share
    them; without one, a fresh memo serves this call alone.
    """
    if allocation is None:
        allocation = round_robin(inst, profile)
    if responses is None:
        responses = ResponseMemo(inst)
    orders = tuple(r.order for r in profile.rankings)
    masks = [sum(1 << g for g in bundle) for bundle in allocation.bundles]
    p, q = responses.score(orders, masks, lambda i: int(
        best_response(inst, i, profile.others(i), ranking=False).value * inst.valuations[i].scale))
    per_agent = []
    for i, (v, mask) in enumerate(zip(inst.valuations, masks)):
        current = Fraction(v.value_mask(mask), v.scale)
        best = Fraction(responses.best[i, orders[:i] + orders[i + 1:]], v.scale)
        ratio: Factor = UNBOUNDED if best == 0 else current / best
        per_agent.append(AgentEquilibrium(i, current, best, ratio))
    return EquilibriumReport(tuple(per_agent), Fraction(p, q))


class ScanRecord(NamedTuple):
    orders: Orders
    fairness: FairnessReport
    # pne_factor and fairness.ef1_factor as reduced int pairs (p, q, p', q'),
    # an unbounded ef1 factor as (1, 0): equal keys mean equal factors.
    key: tuple[int, int, int, int]

    @property
    def pne_factor(self) -> Fraction:
        return Fraction(self.key[0], self.key[1])


class ProfileEvaluation(NamedTuple):
    """One profile pushed through the whole pipeline."""

    allocation: Allocation
    fairness: FairnessReport
    equilibrium: EquilibriumReport | None
    equilibrium_skipped: str | None


def evaluate_profile(inst: Instance, profile: Profile) -> ProfileEvaluation:
    """Run the mechanism and score the outcome.

    The equilibrium report is skipped, with the guard's message as the
    reason, when a best-response search passes the work budget; the searches
    before it are done by then.
    """
    alloc = round_robin(inst, profile)
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
    import random  # only a sampled scan draws

    rng = random.Random(seed)
    return (tuple(tuple(rng.sample(range(m), m)) for _ in range(n)) for _ in range(samples))


def scan_one_profile(scan: ResponseMemo, orders: Orders) -> ScanRecord:
    """Evaluate a single scanned profile (equilibrium plus fairness).

    The profile is dealt once; best-response values and the fairness
    report come from `scan`.  Only a profile that needs a new best response
    builds a `Profile`, on which `pne_factor` fills `scan.best`.
    """
    inst = scan.inst
    _, masks = deal(orders, inst.m)

    def respond(i: int) -> int:
        # Routed through pne_factor for the benchmark's tracer, until a stats recorder
        # replaces it (ROADMAP items 2 and 3).
        pne_factor(inst, Profile(tuple(map(Ranking, orders))), responses=scan)
        return scan.best[i, orders[:i] + orders[i + 1:]]

    pne = scan.score(orders, masks, respond)
    bundles = tuple(masks)
    fairness = scan.reports.get(bundles)
    if fairness is None:
        report = ef1_factor(inst, Allocation(tuple(map(mask_to_bundle, bundles))))
        ef1 = report.ef1_factor
        fairness = scan.reports[bundles] = (
            report, (1, 0) if ef1 == UNBOUNDED else (ef1.numerator, ef1.denominator))
    return ScanRecord(orders, fairness[0], pne + fairness[1])


def profile_space_scan(
    inst: Instance, *, samples: int | None = None, seed: int = 0
) -> Iterator[ScanRecord]:
    """Evaluate profiles, exhaustively or sampled.

    Exhaustive mode (samples=None) walks all (m!)^n profiles in
    lexicographic order; sampled mode draws `samples` uniform profiles from
    a seeded generator.  Both are deterministic.

    The scan deals each profile once and keeps a `ResponseMemo` for its
    whole length: one best-response value per (agent, the other agents'
    orders) and one fairness report per allocation.  Both are pure
    functions of their keys, so the records equal those of unshared
    evaluation; nothing is kept per bundle, and no search's own memo table
    is kept.  A record's `pne_factor` is read off its key.  An oversized
    exhaustive scan is refused when called.
    """
    orders = profile_orders(inst, samples=samples, seed=seed)
    scan = ResponseMemo(inst)
    return (scan_one_profile(scan, profile) for profile in orders)


class BoundRule(NamedTuple):
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

    The rules are tried in that order, and each runs only the exhaustive
    class checks it needs, stopping at the first agent that fails one: at
    most four checks per agent.  The largest of their estimates is checked
    once, before the first check.
    """
    check_subset_work(inst.m, "class certification for the bound rule",
                      "is_additive", "is_submodular", "is_cancelable", "is_subadditive")
    agents = inst.valuations
    if inst.n == 2 and all(is_additive(v) for v in agents):
        return BoundRule("alpha/(2-alpha) [two additive agents]", lambda a: a / (2 - a))
    if all(is_cancelable(v) and is_subadditive(v) for v in agents):
        return BoundRule("alpha/2 [subadditive cancelable agents]", lambda a: a / 2)
    if all(is_submodular(v) for v in agents):
        if inst.n == 2:
            return BoundRule("alpha/2 [two submodular agents]", lambda a: a / 2)
        return BoundRule("alpha/3 [submodular agents]", lambda a: a / 3)
    raise NoApplicableBoundError(
        "instance fits no certified class (additive / submodular / subadditive cancelable)"
    )
