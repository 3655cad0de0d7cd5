"""Shared test helpers: independent oracles and small random generators.

The oracles here deliberately avoid the library's search/matching code
paths: matchings are enumerated edge by edge, best responses maximize
over all m! explicit ranking deviations, and the reference class checks
compare the oracle's Fraction values directly, with no integer scaling;
`eager_bound_rule_name` picks a bound rule from all of them at once, and
`reference_fairness` scores envy from Fraction values, removal by removal.
`reference_best_response` is the exhaustive Fraction pick-tree search the
branch-and-bound search replaced, kept to compare bundles, rankings and
state counts against; `search_states` bounds the states either search
stores, and guards the reference up front.  `dummy_padded` builds the
paper's padded instance, which the partial-round mechanism must agree with.
`prefix_sets` reads the paper's prefix sets S_r off a pick sequence, and
`deal_goods` runs `deal` on orders of goods and gives its picks as goods.
`reference_as_fraction` reads a document's rational with `Fraction(str)`, and
`reference_table` reads a table entry by entry through it, with no fast path.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from typing import Mapping

from rrfair.equilibria import BestResponse, NoApplicableBoundError
from rrfair.mechanism import (
    Allocation,
    Profile,
    Ranking,
    bit_order,
    deal,
    ranking_from_picks,
    round_robin,
)
from rrfair.valuations import ClassCheck, Instance, Table, Valuation, check_work, int_digit_limit


def value_table(v: Valuation) -> list[Fraction]:
    """All 2^m subset values v(S) as Fractions, indexed by bitmask."""
    return [Fraction(v.value_mask(mask), v.scale) for mask in range(1 << v.m)]


def deal_goods(orders, m: int) -> tuple[list[int], list[int]]:
    """`deal` on one order of goods per agent: the picks as goods, and the bundle masks."""
    picks, masks = deal([bit_order(order) for order in orders], m)
    return [bit.bit_length() - 1 for bit in picks], masks


def prefix_sets(picks, n: int, agent: int) -> tuple[frozenset[int], ...]:
    """S_r for each round r in which `agent` picks: the goods of the first r*n + agent picks."""
    return tuple(frozenset(picks[:k]) for k in range(agent, len(picks), n))


def dummy_padded(inst: Instance) -> Instance:
    """The paper's padding: dummy goods m..kn-1, worth nothing, so that n divides kn.

    Each agent becomes a `Table` on the kn goods with v'(S) = v(S ∩ real).
    """
    m = -(-inst.m // inst.n) * inst.n
    real = (1 << inst.m) - 1
    return Instance(inst.n, m, tuple(
        Table(m, [Fraction(v.value_mask(mask & real), v.scale) for mask in range(1 << m)])
        for v in inst.valuations), inst.description)


def with_dummies_last(ranking: Ranking, m: int) -> Ranking:
    """`ranking` followed by the goods it lacks up to m, ascending: how others rank dummies."""
    return Ranking(ranking.order + tuple(range(ranking.m, m)))


def brute_force_matching_value(edges: list[tuple[int, object, Fraction]]) -> Fraction:
    """Max matching weight by explicit enumeration over edge subsets."""
    best = Fraction(0)

    def extend(index: int, used_left: set, used_right: set, total: Fraction) -> None:
        nonlocal best
        if total > best:
            best = total
        if index == len(edges):
            return
        left, right, weight = edges[index]
        extend(index + 1, used_left, used_right, total)
        if left not in used_left and right not in used_right:
            extend(index + 1, used_left | {left}, used_right | {right}, total + weight)

    extend(0, set(), set(), Fraction(0))
    return best


def brute_force_best_response(
    inst: Instance, agent: int, others: dict[int, Ranking]
) -> Fraction:
    """Exact best-response value by trying every one of the m! rankings."""
    v = inst.valuations[agent]
    best = Fraction(0)
    base = [others.get(i) for i in range(inst.n)]
    for perm in itertools.permutations(range(inst.m)):
        rankings = list(base)
        rankings[agent] = Ranking(perm)
        alloc = round_robin(inst, Profile(tuple(rankings)))
        best = max(best, v.value(alloc.bundles[agent]))
    return best


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


def reference_best_response(inst: Instance, agent: int, others: Mapping[int, Ranking]) -> BestResponse:
    """Maximize `agent`'s true value over all ranking deviations, exhaustively.

    The memoized Fraction search that `best_response` replaced: it expands
    every reachable (available, bundle) state exactly once.

    Requires the search estimate within the work budget.  Ties in value
    resolve toward the lexicographically least pick sequence.
    """
    if set(others) != set(range(inst.n)) - {agent}:
        raise ValueError("`others` must cover exactly the agents other than `agent`")
    check_work(inst.m * search_states(inst.m, inst.n, agent),
               f"reference_best_response on {inst.m} goods")

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

    memo: dict[tuple[int, int], Fraction] = {}
    expanded = 0

    def solve(avail: int, bundle: int, step: int) -> Fraction:
        nonlocal expanded
        if step >= m:
            return Fraction(v.value_mask(bundle), v.scale)
        key = (avail, bundle)
        hit = memo.get(key)
        if hit is not None:
            return hit
        expanded += 1
        best: Fraction | None = None
        mask = avail
        while mask:
            bit = mask & -mask
            mask ^= bit
            next_avail, next_step = advance(avail ^ bit, step + 1)
            value = solve(next_avail, bundle | bit, next_step)
            if best is None or value > best:
                best = value
        assert best is not None
        memo[key] = best
        return best

    avail0, step0 = advance(full, 0)
    best_value = solve(avail0, 0, step0)

    # Reconstruct the lexicographically least optimal pick sequence.
    picks: list[int] = []
    avail, bundle, step = avail0, 0, step0
    while step < m:
        target = solve(avail, bundle, step)
        mask = avail
        while mask:
            bit = mask & -mask
            mask ^= bit
            next_avail, next_step = advance(avail ^ bit, step + 1)
            if solve(next_avail, bundle | bit, next_step) == target:
                picks.append(bit.bit_length() - 1)
                avail, bundle, step = next_avail, bundle | bit, next_step
                break
        else:
            raise AssertionError("no pick reproduces the memoized optimum")

    return BestResponse(
        ranking=ranking_from_picks(picks, m),
        bundle=frozenset(picks),
        value=best_value,
        explored_states=expanded,
    )


def enumerate_reachable_bundles(
    inst: Instance, agent: int, others: dict[int, Ranking]
) -> set[frozenset[int]]:
    """All bundles `agent` can end up with, over every possible deviation."""
    m, n = inst.m, inst.n
    out: set[frozenset[int]] = set()

    def advance(available: frozenset[int], step: int) -> tuple[frozenset[int], int]:
        while step < m and step % n != agent:
            available = available - {next(g for g in others[step % n].order if g in available)}
            step += 1
        return available, step

    def explore(available: frozenset[int], bundle: frozenset[int], step: int) -> None:
        if step >= m:
            out.add(bundle)
            return
        for g in sorted(available):
            nxt, nxt_step = advance(available - {g}, step + 1)
            explore(nxt, bundle | {g}, nxt_step)

    start, step0 = advance(frozenset(range(m)), 0)
    explore(start, frozenset(), step0)
    return out


def _goods(mask: int) -> list[int]:
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


GRAMMAR = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+)")  # a document's rationals


def _within_digit_limit(value: Fraction) -> Fraction:
    """`value`, refused as a document refuses a numerator or denominator past the digit limit."""
    limit = int_digit_limit()
    for what, part in (("numerator", value.numerator), ("denominator", value.denominator)):
        if limit and abs(part) >= 10**limit:
            raise ValueError(f"{what} has more than {limit:,} digits, "
                             f"more than a document can hold")
    return value


def reference_as_fraction(text: str) -> Fraction:
    """`Fraction(str)` of a string behind the grammar, the digit limit and their messages."""
    if not GRAMMAR.fullmatch(text):
        raise ValueError(f"malformed rational {text!r} "
                         f"(expected an integer, p/q or a plain decimal)")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r} ({exc})") from None
    return _within_digit_limit(value)


def reference_table(values: list) -> tuple[tuple[Fraction, ...], int, tuple[int, ...]]:
    """A `Table`'s (values, scale, _ints) from its entries, or the refusal it raises.

    Each entry is read on its own as a non-negative Fraction: a string by
    `reference_as_fraction`, an int or a Fraction as it is; a refused entry k
    raises with the prefix "values[k]: ".  The scale is the least common
    denominator, found after the empty set's entry is checked to be 0.
    """
    read = []
    for k, x in enumerate(values):
        try:
            if isinstance(x, (bool, float)):
                raise TypeError(f"only exact rationals are accepted, got {x!r}")
            if isinstance(x, str):
                value = reference_as_fraction(x)
            elif isinstance(x, (int, Fraction)):
                value = _within_digit_limit(Fraction(x))
            else:
                raise TypeError(f"expected a rational string, got {type(x).__name__}")
            if value < 0:
                raise ValueError(f"negative value {value}")
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"values[{k}]: {exc}") from None
        read.append(value)
    if read[0] != 0:
        raise ValueError("table is not normalized, value on the empty set must be 0")
    scale = math.lcm(*(x.denominator for x in read))
    return tuple(read), scale, tuple(x.numerator * scale // x.denominator for x in read)


def reference_is_monotone(v: Valuation) -> bool:
    """Slow Fraction check: every single-good marginal is non-negative."""
    vals = value_table(v)
    for mask in range(1 << v.m):
        for g in range(v.m):
            bit = 1 << g
            if not mask & bit and vals[mask | bit] < vals[mask]:
                return False
    return True


def reference_is_additive(v: Valuation) -> bool:
    """Slow Fraction check: v(S) equals the sum of singleton values over S."""
    vals = value_table(v)
    for mask in range(1, 1 << v.m):
        bit = mask & -mask
        if vals[mask] != vals[bit] + vals[mask ^ bit]:
            return False
    return True


def reference_is_submodular(v: Valuation) -> ClassCheck:
    """Slow Fraction check with the first (S mask, T mask, g) violation as witness."""
    vals = value_table(v)
    full = (1 << v.m) - 1
    for s_mask in range(1 << v.m):
        for t_mask in range(1 << v.m):
            if s_mask & t_mask != s_mask:
                continue
            for g in _goods(full ^ t_mask):
                bit = 1 << g
                if vals[s_mask | bit] - vals[s_mask] < vals[t_mask | bit] - vals[t_mask]:
                    witness = (frozenset(_goods(s_mask)), frozenset(_goods(t_mask)), g)
                    return ClassCheck(False, witness)
    return ClassCheck(True)


def reference_is_cancelable(v: Valuation) -> ClassCheck:
    """Slow Fraction check: v(S+g) > v(T+g) implies v(S) > v(T); first violation as witness."""
    vals = value_table(v)
    full = (1 << v.m) - 1
    for s_mask in range(1 << v.m):
        for t_mask in range(1 << v.m):
            if vals[s_mask] > vals[t_mask]:
                continue
            for g in _goods(full ^ (s_mask | t_mask)):
                bit = 1 << g
                if vals[s_mask | bit] > vals[t_mask | bit]:
                    witness = (frozenset(_goods(s_mask)), frozenset(_goods(t_mask)), g)
                    return ClassCheck(False, witness)
    return ClassCheck(True)


def reference_is_subadditive(v: Valuation) -> bool:
    """Slow Fraction check: v(S | T) <= v(S) + v(T) over all subset pairs."""
    vals = value_table(v)
    for s_mask in range(1 << v.m):
        for t_mask in range(1 << v.m):
            if vals[s_mask | t_mask] > vals[s_mask] + vals[t_mask]:
                return False
    return True


def eager_bound_rule_name(inst: Instance) -> str:
    """The bound rule's name from every reference check run on every agent first.

    The eager order that `applicable_bound_rule` replaced by short-circuiting
    rules; raises `NoApplicableBoundError` when no rule applies.
    """
    verdicts = [(reference_is_additive(v), reference_is_submodular(v),
                 reference_is_cancelable(v) and reference_is_subadditive(v))
                for v in inst.valuations]
    additive, submodular, subadditive_cancelable = (all(column) for column in zip(*verdicts))
    if additive and inst.n == 2:
        return "alpha/(2-alpha) [two additive agents]"
    if subadditive_cancelable:
        return "alpha/2 [subadditive cancelable agents]"
    if submodular and inst.n == 2:
        return "alpha/2 [two submodular agents]"
    if submodular:
        return "alpha/3 [submodular agents]"
    raise NoApplicableBoundError("no reference rule applies")


def submodular_by_extension_bound(v: Valuation) -> bool:
    """Alternative submodularity characterization (Nemhauser-Wolsey):

    v(T) <= v(S) + sum over g in T - S of v(g|S), for every pair S, T.
    Agrees with `is_submodular` on monotone oracles; used to cross-check it.
    """
    vals = value_table(v)
    for s_mask in range(1 << v.m):
        vs = vals[s_mask]
        for t_mask in range(1 << v.m):
            bound = vs
            for g in _goods(t_mask & ~s_mask):
                bound += vals[s_mask | (1 << g)] - vs
            if vals[t_mask] > bound:
                return False
    return True


def reference_fairness(inst: Instance, alloc: Allocation) -> tuple:
    """(pair ratios, EF1 factor, EF factor, worst pair) from Fraction values, removal by removal.

    An unbounded pair or factor is `math.inf`; a pair removes the least good
    among those leaving the least remainder, and the worst pair is the first
    (i, j) in order whose ratio is the EF1 factor.
    """
    ratios: dict[tuple[int, int], Fraction | float] = {}
    removed: dict[tuple[int, int], int] = {}
    ef = math.inf
    for i, v in enumerate(inst.valuations):
        own = v.value(alloc.bundles[i])
        for j, bundle in enumerate(alloc.bundles):
            if j == i:
                continue
            if v.value(bundle) > 0:
                ef = min(ef, own / v.value(bundle))
            remainders = {g: v.value(bundle - {g}) for g in bundle}
            least = min(remainders.values(), default=0)
            ratios[i, j] = own / least if least else math.inf
            removed[i, j] = min((g for g, r in remainders.items() if r == least), default=None)
    ef1 = min(ratios.values(), default=math.inf)
    worst = next(((i, j, removed[i, j]) for (i, j), r in ratios.items()
                  if r == ef1 and r != math.inf), None)
    return ratios, ef1, ef, worst


def random_ranking(rng: random.Random, m: int) -> Ranking:
    return Ranking(tuple(rng.sample(range(m), m)))


def random_profile(rng: random.Random, n: int, m: int) -> Profile:
    return Profile(tuple(random_ranking(rng, m) for _ in range(n)))


def random_monotone_table_values(rng: random.Random, m: int, hi: int = 6) -> list[Fraction]:
    """Random monotone normalized table: v(S) = max over T subset of S of r(T)."""
    raw = [Fraction(rng.randint(0, hi)) for _ in range(1 << m)]
    raw[0] = Fraction(0)
    values = list(raw)
    for mask in range(1, 1 << m):
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            if values[mask ^ bit] > values[mask]:
                values[mask] = values[mask ^ bit]
    return values


def assert_unbounded(x) -> None:
    assert x == float("inf"), f"expected unbounded, got {x}"
