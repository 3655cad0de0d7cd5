"""Constructive reporting strategies: truthful, bluff, and greedy responses.

All of them compare the oracles' scaled `value_mask` ints.  The bluff
order is the pick sequence of one greedy round-robin run: pick j is made
by agent j mod n, who takes the good of largest marginal value to her
pile.  The bluff profile has every agent report that one order.
`greedy_response` runs the same greedy for a single agent against fixed
reports of the others, and `deviation_renaming` reorders a deviation
bundle for round-by-round comparison against a greedy bundle.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .mechanism import Profile, Ranking, check_deviator, ranking_from_picks
from .valuations import Additive, Instance, Valuation, bundle_to_mask


def truthful_ranking(v: Valuation) -> Ranking:
    """Goods by descending singleton value; ties broken by ascending id.

    The strict order induced by singleton values.  For cancelable
    valuations this is a faithful report; for other classes it is still
    well-defined but carries no optimality claim.
    """
    return Ranking(tuple(sorted(range(v.m), key=lambda g: (-v.value_mask(1 << g), g))))


def truthful_profile(inst: Instance) -> Profile:
    return Profile(tuple(truthful_ranking(v) for v in inst.valuations))


def _greedy_picks(inst: Instance, others: Mapping[int, Ranking]) -> list[int]:
    """The pick sequence of round-robin in which the agents outside `others` pick greedily.

    Each agent in `others` takes her top available good.  Every other agent
    takes the available good of the largest marginal value to her pile;
    ties prefer the larger singleton value, then the smaller good id.  The
    pile is fixed within a turn, so v(pile + g) ranks the goods as the
    marginal value does.  For an additive agent the marginal value is the
    singleton value, so she takes the top available good of her
    `truthful_ranking`.
    """
    n = inst.n
    orders = {i: r.order for i, r in others.items()}
    for i, v in enumerate(inst.valuations):
        if i not in orders and isinstance(v, Additive):
            orders[i] = truthful_ranking(v).order
    taken = 0
    piles = [0] * n
    picks: list[int] = []
    for k in range(inst.m):
        i = k % n
        if i in orders:
            pick = next(g for g in orders[i] if not taken >> g & 1)
        else:
            v, pile = inst.valuations[i], piles[i]
            pick = max((g for g in range(inst.m) if not taken >> g & 1),
                       key=lambda g: (v.value_mask(pile | 1 << g), v.value_mask(1 << g), -g))
        taken |= 1 << pick
        piles[i] |= 1 << pick
        picks.append(pick)
    return picks


def bluff_order(inst: Instance) -> Ranking:
    """Greedy renaming of the goods: the picks when every agent picks greedily.

    At step j, agent j mod n takes the unallocated good with the largest
    marginal value to her current pile.  Ties prefer the larger singleton
    value, then the smaller good id.  The singleton refinement makes the
    order coincide, for cancelable valuations, with the order in which
    round-robin on the strict truthful profile hands out the goods.
    """
    return Ranking(tuple(_greedy_picks(inst, {})))


def bluff_profile(inst: Instance) -> Profile:
    """Every agent reports the bluff order."""
    return Profile((bluff_order(inst),) * inst.n)


def deviation_renaming(
    x_order: Sequence[int], y: Iterable[int], v: Valuation
) -> tuple[int, ...]:
    """Reorder the bundle `y` against the greedy-ordered bundle `x_order`.

    Filling positions from the back, position j receives the remaining good
    of minimum marginal value with respect to the first j-1 goods of
    `x_order`; on ties the highest id is taken, which leaves smaller ids
    earlier in the output.  The result is a permutation of `y` such that
    position j is the worst remaining fit for the greedy prefix of length
    j-1.
    """
    remaining = set(y)
    if len(remaining) > len(x_order):
        raise ValueError(f"renaming needs |y| <= |x|; got {len(remaining)} > {len(x_order)}")
    bundle_to_mask(remaining, v.m)  # rejects goods outside 0..m-1
    out: list[int] = []
    for j in range(len(remaining), 0, -1):
        prefix = bundle_to_mask(x_order[: j - 1], v.m)
        pick = min(remaining, key=lambda g: (v.value_mask(prefix | 1 << g), -g))
        remaining.remove(pick)
        out.append(pick)
    out.reverse()
    return tuple(out)


def greedy_response(inst: Instance, agent: int, others: Mapping[int, Ranking]) -> Ranking:
    """Greedy pick-by-marginal ranking for one agent against fixed reports.

    Simulates the mechanism with everyone else following `others`; whenever
    it is `agent`'s turn she takes the available good of maximum marginal
    value to her pile, with the tie-breaks of `bluff_order`.  Returns a
    ranking that lists her picks first, in pick order, completed with the
    remaining goods ascending; replaying the mechanism with it yields
    exactly the picked bundle.
    """
    check_deviator(inst, agent, others)
    return ranking_from_picks(_greedy_picks(inst, others)[agent::inst.n], inst.m)
