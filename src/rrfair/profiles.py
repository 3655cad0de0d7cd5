"""Constructive reporting strategies: truthful, bluff, and greedy responses.

The bluff order is the sequence in which goods would be picked if the
agents, in round-robin priority, each greedily took the good of largest
marginal value to them; the bluff profile has every agent report that one
order.  `greedy_response` runs the analogous greedy for a single agent
against fixed reports of the others, and `deviation_renaming` reorders a
deviation bundle for round-by-round comparison against a greedy bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .mechanism import Profile, Ranking, ranking_from_picks
from .valuations import Instance, Valuation


def truthful_ranking(v: Valuation) -> Ranking:
    """Goods by descending singleton value; ties broken by ascending id.

    The strict order induced by singleton values.  For cancelable
    valuations this is a faithful report; for other classes it is still
    well-defined but carries no optimality claim.
    """
    return Ranking(tuple(sorted(range(v.m), key=lambda g: (-v.singleton(g), g))))


def truthful_profile(inst: Instance) -> Profile:
    return Profile(tuple(truthful_ranking(v) for v in inst.valuations))


@dataclass(frozen=True)
class BluffOrder:
    """The greedy pick sequence and its provenance.

    Position j of `ranking.order` was chosen by agent j mod n; `bundles`
    is the allocation the greedy accumulates, which equals the round-robin
    outcome under the bluff profile.
    """

    ranking: Ranking
    picked_by: tuple[int, ...]
    bundles: tuple[frozenset[int], ...]


def bluff_order(inst: Instance) -> BluffOrder:
    """Greedy renaming of the goods.

    At step j, agent j mod n takes the unallocated good with the largest
    marginal value to her current pile.  Ties prefer the larger singleton
    value, then the smaller good id.  The singleton refinement makes the
    order coincide, for cancelable valuations, with the order in which
    round-robin on the strict truthful profile hands out the goods.
    """
    piles: list[set[int]] = [set() for _ in range(inst.n)]
    remaining = set(range(inst.m))
    order: list[int] = []
    picked_by: list[int] = []
    for j in range(inst.m):
        agent = j % inst.n
        v = inst.valuations[agent]
        best: int | None = None
        best_key: tuple[Fraction, Fraction] | None = None
        for g in sorted(remaining):
            key = (v.marginal(g, piles[agent]), v.singleton(g))
            if best_key is None or key > best_key:
                best, best_key = g, key
        assert best is not None
        piles[agent].add(best)
        remaining.remove(best)
        order.append(best)
        picked_by.append(agent)
    return BluffOrder(
        ranking=Ranking(tuple(order)),
        picked_by=tuple(picked_by),
        bundles=tuple(frozenset(p) for p in piles),
    )


def bluff_profile(inst: Instance) -> Profile:
    """Every agent reports the bluff order."""
    ranking = bluff_order(inst).ranking
    return Profile(tuple(ranking for _ in range(inst.n)))


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
    out: list[int] = []
    for j in range(len(remaining), 0, -1):
        prefix = x_order[: j - 1]
        pick = min(remaining, key=lambda g: (v.marginal(g, prefix), -g))
        remaining.remove(pick)
        out.append(pick)
    out.reverse()
    return tuple(out)


def greedy_response(inst: Instance, agent: int, others: Mapping[int, Ranking]) -> Ranking:
    """Greedy pick-by-marginal ranking for one agent against fixed reports.

    Simulates the mechanism with everyone else following `others`; whenever
    it is `agent`'s turn she takes the available good of maximum marginal
    value to her pile (ties to the smallest id).  Returns a ranking that
    lists her picks first, in pick order, completed with the remaining
    goods ascending; replaying the mechanism with it yields exactly the
    picked bundle.
    """
    if set(others) != set(range(inst.n)) - {agent}:
        raise ValueError("`others` must cover exactly the agents other than `agent`")
    v = inst.valuations[agent]
    available = set(range(inst.m))
    pile: set[int] = set()
    picks: list[int] = []
    for j in range(inst.m):
        turn = j % inst.n
        if turn == agent:
            pick = min(available, key=lambda g: (-v.marginal(g, pile), g))
            pile.add(pick)
            picks.append(pick)
            available.remove(pick)
        else:
            available.remove(others[turn].top(available))
    return ranking_from_picks(picks, inst.m)
