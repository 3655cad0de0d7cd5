"""The round-robin picking mechanism.

Agents report strict preference rankings; in fixed priority order (agent 0
first) each agent repeatedly receives the top-ranked good still available,
until the goods run out.  When m is not a multiple of n the last round is
partial: only agents 0..(m mod n)-1 pick in it.  The paper instead pads
with dummy goods that everyone values at zero and ranks last; each agent
then gets the same real goods, and the dummies fill the last round.

A run's record is its pick sequence, `deal`'s list of picked goods, each
as its bit 1 << g: pick k is made in round k // n by agent k mod n.

All indices here are zero-based: goods 0..m-1, agents 0..n-1, rounds
0..k-1.  Presentation layers render them 1-based.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .valuations import Frozen, Instance, mask_to_bundle


class Ranking(Frozen):
    """A strict total order over all goods; position 0 is the favorite."""

    __slots__ = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        m = len(order)
        if sorted(order) != list(range(m)):
            raise ValueError(f"ranking {order} is not a permutation of 0..{m - 1}")
        object.__setattr__(self, "order", order)

    @property
    def m(self) -> int:
        return len(self.order)


class Profile(Frozen):
    """One ranking per agent; the tuple index is the picking priority."""

    __slots__ = ("rankings",)

    def __init__(self, rankings: tuple[Ranking, ...]) -> None:
        if not rankings:
            raise ValueError("a profile needs at least one agent")
        m = rankings[0].m
        for i, r in enumerate(rankings):
            if r.m != m:
                raise ValueError(f"ranking {i} covers {r.m} goods, expected {m}")
        object.__setattr__(self, "rankings", rankings)

    @property
    def n(self) -> int:
        return len(self.rankings)

    @property
    def m(self) -> int:
        return self.rankings[0].m

    def replace(self, agent: int, ranking: Ranking) -> "Profile":
        rankings = list(self.rankings)
        rankings[agent] = ranking
        return Profile(tuple(rankings))

    def others(self, agent: int) -> dict[int, Ranking]:
        return {i: r for i, r in enumerate(self.rankings) if i != agent}


class Allocation(NamedTuple):
    """A partition of the goods into per-agent bundles."""

    bundles: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.bundles)

    def validate_partition(self, m: int) -> None:
        seen: set[int] = set()
        for bundle in self.bundles:
            overlap = seen & bundle
            if overlap:
                raise ValueError(f"goods {sorted(overlap)} allocated twice")
            seen |= bundle
        if seen != set(range(m)):
            missing = sorted(set(range(m)) - seen)
            raise ValueError(f"goods {missing} not allocated")


def bit_order(order: Iterable[int]) -> tuple[int, ...]:
    """An order of goods as `deal` takes it: each good g as its bit, 1 << g."""
    return tuple(1 << g for g in order)


def deal(orders: Sequence[Sequence[int]], m: int) -> tuple[list[int], list[int]]:
    """The unchecked core of `round_robin`: the picks in order, and each agent's bundle mask.

    `orders` holds one `bit_order` of all m goods per agent, and the picks
    are bits too; pick k goes to agent k mod n, and one bitmask tracks the
    goods taken so far.
    """
    n = len(orders)
    taken = 0
    picks: list[int] = []
    masks = [0] * n
    for step in range(m):
        i = step % n
        for bit in orders[i]:
            if not taken & bit:
                break
        taken |= bit
        picks.append(bit)
        masks[i] |= bit
    return picks, masks


def round_robin(inst: Instance, profile: Profile) -> Allocation:
    """Run the mechanism on a reported profile.

    In each round, agents 0..n-1 in order receive the top good of their
    ranking among those still available, until all m goods are taken.
    Deterministic; `deal` gives the picks in order.
    """
    if profile.n != inst.n:
        raise ValueError(f"profile has {profile.n} rankings, instance has {inst.n} agents")
    if profile.m != inst.m:
        raise ValueError(f"profile ranks {profile.m} goods, instance has {inst.m}")

    _, masks = deal([bit_order(r.order) for r in profile.rankings], inst.m)
    return Allocation(tuple(map(mask_to_bundle, masks)))


def check_deviator(inst: Instance, agent: int, others: Mapping[int, Ranking]) -> None:
    """Refuse an out-of-range `agent`, or `others` that are not every other agent's ranking."""
    if not 0 <= agent < inst.n:
        raise ValueError(f"agent {agent} is out of range 0..{inst.n - 1}")
    if set(others) != set(range(inst.n)) - {agent}:
        raise ValueError("`others` must cover exactly the agents other than `agent`")
    for i, r in others.items():
        if r.m != inst.m:
            raise ValueError(f"ranking of agent {i + 1} covers {r.m} goods, instance has {inst.m}")


def ranking_from_picks(picks: Iterable[int], m: int) -> Ranking:
    """Ranking listing `picks` first (in order), then the rest ascending."""
    picks = tuple(picks)
    chosen = set(picks)
    rest = tuple(g for g in range(m) if g not in chosen)
    return Ranking(picks + rest)
