"""The round-robin picking mechanism and the pick traces of its runs.

Agents report strict preference rankings; in fixed priority order (agent 0
first) each agent repeatedly receives the top-ranked good still available.
The mechanism assumes the good count is a multiple of the agent count;
`pad_to_multiple` appends zero-marginal dummy goods so callers can meet it.

All indices here are zero-based: goods 0..m-1, agents 0..n-1, rounds
0..k-1.  Presentation layers render them 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .valuations import Instance


@dataclass(frozen=True)
class Ranking:
    """A strict total order over all goods; position 0 is the favorite."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.order)
        if sorted(self.order) != list(range(m)):
            raise ValueError(f"ranking {self.order} is not a permutation of 0..{m - 1}")

    @property
    def m(self) -> int:
        return len(self.order)

    def top(self, available: AbstractSet[int]) -> int:
        """Most preferred good among `available`."""
        for g in self.order:
            if g in available:
                return g
        raise ValueError("no ranked good is available")

    def extended(self, m_new: int) -> "Ranking":
        """Same order with goods m..m_new-1 appended at the end (ascending).

        Returns `self` when there is nothing to append.
        """
        m = len(self.order)
        if m_new < m:
            raise ValueError("cannot shrink a ranking")
        if m_new == m:
            return self
        return Ranking(self.order + tuple(range(m, m_new)))


@dataclass(frozen=True)
class Profile:
    """One ranking per agent; the tuple index is the picking priority."""

    rankings: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValueError("a profile needs at least one agent")
        m = self.rankings[0].m
        for i, r in enumerate(self.rankings):
            if r.m != m:
                raise ValueError(f"ranking {i} covers {r.m} goods, expected {m}")

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

    def extended(self, m_new: int) -> "Profile":
        """Every ranking extended to m_new goods; `self` when there is nothing to append."""
        if m_new == len(self.rankings[0].order):
            return self
        return Profile(tuple(r.extended(m_new) for r in self.rankings))

    def others(self, agent: int) -> dict[int, Ranking]:
        return {i: r for i, r in enumerate(self.rankings) if i != agent}


@dataclass(frozen=True)
class Allocation:
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


class PickStep(NamedTuple):
    round: int  # zero-based
    agent: int  # zero-based
    good: int


@dataclass(frozen=True)
class Trace:
    """The pick sequence of one mechanism run, in execution order.

    Pick k is made in round k // n by agent k mod n; `steps` spells that out.
    """

    picks: tuple[int, ...]
    n: int

    @property
    def steps(self) -> tuple[PickStep, ...]:
        n = self.n
        return tuple(PickStep(k // n, k % n, g) for k, g in enumerate(self.picks))

    @property
    def rounds(self) -> int:
        return len(self.picks) // self.n

    def prefix_sets(self, agent: int) -> tuple[frozenset[int], ...]:
        """S_r for r = 0..k-1: goods allocated before `agent`'s pick in round r.

        S_r collects the goods taken in the first r*n + agent steps.
        """
        return tuple(frozenset(self.picks[: r * self.n + agent]) for r in range(self.rounds))


def pad_to_multiple(inst: Instance) -> tuple[Instance, int]:
    """Append zero-marginal dummy goods until m is a multiple of n.

    Returns the (possibly identical) instance and the number of dummies, so
    reports can strip them.  Dummies take the highest indices and, under
    ascending-id tie-breaking, sort last among zero-marginal goods.
    """
    remainder = inst.m % inst.n
    if remainder == 0:
        return inst, 0
    extra = inst.n - remainder
    padded = Instance(
        n=inst.n,
        m=inst.m + extra,
        valuations=tuple(v.pad(extra) for v in inst.valuations),
        description=inst.description,
    )
    return padded, extra


def strip_padding(alloc: Allocation, m_real: int) -> Allocation:
    """Drop dummy goods (ids >= m_real) from every bundle."""
    return Allocation(tuple(frozenset(g for g in b if g < m_real) for b in alloc.bundles))


def deal(orders: Sequence[tuple[int, ...]], rounds: int) -> tuple[list[int], list[int]]:
    """The unchecked core of `round_robin`: the picks in order, and each agent's bundle mask.

    `orders` holds one order of all goods per agent; one bitmask tracks the
    goods taken so far.
    """
    taken = 0
    picks: list[int] = []
    masks = [0] * len(orders)
    agents = range(len(orders))
    for _ in range(rounds):
        for i in agents:
            for g in orders[i]:
                bit = 1 << g
                if not taken & bit:
                    break
            taken |= bit
            picks.append(g)
            masks[i] |= bit
    return picks, masks


def round_robin(inst: Instance, profile: Profile) -> tuple[Allocation, Trace]:
    """Run the mechanism on a reported profile.

    Requires m to be a multiple of n (use `pad_to_multiple` first).  In each
    of the m/n rounds, agents 0..n-1 in order receive the top good of their
    ranking among those still available.  Deterministic; the trace records
    the picks in order.
    """
    if inst.m % inst.n != 0:
        raise ValueError(f"m = {inst.m} is not a multiple of n = {inst.n}; pad first")
    if profile.n != inst.n:
        raise ValueError(f"profile has {profile.n} rankings, instance has {inst.n} agents")
    if profile.m != inst.m:
        raise ValueError(f"profile ranks {profile.m} goods, instance has {inst.m}")

    n = inst.n
    picks, _ = deal([r.order for r in profile.rankings], inst.m // n)
    return Allocation(tuple(frozenset(picks[i::n]) for i in range(n))), Trace(tuple(picks), n)


def ranking_from_picks(picks: Iterable[int], m: int) -> Ranking:
    """Ranking listing `picks` first (in order), then the rest ascending."""
    picks = tuple(picks)
    chosen = set(picks)
    rest = tuple(g for g in range(m) if g not in chosen)
    return Ranking(picks + rest)
