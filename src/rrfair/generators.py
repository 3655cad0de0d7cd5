"""Seeded random instances of one valuation class each.

`generate` draws each agent's oracle from a `GeneratorSpec`'s seed, so the
same spec gives the same instance on every run; each class holds by
construction.  Only `generate` imports `random`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .valuations import (
    OXS,
    Additive,
    BudgetAdditive,
    Frozen,
    Instance,
    Table,
    UnitDemand,
    Valuation,
    check_work,
)

if TYPE_CHECKING:
    from random import Random


GENERATOR_CLASSES = ("additive", "budget_additive", "unit_demand", "oxs", "submodular_table")


class GeneratorSpec(Frozen):
    """Recipe for a seeded random instance of one valuation class."""

    __slots__ = ("valuation_class", "n", "m", "seed", "weight_range")

    def __init__(self, valuation_class: str, n: int, m: int, seed: int,
                 weight_range: tuple[int, int] = (0, 8)) -> None:
        if valuation_class not in GENERATOR_CLASSES:
            raise ValueError(f"unknown class {valuation_class!r}; known: {GENERATOR_CLASSES}")
        if n < 1 or m < 1:
            raise ValueError("need at least one agent and one good")
        lo, hi = weight_range
        if not 0 <= lo <= hi:
            raise ValueError(f"weight range {weight_range} must satisfy 0 <= lo <= hi")
        object.__setattr__(self, "valuation_class", valuation_class)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "weight_range", weight_range)


def generate(spec: GeneratorSpec) -> Instance:
    """Deterministic instance for a spec; its class holds by construction, unchecked.

    Additive, budget-additive, and unit-demand oracles are cancelable and
    subadditive by algebra, OXS oracles submodular by construction, and
    `submodular_table` oracles are weighted-coverage functions tabulated
    over all subsets, which are monotone submodular by construction too.
    """
    agents = f" for {spec.n} agents" if spec.n > 1 else ""
    check_work(spec.n * spec.m, f"generating {spec.m} goods{agents}")
    if spec.valuation_class == "submodular_table":  # per agent, 2^m subsets each covering ~3m
        check_work(spec.n * (3 * spec.m << spec.m),
                   f"generating a submodular_table on {spec.m} goods{agents}")
    import random  # only generators draw; a document load never needs it

    rng = random.Random(spec.seed)
    lo, hi = spec.weight_range
    valuations: list[Valuation] = []
    for _ in range(spec.n):
        valuations.append(_generate_valuation(spec, rng, lo, hi))
    return Instance(
        n=spec.n,
        m=spec.m,
        valuations=tuple(valuations),
        description=f"generated: {spec.valuation_class}, seed {spec.seed}",
    )


def _generate_valuation(spec: GeneratorSpec, rng: Random, lo: int, hi: int) -> Valuation:
    m = spec.m
    cls = spec.valuation_class
    if cls == "additive":
        return Additive([Fraction(rng.randint(lo, hi)) for _ in range(m)])
    if cls == "unit_demand":
        return UnitDemand([Fraction(rng.randint(lo, hi)) for _ in range(m)])
    if cls == "budget_additive":
        weights = [Fraction(rng.randint(lo, hi)) for _ in range(m)]
        total = int(sum(weights))
        cap = Fraction(rng.randint(max(hi, 1), max(total, hi, 1)))
        return BudgetAdditive(weights, cap)
    if cls == "oxs":
        slots = rng.randint(max(1, m // 2), m)
        edges = []
        for g in range(m):
            for _ in range(rng.randint(1, 2)):
                edges.append((g, rng.randrange(slots), Fraction(rng.randint(lo, hi))))
        return OXS(m, edges)
    assert cls == "submodular_table"
    return _coverage_table(rng, m, lo, hi)


def _coverage_table(rng: Random, m: int, lo: int, hi: int) -> Table:
    """Weighted-coverage oracle tabulated over all subsets (monotone submodular)."""
    universe = max(2, m + rng.randint(0, m))
    element_weight = [rng.randint(max(lo, 1), max(hi, 1)) for _ in range(universe)]
    covers = []
    for _ in range(m):
        size = rng.randint(1, max(1, universe // 2))
        cover = 0
        for element in rng.sample(range(universe), size):
            cover |= 1 << element
        covers.append(cover)
    values = []
    for mask in range(1 << m):
        covered = 0
        for g in range(m):
            if mask >> g & 1:
                covered |= covers[g]
        values.append(sum(element_weight[u] for u in range(universe) if covered >> u & 1))
    return Table(m, values)
