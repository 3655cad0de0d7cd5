"""Exact envy-freeness scoring of allocations under the true valuations.

Factors are reported as raw Fractions, not clamped to 1, so tightness
constructions can be checked exactly.  Pairs whose comparison imposes no
constraint (empty bundle, or zero denominator) score `UNBOUNDED`, a bare
infinity sentinel that compares correctly against any Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from .mechanism import Allocation
from .valuations import Instance

UNBOUNDED = math.inf

Factor = Fraction | float  # a Fraction, or UNBOUNDED


class FairnessReport(NamedTuple):
    """Per-ordered-pair envy ratios and the allocation-wide factors.

    `pair_ratios[(i, j)]` is v_i(A_i) / min over g in A_j of v_i(A_j - g):
    the largest factor at which i does not envy j up to one good.
    `ef1_factor` is the minimum over pairs, `ef_factor` the analogous
    minimum without good removal, and `worst_pair` names the (i, j,
    removed good) attaining `ef1_factor` (None when everything is
    unbounded).
    """

    pair_ratios: Mapping[tuple[int, int], Factor]
    ef1_factor: Factor
    ef_factor: Factor
    worst_pair: tuple[int, int, int] | None


def ef_factor(inst: Instance, alloc: Allocation) -> Factor:
    """Largest a with v_i(A_i) >= a * v_i(A_j) for every ordered pair.

    Pairs with v_i(A_j) = 0 impose no constraint; with no constrained pair
    at all (for example n = 1) the factor is UNBOUNDED.
    """
    masks = _masks(inst, alloc)
    worst: Factor = UNBOUNDED
    for i, vi in enumerate(inst.valuations):
        own = vi.value_mask(masks[i])  # on v_i's scale, which cancels in each ratio
        for j, mask in enumerate(masks):
            if j == i:
                continue
            envy = vi.value_mask(mask)
            if envy:
                worst = min(worst, Fraction(own, envy))
    return worst


def ef1_factor(inst: Instance, alloc: Allocation) -> FairnessReport:
    """Exact envy-up-to-one-good report for an allocation.

    The binding denominator for a pair (i, j) is the minimum of
    v_i(A_j - g) over g in A_j: the existential over the removed good makes
    the cheapest remainder decisive, and ties go to the least good.  An
    empty A_j or a zero remainder leaves the pair unbounded.  Factors may
    exceed 1.
    """
    masks = _masks(inst, alloc)
    ratios: dict[tuple[int, int], Factor] = {}
    worst: Factor = UNBOUNDED
    worst_pair: tuple[int, int, int] | None = None
    for i, vi in enumerate(inst.valuations):
        own = vi.value_mask(masks[i])  # on v_i's scale, which cancels in each ratio
        for j, mask in enumerate(masks):
            if j == i:
                continue
            remainder, removed = min(
                ((vi.value_mask(mask ^ (1 << g)), g) for g in alloc.bundles[j]),
                default=(0, None))
            if remainder == 0:
                ratios[i, j] = UNBOUNDED
                continue
            ratio = ratios[i, j] = Fraction(own, remainder)
            if ratio < worst:
                worst = ratio
                worst_pair = (i, j, removed)
    return FairnessReport(
        pair_ratios=ratios, ef1_factor=worst, ef_factor=ef_factor(inst, alloc),
        worst_pair=worst_pair,
    )


def _masks(inst: Instance, alloc: Allocation) -> list[int]:
    """The bundles as bitmasks, once the allocation is checked to partition the goods."""
    if alloc.n != inst.n:
        raise ValueError(f"allocation has {alloc.n} bundles, instance has {inst.n} agents")
    alloc.validate_partition(inst.m)
    return [sum(1 << g for g in bundle) for bundle in alloc.bundles]
