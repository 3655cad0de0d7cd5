"""Exhaustive class-membership checks of valuation oracles.

Monotonicity, additivity, submodularity, cancelability and subadditivity,
each decided over all 2^m subsets on the oracle's `value_mask` ints:
scaling by a positive constant keeps every comparison, so the verdicts
and witnesses are those of the rational values.  The checks tabulate an
oracle once and share one pairwise pass on it; each refuses first, under
its own name, when its estimated work exceeds `WORK_BUDGET`.  `Instance`
imports this module when it meets a `Table`, to refuse a non-monotone one.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate
from operator import le
from typing import NamedTuple

from .valuations import Bundle, Valuation, check_subset_work, mask_to_bundle


class ClassCheck(NamedTuple):
    """Outcome of an exhaustive class-membership check; true when the class holds.

    When submodularity or cancelability fails, `witness` is the first
    violating (S, T, g) triple in (S bitmask, T bitmask, g) order, for
    reproducible reporting; the other checks name no witness.
    """

    holds: bool
    witness: tuple[Bundle, Bundle, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _integer_table(v: Valuation, check: str) -> tuple[int, ...]:
    """All 2^m values `scale * v(S)`, indexed by bitmask, tabulated once per oracle.

    Every test the class checks make (comparisons, differences, two-term sums)
    is invariant under scaling by a positive constant, so the checks give the
    verdicts and witnesses of the Fraction table, exactly, on plain ints.
    The work of `check` on v's m goods is refused first, under its name, on
    every call, tabulated or not.
    """
    check_subset_work(v.m, check, check)
    if v._table is None:  # through value_mask, even for a table: perfbench counts its calls
        v._table = tuple(map(v.value_mask, range(1 << v.m)))
    return v._table


def is_monotone(v: Valuation) -> ClassCheck:
    """Exhaustive: every single-good marginal is non-negative, compared in aligned slices."""
    vals = _integer_table(v, "is_monotone")
    size = 1 << v.m
    for g in range(v.m):
        step, span = 1 << g, 2 << g
        if step * span < size:  # fewer offsets than blocks: every span-th set from r, r + step
            pairs = ((vals[r::span], vals[r + step::span]) for r in range(step))
        else:
            pairs = ((vals[b:b + step], vals[b + step:b + span]) for b in range(0, size, span))
        if not all(all(map(le, lower, upper)) for lower, upper in pairs):
            return ClassCheck(False)
    return ClassCheck(True)


def is_additive(v: Valuation) -> ClassCheck:
    """Exhaustive: v(S) equals the sum of singleton values over S."""
    vals = _integer_table(v, "is_additive")
    for mask in range(1, 1 << v.m):
        bit = mask & -mask
        if vals[mask] != vals[bit] + vals[mask ^ bit]:
            return ClassCheck(False)
    return ClassCheck(True)


def _pairwise_violators(vals: Sequence[int], m: int) -> set[int]:
    """The goods of every pair g < h with v(S+g) - v(S) < v(S+g+h) - v(S+h) for some S outside both.

    v is submodular exactly when the set is empty: v(g|S) >= v(g|T) for S
    subset of T follows by adding T's extra goods to S one at a time.  A
    violation (S, T, g) fails one of those one-good steps, and that step is
    a failing pair (g, h), so only goods in the set carry violations.  The
    test takes m²·2^m steps.
    """
    found: set[int] = set()
    for g in range(m):
        bit = 1 << g
        for h in range(g + 1, m):
            other = 1 << h
            both = bit | other
            if any(vals[s | bit] - vals[s] < vals[s | both] - vals[s | other]
                   for s in range(1 << m) if not s & both):
                found.update((g, h))
    return found


def _violators(v: Valuation, vals: Sequence[int]) -> frozenset[int]:
    """`_pairwise_violators` of v's table `vals`: one pass per oracle, shared by the checks."""
    if v._violators is None:
        v._violators = frozenset(_pairwise_violators(vals, v.m))
    return v._violators


def is_submodular(v: Valuation) -> ClassCheck:
    """Exhaustive diminishing-returns check: v(g|S) >= v(g|T) for S subset of T, g outside T.

    Decided by `_violators`.  For each of its goods g, the gains
    d(S) = v(S+g) - v(S) get their superset maximum U(S), the largest d(T)
    over the supersets T of S without g; S starts a violation for g exactly
    when d(S) < U(S).  The least such S over every g is the witness's S, and
    its T and g are the first in (T mask, g) order.  About m²·2^m steps.
    """
    vals = _integer_table(v, "is_submodular")
    m, size = v.m, 1 << v.m
    first = size
    for g in _violators(v, vals):
        bit = 1 << g
        gain = [vals[s | bit] - vals[s] for s in range(size)]  # 0 on the sets holding g
        top = gain[:]
        for h in range(m):
            step = 1 << h
            if h != g:  # top[s] = max(top[s], top[s | step]) for every s without h
                for low in range(0, size, 2 * step):
                    high = low + step
                    top[low:high] = map(max, top[low:high], top[high:high + step])
        first = next((s for s in range(first) if not s & bit and gain[s] < top[s]), first)
    if first == size:
        return ClassCheck(True)
    gain = [vals[first | 1 << g] - vals[first] for g in range(m)]
    t_mask, g = next((t, g) for t in range(first, size) if t & first == first
                     for g in range(m) if not t >> g & 1 and gain[g] < vals[t | 1 << g] - vals[t])
    return ClassCheck(False, (mask_to_bundle(first), mask_to_bundle(t_mask), g))


def is_cancelable(v: Valuation) -> ClassCheck:
    """Exhaustive: v(S+g) > v(T+g) implies v(S) > v(T), for all S, T and outside g.

    For each g the sets without g are sorted by (v(T), -v(T+g)).  g carries
    no violation exactly when v(T+g) never decreases along that order: then
    v(S) < v(T) gives v(S+g) <= v(T+g) and sets of equal value have equal
    v(S+g).  Otherwise S violates for g exactly when v(S+g) exceeds the least
    v(T+g) over the sets from v(S)'s first place in the order onward.  The
    least such S over every g is the witness's S, and its T and g are the
    first in (T mask, g) order.  About m²·2^m steps.
    """
    vals = _integer_table(v, "is_cancelable")
    m, size = v.m, 1 << v.m
    first = size
    for g in range(m):
        bit = 1 << g
        order = sorted((vals[t], -vals[t | bit]) for t in range(size) if not t & bit)
        if not any(a[1] < b[1] for a, b in zip(order, order[1:])):
            continue
        keys = [key for key, _ in order]
        low = list(accumulate((-neg for _, neg in reversed(order)), min))[::-1]
        first = next((s for s in range(first) if not s & bit
                      and vals[s | bit] > low[bisect_left(keys, vals[s])]), first)
    if first == size:
        return ClassCheck(True)
    vs = vals[first]
    t_mask, g = next((t, g) for t in range(size) if vs <= vals[t]
                     for g in range(m) if not (first | t) >> g & 1
                     and vals[first | 1 << g] > vals[t | 1 << g])
    return ClassCheck(False, (mask_to_bundle(first), mask_to_bundle(t_mask), g))


def is_subadditive(v: Valuation) -> ClassCheck:
    """Exhaustive: v(S | T) <= v(S) + v(T) over all subset pairs.

    A non-negative submodular v is subadditive, because
    v(S | T) <= v(S) + v(T) - v(S & T) <= v(S) + v(T); so the check holds
    when no value is negative and `_violators` finds none.
    Otherwise every pair is tested; the condition is symmetric in S and T,
    so each unordered pair once (T from S upward).
    """
    vals = _integer_table(v, "is_subadditive")
    if min(vals) >= 0 and not _violators(v, vals):
        return ClassCheck(True)
    for s_mask in range(1 << v.m):
        vs = vals[s_mask]
        for t_mask in range(s_mask, 1 << v.m):
            if vals[s_mask | t_mask] > vs + vals[t_mask]:
                return ClassCheck(False)
    return ClassCheck(True)


# The class checks `certify` reports, by printed name, in order.  Each returns
# a `ClassCheck`; a failing `is_submodular` or `is_cancelable` names a witness.
CLASS_CHECKS = {
    "monotone": is_monotone,
    "additive": is_additive,
    "submodular": is_submodular,
    "cancelable": is_cancelable,
    "subadditive": is_subadditive,
}
