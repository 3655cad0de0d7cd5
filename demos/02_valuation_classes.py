#!/usr/bin/env python3
"""The five valuation oracles and their exhaustive class certificates.

Everything is exact rational arithmetic: a weight of 1/3 stays 1/3, and an
epsilon of 1/1000 never washes out.
"""

from fractions import Fraction

from rrfair import (
    OXS,
    Additive,
    BudgetAdditive,
    Table,
    UnitDemand,
    is_additive,
    is_cancelable,
    is_monotone,
    is_subadditive,
    is_submodular,
)

F = Fraction

oracles = {
    "additive": Additive([3, F(1, 3), 2]),
    "budget-additive (cap 4)": BudgetAdditive([3, 2, 2], cap=4),
    "unit-demand": UnitDemand([3, 5, 1]),
    "OXS (two goods share a slot)": OXS(3, [(0, "a", 2), (1, "a", 1), (2, "b", 1)]),
    "table": Table(2, [0, 2, 2, 3]),
}

for name, v in oracles.items():
    checks = [
        "monotone" if is_monotone(v) else "NOT monotone",
        "additive" if is_additive(v) else "not additive",
        "submodular" if is_submodular(v) else "not submodular",
        "cancelable" if is_cancelable(v) else "not cancelable",
        "subadditive" if is_subadditive(v) else "not subadditive",
    ]
    print(f"{name:30s} v(all) = {v.value(range(v.m))!s:6s} {', '.join(checks)}")

# A failed certificate comes with a concrete witness (S, T, g):
superadditive = Table(2, [0, 1, 1, 3])
check = is_submodular(superadditive)
print("\nsuper-additive pair table is submodular?", bool(check))
s, t, g = check.witness
v = superadditive
print(f"witness: adding good {g} to {sorted(s) or 'nothing'} gains "
      f"{v.value(s | {g}) - v.value(s)}, but to {sorted(t)} gains {v.value(t | {g}) - v.value(t)}")

# Cancelable means strict comparisons survive adding a common good.
# Budget-additive oracles always qualify; generic tables usually do not.
print("\nbudget-additive cancelable?", bool(is_cancelable(BudgetAdditive([3, 2], cap=4))))
