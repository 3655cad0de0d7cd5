#!/usr/bin/env python3
"""Scoring allocations for envy-freeness up to one good (EF1).

A pair ratio below 1 means the agent envies even after the best single
good is removed from the other bundle; the allocation-wide factor is the
worst pair.  Ratios are exact and may exceed 1.
"""

from fractions import Fraction

from rrfair import (
    bluff_profile,
    bluff_tightness_instance,
    ef1_factor,
    ef1_from_perspective,
    round_robin,
)

inst = bluff_tightness_instance()
allocation = round_robin(inst, bluff_profile(inst))

report = ef1_factor(inst, allocation)
print("pair ratios (agent i towards agent j):")
for (i, j), ratio in sorted(report.pair_ratios.items()):
    print(f"  {i} -> {j}: {ratio}")

print("\nef1 factor:", report.ef1_factor)
print("plain envy factor:", report.ef_factor)
i, j, g = report.worst_pair
print(f"binding pair: agent {i} towards agent {j}, removing good {g}")

# Threshold checks from one agent's point of view:
half = Fraction(1, 2)
print("\nis the allocation 1/2-EF1 for agent 1?",
      ef1_from_perspective(inst, allocation, 1, half))
print("is it (25/49 + tiny)-EF1 for agent 1?",
      ef1_from_perspective(inst, allocation, 1, Fraction(25, 49) + Fraction(1, 10**9)))
