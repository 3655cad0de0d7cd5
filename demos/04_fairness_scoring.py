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

# Threshold checks from one agent's point of view: agent 1 is alpha-EF1
# towards every other agent when each of its pair ratios reaches alpha.
ratios = [r for (i, _), r in report.pair_ratios.items() if i == 1]
half = Fraction(1, 2)
print("\nis the allocation 1/2-EF1 for agent 1?", all(r >= half for r in ratios))
print("is it (25/49 + tiny)-EF1 for agent 1?",
      all(r >= Fraction(25, 49) + Fraction(1, 10**9) for r in ratios))
