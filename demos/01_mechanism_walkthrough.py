#!/usr/bin/env python3
"""Walk through one round-robin execution, step by step.

Two agents report rankings over four goods; the mechanism alternates
between them, handing each the top-ranked good still on the table.
"""

from fractions import Fraction

from rrfair import Additive, Instance, Profile, Ranking, round_robin
from rrfair.mechanism import deal

inst = Instance(
    n=2,
    m=4,
    valuations=(
        Additive([5, 3, 2, 1]),
        Additive([4, 4, 1, Fraction(1, 2)]),
    ),
)

# Agent 1 ranks by her true weights; agent 2 leads with her second-best good.
profile = Profile((Ranking((0, 1, 2, 3)), Ranking((1, 0, 2, 3))))

allocation = round_robin(inst, profile)

# `deal` is the mechanism's core: pick k is made in round k // n by agent k % n.
picks, _ = deal([r.order for r in profile.rankings], inst.m)
print("pick sequence (round, agent, good are zero-based):")
for k, good in enumerate(picks):
    print(f"  round {k // inst.n}: agent {k % inst.n} takes good {good}")

print("\nfinal bundles and their true worth:")
for agent, bundle in enumerate(allocation.bundles):
    value = inst.valuations[agent].value(bundle)
    print(f"  agent {agent}: {sorted(bundle)} worth {value}")

# The picks also give, per agent, which goods were gone right before each
# of her picks -- the raw material for the drift arguments used when
# comparing runs against unilateral deviations.
print("\ngoods allocated before each of agent 1's picks:", [
    sorted(picks[:k]) for k in range(1, len(picks), inst.n)
])
