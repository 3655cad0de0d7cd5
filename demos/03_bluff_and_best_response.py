#!/usr/bin/env python3
"""The bluff profile, exact best responses, and equilibrium factors.

On the bluff-tightness benchmark (an additive agent vs an OXS agent), the
bluff profile leaves agent 2 with value 1 while her best deviation earns
almost 2 -- the 1/2 equilibrium factor is essentially tight.  With 5
goods for 2 agents the last round is agent 1's alone.
"""

from rrfair import (
    best_response,
    bluff_order,
    bluff_profile,
    bluff_tightness_instance,
    pne_factor,
    round_robin,
)

inst = bluff_tightness_instance()  # eps1, eps2, eps3 = 1/100, 2/100, 3/100
print(f"instance: {inst.n} agents, {inst.m} goods")

# The bluff order is the sequence greedy-by-marginal picking would produce;
# the bluff profile has everyone report exactly that order.
print("bluff order:", list(bluff_order(inst).order))

profile = bluff_profile(inst)
allocation = round_robin(inst, profile)
for agent, bundle in enumerate(allocation.bundles):
    print(f"  agent {agent} gets {sorted(bundle)} worth {inst.valuations[agent].value(bundle)}")

# Exact best response of agent 2 against the bluff report of agent 1.  She
# is an OXS agent facing one other agent, so one min-cost flow values each
# search state exactly and the search expands none (0 states explored).
response = best_response(inst, 1, profile.others(1))
print("\nagent 2 best response:")
print("  value:", response.value)
print("  bundle:", sorted(response.bundle))
print("  ranking to report:", list(response.ranking.order))
print("  states explored:", response.explored_states)

report = pne_factor(inst, profile)
print("\nequilibrium factor of the bluff profile:", report.pne_factor)
for row in report.per_agent:
    print(f"  agent {row.agent}: current {row.current_value}, "
          f"best {row.best_response_value}, ratio {row.ratio}")
