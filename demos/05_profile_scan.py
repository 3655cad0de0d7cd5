#!/usr/bin/env python3
"""Exhaustively scanning a profile space.

The no-pne benchmark has two agents with submodular table valuations over
four goods.  Scanning all 24 x 24 = 576 reported profiles shows that no
profile is better than a 3/4-approximate equilibrium (one always is), and
that every profile's allocation stays within its certified fairness bound.
"""

from collections import Counter

from rrfair import applicable_bound_rule, no_pne_instance, profile_space_scan

inst = no_pne_instance()
rule = applicable_bound_rule(inst)
print("certified bound rule:", rule.name)

histogram = Counter()
violations = 0
for record in profile_space_scan(inst):
    alpha = record.pne_factor
    histogram[alpha] += 1
    if record.fairness.ef1_factor < rule(alpha):
        violations += 1

print("\nequilibrium-factor histogram over all 576 profiles:")
for alpha in sorted(histogram):
    print(f"  {str(alpha):>5s}: {histogram[alpha]:3d} profiles")

print("\nbest factor any profile attains:", max(histogram))
print("fairness-bound violations:", violations)

# Sampled scans cover instances whose profile space is too big to walk;
# they are deterministic per seed.
sample = list(profile_space_scan(inst, samples=50, seed=7))
print("\nsampled 50 profiles; min factor seen:",
      min(r.pne_factor for r in sample))
