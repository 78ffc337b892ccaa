"""Pooled blood testing, both ways.

A population of 5000 is screened for a disease with 5% prevalence.  Testing
pools of k samples costs one test when the pool is clean and k+1 tests when
it is not.  How big should the pools be, and how much does pooling save?

Run: python demos/pooled_testing_walkthrough.py
"""

import numpy as np

from statlab import pooling

N, p = 5000, 0.05
SEED = 20070420
REPS = 10_000

# --- analytic track ---------------------------------------------------------
print(f"Population N={N}, prevalence p={p}")
print(f"Individual testing always costs {N} tests.\n")

print("Expected tests by candidate pool size (analytic formula):")
candidates = [k for k in range(2, 11) if N % k == 0]
for k in candidates:
    cost = pooling.expected_tests(k, N // k, p)
    print(f"  k={k:2d}: {cost:8.1f}")

best_k, best_cost = pooling.optimal_pool_size_integer(N, p, candidates)
opt = pooling.optimal_pool_size_continuous(p)
print(f"\nBest divisor of N: k={best_k} ({best_cost:.1f} tests)")
print(f"Unconstrained continuous optimum: k*={opt.k:.3f}")
print(f"Cross-check via bisection on the derivative: "
      f"{pooling.optimal_pool_size_root(p):.3f}")
print(f"Savings factor at k={best_k}: "
      f"{pooling.savings_ratio(best_k, p):.2f}x fewer tests than individual\n")

# --- simulation track -------------------------------------------------------
Z_BOUND = 3  # |gap| / SE past this is a disagreement, not Monte Carlo error
print(f"Simulated mean total tests ({REPS:,} replicates each):")
past_bound = []
for k in candidates:
    cost = pooling.simulate_pooling(N, k, p, REPS, SEED)
    analytic = pooling.expected_tests(k, N // k, p)
    se = cost.sd / np.sqrt(REPS)
    gap = cost.mean - analytic
    z = gap / se
    if not abs(z) <= Z_BOUND:
        past_bound.append(k)
    print(f"  k={k:2d}: {cost.mean:8.1f}  "
          f"(analytic {analytic:8.1f}, "
          f"gap {gap:+6.2f} ~ {z:+.1f} SE)")

if past_bound:
    print(f"\nThe two tracks disagree by more than {Z_BOUND} SE at k = "
          f"{', '.join(map(str, past_bound))}.")
else:
    print(f"\nThe two tracks agree within {Z_BOUND} SE (Monte Carlo error) "
          "at every pool size.")
