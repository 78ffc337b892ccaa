"""Sampling from an awkward density with Metropolis-Hastings.

The density c*(1+|y|)^3*exp(-y^4) has no tractable CDF, so direct inversion
is out.  We (1) pin down the normalizing constant by quadrature, then
(2) draw from the density with a random-walk MH chain and check the draws
against the truth.

Run: python demos/mh_sampling_walkthrough.py
"""

import numpy as np

from statlab.mh import (EDGES, MhConfig, binned_true_density, iter_chain,
                        normalizing_constant, run_chain, second_moment,
                        unnormalized)
from statlab.numerics import density_vs_reference, integrate_real_line

SEED = 20070420

# Step 1: the normalizing constant.  The density is even, so
# integrate_real_line integrates twice the density over the positive half line.
quad = integrate_real_line(unnormalized, tol=1e-10)
c = normalizing_constant()
print(f"integral of the unnormalized density: {quad.value:.6f} "
      f"(+-{quad.abs_error:.1e}, {quad.evaluations} evaluations)")
print(f"normalizing constant c = 1/{quad.value:.6f} = {c:.6f}\n")

# Step 2: run the chain with the standard configuration -- normal(x, 1)
# proposals, 100k burn-in, 100k kept samples, started at x=3.  run_chain
# reduces the kept states as they come (acceptances, histogram counts, mean
# and variance) and keeps none of them.
chain = run_chain(MhConfig(), root_seed=SEED)
print(f"chain of {chain.config.n_samples} samples "
      f"after {chain.config.burn_in} burn-in steps")
print(f"acceptance rate: {chain.acceptance_rate:.3f}")

# Step 3: does the sample look like the target?
target_var = second_moment()
print(f"sample mean     {chain.mean:+.4f}   (target 0, by symmetry)")
print(f"sample variance {chain.variance:.4f}   (target {target_var:.4f}, "
      f"by quadrature)")

# The states themselves come from iter_chain, a chunk at a time; the same
# seed gives the same chain.
samples = np.concatenate([states for states, _ in iter_chain(chain.config, SEED)])
print(f"fraction positive: {(samples > 0).mean():.4f} (target 0.5)")

# the chain's counts on EDGES (40 bins on [-3, 3]) against the truth's
# average over each bin
_, distance = density_vs_reference(chain.counts, chain.config.n_samples, EDGES,
                                   binned_true_density(EDGES))
print(f"\nsup histogram-vs-truth gap on [-3, 3], 40 bins: {distance:.4f}")

# crude terminal histogram against the bin-averaged truth
counts, edges = np.histogram(samples, bins=20, range=(-3, 3))
peak = counts.max()
print("\n      sample histogram")
for j, count in enumerate(counts):
    bar = "#" * int(40 * count / peak)
    print(f"{edges[j]:+5.2f} {bar}")
