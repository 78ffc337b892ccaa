"""How much do you lose by estimating sigma from the IQR?

For normal data the population IQR is 1.3489795 sigma, so IQR/1.3489795 is
a consistent scale estimator.  This script runs the replicated study that
compares its sampling distribution against the usual standard deviation at
n=100 and n=400.

Run: python demos/estimator_efficiency_walkthrough.py
"""

import math

from statlab.estimators import (
    EstimatorStudyPlan,
    run_estimator_study,
    sigma_hat_iqr,
    sigma_hat_s,
)
from statlab.numerics import summarize

SEED = 20070420

# Single-sample sanity check first
sample = [2.1, 3.9, 1.2, 5.5, 4.0, 2.8, 3.3, 4.7]
print(f"one sample of 8: sigma_hat_iqr={sigma_hat_iqr(sample):.3f}, "
      f"sigma_hat_s={sigma_hat_s(sample):.3f}\n")

plan = EstimatorStudyPlan()  # n in {100, 400}, sigma=pi, 1000 replicates
summaries = {key: summarize(vec) for key, vec in
             run_estimator_study(plan, root_seed=SEED).items()}

print(f"{plan.n_reps} replicates per cell, true sigma = pi = {math.pi:.5f}\n")
print(f"{'estimator':>10} {'n':>5} {'median':>8} {'IQR of estimates':>17}")
for (name, n), stats in sorted(summaries.items()):
    label = "IQR-based" if name == "iqr" else "std dev"
    print(f"{label:>10} {n:>5} {stats.median:8.4f} {stats.iqr:17.4f}")

iqr100 = summaries[("iqr", 100)].iqr
iqr400 = summaries[("iqr", 400)].iqr
print(f"\nBoth estimators center on pi; the standard deviation's sampling")
print(f"distribution is visibly tighter at both n -- the IQR route pays an")
print(f"efficiency price for its simplicity.")
print(f"\nSpread ratio for the IQR estimator at n=100 vs n=400: "
      f"{iqr100 / iqr400:.2f} (quadrupling n should halve the spread).")
