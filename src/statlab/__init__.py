"""statlab: analytic and simulation-based answers to four classic statistics problems.

Each problem is solved twice -- once with closed forms, quadrature, or 1-D
optimization, and once with seeded Monte Carlo or MCMC.  The tests and the
benchmark check that the two tracks agree; a run reports both tracks' numbers
and gives no verdict.
"""

__version__ = "0.1.0"

DEFAULT_SEED = 20070420
