"""Rank from spectra alone: randomized probing against the SVD oracle.

The rank of a is the most distinct nonzero spectral values any product
x*a can show. Generic Gaussian probes attain that count, and the best
probe over a seeded batch is certified against the classical rank.

Run with: python3 demos/rank_probing.py
"""

import numpy as np

import soclelab as sl
from soclelab.sampling import random_low_rank_element, rng_for

spec = sl.AlgebraSpec((2, 3))

# A rank-3 element: rank 1 in the first block, rank 2 in the second.
a = random_low_rank_element(spec, rng_for(11), ranks=(1, 2))
report = sl.spectral_rank(a, probes=64, seed=0)
print(f"probed rank {report.rank}, oracle rank {report.oracle_rank}")
print(f"count histogram over probes: {report.achieved_counts}")

# The element itself shows fewer nonzero spectral values than its rank.
print(f"distinct nonzero spectral values of a itself: {sl.spectrum(a).num_nonzero}")

# Maximal elements are the ones already showing rank many values;
# diagonal matrices with distinct nonzero entries are the prototype.
b = sl.Element(spec, [np.diag([1.0, 2.0]), np.diag([3.0, 4.0, 0.0])])
print(f"diag(1,2)+diag(3,4,0) maximal: {sl.is_maximal_finite_rank(b)}")
print(f"identity maximal: {sl.is_maximal_finite_rank(sl.identity(spec))}")

# Rank is subadditive and never grows under multiplication.
c = random_low_rank_element(spec, rng_for(13))
ra = sl.spectral_rank(a, probes=32).rank
rc = sl.spectral_rank(c, probes=32).rank
rsum = sl.spectral_rank(a + c, probes=32).rank
print(f"rank(a)={ra}, rank(c)={rc}, rank(a+c)={rsum} <= {ra + rc}")
