"""Tour of the core algebra layer: elements, spectra, classical oracles.

Run with: python3 demos/spectra_and_oracles.py
"""

import numpy as np

import soclelab as sl
from soclelab.sampling import random_element, rng_for

# The algebra M_2 + M_3: two independent matrix blocks.
spec = sl.AlgebraSpec((2, 3))
print(f"algebra blocks {spec.block_sizes}, linear dimension {spec.dimension}")

# An element carries one matrix per block.
a = sl.Element(spec, [np.diag([1.0, 2.0]), np.zeros((3, 3))])
rep = sl.spectrum(a)
print("spectral points (value, multiplicity):")
for value, mult in rep.points:
    print(f"  {value:+.3f}  x{mult}")
print(f"contains zero: {rep.contains_zero}, radius: {rep.radius}")

# The resolvent solves (z - a) r = 1 blockwise; residuals stay tiny.
z = 3.0 + 0.5j
r = sl.resolvent(a, z)
one = sl.identity(spec)
residual = sl.operator_norm((z * one - a) @ r - one)
print(f"resolvent residual at z={z}: {residual:.2e}")

# Classical oracles: SVD rank and the diagonal-sum trace.
print(f"classical rank {sl.classical_rank(a)}, classical trace {sl.classical_trace(a)}")

# The nonzero spectrum does not care about the order of a product.
rng = rng_for(0)
x, y = random_element(spec, rng), random_element(spec, rng)
left = np.sort_complex(sl.spectrum(x @ y).nonzero_values)
right = np.sort_complex(sl.spectrum(y @ x).nonzero_values)
print(f"product-order spectral drift: {np.max(np.abs(left - right)):.2e}")
