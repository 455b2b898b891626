"""Constructive commutator identities with re-verifiable certificates.

Run with: python3 demos/commutator_certificates.py
"""

import numpy as np

import soclelab as sl
from soclelab.sampling import random_traceless_matrix, rng_for

# Any traceless matrix is a short combination of unit commutators:
# off-diagonal entries via [e_ii, e_ij] = e_ij, the diagonal via the
# telescoping partial sums on [e_i,i+1, e_i+1,i].
m = np.array([[1.0, 7.0, 0.0], [0.0, 2.0, 0.0], [-4.0, 0.0, -3.0]])
cert = sl.commutator_decompose(m)
# The certificate is one table: a coefficient per term and the (row, col)
# of its left and right unit, all in block cert.block.
print(f"target trace {np.trace(m):+.1f}, {len(cert.coefficients)} certificate terms:")
for c, (a, b), (r, s) in zip(cert.coefficients, cert.left, cert.right):
    print(f"  {c:+.1f} * [e({a},{b}), e({r},{s})]")
print(f"reconstruction defect: {sl.verify_certificate(cert):.2e}")

# Certificates are data, not trust: verification rebuilds everything.
worst = 0.0
for i in range(100):
    n = 1 + i % 8
    c = sl.commutator_decompose(random_traceless_matrix(n, rng_for(17, i)))
    worst = max(worst, sl.verify_certificate(c))
print(f"worst defect over 100 random traceless matrices: {worst:.2e}")

# The difference of two rank-one projections is a single commutator of
# two rank-one operators built from the defining vectors.
pair = sl.rank_one_commutator(
    x=[1.0, 0.0], f=[1.0, 0.0], y=[1.0, 1.0], g=[0.5, 0.5]
)
print("P =", pair.P.real.tolist())
print("Q =", pair.Q.real.tolist())
print("S T - T S =", (pair.S @ pair.T - pair.T @ pair.S).real.tolist())
print(f"defect {pair.defect:.2e}")
