"""Which linear functionals are secretly the trace, and what the answer
says about the block structure of the algebra.

Run with: python3 demos/trace_characterizations.py
"""

import soclelab as sl

# On a single matrix block, five conditions single out scalar multiples
# of the trace: scalar-trace form, the tracial identity f(ab) = f(ba),
# a spectral-radius bound, and vanishing on nilpotents or square-zero
# elements. On direct sums with several blocks the first condition
# splits off: blockwise scalars are tracial without being scalar.
single = sl.AlgebraSpec((3,))
double = sl.AlgebraSpec((2, 2))

f = sl.trace_functional(single, alpha=2.5)
rep = sl.characterize(f)
print(f"2.5*Tr on one block: scalar {rep.is_scalar_trace} "
      f"(alpha={rep.scalar_trace_coefficient:.2f}), tracial {rep.is_tracial}, "
      f"bound constant {rep.spectral_bound.constant}")

# The first-block trace on a two-block algebra is the classic
# counterexample: tracial and radius-bounded, but not a scalar multiple.
g = sl.counterexample_functional(double)
rep = sl.characterize(g)
print(f"first-block trace on two blocks: tracial {rep.is_tracial}, "
      f"scalar {rep.is_scalar_trace}, bound constant {rep.spectral_bound.constant}")
(p1, v1), (p2, v2) = rep.constant_on_rank_one_projections.witness_pair
print(f"  rank-one projections disagree: f(p1)={v1:.3f} vs f(p2)={v2:.3f}")

# A dense random functional fails everything, with explicit witnesses.
h = sl.random_functional(double, sl.sampling.rng_for(3))
rep = sl.characterize(h)
w = rep.spectral_bound.witness
print(f"dense functional: tracial {rep.is_tracial}, square-zero vanishing "
      f"{rep.vanishes_on_square_zero.vanishes}")
print(f"  refuting witness has spectral radius {sl.spectrum(w).radius} "
      f"and f(w) = {rep.spectral_bound.witness_value:.3f}")

# The structural verdicts: single block <=> minimal two-sided ideal
# <=> every projection corner is one full matrix block.
for spec in (single, double):
    report = sl.verify_theorems(spec, trials=25, seed=9)
    print(f"{spec.block_sizes}: minimal ideal {report.socle_is_minimal_ideal}, "
          f"single block {report.socle_is_single_matrix_block}, "
          f"{report.functional_count} functionals checked")
