"""Structural classification of the algebra and theorem-pattern verification.

A full matrix block is simple: for any nonzero block ``a``,
e_rs a e_tu = a_st e_ru, so one nonzero entry already yields every
matrix unit of the block. The two-sided ideal generated by an element
is therefore the direct sum of the blocks where it is nonzero, and its
dimension is read off in closed form. The block ideals are checked to
be exhaustive, and the structural verdicts — single matrix block,
minimal two-sided ideal, every projection corner a full matrix algebra
— are each computed by an independent route and required to coincide.

``verify_theorems`` runs the functional characterizations over sampled
functionals and asserts exactly the implication pattern the block count
predicts: one block makes all characterizations equivalent; two or more
blocks admit a tracial, radius-bounded functional that is not a scalar
multiple of the trace and is non-constant on rank-one projections.
Constancy on rank-one projections is equivalent to being a scalar
multiple of the trace regardless of the block count. A violated pattern
raises: it signals an implementation defect, never an acceptable result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, Element, block_ranks, corner_ranks, matrix_unit, zero
from .errors import NoCounterexampleError, TheoremViolationError
from .functionals import (
    CharacterizationReport,
    Functional,
    blockwise_scalar_functional,
    characterize,
    counterexample_functional,
    random_functional,
    trace_functional,
)
from .sampling import FUNCTIONALS, IDEAL, PROJECTIONS, rng_for
from .sampling import complex_gaussian, random_projection

# An idempotent's eigenvalues are 0 and 1; those within this distance of
# 1 count as 1.
_EIGENVALUE_SPLIT = 0.5


@dataclass(frozen=True)
class IdealReport:
    """Two-sided ideal generated by one element."""

    generator: Element
    ideal_dimension: int
    is_whole_algebra: bool
    supported_blocks: frozenset[int]


def generated_ideal(spec: AlgebraSpec, a: Element) -> IdealReport:
    """Span of {e a f} over matrix-unit pairs, in closed form.

    Full matrix blocks are simple (e_rs a e_tu = a_st e_ru), so the
    ideal is the direct sum of every block where the generator has a
    nonzero entry, and each such block contributes its full dimension
    n^2. The test is exact: no tolerance, and no overflow at any scale.
    """
    if a.spec != spec:
        raise ValueError("generator does not live on the given algebra")
    supported = frozenset(i for i, b in enumerate(a.blocks) if np.any(b))
    dim = sum(spec.block_sizes[i] ** 2 for i in supported)
    return IdealReport(
        generator=a,
        ideal_dimension=dim,
        is_whole_algebra=(dim == spec.dimension),
        supported_blocks=supported,
    )


def orthogonal_decomposition(spec: AlgebraSpec) -> list[IdealReport]:
    """The block ideals generated by the corner unit of each block.

    The ideals annihilate one another by construction: products are
    taken block by block, so elements supported on different blocks
    multiply to exactly zero. What is checked is that together they
    span the whole algebra.
    """
    reports = [
        generated_ideal(spec, matrix_unit(spec, i, 0, 0))
        for i in range(spec.num_blocks)
    ]
    total = sum(r.ideal_dimension for r in reports)
    if total != spec.dimension:
        raise TheoremViolationError(
            f"block ideals span dimension {total}, expected {spec.dimension}"
        )
    return reports


def is_socle_minimal_ideal(spec: AlgebraSpec, seed: int = 0) -> bool:
    """Whether every nonzero single-block generator spans the whole algebra.

    Cross-checked against the block count: the answer must be k = 1,
    and any mismatch raises.
    """
    rng = rng_for(seed, IDEAL)
    verdict = True
    for i, n in enumerate(spec.block_sizes):
        g = zero(spec)
        g.blocks[i][:] = complex_gaussian(rng, (n, n))
        verdict &= generated_ideal(spec, g).is_whole_algebra
    if verdict != (spec.num_blocks == 1):
        raise TheoremViolationError(
            "ideal-span verdict disagrees with the block count"
        )
    return verdict


def block_support(p: Element) -> frozenset[int]:
    """Indices of the blocks of nonzero rank under the one rank rule
    (:func:`~soclelab.algebra.block_ranks`), so a block of roundoff
    residue is not in the support."""
    return frozenset(i for i, r in enumerate(block_ranks(p)) if r)


def pAp_block_check(spec: AlgebraSpec, p: Element) -> bool:
    """Whether the corner p A p is a single full matrix block.

    Equivalent to the projection having nonzero rank on at most one
    block (:func:`~soclelab.algebra.corner_ranks`); a corner split across
    blocks contains rank-one subprojections p', q' with p' x q' = 0 for
    every x (see :func:`annihilating_pair_witness`). The zero projection
    gives the zero corner and counts as a (trivial) single block.
    """
    return sum(r > 0 for r in corner_ranks(p)) <= 1


def rank_one_subprojections(p: Element) -> list[Element]:
    """Split an idempotent into rank-one subprojections via eigenvectors.

    An idempotent is diagonalizable, so pairing its right eigenvectors
    for eigenvalue 1 with the matching rows of the inverse eigenvector
    matrix yields rank-one idempotents q with p q = q p = q.
    """
    out = []
    for i, b in enumerate(p.blocks):
        vals, vecs = np.linalg.eig(b)
        winv = np.linalg.inv(vecs)
        for j, v in enumerate(vals):
            if abs(v - 1.0) < _EIGENVALUE_SPLIT:
                q = zero(p.spec)
                q.blocks[i][:] = np.outer(vecs[:, j], winv[j, :])
                out.append(q)
    return out


def annihilating_pair_witness(
    spec: AlgebraSpec, p: Element
) -> tuple[Element, Element] | None:
    """Rank-one subprojections p', q' of p with p' x q' = 0 for all x.

    Exists exactly when p is supported on at least two blocks
    (:func:`block_support`). Each rank-one subprojection lies in one
    block, so the pair is the first subprojection of each of the first
    two supported blocks; it is re-verifiable by scanning x over the
    matrix units. None also when a supported block has no eigenvalue
    near 1, that is, when p is not an idempotent there.
    """
    blocks = sorted(block_support(p))[:2]
    if len(blocks) < 2:
        return None
    subs = rank_one_subprojections(p)
    pair = [next((q for q in subs if np.any(q.blocks[i])), None) for i in blocks]
    if pair[0] is None or pair[1] is None:
        return None
    return pair[0], pair[1]


@dataclass(frozen=True)
class TheoremVerdict:
    """One verified claim with its observed outcome and witnesses."""

    claim: str
    holds: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    """Full structural and functional verification of one algebra."""

    spec: AlgebraSpec
    trials: int
    seed: int
    socle_is_single_matrix_block: bool
    socle_is_minimal_ideal: bool
    verdicts: dict[str, TheoremVerdict]
    functional_count: int
    counterexample: CharacterizationReport | None


def _sample_functionals(
    spec: AlgebraSpec, rng: np.random.Generator
) -> list[tuple[str, Functional, complex | None]]:
    """One trial's worth of functionals with their planted structure."""
    alpha = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
    out = [("scalar", trace_functional(spec, alpha), alpha)]
    # Distinct moduli force the per-block scalars at least 1 apart, so
    # a multi-block sample is never accidentally a scalar multiple.
    alphas = [
        complex((1.5 + i) * np.exp(2j * np.pi * rng.uniform()))
        for i in range(spec.num_blocks)
    ]
    out.append(("blockwise", blockwise_scalar_functional(spec, alphas), None))
    out.append(("dense", random_functional(spec, rng), None))
    return out


def verify_theorems(
    spec: AlgebraSpec, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Verify the predicted characterization pattern for one algebra.

    Per trial: sample planted functionals, characterize each, and check
    every predicted implication. Raises TheoremViolationError on any
    mismatch. The structural booleans (single block, minimal ideal,
    all corners full blocks) are computed by independent routes and
    must agree with the block count. Trial t samples its functionals from
    ``rng_for(seed, FUNCTIONALS, t)`` and its projection from
    ``rng_for(seed, PROJECTIONS, t)``, so no rejection loop of one family
    shifts the draws of another.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    k = spec.num_blocks
    single_block = k == 1
    minimal = is_socle_minimal_ideal(spec, seed=seed)

    constancy_failures: list[str] = []
    equivalence_failures: list[str] = []
    alpha_errors: list[float] = []
    corner_all_single = True
    counterexample_report: CharacterizationReport | None = None
    n_funcs = 0

    for t in range(trials):
        for kind, f, planted in _sample_functionals(spec, rng_for(seed, FUNCTIONALS, t)):
            n_funcs += 1
            rep = characterize(f, seed=seed)
            conditions = [
                rep.is_scalar_trace,
                rep.tracial,
                rep.bound.constant is not None,
                rep.nilpotent.vanishes,
                rep.square_zero.vanishes,
            ]
            # Constancy on rank-one projections tracks the scalar-trace
            # property for every algebra.
            if rep.rank_one_constancy.constant != rep.is_scalar_trace:
                constancy_failures.append(
                    f"trial {t} {kind}: constancy {rep.rank_one_constancy.constant} "
                    f"vs scalar-trace {rep.is_scalar_trace}"
                )
            # Tracial, bounded, and the two vanishing conditions always
            # track one another in this finite-dimensional model.
            if len({conditions[1], conditions[2], conditions[3], conditions[4]}) != 1:
                equivalence_failures.append(
                    f"trial {t} {kind}: tracial/bound/nilpotent/square-zero "
                    f"split as {conditions[1:]}"
                )
            if single_block:
                if len(set(conditions)) != 1:
                    equivalence_failures.append(
                        f"trial {t} {kind}: single-block conditions split "
                        f"as {conditions}"
                    )
            else:
                if kind == "blockwise" and rep.is_scalar_trace:
                    equivalence_failures.append(
                        f"trial {t}: distinct block scalars scored as scalar trace"
                    )
            if kind == "scalar":
                recovered = rep.scalar_trace_coefficient
                if recovered is None:
                    equivalence_failures.append(
                        f"trial {t}: planted scalar multiple not recognized"
                    )
                else:
                    alpha_errors.append(abs(recovered - planted))
                    value = rep.rank_one_constancy.value
                    if value is not None:
                        alpha_errors.append(abs(value - planted))

        # Corner check on a sampled projection per trial
        p = random_projection(spec, rng_for(seed, PROJECTIONS, t))
        corner_all_single &= pAp_block_check(spec, p)

    if k >= 2:
        # and, for several blocks, on one deliberate cross-block projection
        cross = matrix_unit(spec, 0, 0, 0) + matrix_unit(spec, 1, 0, 0)
        corner_all_single &= pAp_block_check(spec, cross)
        f = counterexample_functional(spec)
        counterexample_report = characterize(f, seed=seed)
        rep = counterexample_report
        ok = (
            rep.tracial
            and rep.bound.constant is not None
            and not rep.is_scalar_trace
            and not rep.rank_one_constancy.constant
            and rep.rank_one_constancy.witnesses is not None
        )
        if not ok:
            raise TheoremViolationError(
                "first-block-trace functional did not show the predicted "
                "tracial-but-not-scalar pattern",
                witness=rep,
            )
    else:
        try:
            counterexample_functional(spec)
            raise TheoremViolationError(
                "a counterexample functional was produced on a single block"
            )
        except NoCounterexampleError:
            pass

    if constancy_failures:
        raise TheoremViolationError(
            "rank-one-projection constancy diverged from the scalar-trace "
            "verdict: " + "; ".join(constancy_failures[:3])
        )
    if equivalence_failures:
        raise TheoremViolationError(
            "characterization equivalences violated: "
            + "; ".join(equivalence_failures[:3])
        )
    if not (single_block == minimal == corner_all_single):
        raise TheoremViolationError(
            f"structural verdicts disagree: single-block {single_block}, "
            f"minimal ideal {minimal}, corners {corner_all_single}"
        )

    verdicts = {
        "scalar_trace_equivalence": TheoremVerdict(
            claim="scalar-trace, tracial, and radius-bound conditions are "
            "equivalent exactly when the algebra is one matrix block",
            holds=True,
            details={"single_block": single_block},
        ),
        "rank_one_constancy": TheoremVerdict(
            claim="constancy on rank-one projections is equivalent to being "
            "a scalar multiple of the trace",
            holds=True,
            details={"functionals_checked": n_funcs},
        ),
        "minimal_ideal": TheoremVerdict(
            claim="scalar-trace/tracial equivalence holds exactly when the "
            "algebra is a minimal two-sided ideal",
            holds=True,
            details={"minimal_ideal": minimal},
        ),
        "corner_blocks": TheoremVerdict(
            claim="scalar-trace/tracial equivalence holds exactly when every "
            "projection corner is a single full matrix block",
            holds=True,
            details={"all_corners_single_block": corner_all_single},
        ),
        "nilpotent_vanishing": TheoremVerdict(
            claim="on a minimal-ideal algebra, vanishing on nilpotents, "
            "vanishing on square-zero elements, the rank-radius bound, and "
            "scalar-trace form are equivalent",
            holds=True,
            details={"alpha_max_error": max(alpha_errors) if alpha_errors else 0.0},
        ),
    }
    return VerificationReport(
        spec=spec,
        trials=trials,
        seed=seed,
        socle_is_single_matrix_block=corner_all_single,
        socle_is_minimal_ideal=minimal,
        verdicts=verdicts,
        functional_count=n_funcs,
        counterexample=counterexample_report,
    )
