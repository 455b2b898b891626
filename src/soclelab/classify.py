"""Structural classification of the algebra and theorem-pattern verification.

A full matrix block is simple: for any nonzero block ``a``,
e_rs a e_tu = a_st e_ru, so one nonzero entry already yields every
matrix unit of the block. The two-sided ideal generated by an element
is therefore the direct sum of the blocks where it is nonzero, and its
dimension is read off in closed form. The block ideals are checked to
be exhaustive, and the structural verdicts — single matrix block,
minimal two-sided ideal, every projection corner a full matrix algebra
— are each computed by an independent route and required to coincide.
A corner p A p split across two blocks is no full matrix algebra: its
rank-one subprojections p', q', one in each, give p' x q' = 0 for all x.
A function of an element reads the layout from the element; only
``orthogonal_decomposition``, ``is_socle_minimal_ideal`` and
``verify_theorems`` take an ``AlgebraSpec``, which is their whole input.

``verify_theorems`` states the theorem as the set of verdict patterns a
functional may show. Its six verdicts (scalar multiple of the trace,
tracial, radius-bounded, vanishing on nilpotents and on square-zero
elements, constant on rank-one projections) are all true or all false;
two or more blocks add one pattern, tracial but not a scalar multiple,
which the first-block trace shows. The first functional or structural
verdict outside the prediction raises: it signals an implementation
defect, never an acceptable result. Every trial is sampled first, and
the sampled functionals and the first-block trace are characterized as
one stack; the predictions are then checked in trial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraSpec, Element, corner_ranks, identity, matrix_unit, zero
from .errors import NoCounterexampleError, SocleLabError, TheoremViolationError
from .functionals import (
    CharacterizationReport,
    Functional,
    _characterize_stack,
    blockwise_scalar_functional,
    counterexample_functional,
    random_functional,
    trace_functional,
)
from .sampling import FUNCTIONALS, IDEAL, complex_gaussian, rng_for


@dataclass(frozen=True)
class IdealReport:
    """Two-sided ideal generated by one element."""

    generator: Element
    ideal_dimension: int
    is_whole_algebra: bool
    supported_blocks: frozenset[int]


def generated_ideal(a: Element) -> IdealReport:
    """Span of {e a f} over matrix-unit pairs in the algebra of a, in
    closed form.

    Full matrix blocks are simple (e_rs a e_tu = a_st e_ru), so the
    ideal is the direct sum of every block where the generator has a
    nonzero entry, and each such block contributes its full dimension
    n^2. The test is exact: no tolerance, and no overflow at any scale.
    """
    supported = frozenset(i for i, b in enumerate(a.blocks) if np.any(b))
    dim = sum(a.spec.block_sizes[i] ** 2 for i in supported)
    return IdealReport(
        generator=a,
        ideal_dimension=dim,
        is_whole_algebra=(dim == a.spec.dimension),
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
        generated_ideal(matrix_unit(spec, i, 0, 0))
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
        verdict &= generated_ideal(g).is_whole_algebra
    if verdict != (spec.num_blocks == 1):
        raise TheoremViolationError(
            "ideal-span verdict disagrees with the block count"
        )
    return verdict


def pAp_block_check(p: Element) -> bool:
    """Whether the corner p A p is a single full matrix block: whether p
    has nonzero rank (:func:`~soclelab.algebra.corner_ranks`) on at most
    one block. Split across two, it has rank-one subprojections p', q'
    with p' x q' = 0 for every x. The zero projection gives the zero
    corner and counts as a (trivial) single block."""
    return sum(r > 0 for r in corner_ranks(p)) <= 1


@dataclass(frozen=True)
class TheoremVerdict:
    """One verified claim with its observed outcome and witnesses."""

    claim: str
    holds: bool
    details: dict = field(default_factory=dict)


class CharacterizedFunctional(NamedTuple):
    """A functional with its characterization: the counterexample of a
    verification, and the witness of a failed functional prediction."""

    functional: Functional
    characterization: CharacterizationReport


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
    counterexample: CharacterizedFunctional | None


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


# On one block the six verdicts coincide; two or more blocks add this
# one pattern, shown by the first-block trace.
_TRACIAL_NOT_SCALAR = (False, True, True, True, True, False)


def _verdicts(rep: CharacterizationReport) -> tuple[bool, ...]:
    """Scalar trace, tracial, radius-bounded, vanishing on nilpotents and
    on square-zero elements, constant on rank-one projections."""
    return (
        rep.is_scalar_trace,
        rep.is_tracial,
        rep.spectral_bound.bounded,
        rep.vanishes_on_nilpotents.vanishes,
        rep.vanishes_on_square_zero.vanishes,
        rep.constant_on_rank_one_projections.constant,
    )


def _require(
    ok: bool, what: str, f: Functional | None = None, rep: CharacterizationReport | None = None
) -> None:
    """Raise at the first failed prediction; the functional that failed it
    and its report are the witness, and its six verdicts end the message."""
    if not ok:
        witness = None
        if rep is not None:
            what += (
                "; (scalar trace, tracial, radius bound, nilpotent, square-zero, "
                f"rank-one constancy) = {_verdicts(rep)}"
            )
            witness = CharacterizedFunctional(f, rep)
        raise TheoremViolationError(what, witness=witness)


# Each claim's key, the observation it reports, and its statement.
_CLAIMS = (
    ("scalar_trace_equivalence", "single_block",
     "scalar-trace, tracial, and radius-bound conditions are equivalent "
     "exactly when the algebra is one matrix block"),
    ("rank_one_constancy", "functionals_checked",
     "constancy on rank-one projections is equivalent to being a scalar "
     "multiple of the trace"),
    ("minimal_ideal", "minimal_ideal",
     "scalar-trace/tracial equivalence holds exactly when the algebra is "
     "a minimal two-sided ideal"),
    ("corner_blocks", "all_corners_single_block",
     "scalar-trace/tracial equivalence holds exactly when every "
     "projection corner is a single full matrix block"),
    ("nilpotent_vanishing", "alpha_max_error",
     "on a minimal-ideal algebra, vanishing on nilpotents, vanishing on "
     "square-zero elements, the rank-radius bound, and scalar-trace form "
     "are equivalent"),
)


def verify_theorems(
    spec: AlgebraSpec, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Verify the predicted characterization pattern for one algebra.

    Every sampled functional's six verdicts must be all true or all
    false, or, on two or more blocks, tracial but not a scalar multiple
    of the trace; a planted scalar must be recovered, and distinct block
    scalars must not score as one. The first-block trace must show the
    tracial-but-not-scalar pattern with a witness pair, and exist only
    on two or more blocks. The structural booleans (single block,
    minimal ideal, all corners full blocks) come from independent routes
    and must agree. The first failed prediction raises
    TheoremViolationError. Trial t samples its functionals from
    ``rng_for(seed, FUNCTIONALS, t)``; all of them and the first-block
    trace are characterized as one stack, and a functional whose
    characterization raises raises in its turn. The corner check needs no draw:
    it takes the identity, whose corner is the whole algebra, a single
    block exactly when the algebra is one.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    single_block = spec.num_blocks == 1
    predicted = {(True,) * 6, (False,) * 6} | (set() if single_block else {_TRACIAL_NOT_SCALAR})
    minimal = is_socle_minimal_ideal(spec, seed=seed)

    samples = [
        (t, kind, f, planted)
        for t in range(trials)
        for kind, f, planted in _sample_functionals(spec, rng_for(seed, FUNCTIONALS, t))
    ]
    stack = [f for _, _, f, _ in samples]
    if not single_block:
        stack.append(counterexample_functional(spec))
    reports = _characterize_stack(stack, seed)

    alpha_errors: list[float] = []
    for (t, kind, f, planted), rep in zip(samples, reports):
        if isinstance(rep, SocleLabError):
            raise rep
        where = f"trial {t} {kind}"
        _require(_verdicts(rep) in predicted, f"{where}: unpredicted verdicts", f, rep)
        if kind == "blockwise" and not single_block:
            why = "distinct block scalars scored as scalar trace"
            _require(not rep.is_scalar_trace, f"{where}: {why}", f, rep)
        if kind == "scalar":
            _require(rep.is_scalar_trace, f"{where}: planted scalar not recovered", f, rep)
            alpha_errors.append(abs(rep.scalar_trace_coefficient - planted))
            value = rep.constant_on_rank_one_projections.value
            if value is not None:
                alpha_errors.append(abs(value - planted))

    corner_all_single = pAp_block_check(identity(spec))
    counterexample = None
    if single_block:
        try:
            counterexample_functional(spec)
        except NoCounterexampleError:
            pass
        else:
            raise TheoremViolationError("a counterexample exists on a single block")
    else:
        f, rep = stack[-1], reports[-1]
        if isinstance(rep, SocleLabError):
            raise rep
        _require(
            _verdicts(rep) == _TRACIAL_NOT_SCALAR
            and rep.constant_on_rank_one_projections.witness_pair is not None,
            "first-block trace: not tracial-but-not-scalar with a witness pair",
            f,
            rep,
        )
        counterexample = CharacterizedFunctional(f, rep)
    _require(
        single_block == minimal == corner_all_single,
        f"structural verdicts disagree: single-block {single_block}, "
        f"minimal ideal {minimal}, corners {corner_all_single}",
    )

    observed = {
        "single_block": single_block,
        "functionals_checked": len(samples),
        "minimal_ideal": minimal,
        "all_corners_single_block": corner_all_single,
        "alpha_max_error": max(alpha_errors),
    }
    return VerificationReport(
        spec=spec,
        trials=trials,
        seed=seed,
        socle_is_single_matrix_block=corner_all_single,
        socle_is_minimal_ideal=minimal,
        verdicts={
            key: TheoremVerdict(claim=claim, holds=True, details={name: observed[name]})
            for key, name, claim in _CLAIMS
        },
        functional_count=len(samples),
        counterexample=counterexample,
    )
