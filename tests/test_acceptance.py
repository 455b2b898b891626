"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
All corpora are seeded and deterministic; tolerances are pinned here
and nowhere else.
"""

import time

import numpy as np
import pytest

import soclelab as sl
from soclelab.errors import SpectralGapError
from soclelab.sampling import (
    complex_gaussian,
    random_element,
    random_low_rank_element,
    random_maximal_element,
    random_traceless_matrix,
    rng_for,
)

CORPUS_SPECS = [(1,), (3,), (2, 2), (2, 3), (1, 1, 4)]
PER_SPEC = 100
CORPUS_SEED = 2024


def _report(number: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")


def corpus_element(spec: sl.AlgebraSpec, which: int, index: int) -> sl.Element:
    """Deterministic mixed corpus: dense, low-rank, zero-block, and
    order-capped nilpotent elements."""
    rng = rng_for(CORPUS_SEED + 1009 * which, index)
    family = index % 10
    if family <= 4:
        return random_element(spec, rng)
    if family <= 7:
        return random_low_rank_element(spec, rng)
    a = random_element(spec, rng)
    j = index % spec.num_blocks
    n = spec.block_sizes[j]
    if family == 8:
        a.blocks[j][:] = 0.0
        return a
    # family 9: strictly triangular block with nilpotency order <= 3,
    # which dense eigensolvers resolve to exact zeros
    a.blocks[j][:] = 0.0
    for t in range(min(2, n - 1)):
        a.blocks[j][t, t + 1] = complex_gaussian(rng, ())
    return a


def full_corpus():
    for which, sizes in enumerate(CORPUS_SPECS):
        spec = sl.AlgebraSpec(sizes)
        for index in range(PER_SPEC):
            yield spec, which, index


def test_criterion_1_rank_coincidence():
    """Probed spectral rank equals SVD rank on 500 mixed elements, < 30 s."""
    start = time.monotonic()
    mismatches = []
    for spec, which, index in full_corpus():
        a = corpus_element(spec, which, index)
        rep = sl.spectral_rank(a, probes=64, seed=index)
        if rep.rank != rep.oracle_rank:
            mismatches.append((spec.block_sizes, index))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 30.0
    _report(1, ok, f"500 elements, 64 probes each, {elapsed:.1f}s")
    assert not mismatches
    assert elapsed < 30.0, f"rank corpus took {elapsed:.1f}s"


def test_criterion_2_trace_coincidence():
    """Spectral trace matches the oracle to 1e-8 relative, and scales
    linearly, over the same corpus."""
    worst = 0.0
    worst_h = 0.0
    for spec, which, index in full_corpus():
        a = corpus_element(spec, which, index)
        oracle = sl.classical_trace(a)
        s = sl.spectral_trace(a, seed=index)
        worst = max(worst, abs(s - oracle) / max(1.0, abs(oracle)))
        rng = rng_for(CORPUS_SEED + 7777, index + 1000 * which)
        alpha = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        lhs = sl.spectral_trace(sl.scale(alpha, a), seed=index)
        rhs = alpha * s
        worst_h = max(worst_h, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-8 and worst_h <= 1e-8
    _report(2, ok, f"worst relative error {worst:.2e}, homogeneity {worst_h:.2e}")
    assert worst <= 1e-8
    assert worst_h <= 1e-8


def _maximal_corpus():
    out = []
    for which, sizes in enumerate(CORPUS_SPECS):
        spec = sl.AlgebraSpec(sizes)
        for index in range(40):
            out.append(random_maximal_element(spec, rng_for(CORPUS_SEED + 31 * which, index)))
    return out


def test_criterion_3_riesz_calculus():
    """Projection defects, orthogonality, the multiplicity sum rule, and
    reconstruction on 200 maximal elements; node doubling buys >= 100x."""
    elements = _maximal_corpus()
    assert len(elements) == 200
    worst_defect = 0.0
    worst_orth = 0.0
    worst_resid = 0.0
    sum_rule_misses = 0
    worst_ratio = np.inf
    for idx, a in enumerate(elements):
        rep = sl.spectrum(a)
        projs = []
        for v, _ in rep.points:
            if v == 0:
                continue
            pr = sl.riesz_projection(a, [v])
            worst_defect = max(worst_defect, pr.idempotency_defect)
            projs.append(pr.projection)
        for i in range(len(projs)):
            for j in range(len(projs)):
                if i != j:
                    worst_orth = max(
                        worst_orth, sl.operator_norm(projs[i] @ projs[j])
                    )
        d = sl.diagonalize_maximal(a, seed=idx)
        worst_resid = max(worst_resid, d.residual)
        total = sum(sl.multiplicity(a, v, seed=idx) for v, _ in rep.points)
        if total != sl.classical_rank(a) + (1 if rep.contains_zero else 0):
            sum_rule_misses += 1
        if idx % 5 == 0 and len(rep.points) >= 2:
            # gaps here are >= 0.15 by construction
            d32 = max(
                sl.riesz_projection(a, [v], nodes=32).idempotency_defect
                for v, _ in rep.points
                if v != 0
            )
            d64 = max(
                sl.riesz_projection(a, [v], nodes=64).idempotency_defect
                for v, _ in rep.points
                if v != 0
            )
            worst_ratio = min(worst_ratio, d32 / max(d64, 1e-300))
    ok = (
        worst_defect <= 1e-8
        and worst_orth <= 1e-8
        and worst_resid <= 1e-8
        and sum_rule_misses == 0
        and worst_ratio >= 1e2
    )
    _report(
        3,
        ok,
        f"defect {worst_defect:.2e}, orthogonality {worst_orth:.2e}, "
        f"residual {worst_resid:.2e}, node-doubling gain {worst_ratio:.1e}",
    )
    assert worst_defect <= 1e-8
    assert worst_orth <= 1e-8
    assert worst_resid <= 1e-8
    assert sum_rule_misses == 0
    assert worst_ratio >= 1e2


def test_criterion_4_multiplicity_cross_route():
    """Perturbation counting equals projection rank at every nonzero
    spectral value of the corpus (gaps below 10 tolerances excluded)."""
    checked = 0
    skipped = 0
    for spec, which, index in full_corpus():
        a = corpus_element(spec, which, index)
        rep = sl.spectrum(a)
        for v, _ in rep.points:
            if v == 0:
                continue
            try:
                sl.multiplicity(a, v, seed=index)  # raises on route mismatch
                checked += 1
            except SpectralGapError:
                skipped += 1
    ok = checked > 0
    _report(4, ok, f"{checked} values cross-checked, {skipped} below the gap floor")
    assert checked > 0


def test_criterion_5_commutator_certificates():
    """500 traceless reconstructions and 200 rank-one commutator pairs."""
    worst_cert = 0.0
    for i in range(500):
        rng = rng_for(CORPUS_SEED + 12345, i)
        n = 1 + i % 8
        cert = sl.commutator_decompose(random_traceless_matrix(n, rng))
        worst_cert = max(worst_cert, sl.verify_certificate(cert))
        assert len(cert.coefficients) <= n * n - 1
    worst_pair = 0.0
    rank_misses = 0
    for i in range(200):
        rng = rng_for(CORPUS_SEED + 54321, i)
        n = 2 + i % 7
        vecs = []
        while len(vecs) < 4:
            u = complex_gaussian(rng, n)
            v = complex_gaussian(rng, n)
            if abs(u @ v) >= 1e-2 * np.linalg.norm(u) * np.linalg.norm(v):
                vecs.extend([u, v])
        pair = sl.rank_one_commutator(vecs[0], vecs[1], vecs[2], vecs[3])
        worst_pair = max(worst_pair, pair.defect)
        for m in (pair.S, pair.T):
            s = np.linalg.svd(m, compute_uv=False)
            if int(np.sum(s > 1e-9 * s[0])) != 1:
                rank_misses += 1
    ok = worst_cert <= 1e-12 and worst_pair <= 1e-12 and rank_misses == 0
    _report(
        5, ok, f"certificate defect {worst_cert:.2e}, pair defect {worst_pair:.2e}"
    )
    assert worst_cert <= 1e-12
    assert worst_pair <= 1e-12
    assert rank_misses == 0


def test_criterion_6_theorem_pattern_single_block():
    """One-block algebras: all five characterizations equivalent on every
    sampled functional, planted scalars recovered to 1e-8."""
    worst_alpha = 0.0
    for sizes in [(1,), (2,), (4,)]:
        rep = sl.verify_theorems(sl.AlgebraSpec(sizes), trials=100, seed=41)
        assert rep.socle_is_single_matrix_block
        worst_alpha = max(
            worst_alpha, rep.verdicts["nilpotent_vanishing"].details["alpha_max_error"]
        )
    ok = worst_alpha <= 1e-8
    _report(6, ok, f"300 trials over three algebras, alpha error {worst_alpha:.2e}")
    assert worst_alpha <= 1e-8


def test_criterion_7_theorem_pattern_multi_block():
    """Multi-block algebras: a tracial, radius-bounded, non-scalar
    functional with a non-constancy witness pair appears every run."""
    for sizes in [(2, 2), (1, 3), (2, 3, 1)]:
        rep = sl.verify_theorems(sl.AlgebraSpec(sizes), trials=100, seed=43)
        cx = rep.counterexample
        assert cx is not None, sizes
        assert cx.tracial and cx.bound.constant is not None, sizes
        assert not cx.is_scalar_trace, sizes
        assert cx.rank_one_constancy.witnesses is not None, sizes
        (p1, v1), (p2, v2) = cx.rank_one_constancy.witnesses
        f = cx.functional
        assert abs(sl.evaluate(f, p1) - v1) < 1e-10
        assert abs(sl.evaluate(f, p2) - v2) < 1e-10
        assert abs(v1 - v2) > 1e-3
    _report(7, True, "counterexample functional with witness pair on all three")


def test_criterion_8_structural_triple_agreement():
    """Block count, ideal span, and corner checks agree on every spec."""
    disagreements = []
    for sizes in [(1,), (3,), (2, 2), (2, 3), (1, 1, 4), (2,), (4,), (1, 3), (2, 3, 1)]:
        spec = sl.AlgebraSpec(sizes)
        rep = sl.verify_theorems(spec, trials=10, seed=47)
        expected = spec.num_blocks == 1
        trio = (expected, rep.socle_is_minimal_ideal, rep.socle_is_single_matrix_block)
        if len(set(trio)) != 1:
            disagreements.append((sizes, trio))
    ok = not disagreements
    _report(8, ok, f"nine specs checked, disagreements: {disagreements}")
    assert not disagreements


def test_criterion_9_equivalence_engine():
    """Tracial, square-zero-vanishing, and nilpotent-vanishing verdicts
    coincide on 200 functionals per spec; bounds appear exactly for
    tracial functionals, refutations carry radius-zero witnesses."""
    disagreements = 0
    bad_witnesses = 0
    for which, sizes in enumerate(CORPUS_SPECS):
        spec = sl.AlgebraSpec(sizes)
        for i in range(200):
            rng = rng_for(CORPUS_SEED + 99 * which, i)
            family = i % 5
            if family <= 2:
                f = sl.random_functional(spec, rng)
            elif family == 3:
                f = sl.blockwise_scalar_functional(
                    spec,
                    rng.standard_normal(spec.num_blocks)
                    + 1j * rng.standard_normal(spec.num_blocks),
                )
            else:
                f = sl.trace_functional(spec, complex(rng.standard_normal()))
            rep = sl.characterize(f)
            tracial = rep.tracial
            if not (tracial == rep.square_zero.vanishes == rep.nilpotent.vanishes):
                disagreements += 1
            bound = rep.bound
            if tracial != (bound.constant is not None):
                disagreements += 1
            if not tracial:
                w = bound.witness
                if (
                    sl.spectral_radius(w) != 0.0
                    or abs(sl.evaluate(f, w)) <= 1e-8
                    or abs(bound.witness_value - sl.evaluate(f, w)) > 1e-12
                ):
                    bad_witnesses += 1
    ok = disagreements == 0 and bad_witnesses == 0
    _report(
        9,
        ok,
        f"1000 functionals, {disagreements} disagreements, "
        f"{bad_witnesses} bad witnesses",
    )
    assert disagreements == 0
    assert bad_witnesses == 0
