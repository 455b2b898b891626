import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
from soclelab import riesz
from soclelab.errors import (
    MultiplicityInconsistencyError,
    NotIdempotentError,
    NotMaximalError,
    ProbeExhaustionError,
    SpectralGapError,
    TargetNotInSpectrumError,
    TraceCertificationError,
)
from soclelab.riesz import (
    DEFAULT_EPS,
    GAP_FLOOR_FACTOR,
    MULTIPLICITY_PROBES,
    TRACE_CERT_TOL,
    _match_target,
)
from soclelab.sampling import (
    MULTIPLICITY_PROBE,
    complex_gaussian,
    random_element,
    random_low_rank_element,
    random_maximal_element,
    random_nilpotent,
    random_projection,
    rng_for,
)

from conftest import single


def eigenprojection_oracle(matrix, target, radius=0.3):
    """Spectral projector via eigendecomposition; independent of any
    contour quadrature."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=complex))
    sel = (np.abs(vals - target) < radius).astype(complex)
    return vecs @ np.diag(sel) @ np.linalg.inv(vecs)


class TestRieszProjection:
    def test_simple_eigenvalue(self):
        a = single(np.diag([3.0, 1.0, 1.0]))
        rep = sl.riesz_projection(a, [3.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rep.projection.blocks[0], expected, atol=1e-12)
        assert rep.multiplicity == 1
        assert rep.idempotency_defect < 1e-10

    def test_whole_spectrum_projection(self, m2):
        rep = sl.riesz_projection(sl.identity(m2), [1.0])
        np.testing.assert_allclose(rep.projection.blocks[0], np.eye(2), atol=1e-12)
        assert rep.multiplicity == 2

    def test_defective_free_part_by_hand(self):
        a = single([[1.0, 1.0], [0.0, 2.0]])
        rep = sl.riesz_projection(a, [1.0])
        np.testing.assert_allclose(
            rep.projection.blocks[0], [[1.0, -1.0], [0.0, 0.0]], atol=1e-12
        )

    def test_matches_eigendecomposition_oracle(self, spec23):
        for i in range(6):
            a = random_maximal_element(spec23, rng_for(53, i), zero_defect=False)
            rep = sl.spectrum(a)
            target = rep.points[0][0]
            pr = sl.riesz_projection(a, [target])
            for pb, ab in zip(pr.projection.blocks, a.blocks):
                oracle = eigenprojection_oracle(ab, target, radius=0.05)
                np.testing.assert_allclose(pb, oracle, atol=1e-9)

    def test_multi_target_sums_and_adds_multiplicities(self):
        a = single(np.diag([2.0, 2.0, 5.0, 9.0]))
        both = sl.riesz_projection(a, [2.0, 5.0])
        p2 = sl.riesz_projection(a, [2.0])
        p5 = sl.riesz_projection(a, [5.0])
        np.testing.assert_allclose(
            both.projection.blocks[0],
            p2.projection.blocks[0] + p5.projection.blocks[0],
            atol=1e-12,
        )
        assert both.multiplicity == p2.multiplicity + p5.multiplicity == 3

    def test_nonzero_targets_factor_through_element(self):
        a = single(np.diag([0.0, 1.0, 4.0]))
        rep = sl.riesz_projection(a, [1.0, 4.0])
        assert rep.range_residual is not None and rep.range_residual < 1e-10

    def test_zero_target_skips_range_check(self):
        a = single(np.diag([0.0, 1.0, 4.0]))
        rep = sl.riesz_projection(a, [0.0])
        assert rep.range_residual is None
        assert rep.multiplicity == 1

    def test_unknown_target_rejected(self):
        a = single(np.diag([1.0, 2.0]))
        with pytest.raises(TargetNotInSpectrumError):
            sl.riesz_projection(a, [5.0])

    def test_quadrature_error_drops_fast_in_node_count(self):
        # gap 0.1 spectra: doubling nodes buys >= two orders of magnitude
        a = single(np.diag([1.0, 1.1, 0.4]))
        d32 = sl.riesz_projection(a, [1.0], nodes=32).idempotency_defect
        d64 = sl.riesz_projection(a, [1.0], nodes=64).idempotency_defect
        assert d64 <= 1e-8
        assert d32 / max(d64, 1e-300) >= 1e2

    def test_projections_at_distinct_values_are_orthogonal(self, spec23):
        for i in range(6):
            a = random_maximal_element(spec23, rng_for(59, i))
            rep = sl.spectrum(a)
            projs = [
                sl.riesz_projection(a, [v]).projection
                for v, _ in rep.points
                if v != 0
            ]
            for j in range(len(projs)):
                assert sl.operator_norm(projs[j] @ projs[j] - projs[j]) < 1e-8
                for k in range(len(projs)):
                    if j != k:
                        assert sl.operator_norm(projs[j] @ projs[k]) < 1e-8


class TestMultiplicity:
    def test_projection_multiplicity_at_one(self, m3):
        # the multiplicity of a projection at 1 is its rank
        p = sl.matrix_unit(m3, 0, 0, 0) + sl.matrix_unit(m3, 0, 1, 1)
        assert sl.multiplicity(p, 1.0) == 2

    def test_repeated_eigenvalue(self):
        a = single(np.diag([2.0, 2.0, 5.0]))
        assert sl.multiplicity(a, 2.0) == 2

    def test_sum_rule_without_zero(self):
        a = single(np.diag([2.0, 2.0, 5.0]))
        total = sl.multiplicity(a, 2.0) + sl.multiplicity(a, 5.0)
        assert total == 3 == sl.classical_rank(a)
        assert not sl.spectrum(a).contains_zero

    def test_sum_rule_random_socle_elements(self, spec23):
        for i in range(8):
            a = random_low_rank_element(spec23, rng_for(61, i))
            rep = sl.spectrum(a)
            total = sum(sl.multiplicity(a, v, seed=i) for v, _ in rep.points)
            expected = sl.classical_rank(a) + (1 if rep.contains_zero else 0)
            assert total == expected

    def test_sum_rule_with_nilpotent_kernel(self):
        # order-two nilpotent part: the zero value soaks up the extra count
        spec = sl.AlgebraSpec((2, 1))
        a = sl.matrix_unit(spec, 0, 0, 1) + sl.scale(2.0, sl.matrix_unit(spec, 1, 0, 0))
        assert sl.multiplicity(a, 0.0) == 2
        assert sl.multiplicity(a, 2.0) == 1
        assert sl.classical_rank(a) == 2  # total 3 = rank + 1

    def test_target_must_be_spectral(self):
        a = single(np.diag([1.0, 2.0]))
        with pytest.raises(TargetNotInSpectrumError):
            sl.multiplicity(a, 7.0)

    def test_tight_gap_rejected(self):
        a = single(np.diag([1.0, 1.0 + 5e-6, 3.0]))
        with pytest.raises(SpectralGapError):
            sl.multiplicity(a, 1.0)


def _reference_multiplicity(a, target, probes, seed, nodes):
    """Multiplicity by the per-target loop: a fresh spectrum, SVD rank,
    probe set and Riesz projection for every target."""
    if probes < 1:
        raise ValueError("need at least one probe")
    rep = sl.spectrum(a)
    center = _match_target(rep, target)
    gap = rep.gap(center)
    if gap < GAP_FLOOR_FACTOR * rep.cluster_tolerance:
        raise SpectralGapError(center, gap, GAP_FLOOR_FACTOR * rep.cluster_tolerance)
    ball = gap / 3.0
    rank_a = sl.classical_rank(a)
    one = sl.identity(a.spec)
    counts = []
    rng = rng_for(seed, MULTIPLICITY_PROBE)
    for i in range(probes):
        g = random_element(a.spec, rng)
        g = (1.0 / sl.operator_norm(g)) * g
        x = one + DEFAULT_EPS * g
        srep = sl.spectrum(x @ a)
        if srep.num_nonzero != rank_a:
            continue
        counts.append(int(sum(1 for v, _ in srep.points if abs(v - center) < ball)))
    if not counts:
        raise ProbeExhaustionError("no probe preserved the rank")
    if len(set(counts)) != 1:
        raise MultiplicityInconsistencyError(center, sorted(set(counts)), None)
    route_a = counts[0]
    if center != 0:
        route_b = sl.riesz_projection(a, [center], nodes=nodes).multiplicity
        if route_a != route_b:
            raise MultiplicityInconsistencyError(center, route_a, route_b)
    return route_a


def _reference_spectral_trace(a, probes, seed, nodes):
    total = 0j
    for v, _ in sl.spectrum(a).points:
        if v == 0:
            continue
        total += v * _reference_multiplicity(a, v, probes, seed, nodes)
    oracle = sl.classical_trace(a)
    if abs(total - oracle) > TRACE_CERT_TOL * max(1.0, abs(oracle)):
        raise TraceCertificationError(total, oracle)
    return total


def _outcome(fn, *args, **kwargs):
    """repr of the result (exact for floats, signed zeros included), or
    the type of the exception raised."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc)


def _block(kind, n, rng):
    if kind == "dense":
        return complex_gaussian(rng, (n, n))
    if kind == "maximal":
        return random_maximal_element(sl.AlgebraSpec((n,)), rng).blocks[0]
    if kind == "nilpotent":
        return random_nilpotent(sl.AlgebraSpec((n,)), rng).blocks[0]
    if kind == "low-rank":
        return random_low_rank_element(sl.AlgebraSpec((n,)), rng).blocks[0]
    if kind == "near-degenerate":
        # two values closer than GAP_FLOOR_FACTOR cluster tolerances
        d = rng.uniform(0.5, 2.0, n)
        d[0] = d[-1] + rng.uniform(2e-6, 8e-6)
        return np.diag(d).astype(complex)
    # "tiny": a value under the cluster tolerance but above the SVD
    # cutoff, so no probe keeps the SVD rank
    d = rng.uniform(0.5, 2.0, n)
    d[0] = 1e-7
    return np.diag(d).astype(complex)


class TestSharedSpectralPass:
    """One spectrum, SVD rank and probe set per element, shared by all
    of its spectral values, against the per-target loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(1, 4),
                st.sampled_from(
                    ["dense", "maximal", "nilpotent", "low-rank", "near-degenerate", "tiny"]
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        probes=st.integers(1, MULTIPLICITY_PROBES),
        nodes=st.sampled_from([3, 4, 16, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_target_loop(self, blocks, probes, nodes, seed):
        rng = rng_for(seed, 1 << 40)
        spec = sl.AlgebraSpec(tuple(n for n, _ in blocks))
        a = sl.Element(spec, tuple(_block(kind, n, rng) for n, kind in blocks))
        rep = sl.spectrum(a)
        targets = [v for v, _ in rep.points] + [rep.radius + 1.0]
        for t in targets:
            assert _outcome(
                sl.multiplicity, a, t, probes=probes, seed=seed, nodes=nodes
            ) == _outcome(_reference_multiplicity, a, t, probes, seed, nodes)
        assert _outcome(
            sl.spectral_trace, a, probes=probes, seed=seed, nodes=nodes
        ) == _outcome(_reference_spectral_trace, a, probes, seed, nodes)

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(1, 5),
                st.sampled_from(["dense", "maximal", "nilpotent", "low-rank", "tiny"]),
            ),
            min_size=1,
            max_size=3,
        ),
        probes=st.integers(1, MULTIPLICITY_PROBES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_probe_spectra_match_one_at_a_time(self, blocks, probes, seed):
        rng = rng_for(seed, 1 << 40)
        spec = sl.AlgebraSpec(tuple(n for n, _ in blocks))
        a = sl.Element(spec, tuple(_block(kind, n, rng) for n, kind in blocks))
        stacked = riesz._perturbed_spectra(a, probes, seed)
        assert len(stacked) == probes
        one = sl.identity(spec)
        rng = rng_for(seed, MULTIPLICITY_PROBE)
        for rep in stacked:
            g = random_element(spec, rng)
            g = (1.0 / sl.operator_norm(g)) * g
            # repr tells signed zeros apart
            assert repr(rep) == repr(sl.spectrum((one + DEFAULT_EPS * g) @ a))

    @pytest.mark.parametrize(
        "matrix, error",
        [
            (np.diag([1.0, 1.0 + 5e-6, 3.0]), SpectralGapError),
            (np.diag([1e-7, 1.0]), ProbeExhaustionError),
            # the gap check comes before any probe is drawn
            (np.diag([1e-7, 1.0, 1.0 + 5e-6]), SpectralGapError),
        ],
    )
    def test_typed_failures_match_per_target_loop(self, matrix, error):
        a = single(matrix)
        with pytest.raises(error):
            _reference_spectral_trace(a, MULTIPLICITY_PROBES, 0, 64)
        with pytest.raises(error):
            sl.spectral_trace(a)

    def test_one_spectrum_and_no_range_check(self, monkeypatch):
        a = random_maximal_element(sl.AlgebraSpec((16,)), rng_for(83))
        calls = {"eigvals": 0, "lstsq": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        sl.spectral_trace(a)
        # one for the spectrum, one stacked over all perturbation probes
        assert calls["eigvals"] == 2
        sl.diagonalize_maximal(a)
        assert calls["lstsq"] == 0


class TestSpectralTrace:
    def test_diagonal(self):
        assert sl.spectral_trace(single(np.diag([1.0, 2.0, 3.0]))) == pytest.approx(6.0)

    def test_nilpotent(self, m2):
        assert sl.spectral_trace(sl.matrix_unit(m2, 0, 0, 1)) == 0

    def test_certified_against_oracle(self, spec23):
        for i in range(6):
            a = random_element(spec23, rng_for(67, i))
            s = sl.spectral_trace(a, seed=i)
            assert abs(s - sl.classical_trace(a)) <= 1e-8 * max(
                1.0, abs(sl.classical_trace(a))
            )

    def test_homogeneity(self, spec23):
        # scaling the element scales multiplicity-weighted sums linearly
        for i in range(5):
            rng = rng_for(71, i)
            a = random_element(spec23, rng)
            alpha = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
            lhs = sl.spectral_trace(sl.scale(alpha, a), seed=i)
            rhs = alpha * sl.spectral_trace(a, seed=i)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestTraceBound:
    def test_nilpotent_edge(self, m2):
        assert sl.trace_bound_check(sl.matrix_unit(m2, 0, 0, 1))

    def test_identity_saturates(self, m3):
        assert sl.trace_bound_check(sl.identity(m3))
        one = sl.identity(m3)
        assert abs(sl.spectral_trace(one)) == pytest.approx(
            sl.classical_rank(one) * sl.spectral_radius(one)
        )

    def test_random(self, spec23):
        for i in range(5):
            assert sl.trace_bound_check(random_element(spec23, rng_for(73, i)), seed=i)


class TestDiagonalization:
    def test_diagonal_with_kernel(self):
        a = single(np.diag([1.0, 2.0, 0.0]))
        d = sl.diagonalize_maximal(a)
        assert sorted(v.real for v in d.values) == [1.0, 2.0]
        for v, p in zip(d.values, d.projections):
            expected = np.zeros((3, 3))
            expected[int(v.real) - 1, int(v.real) - 1] = 1.0
            np.testing.assert_allclose(p.blocks[0], expected, atol=1e-10)
        assert d.residual < 1e-10

    def test_triangular_by_hand(self):
        a = single([[1.0, 1.0], [0.0, 2.0]])
        d = sl.diagonalize_maximal(a)
        by_value = {round(v.real): p.blocks[0] for v, p in zip(d.values, d.projections)}
        np.testing.assert_allclose(by_value[1], [[1.0, -1.0], [0.0, 0.0]], atol=1e-10)
        np.testing.assert_allclose(by_value[2], [[0.0, 1.0], [0.0, 1.0]], atol=1e-10)
        prod = by_value[1] @ by_value[2]
        np.testing.assert_allclose(prod, np.zeros((2, 2)), atol=1e-10)
        np.testing.assert_allclose(
            by_value[1] + 2 * by_value[2], a.blocks[0], atol=1e-10
        )

    def test_identity_rejected(self, m2):
        with pytest.raises(NotMaximalError) as err:
            sl.diagonalize_maximal(sl.identity(m2))
        assert err.value.rank == 2
        assert err.value.nonzero_count == 1

    def test_zero_rejected(self, m2):
        with pytest.raises(NotMaximalError):
            sl.diagonalize_maximal(sl.zero(m2))

    def test_random_maximal_reconstruction(self, spec23):
        for i in range(6):
            a = random_maximal_element(spec23, rng_for(79, i))
            d = sl.diagonalize_maximal(a)
            assert d.residual < 1e-8
            for p in d.projections:
                assert sl.classical_rank(p) == 1


class TestCornerConsistency:
    def test_identity_projection(self, spec23):
        a = random_element(spec23, rng_for(83))
        rep = sl.pAp_consistency(a, sl.identity(spec23))
        assert rep.consistent
        assert rep.subalgebra == spec23
        assert rep.rank_ambient == rep.rank_compressed

    def test_two_dim_corner_in_m3(self, m3):
        p = sl.matrix_unit(m3, 0, 0, 0) + sl.matrix_unit(m3, 0, 1, 1)
        for i in range(5):
            a = random_element(m3, rng_for(89, i))
            rep = sl.pAp_consistency(a, p, seed=i)
            assert rep.subalgebra.block_sizes == (2,)
            assert rep.nonzero_spectra_match
            assert rep.rank_ambient == rep.rank_compressed
            assert rep.trace_match

    def test_cross_block_corner(self, spec23):
        p = sl.matrix_unit(spec23, 0, 0, 0) + sl.matrix_unit(spec23, 1, 0, 0)
        a = random_element(spec23, rng_for(97))
        rep = sl.pAp_consistency(a, p)
        assert rep.subalgebra.block_sizes == (1, 1)
        assert rep.consistent

    def test_zero_projection(self, spec23):
        a = random_element(spec23, rng_for(101))
        rep = sl.pAp_consistency(a, sl.zero(spec23))
        assert rep.subalgebra is None
        assert rep.consistent

    def test_roundoff_block_is_no_corner_block(self, spec23):
        # the projection onto 1 carries ~1e-17 roundoff in its second
        # block, which must not compress into a 3x3 corner block
        a = sl.Element(spec23, [np.diag([1.0, 2.0]), np.diag([3.0, 4.0, 5.0])])
        p = sl.riesz_projection(a, 1.0).projection
        assert sl.compress_to_corner(a, p)[0].block_sizes == (1,)
        rep = sl.pAp_consistency(a, p)
        assert rep.subalgebra.block_sizes == (1,)
        assert rep.consistent
        assert rep.rank_ambient == rep.rank_compressed == 1

    def test_one_spectrum_per_element(self, spec23, monkeypatch):
        calls = []
        real = riesz.spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(riesz, "spectrum", counted)
        a = random_element(spec23, rng_for(73))
        assert sl.trace_bound_check(a)
        # the perturbation probes are clustered as one stack, not spectrum by spectrum
        assert len(calls) == 1
        for p in [sl.identity(spec23), random_projection(spec23, rng_for(107))]:
            calls.clear()
            assert sl.pAp_consistency(a, p).consistent
            # p*a*p and its corner: one spectrum each
            assert len(calls) == 2

    def test_non_idempotent_rejected(self, spec23):
        a = random_element(spec23, rng_for(103))
        with pytest.raises(NotIdempotentError):
            sl.pAp_consistency(a, a)
