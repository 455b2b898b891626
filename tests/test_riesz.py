import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soclelab as sl
from soclelab import cli, jsonio, riesz
from soclelab.algebra import SpectralPoint, _clustered, idempotent_rank
from soclelab.cli import run
from soclelab.errors import (
    ContourCollapseError,
    EigensolverError,
    MultiplicityInconsistencyError,
    NotIdempotentError,
    NotMaximalError,
    NumericOverflowError,
    ProbeExhaustionError,
    ProjectionRankError,
    SpectralGapError,
    SocleLabError,
    SVDConvergenceError,
    TargetNotInSpectrumError,
    TraceCertificationError,
)
from soclelab.riesz import (
    DEFAULT_EPS,
    DEFAULT_NODES,
    GAP_FLOOR_FACTOR,
    MULTIPLICITY_PROBES,
    RADIUS_FACTOR,
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

from conftest import dft_conjugated_jordan, similar_elements, similar_maximal, single


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

    def test_rank_is_certified_by_the_spectrum_and_the_trace(self):
        # ||P|| is 1e14 here, yet the rank and the trace agree
        a = single([[1.0, 1e14], [0.0, 2.0]])
        for target in (1.0, 2.0):
            rep = sl.riesz_projection(a, [target])
            assert rep.multiplicity == 1
            assert abs(np.trace(rep.projection.blocks[0]) - 1) < 1e-14
        # a value of F J_3 F* whose projection has rank 1 and trace 0.92
        a = dft_conjugated_jordan(3)
        assert sl.riesz_projection(a, [sl.spectrum(a).points[0].value]).multiplicity == 1

    def test_rank_that_the_spectrum_refutes_fails(self):
        # F J_4 F*: spectrum gives four simple values; the projection at
        # each has rank 2 and a trace near 1
        a = dft_conjugated_jordan(4)
        for value, mult in sl.spectrum(a).points:
            with pytest.raises(ProjectionRankError) as info:
                sl.riesz_projection(a, [value])
            details = info.value.details()
            assert (details["projection_rank"], details["spectrum_multiplicity"]) == (2, mult)
            assert details["bound"] == 0.25
            assert abs(complex(*details["trace"]) - mult) <= 0.25

    @pytest.mark.parametrize("factor, fails", [(1.2, False), (1.3, True)])
    def test_trace_lies_within_a_quarter_of_the_rank(self, monkeypatch, factor, fails):
        # P scaled by 1.2 or 1.3 keeps rank 1, its trace moves to 1.2 or 1.3
        real = riesz._node_sums
        monkeypatch.setattr(
            riesz, "_node_sums", lambda *args: [factor * s for s in real(*args)]
        )
        a = single(np.diag([3.0, 1.0, 1.0]))
        if fails:
            with pytest.raises(ProjectionRankError):
                sl.riesz_projection(a, [3.0])
        else:
            assert sl.riesz_projection(a, [3.0]).multiplicity == 1

    def test_singular_contour_solve_names_the_contour(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ContourCollapseError) as info:
            sl.riesz_projection(single(np.diag([1.0, 2.0])), [1.0])
        assert info.value.details() == {"center": [1.0, 0.0], "radius": RADIUS_FACTOR}

    def test_failed_range_factoring_names_the_block(self, monkeypatch):
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", unconverged)
        a = sl.Element(sl.AlgebraSpec((1, 2)), [np.eye(1), np.diag([1.0, 2.0])])
        with pytest.raises(SVDConvergenceError) as info:
            sl.riesz_projection(a, [1.0])
        assert info.value.details() == {"block_index": 0}

    def test_quadrature_error_drops_fast_in_node_count(self):
        # gap 0.1 spectra: doubling nodes buys >= two orders of magnitude
        a = single(np.diag([1.0, 1.1, 0.4]))
        d32 = sl.riesz_projection(a, [1.0], nodes=32).idempotency_defect
        d64 = sl.riesz_projection(a, [1.0], nodes=64).idempotency_defect
        assert d64 <= 1e-8
        assert d32 / max(d64, 1e-300) >= 1e2

    def test_multiplicity_holds_at_sixteen_nodes(self):
        # P_16 misses idempotency by about 3e-6, far above RANK_TOL: its
        # SVD rank read 5 for this simple value
        a = random_maximal_element(sl.AlgebraSpec((8,)), rng_for(0))
        rep = sl.riesz_projection(a, [sl.spectrum(a).nonzero_values[0]], nodes=16)
        assert rep.idempotency_defect > 1e-6
        assert rep.multiplicity == 1

    @pytest.mark.parametrize("sizes", [(8,), (3, 4), (2, 2, 2)])
    def test_multiplicity_is_the_clustered_one_at_any_node_count(self, sizes):
        for i in range(4):
            a = random_maximal_element(sl.AlgebraSpec(sizes), rng_for(67, i))
            for v, m in sl.spectrum(a).points:
                assert sl.riesz_projection(a, [v], nodes=16).multiplicity == m
                # at the default node count the SVD rank rule agrees
                rep = sl.riesz_projection(a, [v])
                assert rep.multiplicity == m == sl.classical_rank(rep.projection)

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
        a = sl.matrix_unit(spec, 0, 0, 1) + 2.0 * sl.matrix_unit(spec, 1, 0, 0)
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
        try:
            route_b = sl.riesz_projection(a, [center], nodes=nodes).multiplicity
        except ProjectionRankError as exc:  # riesz's own check; route B is the rank
            route_b = exc.projection_rank
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
    if kind == "jordan":
        # F (v I + J) F*, F the DFT unitary: a defective value that
        # roundoff splits into a ring of simple ones
        k = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        return f @ (rng.choice([0.0, 2.0]) * np.eye(n) + np.eye(n, k=1)) @ f.conj().T
    # "tiny": a value under the cluster tolerance but above the SVD
    # cutoff, so no probe keeps the SVD rank
    d = rng.uniform(0.5, 2.0, n)
    d[0] = 1e-7
    return np.diag(d).astype(complex)


# Eigenvalues for clustered stacks: a cluster within the merge radius of
# 0, close pairs that merge, and values near +-1e308.
_STACK_VALUES = [
    0j, 3e-7, -2e-7j, 1.0, 1.0 + 4e-7, 2.0, -1.5 + 0.5j, 1j,
    -0.1321048632913019 - 1.179653489717825j, 0.6404226504432821 + 1.9878846938120014j,
    8.9e307, 1.7e308, 1.7e308 + 1e300, -1.7e308, 1.7e308 + 1j,
]


def _reference_report(centers, counts, tol_abs):
    """The points of one clustered row by the per-report rule: the live
    centers, with those within ``tol_abs`` of 0 summed into the value 0."""
    live = counts > 0
    centers, counts = centers[live], counts[live]
    zero_mask = np.abs(centers) <= tol_abs
    points = [SpectralPoint(complex(c), int(m)) for c, m in zip(centers[~zero_mask], counts[~zero_mask])]
    if zero_mask.any():
        points.append(SpectralPoint(0j, int(counts[zero_mask].sum())))
    return points


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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_target_loop(self, blocks, seed):
        rng = rng_for(seed, 1 << 40)
        spec = sl.AlgebraSpec(tuple(n for n, _ in blocks))
        a = sl.Element(spec, tuple(_block(kind, n, rng) for n, kind in blocks))
        rep = sl.spectrum(a)
        targets = [v for v, _ in rep.points] + [rep.radius + 1.0]
        for t in targets:
            assert _outcome(sl.multiplicity, a, t, seed=seed) == _outcome(
                _reference_multiplicity, a, t, MULTIPLICITY_PROBES, seed, DEFAULT_NODES
            )
        assert _outcome(sl.spectral_trace, a, seed=seed) == _outcome(
            _reference_spectral_trace, a, MULTIPLICITY_PROBES, seed, DEFAULT_NODES
        )

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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_probe_spectra_match_one_at_a_time(self, blocks, seed):
        rng = rng_for(seed, 1 << 40)
        spec = sl.AlgebraSpec(tuple(n for n, _ in blocks))
        a = sl.Element(spec, tuple(_block(kind, n, rng) for n, kind in blocks))
        radii, centers, counts, nonzero = riesz._perturbed_spectra(a, seed)
        assert len(radii) == MULTIPLICITY_PROBES
        one = sl.identity(spec)
        rng = rng_for(seed, MULTIPLICITY_PROBE)
        for radius, row, sizes, mask in zip(radii, centers, counts, nonzero):
            g = random_element(spec, rng)
            g = (1.0 / sl.operator_norm(g)) * g
            rep = sl.spectrum((one + DEFAULT_EPS * g) @ a)
            # repr tells signed zeros apart
            assert repr(float(radius)) == repr(rep.cluster_tolerance)
            points = sorted(
                (SpectralPoint(complex(c), int(m)) for c, m in zip(row[mask], sizes[mask])),
                key=lambda p: (-abs(p[0]), p[0].real, p[0].imag),
            )
            assert repr(points) == repr([p for p in rep.points if p.value != 0])
            zero = [m for v, m in rep.points if v == 0]
            assert int(sizes[~mask].sum()) == (zero[0] if zero else 0)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from(_STACK_VALUES), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        ),
        center=st.sampled_from(_STACK_VALUES + [complex(np.inf, np.nan)]),
        ball=st.sampled_from([1e-12, 1e-6, 0.1, 1.0, 3.0, 1e300, 1e308]),
        edge=st.none() | st.integers(0, 19),
    )
    @example(rows=[[1.0, 2.0, 3e-7, -2e-7]], center=0j, ball=0.1, edge=None)
    @example(rows=[[1.7e308, -1.7e308, 1.0, 1e-7]], center=1.7e308, ball=1e300, edge=None)
    @example(
        rows=[[1.7e308, 1.7e308, 1.0, 2.0]], center=complex(np.inf, np.nan), ball=1e308, edge=None
    )
    @example(rows=[[0.64 + 1.98j, 1.0, 2.0, 0j]], center=0j, ball=1.0, edge=0)
    def test_route_a_counts_from_the_table_match_the_report_loop(self, rows, center, ball, edge):
        """Route A's counts from the clustered table against the loop over
        each row's report points; the rows mix snapped zero clusters with
        values near +-1e308, whose distances and centroids overflow. With
        ``edge`` set, the ball is the distance of one slot of the table,
        so a distance rounded otherwise than by Python's complex ``abs``
        lands on the other side of it. Imaginary parts stay small: that
        ``abs`` raises where the modulus of two finite parts overflows."""
        vals = np.array(rows, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # the centroid update warns
            radii, centers, counts, nonzero = _clustered(vals)
        if edge is not None:
            ball = abs(complex(centers.flat[edge % centers.size]) - center)
        zero = ((counts > 0) & ~nonzero).any(axis=1)
        table = riesz._near_counts(centers, nonzero, zero, center, ball).tolist()
        loop = [
            sum(abs(v - center) < ball for v, _ in _reference_report(c, m, r))
            for c, m, r in zip(centers, counts, radii.tolist())
        ]
        assert table == loop

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
            _reference_spectral_trace(a, MULTIPLICITY_PROBES, 0, DEFAULT_NODES)
        with pytest.raises(error):
            sl.spectral_trace(a)

    def test_overflowing_perturbed_product_names_its_block(self):
        # (1 + eps*g)*a overflows at the top of the double range; the
        # product runs under errstate, so no RuntimeWarning (an error here)
        a = sl.Element(sl.AlgebraSpec((1, 2)), [np.eye(1), np.diag([1.7976e308, 1.0])])
        for call in (lambda: sl.multiplicity(a, 1.7976e308), lambda: sl.spectral_trace(a)):
            with pytest.raises(NumericOverflowError, match="block 1 overflow"):
                call()

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


def trapezoid_projection(a, rep, center, nodes):
    """The contour projection at ``center`` and its radius, by the
    trapezoid rule with the floating-point operations of the 64-node
    route: one stacked solve per block and one weighted sum over nodes."""
    r = RADIUS_FACTOR * rep.gap(center)
    phases = np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes))
    zs = center + r * phases
    blocks = []
    for b in a.blocks:
        n = len(b)
        eye = np.eye(n, dtype=complex)
        solved = np.linalg.solve(
            zs[:, None, None] * eye - b, np.broadcast_to(eye, (nodes, n, n))
        )
        acc = np.zeros((n, n), dtype=complex)
        acc += (r / nodes) * np.einsum("j,jkl->kl", phases, solved)
        blocks.append(acc)
    return sl.Element(a.spec, blocks), r


def nested_projection(a, rep, center, nodes):
    """Route B's projection at ``center`` by the ``nodes``-point rule and
    its nested rule on the even nodes, from the shared solve helper."""
    r = riesz._radius(rep, center)
    solved = riesz._contour_solves(a, [center], [r], nodes)
    p = [s[0] for s in riesz._node_sums([center], [r], solved, nodes)]
    half = [s[0] for s in riesz._node_sums([center], [r], [s[:, ::2] for s in solved], nodes // 2)]
    return sl.Element(a.spec, p), sl.Element(a.spec, half)


def route_b_outcome(rank):
    """repr of a route B rank, or the type of its error, as ``_outcome``."""
    return type(rank) if isinstance(rank, Exception) else repr(rank)


class TestRouteB:
    """Route B's nested 16-node rule against the projection rank at
    ``DEFAULT_NODES``."""

    @settings(max_examples=60, deadline=None)
    @given(built=similar_elements())
    def test_rank_is_that_at_default_nodes(self, built):
        _, a = built
        rep = sl.spectrum(a)
        centers = list(rep.nonzero_values)
        ranks = riesz._projection_ranks(a, rep, centers) if centers else []
        assert len(ranks) == len(centers)
        for c, rank in zip(centers, ranks):
            assert route_b_outcome(rank) == _outcome(
                lambda: idempotent_rank(nested_projection(a, rep, c, DEFAULT_NODES)[0])
            )

    def test_escalates_to_default_nodes(self, monkeypatch):
        a = random_maximal_element(sl.AlgebraSpec((8,)), rng_for(0))
        rep = sl.spectrum(a)
        c = rep.nonzero_values[0]
        expected = idempotent_rank(nested_projection(a, rep, c, DEFAULT_NODES)[0])
        p16, p8 = nested_projection(a, rep, c, 16)
        e16 = sl.operator_norm(p16 - p8)
        assert 0 < e16 <= riesz._NESTED_ACCEPT
        seen = []
        real = riesz._contour_solves

        def recorded(a, centers, radii, nodes):
            seen.append(nodes)
            return real(a, centers, radii, nodes)

        monkeypatch.setattr(riesz, "_contour_solves", recorded)
        for accept, nodes in [(e16, [16]), (0.0, [16, 64])]:
            monkeypatch.setattr(riesz, "_NESTED_ACCEPT", accept)
            seen.clear()
            assert riesz._projection_ranks(a, rep, [c]) == [expected] == [1]
            assert seen == nodes
        # the whole multiplicity at the last resort
        seen.clear()
        assert sl.multiplicity(a, c) == 1
        assert seen == [16, 64]

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(1, 5),
                st.sampled_from(
                    ["dense", "maximal", "nilpotent", "low-rank", "near-degenerate", "tiny"]
                    + ["jordan"]
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcome_is_the_reference_loop(self, blocks, seed):
        """The stacked route B inside spectral_trace against the per-target
        loop, whose route B is riesz_projection at DEFAULT_NODES: the same
        value, or the same error type with the same details."""
        rng = rng_for(seed, 1 << 40)
        spec = sl.AlgebraSpec(tuple(n for n, _ in blocks))
        a = sl.Element(spec, tuple(_block(kind, n, rng) for n, kind in blocks))

        def outcome(fn, *args):
            try:
                return repr(fn(*args))
            except SocleLabError as exc:
                return type(exc), exc.details()

        assert outcome(sl.spectral_trace, a, seed) == outcome(
            _reference_spectral_trace, a, MULTIPLICITY_PROBES, seed, DEFAULT_NODES
        )

    def test_one_solve_per_block_and_node_count(self, monkeypatch):
        a = random_maximal_element(sl.AlgebraSpec((6, 10)), rng_for(3))
        centers = list(sl.spectrum(a).nonzero_values)
        shapes = []
        real = np.linalg.solve

        def counted(m, b):
            shapes.append(m.shape)
            return real(m, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(riesz, "_NESTED_ACCEPT", 0.0)  # every center escalates
        sl.spectral_trace(a)
        c = len(centers)
        # all centers at 16 nodes, then all of them afresh at 64
        assert shapes == [(c, m, n, n) for m in (16, 64) for n in (6, 10)]

    def test_only_centers_not_yet_accepted_escalate(self, monkeypatch):
        a = random_maximal_element(sl.AlgebraSpec((8,)), rng_for(5))
        rep = sl.spectrum(a)
        centers = list(rep.nonzero_values)
        distances = [
            sl.operator_norm(p - half)
            for p, half in (nested_projection(a, rep, c, 16) for c in centers)
        ]
        accept = float(np.median(distances))
        escalated = [c for c, d in zip(centers, distances) if d > accept]
        assert 0 < len(escalated) < len(centers)
        expected = [idempotent_rank(nested_projection(a, rep, c, 64)[0]) for c in centers]
        seen = []
        real = riesz._contour_solves

        def recorded(a, centers, radii, nodes):
            seen.append((list(centers), nodes))
            return real(a, centers, radii, nodes)

        monkeypatch.setattr(riesz, "_contour_solves", recorded)
        monkeypatch.setattr(riesz, "_NESTED_ACCEPT", accept)
        assert riesz._projection_ranks(a, rep, centers) == expected
        assert seen == [(centers, 16), (escalated, 64)]

    def test_solve_memory_is_the_shifts_and_the_resolvents(self):
        # one (200,) block, 1 center, 64 nodes: the shifts and their
        # resolvents, each the size of the output, and nothing more
        a = single(np.diag(np.arange(1.0, 201.0)))
        rep = sl.spectrum(a)
        r = riesz._radius(rep, 1.0)
        tracemalloc.start()
        try:
            (solved,) = riesz._contour_solves(a, [1.0], [r], DEFAULT_NODES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solved.shape == (1, DEFAULT_NODES, 200, 200)
        assert peak <= 2.2 * solved.nbytes

    def test_node_sums_of_a_stack_are_those_of_each_center(self):
        # one einsum per block for all centers, bit for bit the per-center loop
        a = random_maximal_element(sl.AlgebraSpec((3, 5)), rng_for(11))
        rep = sl.spectrum(a)
        centers = list(rep.nonzero_values)
        radii = [riesz._radius(rep, c) for c in centers]
        for nodes in (16, DEFAULT_NODES):
            solved = riesz._contour_solves(a, centers, radii, nodes)
            sums = riesz._node_sums(centers, radii, solved, nodes)
            for k, c in enumerate(centers):
                p, _ = trapezoid_projection(a, rep, c, nodes)
                assert [s[k].tobytes() for s in sums] == [pb.tobytes() for pb in p.blocks]

    def test_nested_rule_is_the_half_node_rule(self):
        a = random_maximal_element(sl.AlgebraSpec((3, 5)), rng_for(7))
        rep = sl.spectrum(a)
        for c in rep.nonzero_values:
            _, half = nested_projection(a, rep, c, 16)
            p8, _ = nested_projection(a, rep, c, 8)
            for hb, pb in zip(half.blocks, p8.blocks):
                np.testing.assert_allclose(hb, pb, rtol=0, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(built=similar_maximal())
    def test_riesz_projection_is_the_default_node_sum(self, built):
        blocks, _ = built
        a = sl.Element(sl.AlgebraSpec(tuple(len(b) for b in blocks)), blocks)
        rep = sl.spectrum(a)
        for c in rep.nonzero_values:
            got = sl.riesz_projection(a, [c])
            p, r = trapezoid_projection(a, rep, c, DEFAULT_NODES)
            want = dataclasses.replace(
                got,
                projection=p,
                radii=(r,),
                nodes=DEFAULT_NODES,
                idempotency_defect=sl.operator_norm(p @ p - p),
                multiplicity=idempotent_rank(p),
            )
            # the payloads as written: -0.0 and 0.0, or 1 and 1.0, differ
            assert cli._dumps(jsonio.report_to_json(got)) == cli._dumps(
                jsonio.report_to_json(want)
            )


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
            lhs = sl.spectral_trace(alpha * a, seed=i)
            rhs = alpha * sl.spectral_trace(a, seed=i)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def trace_bound_holds(a, seed=0):
    """|tr a| <= rank(a) * spectral radius(a), within ``TRACE_CERT_TOL``:
    the spectral trace is certified only to that relative tolerance."""
    tr = sl.spectral_trace(a, seed=seed)
    bound = sl.classical_rank(a) * sl.spectrum(a).radius
    return abs(tr) <= bound + TRACE_CERT_TOL * max(1.0, bound)


class TestTraceBound:
    def test_nilpotent_edge(self, m2):
        assert trace_bound_holds(sl.matrix_unit(m2, 0, 0, 1))

    def test_identity_saturates(self, m3):
        assert trace_bound_holds(sl.identity(m3))
        one = sl.identity(m3)
        assert abs(sl.spectral_trace(one)) == pytest.approx(
            sl.classical_rank(one) * sl.spectrum(one).radius
        )

    def test_random(self, spec23):
        for i in range(5):
            assert trace_bound_holds(random_element(spec23, rng_for(73, i)), seed=i)


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

    @pytest.mark.parametrize(
        "a",
        [
            single(np.eye(3)),
            single(np.diag([1.0, 1.0, 2.0])),
            single(np.triu(np.ones((4, 4)), k=1)),
            sl.Element(sl.AlgebraSpec((2, 2)), [np.diag([1.0, 2.0]), np.diag([2.0, 0.0])]),
        ],
        ids=["identity", "repeated", "nilpotent", "shared-value"],
    )
    def test_not_maximal_error_is_that_of_the_probed_rank(self, a, capsys):
        # a non-maximal element still gets its rank from spectral_rank at
        # the given seed, in the library and at the CLI
        seed = 3
        expected = {
            "rank": sl.spectral_rank(a, seed=seed).rank,
            "nonzero_count": sl.spectrum(a).num_nonzero,
        }
        with pytest.raises(NotMaximalError) as err:
            sl.diagonalize_maximal(a, seed=seed)
        assert err.value.details() == expected
        payload = json.dumps(jsonio.element_to_json(a))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdin", io.StringIO(payload))
            code = run(["diagonalize", "--seed", str(seed)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["type"] == "NotMaximalError"
        assert out["error"]["details"] == expected

    def test_random_maximal_reconstruction(self, spec23):
        for i in range(6):
            a = random_maximal_element(spec23, rng_for(79, i))
            d = sl.diagonalize_maximal(a)
            assert d.residual < 1e-8
            for p in d.projections:
                assert sl.classical_rank(p) == 1


class TestDiagonalizationClosedForm:
    """The eigendecomposition projections of :func:`diagonalize_maximal`
    against the contour projections of :func:`riesz_projection`, on
    elements whose values and ranks are known by construction."""

    @settings(max_examples=60, deadline=None)
    @given(built=similar_maximal(), data=st.data())
    def test_matches_contour_and_construction(self, built, data):
        blocks, values = built
        a = sl.Element(sl.AlgebraSpec(tuple(len(b) for b in blocks)), blocks)
        d = sl.diagonalize_maximal(a)
        assert len(d.values) == len(values)
        for v in values:
            assert min(abs(v - w) for w in d.values) < 1e-9
        assert d.residual <= 1e-8
        for i, (v, p) in enumerate(zip(d.values, d.projections)):
            contour = sl.riesz_projection(a, [v]).projection
            scale = max(1.0, sl.operator_norm(p))
            assert sl.operator_norm(p - contour) <= 1e-10 * scale
            assert sl.classical_rank(p) == 1
            for j, q in enumerate(d.projections):
                if i != j:
                    assert sl.operator_norm(p @ q) <= 1e-8

        order = data.draw(st.permutations(range(len(blocks))))
        moved = sl.Element(
            sl.AlgebraSpec(tuple(len(blocks[k]) for k in order)),
            [blocks[k] for k in order],
        )
        e = sl.diagonalize_maximal(moved)
        assert len(e.values) == len(d.values)
        for v, p in zip(d.values, d.projections):
            w = min(range(len(e.values)), key=lambda k: abs(e.values[k] - v))
            assert abs(e.values[w] - v) < 1e-12
            for pos, k in enumerate(order):
                np.testing.assert_allclose(
                    e.projections[w].blocks[pos], p.blocks[k], rtol=0, atol=1e-12
                )

    def test_no_linear_solve(self, monkeypatch):
        a = random_maximal_element(sl.AlgebraSpec((6, 10)), rng_for(89))
        calls = []
        real = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        d = sl.diagonalize_maximal(a)
        assert len(d.values) > 1 and calls == []
        # the counter does see the contour's solves
        sl.riesz_projection(a, [d.values[0]])
        assert calls

    def test_failed_eigenvector_inverse_names_the_block(self, monkeypatch):
        a = random_maximal_element(sl.AlgebraSpec((2, 3)), rng_for(97))
        real = np.linalg.inv

        def inv(m):
            if len(m) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(m)

        monkeypatch.setattr(np.linalg, "inv", inv)
        with pytest.raises(EigensolverError) as err:
            sl.diagonalize_maximal(a)
        assert err.value.block_index == 1

    def test_value_without_exactly_one_eigenvalue_is_typed(self, monkeypatch):
        a = single(np.diag([1.0, 2.0, 0.0]))
        real = np.linalg.eig

        def eig(m):
            # eigenvalue 2 reported as a second 1: the disk around 1 holds
            # two eigenvalues and the disk around 2 none
            vals, vecs = real(m)
            return np.where(np.abs(vals - 2) < 0.5, 1.0, vals), vecs

        monkeypatch.setattr(np.linalg, "eig", eig)
        with pytest.raises(MultiplicityInconsistencyError) as err:
            sl.diagonalize_maximal(a)
        assert err.value.target in (1, 2)
        assert str(err.value.target) in str(err.value)


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
        assert riesz._compress(p, p @ a @ p)[0].block_sizes == (1,)
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
        sl.spectral_trace(a)
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
