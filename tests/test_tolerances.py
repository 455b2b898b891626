"""Boundary pairs: for each tolerance constant, two literal inputs within a
factor of 3 on either side of its documented boundary, each with its
right outcome. Multiplying or dividing the constant by 10 moves the
boundary past one of the two, and its test fails."""

import numpy as np
import pytest

import soclelab as sl
from soclelab import riesz
from soclelab.algebra import corner_ranks
from soclelab.commutators import commutator_decompose
from soclelab.errors import (
    MultiplicityInconsistencyError,
    NotIdempotentError,
    NotTracelessError,
    SingularResolventError,
    SpectralGapError,
    TraceCertificationError,
)

from conftest import single


class TestToleranceBoundaries:
    @pytest.mark.parametrize("small, rank", [(3e-9, 2), (3e-10, 1)])
    def test_rank_tol(self, small, rank):
        # a block counts its singular values above RANK_TOL = 1e-9 times its largest
        assert sl.classical_rank(single(np.diag([1.0, small]))) == rank

    @pytest.mark.parametrize("distance, singular", [(3e-10, False), (3e-11, True)])
    def test_resolvent_floor(self, distance, singular):
        # z within RESOLVENT_FLOOR = 1e-10 times max(radius, 1) of the spectrum is refused
        a = single([[1.0]])
        if singular:
            with pytest.raises(SingularResolventError):
                sl.resolvent(a, 1.0 + distance)
        else:
            r = sl.resolvent(a, 1.0 + distance)
            np.testing.assert_allclose(r.blocks[0], [[1 / distance]], rtol=1e-5)

    @pytest.mark.parametrize("d, idempotent", [(3e-9, True), (3e-8, False)])
    def test_idempotency_tol(self, d, idempotent):
        # ||p^2 - p|| of diag(1, d) is d(1 - d); IDEMPOTENCY_TOL = 1e-8
        p = single(np.diag([1.0, d]))
        if idempotent:
            assert corner_ranks(p) == [1]
        else:
            with pytest.raises(NotIdempotentError):
                corner_ranks(p)

    @pytest.mark.parametrize("t, traceless", [(3e-10, True), (3e-9, False)])
    def test_traceless_tol(self, t, traceless):
        # |trace| over TRACELESS_TOL = 1e-9 times max(1, ||m||_F), here 1
        m = np.array([[t, 1.0], [0.0, 0.0]], dtype=complex)
        if traceless:
            # decomposed: what the certificate leaves over is the trace
            assert commutator_decompose(m).reconstruction_defect == pytest.approx(t)
        else:
            with pytest.raises(NotTracelessError):
                commutator_decompose(m)

    @pytest.mark.parametrize(
        "g, error", [(1e-5, SpectralGapError), (9e-5, MultiplicityInconsistencyError)]
    )
    def test_gap_floor_factor(self, g, error):
        # the gap floor is GAP_FLOOR_FACTOR = 10 cluster tolerances, 3e-5 here;
        # above it, route A's eps = 1e-3 cannot resolve a gap of 9e-5
        a = single(np.diag([1.0, 1.0 + g, 3.0]))
        with pytest.raises(error):
            sl.multiplicity(a, 1.0)

    @pytest.mark.parametrize("error, certified", [(3e-9, True), (3e-8, False)])
    def test_trace_cert_tol(self, monkeypatch, error, certified):
        # the oracle off by a relative error against TRACE_CERT_TOL = 1e-8
        real = riesz.classical_trace
        monkeypatch.setattr(riesz, "classical_trace", lambda a: real(a) * (1 + error))
        a = single(np.diag([1.0, 2.0, 3.0]))
        if certified:
            assert sl.spectral_trace(a) == pytest.approx(6.0, rel=1e-12)
        else:
            with pytest.raises(TraceCertificationError):
                sl.spectral_trace(a)

    @pytest.mark.parametrize("t, nodes", [(50.0, [16]), (440.0, [16, 64])])
    def test_nested_accept(self, monkeypatch, t, nodes):
        # ||P_16 - P_8|| at the value 1 of [[1, t], [0, 2]] is 1.68e-3 t:
        # 0.084 and 0.740 about _NESTED_ACCEPT = 1/4
        seen = []
        real = riesz._contour_solves

        def recorded(a, centers, radii, count):
            seen.append(count)
            return real(a, centers, radii, count)

        monkeypatch.setattr(riesz, "_contour_solves", recorded)
        a = single([[1.0, t], [0.0, 2.0]])
        assert riesz._projection_ranks(a, sl.spectrum(a), [1.0]) == [1]
        assert seen == nodes
