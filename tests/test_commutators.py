import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
from soclelab.commutators import CommutatorCertificate, MatrixUnit
from soclelab.errors import DegenerateProjectionError, NonFiniteEntryError
from soclelab.errors import NotTracelessError, NumericOverflowError, ShapeMismatchError
from soclelab.sampling import random_element, random_traceless_matrix, rng_for

from conftest import single


def units(cert):
    return [
        (c, (left.row, left.col), (right.row, right.col))
        for c, left, right in cert.terms
    ]


class TestDecomposition:
    def test_single_off_diagonal_unit(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        cert = sl.commutator_decompose(m)
        assert units(cert) == [(1.0, (0, 0), (0, 1))]
        assert cert.reconstruction_defect == 0.0

    def test_diagonal_pair(self):
        cert = sl.commutator_decompose(np.diag([1.0, -1.0]))
        assert units(cert) == [(1.0, (0, 1), (1, 0))]

    def test_telescoping_diagonal(self):
        cert = sl.commutator_decompose(np.diag([1.0, 2.0, -3.0]))
        assert units(cert) == [(1.0, (0, 1), (1, 0)), (3.0, (1, 2), (2, 1))]
        assert cert.reconstruction_defect <= 1e-12

    def test_one_by_one_is_empty(self):
        cert = sl.commutator_decompose(np.zeros((1, 1)))
        assert cert.terms == ()
        assert cert.reconstruction_defect == 0.0

    def test_nonzero_trace_rejected(self):
        with pytest.raises(NotTracelessError) as err:
            sl.commutator_decompose(np.eye(2))
        assert err.value.trace == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "diagonal, error",
        [
            # trace 3.4e308: past the double range
            ([1.7e308, 1.7e308], NumericOverflowError),
            ([1.7e308j, 1.7e308j], NumericOverflowError),
            # trace 1.1e308 is finite, the Frobenius norm 2.3e308 is not
            ([1.5e308, 1e308, -1.4e308], NotTracelessError),
        ],
    )
    def test_huge_trace_refused_before_overflow(self, diagonal, error):
        with np.errstate(all="raise"), pytest.raises(error) as err:
            sl.commutator_decompose(np.diag(diagonal))
        if error is NumericOverflowError:
            assert "trace" in str(err.value)
        else:
            assert err.value.trace == pytest.approx(1.1e308, rel=1e-15)

    def test_overflowing_partial_sum_is_refused(self):
        # traceless, but the certificate coefficient 2.4e308 is not a double
        with np.errstate(all="raise"), pytest.raises(NumericOverflowError) as err:
            sl.commutator_decompose(np.diag([1.2e308, 1.2e308, -1.2e308, -1.2e308]))
        assert "partial sum 1" in str(err.value)

    def test_huge_traceless_matrix_decomposes(self):
        with np.errstate(all="raise"):
            cert = sl.commutator_decompose(np.diag([1e308, -1e308]))
        assert units(cert) == [(1e308, (0, 1), (1, 0))]
        assert cert.reconstruction_defect == 0.0

    @pytest.mark.parametrize(
        "m",
        [
            [[np.nan]],
            [[np.nan, 0.0], [1.0, 0.0]],
            [[np.inf, 0.0], [0.0, -np.inf]],
        ],
    )
    def test_non_finite_matrix_rejected(self, m):
        # NaN and inf - inf slip through the traceless check unless refused first
        with pytest.raises(NonFiniteEntryError):
            sl.commutator_decompose(np.array(m))

    def test_zero_entries_skipped(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 2] = 5.0
        cert = sl.commutator_decompose(m)
        assert len(cert.terms) == 1

    def test_term_bound(self):
        for n in range(1, 9):
            m = random_traceless_matrix(n, rng_for(107, n))
            cert = sl.commutator_decompose(m)
            assert len(cert.terms) <= n * n - 1

    def test_round_trip_random(self):
        for i in range(60):
            rng = rng_for(109, i)
            n = int(rng.integers(1, 9))
            m = random_traceless_matrix(n, rng)
            cert = sl.commutator_decompose(m)
            assert sl.verify_certificate(cert) <= 1e-12

    @pytest.mark.parametrize("block", [-1, 1.0, True, "0", None])
    def test_block_is_a_nonnegative_int(self, block):
        # a certificate of MatrixUnit(-1, ...) would still verify
        with pytest.raises(ShapeMismatchError, match="nonnegative integer"):
            sl.commutator_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]), block=block)


class TestVerification:
    def test_recomputes_from_scratch(self):
        m = random_traceless_matrix(4, rng_for(113))
        cert = sl.commutator_decompose(m)
        perturbed = CommutatorCertificate(
            block=cert.block,
            block_size=cert.block_size,
            terms=(
                (cert.terms[0][0] + 1.0, cert.terms[0][1], cert.terms[0][2]),
            )
            + cert.terms[1:],
            target=cert.target,
            reconstruction_defect=cert.reconstruction_defect,
        )
        assert sl.verify_certificate(perturbed) >= 0.5

    def test_empty_certificate_zero_target(self):
        cert = CommutatorCertificate(
            block=0,
            block_size=2,
            terms=(),
            target=np.zeros((2, 2), dtype=complex),
            reconstruction_defect=0.0,
        )
        assert sl.verify_certificate(cert) == 0.0

    def test_commutators_are_trace_free(self, spec23):
        # single commutators always land in the trace kernel
        for i in range(6):
            rng = rng_for(127, i)
            a = random_element(spec23, rng)
            b = random_element(spec23, rng)
            comm = a @ b - b @ a
            assert abs(sl.spectral_trace(comm, seed=i)) <= 1e-8

    def test_negative_index_is_rejected(self):
        # e_(-1,-1) would wrap to e_11 and verify [[0,0],[1,0]] with defect 0
        cert = CommutatorCertificate(
            block=0,
            block_size=2,
            terms=((1.0, MatrixUnit(0, -1, -1), MatrixUnit(0, -1, 0)),),
            target=np.array([[0, 0], [1, 0]], dtype=complex),
            reconstruction_defect=0.0,
        )
        with pytest.raises(ShapeMismatchError):
            sl.verify_certificate(cert)

    def test_index_past_the_block_is_rejected(self):
        cert = CommutatorCertificate(
            block=0,
            block_size=2,
            terms=((1.0, MatrixUnit(0, 5, 0), MatrixUnit(0, 0, 1)),),
            target=np.zeros((2, 2), dtype=complex),
            reconstruction_defect=0.0,
        )
        with pytest.raises(ShapeMismatchError):
            sl.verify_certificate(cert)

    def test_unit_of_another_block_is_rejected(self):
        cert = sl.commutator_decompose(np.diag([1.0, -1.0]), block=1)
        c, left, right = cert.terms[0]
        foreign = dataclasses.replace(cert, terms=((c, MatrixUnit(0, left.row, left.col), right),))
        with pytest.raises(ShapeMismatchError):
            sl.verify_certificate(foreign)

    def test_non_finite_coefficient_is_rejected(self):
        # a NaN defect would pass every "defect > tol" check
        cert = sl.commutator_decompose(np.diag([1.0, -1.0]))
        _, left, right = cert.terms[0]
        bad = dataclasses.replace(cert, terms=((complex(np.nan, 0.0), left, right),))
        with pytest.raises(NonFiniteEntryError):
            sl.verify_certificate(bad)

    def test_non_finite_target_is_rejected(self):
        cert = sl.commutator_decompose(np.diag([1.0, -1.0]))
        with pytest.raises(NonFiniteEntryError):
            sl.verify_certificate(dataclasses.replace(cert, target=np.diag([np.inf, -1.0])))


class TestRankOnePair:
    def test_equal_projections_give_zero(self):
        pair = sl.rank_one_commutator([1.0, 2.0], [0.5, 0.25], [1.0, 2.0], [0.5, 0.25])
        np.testing.assert_allclose(pair.P, pair.Q)
        np.testing.assert_allclose(pair.S @ pair.T - pair.T @ pair.S, np.zeros((2, 2)), atol=1e-14)

    def test_unit_projections(self):
        pair = sl.rank_one_commutator([1, 0], [1, 0], [0, 1], [0, 1])
        np.testing.assert_array_equal(pair.S, [[0, 1], [0, 0]])
        np.testing.assert_array_equal(pair.T, [[0, 0], [1, 0]])
        np.testing.assert_array_equal(
            pair.S @ pair.T - pair.T @ pair.S, np.diag([1.0, -1.0])
        )

    def test_skew_projection_entrywise(self):
        pair = sl.rank_one_commutator([1, 0], [1, 0], [1, 1], [0.5, 0.5])
        np.testing.assert_allclose(pair.Q, 0.5 * np.ones((2, 2)))
        delta = (pair.P - pair.Q) - (pair.S @ pair.T - pair.T @ pair.S)
        assert np.max(np.abs(delta)) <= 1e-12

    def test_factors_have_rank_one(self):
        for i in range(20):
            rng = rng_for(131, i)
            n = int(rng.integers(2, 7))
            x, f, y, g = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(4))
            pair = sl.rank_one_commutator(x, f, y, g)
            assert pair.defect <= 1e-12
            for m in (pair.S, pair.T, pair.P, pair.Q):
                s = np.linalg.svd(m, compute_uv=False)
                assert int(np.sum(s > 1e-9 * s[0])) == 1

    def test_degenerate_pairing_rejected(self):
        with pytest.raises(DegenerateProjectionError):
            sl.rank_one_commutator([1, 0], [0, 1], [1, 0], [1, 0])

    @pytest.mark.parametrize("k", [-30, 0, 600, 1000])
    def test_normalization_commutes_with_powers_of_two(self, k):
        # the pairing is made on power-of-two-scaled vectors, so x -> 2^k x
        # scales the normalized f by exactly 2^-k and leaves P unchanged
        rng = rng_for(137)
        x, f, y, g = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4))
        ref = sl.rank_one_commutator(x, f, y, g)
        pair = sl.rank_one_commutator(x * 2.0**k, f, y, g)
        np.testing.assert_array_equal(pair.f, ref.f * 2.0**-k)
        np.testing.assert_array_equal(pair.P, ref.P)

    def test_pairing_beyond_the_double_range(self):
        # f(x) = 1.5e308 - 1.5e308i has finite parts but no finite modulus
        pair = sl.rank_one_commutator([1.5 + 1.5j], [-1e308j], [1.0], [1.0])
        np.testing.assert_allclose(pair.f, [(1 - 1j) / 3], rtol=1e-15)
        assert pair.defect < 1e-15

    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_vector_rejected(self, which):
        vectors = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        vectors[which] = [np.nan, 1.0] if which % 2 else [np.inf, 0.0]
        with pytest.raises(NonFiniteEntryError):
            sl.rank_one_commutator(*vectors)


def matmul_defect(cert):
    """The defect rebuilt by unit-matrix products, the reference for
    ``verify_certificate``'s rebuild by index."""
    n = cert.block_size

    def unit_matrix(unit):
        m = np.zeros((n, n), dtype=complex)
        m[unit.row, unit.col] = 1.0
        return m

    acc = np.zeros((n, n), dtype=complex)
    for c, left, right in cert.terms:
        lm = unit_matrix(left)
        rm = unit_matrix(right)
        acc += c * (lm @ rm - rm @ lm)
    return float(np.max(np.abs(acc - cert.target)))


_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6)
_COEFFICIENTS = st.complex_numbers(max_magnitude=1e300) | st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 + 0j]
)


@st.composite
def decomposed_certificates(draw):
    """Certificates of traceless matrices rich in 0.0 and -0.0 entries."""
    n = draw(st.integers(1, 6))
    m = np.array(
        draw(st.lists(_ENTRIES, min_size=2 * n * n, max_size=2 * n * n)), dtype=float
    ).view(complex).reshape(n, n)
    m[-1, -1] = -np.trace(m[:-1, :-1])
    return sl.commutator_decompose(m, block=draw(st.integers(0, 3)))


@st.composite
def hand_built_certificates(draw):
    """Arbitrary in-range unit pairs, with [e_ab, e_ba] and [e_aa, e_aa] among them."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["any", "swap", "same"]))
        a, b = draw(index), draw(index)
        c, d = {"any": (draw(index), draw(index)), "swap": (b, a), "same": (a, a)}[kind]
        if kind == "same":
            b = a
        terms.append((draw(_COEFFICIENTS), MatrixUnit(2, a, b), MatrixUnit(2, c, d)))
    target = np.array(
        draw(st.lists(_ENTRIES, min_size=2 * n * n, max_size=2 * n * n)), dtype=float
    ).view(complex).reshape(n, n)
    return CommutatorCertificate(
        block=2, block_size=n, terms=tuple(terms), target=target, reconstruction_defect=0.0
    )


@st.composite
def perturbed_certificates(draw):
    """Decomposed certificates whose coefficients are then moved."""
    cert = draw(decomposed_certificates())
    terms = tuple(
        (c + draw(_COEFFICIENTS) if draw(st.booleans()) else c, left, right)
        for c, left, right in cert.terms
    )
    return dataclasses.replace(cert, terms=terms)


class TestRebuildByIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        cert=decomposed_certificates() | hand_built_certificates() | perturbed_certificates()
    )
    def test_defect_equals_the_matmul_rebuild(self, cert):
        with np.errstate(all="ignore"):
            expected = matmul_defect(cert)
        assert repr(sl.verify_certificate(cert)) == repr(expected)
