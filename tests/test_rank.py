import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
from soclelab import algebra, rank
from soclelab.errors import (
    EigensolverError,
    NotMaximalError,
    NumericOverflowError,
    RankCertificationError,
)
from soclelab.rank import DEFAULT_PROBES
from soclelab.sampling import (
    PROBE,
    complex_gaussian,
    random_element,
    random_invertible,
    random_low_rank_element,
    random_maximal_element,
    random_rank_one_projection,
    rng_for,
)

from conftest import similar_elements, single


class TestSpectralRank:
    def test_zero_element(self, spec23):
        rep = sl.spectral_rank(sl.zero(spec23), probes=8)
        assert rep.rank == 0
        assert rep.achieved_counts == {0: 8}
        assert rep.oracle_rank == 0

    def test_nilpotent_plus_zero_block(self):
        spec = sl.AlgebraSpec((2, 1))
        a = sl.matrix_unit(spec, 0, 0, 1)  # oracle rank 1
        rep = sl.spectral_rank(a, probes=16)
        assert rep.rank == 1

    def test_projection_plus_identity(self, spec22):
        a = sl.matrix_unit(spec22, 0, 0, 0)
        a = a + sl.matrix_unit(spec22, 1, 0, 0) + sl.matrix_unit(spec22, 1, 1, 1)
        rep = sl.spectral_rank(a, probes=16)
        assert rep.rank == 3  # 1 + 2 from the oracle

    def test_best_probe_attains_rank(self, spec23):
        a = random_low_rank_element(spec23, rng_for(23), ranks=(1, 2))
        rep = sl.spectral_rank(a, probes=16, seed=5)
        assert sl.nonzero_spectrum_count(rep.best_probe @ a) == rep.rank == 3

    def test_deterministic_in_seed(self, spec23):
        a = random_element(spec23, rng_for(29))
        r1 = sl.spectral_rank(a, probes=12, seed=99)
        r2 = sl.spectral_rank(a, probes=12, seed=99)
        assert r1.achieved_counts == r2.achieved_counts
        assert all(
            np.array_equal(x, y)
            for x, y in zip(r1.best_probe.blocks, r2.best_probe.blocks)
        )

    def test_certifies_against_oracle_on_random(self, spec23):
        for i in range(25):
            a = random_low_rank_element(spec23, rng_for(31, i))
            rep = sl.spectral_rank(a, probes=16, seed=i)
            assert rep.rank == rep.oracle_rank == sl.classical_rank(a)


class TestRankProperties:
    def test_nonzero_count_bounded_by_rank(self, spec23):
        # includes an exactly nilpotent triangular block
        for i in range(12):
            rng = rng_for(37, i)
            a = random_low_rank_element(spec23, rng)
            a.blocks[0][:] = np.triu(a.blocks[0], k=1)
            assert sl.nonzero_spectrum_count(a) <= sl.spectral_rank(a, probes=8).rank

    def test_subadditive(self, spec23):
        for i in range(8):
            rng = rng_for(41, i)
            a = random_low_rank_element(spec23, rng)
            b = random_low_rank_element(spec23, rng)
            ra = sl.spectral_rank(a, probes=8).rank
            rb = sl.spectral_rank(b, probes=8).rank
            rab = sl.spectral_rank(a + b, probes=8).rank
            assert rab <= ra + rb

    def test_monotone_and_invariant_under_invertibles(self, spec23):
        for i in range(8):
            rng = rng_for(43, i)
            a = random_low_rank_element(spec23, rng)
            x = random_element(spec23, rng)
            u = random_invertible(spec23, rng)
            ra = sl.spectral_rank(a, probes=8).rank
            assert sl.spectral_rank(x @ a, probes=8).rank <= ra
            assert sl.spectral_rank(u @ a, probes=8).rank == ra

    def test_rank_one_projection_has_line_corner(self, spec23):
        # p has rank one exactly when p x p sweeps out a single line
        p = random_rank_one_projection(spec23, rng_for(47))
        assert sl.spectral_rank(p, probes=8).rank == 1
        vecs = []
        for i in range(spec23.num_blocks):
            n = spec23.block_sizes[i]
            for r in range(n):
                for c in range(n):
                    x = sl.matrix_unit(spec23, i, r, c)
                    pxp = p @ x @ p
                    vecs.append(np.concatenate([b.ravel() for b in pxp.blocks]))
        svals = np.linalg.svd(np.array(vecs), compute_uv=False)
        assert int(np.sum(svals > 1e-9 * svals[0])) == 1


def reference_is_maximal(a):
    """The maximality rule that always probes: the probed rank against
    the nonzero-spectrum count."""
    return sl.spectral_rank(a).rank == sl.nonzero_spectrum_count(a)


class TestMaximalElements:
    def test_two_distinct_values_is_maximal(self):
        assert sl.is_maximal_finite_rank(single(np.diag([1.0, 2.0])))

    def test_identity_not_maximal(self, m2):
        assert not sl.is_maximal_finite_rank(sl.identity(m2))

    def test_nilpotent_not_maximal(self, m2):
        assert not sl.is_maximal_finite_rank(sl.matrix_unit(m2, 0, 0, 1))

    @settings(max_examples=80, deadline=None)
    @given(built=similar_elements())
    def test_agrees_with_the_probing_rule(self, built):
        kind, a = built
        draws = []
        real = rank.random_element_stack

        def spy(*args, **kwargs):
            draws.append(args[2])
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rank, "random_element_stack", spy)
            got = sl.is_maximal_finite_rank(a)
        # a is its own witness exactly when its count is the SVD rank
        witnessed = sl.nonzero_spectrum_count(a) == sl.classical_rank(a)
        assert draws == ([] if witnessed else [DEFAULT_PROBES])
        assert got == witnessed
        if kind in ("maximal", "zero-block"):
            assert got
        if kind == "repeated":
            assert not got
        if kind == "identity":
            assert got == (a.spec.matrix_dimension == 1)
        try:
            expected = reference_is_maximal(a)
        except RankCertificationError:
            return
        assert got == expected

    def test_maximal_element_draws_no_probe(self, spec23, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a maximal element needs no probe")

        monkeypatch.setattr(rank, "random_element_stack", refuse)
        for i in range(4):
            a = random_maximal_element(spec23, rng_for(59, i))
            assert sl.is_maximal_finite_rank(a)
            assert sl.diagonalize_maximal(a, seed=i).residual < 1e-8

    def test_non_maximal_element_takes_one_svd_per_block(self, monkeypatch):
        # the probed rank is certified against the SVD rank the maximality
        # check already holds, not against a second one
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        a = sl.identity(sl.AlgebraSpec((2, 3)))
        with pytest.raises(NotMaximalError) as err:
            sl.diagonalize_maximal(a)
        assert err.value.details() == {"rank": 5, "nonzero_count": 1}
        assert len(calls) == 2
        calls.clear()
        assert not sl.is_maximal_finite_rank(a)
        assert len(calls) == 2


def reference_probe_counts(a, probes, seed):
    """Probe counts and first best probe, drawing and counting one probe at a time."""
    counts = []
    best = None
    rng = rng_for(seed, PROBE)
    for i in range(probes):
        x = random_element(a.spec, rng)
        counts.append(sl.nonzero_spectrum_count(x @ a))
        if counts[-1] > max(counts[:-1], default=-1):
            best = x
    return counts, best


def planted_block(kind, n, rng):
    g = complex_gaussian(rng, (n, n))
    if kind == "low-rank":
        r = int(rng.integers(0, n + 1))
        return g[:, :r] @ complex_gaussian(rng, (r, n))
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "nilpotent":
        return np.triu(g, k=1)
    return g


class TestBatchedProbing:
    def test_random_element_keeps_per_block_stream(self, spec23):
        # the draw order of per-block complex_gaussian calls
        x = random_element(spec23, rng_for(53))
        rng = rng_for(53)
        for block, n in zip(x.blocks, spec23.block_sizes):
            assert block.tobytes() == complex_gaussian(rng, (n, n)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(1, 6),
                st.sampled_from(["dense", "low-rank", "zero", "nilpotent"]),
            ),
            min_size=1,
            max_size=3,
        ),
        probes=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_probe_loop(self, blocks, probes, seed):
        rng = rng_for(seed, 1 << 40)
        spec = sl.AlgebraSpec(tuple(n for n, _ in blocks))
        a = sl.Element(
            spec, tuple(planted_block(kind, n, rng) for n, kind in blocks)
        )
        counts, best = reference_probe_counts(a, probes, seed)
        if max(counts) != sl.classical_rank(a):
            with pytest.raises(RankCertificationError):
                sl.spectral_rank(a, probes=probes, seed=seed)
            return
        rep = sl.spectral_rank(a, probes=probes, seed=seed)
        assert rep.rank == max(counts)
        assert rep.achieved_counts == {c: counts.count(c) for c in sorted(set(counts))}
        assert [b.tobytes() for b in rep.best_probe.blocks] == [
            b.tobytes() for b in best.blocks
        ]

    def test_one_clustering_call(self, spec23, monkeypatch):
        calls = []
        real = algebra.cluster_eigenvalues

        def counted(*args, **kwargs):
            calls.append(np.array(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(algebra, "cluster_eigenvalues", counted)
        # every probe is decided by the separation test: no clustering at all
        low = sl.Element(spec23, [np.eye(2), np.zeros((3, 3))])
        sl.spectral_rank(low)
        assert calls == []
        # never one call per probe
        for i in range(5):
            for a in (
                random_element(spec23, rng_for(67, i)),
                random_low_rank_element(spec23, rng_for(67, i), [1, 1]),
            ):
                calls.clear()
                sl.spectral_rank(a, seed=i)
                assert len(calls) <= 1
        # rows 1 and 3 are undecided: a modulus of 0.75 r, and two values
        # beyond 2r that lie 1.5 r apart (r = 1e-6 in every row)
        r = algebra.CLUSTER_TOL
        vals = np.array(
            [[0.5, 0, 1e-8], [0.5, 0.75 * r, 0], [0.5, -0.5, 1e-8j], [0.5, 3 * r, 4.5 * r]],
            dtype=complex,
        )
        calls.clear()
        counts = algebra.nonzero_spectrum_counts(vals)
        assert len(calls) == 1
        assert calls[0].shape == (2, 3)
        assert calls[0].tobytes() == vals[[1, 3]].tobytes()
        assert counts.tolist() == [1, 1, 2, 3]
        assert counts.tolist() == algebra._clustered(vals)[3].sum(axis=1).tolist()

    def test_overflowing_product_names_its_block(self, spec22):
        # probes times entries of 1e308 overflow in block 1 only; the
        # product runs under errstate, so no RuntimeWarning (an error here)
        big = np.array([[1e308, 1e308], [1e308, -1e308]])
        a = sl.Element(spec22, [np.eye(2), big])
        with pytest.raises(NumericOverflowError, match="block 1 overflow"):
            sl.spectral_rank(a)

    def test_failed_eigensolve_of_a_finite_product_names_its_block(self, spec23, monkeypatch):
        real = np.linalg.eigvals

        def eigvals(m):
            if m.shape[-1] == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        with pytest.raises(EigensolverError) as err:
            sl.spectral_rank(random_element(spec23, rng_for(71)))
        assert type(err.value) is EigensolverError
        assert err.value.block_index == 1
