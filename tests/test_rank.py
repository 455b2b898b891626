import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
from soclelab import algebra
from soclelab.errors import RankCertificationError
from soclelab.rank import DEFAULT_PROBES
from soclelab.sampling import (
    PROBE,
    complex_gaussian,
    random_element,
    random_invertible,
    random_low_rank_element,
    random_rank_one_projection,
    rng_for,
)

from conftest import single


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


class TestMaximalElements:
    def test_two_distinct_values_is_maximal(self):
        assert sl.is_maximal_finite_rank(single(np.diag([1.0, 2.0])))

    def test_identity_not_maximal(self, m2):
        assert not sl.is_maximal_finite_rank(sl.identity(m2))

    def test_nilpotent_not_maximal(self, m2):
        assert not sl.is_maximal_finite_rank(sl.matrix_unit(m2, 0, 0, 1))


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
            calls.append(len(np.atleast_2d(args[0])))
            return real(*args, **kwargs)

        monkeypatch.setattr(algebra, "cluster_eigenvalues", counted)
        # every probe of a rank-deficient element has a zero cluster to merge
        low = sl.Element(spec23, [np.eye(2), np.zeros((3, 3))])
        sl.spectral_rank(low)
        assert calls == [DEFAULT_PROBES]
        for i in range(5):
            calls.clear()
            sl.spectral_rank(random_element(spec23, rng_for(67, i)), seed=i)
            assert len(calls) <= 1
