import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
import soclelab.classify as classify
import soclelab.riesz as riesz
from soclelab.algebra import block_ranks, corner_ranks
from soclelab.errors import NotIdempotentError, NumericOverflowError, TheoremViolationError
from soclelab.sampling import (
    random_element,
    random_maximal_element,
    random_projection,
    rng_for,
)


def block_support(p):
    """Blocks of nonzero rank under the rank rule for general elements: an
    oracle apart from the idempotent rule that the corner checks read."""
    return frozenset(i for i, r in enumerate(block_ranks(p)) if r)


class TestGeneratedIdeal:
    def test_corner_unit_spans_its_block(self, spec23):
        rep = sl.generated_ideal(sl.matrix_unit(spec23, 0, 0, 0))
        assert rep.ideal_dimension == 4
        assert not rep.is_whole_algebra  # the algebra has dimension 13
        assert rep.supported_blocks == frozenset({0})

    def test_single_block_is_simple(self, m2):
        rep = sl.generated_ideal(sl.matrix_unit(m2, 0, 0, 1))
        assert rep.ideal_dimension == 4
        assert rep.is_whole_algebra

    def test_zero_generator(self, spec23):
        rep = sl.generated_ideal(sl.zero(spec23))
        assert rep.ideal_dimension == 0
        assert rep.supported_blocks == frozenset()

    def test_distinct_block_ideals_meet_only_at_zero(self, spec23):
        # dim(J_i) + dim(J_j) = dim(J_i + J_j) forces zero intersection
        i_units = [
            sl.matrix_unit(spec23, 0, r, c).blocks[0].ravel()
            for r in range(2)
            for c in range(2)
        ]
        j_units = [
            sl.matrix_unit(spec23, 1, r, c).blocks[1].ravel()
            for r in range(3)
            for c in range(3)
        ]
        si = np.array([np.concatenate([u, np.zeros(9)]) for u in i_units])
        sj = np.array([np.concatenate([np.zeros(4), u]) for u in j_units])

        def dim(rows):
            s = np.linalg.svd(rows, compute_uv=False)
            return int(np.sum(s > 1e-9 * s[0]))

        assert dim(si) + dim(sj) == dim(np.vstack([si, sj]))


def span_rank_reference(block: np.ndarray) -> int:
    """Numerical dimension of span{e a f : e, f matrix units} in one block.

    The stacked n^4 x n^2 coefficient matrix with a relative 1e-9 SVD
    cutoff: the route the closed form replaced, kept as its reference.
    """
    n = block.shape[0]
    rows = []
    for s in range(n):
        for t in range(n):
            for r in range(n):
                for u in range(n):
                    vec = np.zeros(n * n, dtype=complex)
                    vec[r * n + u] = block[s, t]
                    rows.append(vec)
    stacked = np.array(rows)
    if not np.any(stacked):
        return 0
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > 1e-9 * svals[0]))


class TestIdealClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 5),
        exponent=st.integers(-300, 300),
        density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_stacked_span(self, n, exponent, density, seed):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        block *= 10.0**exponent * (rng.uniform(size=(n, n)) < density)
        spec = sl.AlgebraSpec((n,))
        rep = sl.generated_ideal(sl.Element(spec, [block]))
        assert rep.ideal_dimension == span_rank_reference(block)
        assert rep.supported_blocks == (frozenset({0}) if np.any(block) else frozenset())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_huge_entries_span_the_block(self, n):
        spec = sl.AlgebraSpec((n,))
        rep = sl.generated_ideal(sl.Element(spec, [np.full((n, n), 1e308)]))
        assert rep.ideal_dimension == n * n
        assert rep.is_whole_algebra

    def test_sums_over_supported_blocks(self):
        spec = sl.AlgebraSpec((2, 3, 1))
        a = sl.matrix_unit(spec, 0, 1, 0) + sl.scale(1e-300, sl.matrix_unit(spec, 2, 0, 0))
        rep = sl.generated_ideal(a)
        assert rep.ideal_dimension == 4 + 1
        assert rep.supported_blocks == frozenset({0, 2})

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_different_blocks_multiply_to_exact_zero(self, sizes, seed):
        # Why orthogonal_decomposition need not check that block ideals
        # annihilate: blockwise products make it exact.
        spec = sl.AlgebraSpec(tuple(sizes))
        rng = np.random.default_rng(seed)
        i, j = rng.choice(len(sizes), size=2, replace=False)
        u, v = sl.zero(spec), sl.zero(spec)
        u.blocks[i][:] = 1e300 * rng.standard_normal((sizes[i], sizes[i]))
        v.blocks[j][:] = 1e300 * rng.standard_normal((sizes[j], sizes[j]))
        for prod in (u @ v, v @ u):
            assert not any(np.any(b) for b in prod.blocks)


class TestOrthogonalDecomposition:
    def test_two_blocks(self, spec23):
        reports = sl.orthogonal_decomposition(spec23)
        assert [r.ideal_dimension for r in reports] == [4, 9]

    def test_single_block_whole(self):
        (rep,) = sl.orthogonal_decomposition(sl.AlgebraSpec((4,)))
        assert rep.is_whole_algebra
        assert rep.ideal_dimension == 16

    def test_three_scalar_blocks(self):
        reports = sl.orthogonal_decomposition(sl.AlgebraSpec((1, 1, 1)))
        assert [r.ideal_dimension for r in reports] == [1, 1, 1]
        assert all(not r.is_whole_algebra for r in reports)


class TestMinimalIdeal:
    def test_single_blocks(self):
        assert sl.is_socle_minimal_ideal(sl.AlgebraSpec((3,)))
        assert sl.is_socle_minimal_ideal(sl.AlgebraSpec((1,)))

    def test_two_blocks(self, spec22):
        assert not sl.is_socle_minimal_ideal(spec22)


class TestCornerBlockCheck:
    def test_two_dim_corner_inside_one_block(self):
        spec = sl.AlgebraSpec((3, 2))
        p = sl.matrix_unit(spec, 0, 0, 0) + sl.matrix_unit(spec, 0, 1, 1)
        assert sl.pAp_block_check(p)

    def test_cross_block_corner_fails(self, spec22):
        p = sl.matrix_unit(spec22, 0, 0, 0) + sl.matrix_unit(spec22, 1, 0, 0)
        assert not sl.pAp_block_check(p)

    def test_zero_projection_accepted(self, spec22):
        assert sl.pAp_block_check(sl.zero(spec22))

    def test_non_idempotent_rejected(self, spec22):
        with pytest.raises(NotIdempotentError):
            sl.pAp_block_check(random_element(spec22, rng_for(173)))

    def test_split_follows_the_corner_ranks(self):
        # e_00 + e_22 in block 0 and e_11 in block 2: the corner is M_2 + M_1,
        # and p compresses to the unit of its own corner
        spec = sl.AlgebraSpec((3, 2, 2))
        p = (
            sl.matrix_unit(spec, 0, 0, 0)
            + sl.matrix_unit(spec, 0, 2, 2)
            + sl.matrix_unit(spec, 2, 1, 1)
        )
        assert corner_ranks(p) == [2, 0, 1]
        sub, compressed = riesz._compress(p, p)
        assert sub.block_sizes == (2, 1)
        assert sl.operator_norm(compressed - sl.identity(sub)) <= 1e-12
        assert not sl.pAp_block_check(p)

    def test_annihilating_pair_for_cross_block(self, spec22):
        # a rank-one subprojection in each block of p: p' x q' = 0 for every
        # matrix unit x, so the corner p A p is no full matrix block
        p = sl.matrix_unit(spec22, 0, 0, 0) + sl.matrix_unit(spec22, 1, 0, 0)
        q1, q2 = sl.matrix_unit(spec22, 0, 0, 0), sl.matrix_unit(spec22, 1, 0, 0)
        assert q1 @ p == p @ q1 == q1 and q2 @ p == p @ q2 == q2
        worst = 0.0
        for i in range(2):
            for r in range(2):
                for c in range(2):
                    x = sl.matrix_unit(spec22, i, r, c)
                    worst = max(worst, sl.operator_norm(q1 @ x @ q2))
        assert worst <= 1e-10
        assert not sl.pAp_block_check(p)

    def test_no_annihilating_pair_inside_one_block(self):
        # rank-one subprojections e_ii, e_jj of one block: x = e_ij gives
        # e_ii x e_jj = e_ij, never 0
        spec = sl.AlgebraSpec((3, 2))
        p = sl.matrix_unit(spec, 0, 0, 0) + sl.matrix_unit(spec, 0, 1, 1)
        assert sl.pAp_block_check(p)
        for i in range(2):
            for j in range(2):
                x = sl.matrix_unit(spec, 0, i, j)
                assert sl.matrix_unit(spec, 0, i, i) @ x @ sl.matrix_unit(spec, 0, j, j) == x

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        mask=st.integers(1, 2**12 - 1),
    )
    def test_riesz_corners_read_the_rank_rule(self, sizes, seed, mask):
        # Riesz projections of a maximal element onto a subset of its
        # spectral values: block i of the corner is M_r, r the number of
        # eigenvalues of block i in the subset, whatever roundoff the
        # contour leaves in the other blocks
        spec = sl.AlgebraSpec(tuple(sizes))
        a = random_maximal_element(spec, rng_for(seed))
        values = sl.spectrum(a).values
        targets = [v for j, v in enumerate(values) if mask >> j & 1] or [values[0]]
        p = sl.riesz_projection(a, targets).projection
        expected = [
            sum(min(abs(e - t) for t in targets) < 0.05 for e in np.linalg.eigvals(b))
            for b in a.blocks
        ]
        sub, _ = riesz._compress(p, p @ a @ p)
        assert sub.block_sizes == tuple(r for r in expected if r)
        assert sum(sub.block_sizes) == sl.classical_rank(p)
        assert block_support(p) == {i for i, r in enumerate(expected) if r}
        assert sl.pAp_block_check(p) == (len(sub.block_sizes) <= 1)

    def test_sampled_projections_agree_with_support(self, spec22):
        for i in range(10):
            p = random_projection(spec22, rng_for(179, i))
            assert sl.pAp_block_check(p) == (len(block_support(p)) <= 1)


class TestVerifyTheorems:
    def test_single_block_pattern(self, m3):
        rep = sl.verify_theorems(m3, trials=20, seed=11)
        assert rep.socle_is_minimal_ideal
        assert rep.socle_is_single_matrix_block
        assert rep.counterexample is None
        assert all(v.holds for v in rep.verdicts.values())

    def test_two_block_pattern(self, spec22):
        rep = sl.verify_theorems(spec22, trials=20, seed=11)
        assert not rep.socle_is_minimal_ideal
        assert not rep.socle_is_single_matrix_block
        cx = rep.counterexample
        assert cx is not None
        assert cx.tracial and not cx.is_scalar_trace
        assert cx.bound.constant is not None
        assert cx.rank_one_constancy.witnesses is not None

    def test_scalar_block_recovers_alpha(self):
        rep = sl.verify_theorems(sl.AlgebraSpec((1,)), trials=10, seed=3)
        assert rep.verdicts["nilpotent_vanishing"].details["alpha_max_error"] <= 1e-8

    @pytest.mark.parametrize("sizes", [(1,), (2, 3)])
    def test_details_are_plain_json_values(self, sizes):
        rep = sl.verify_theorems(sl.AlgebraSpec(sizes), trials=5, seed=17)
        for verdict in rep.verdicts.values():
            assert all(type(v) in (bool, int, float) for v in verdict.details.values())

    def test_structural_triple_agreement(self):
        for sizes in [(1,), (3,), (2, 2), (2, 3), (1, 1, 4)]:
            spec = sl.AlgebraSpec(sizes)
            rep = sl.verify_theorems(spec, trials=5, seed=13)
            expected = spec.num_blocks == 1
            assert rep.socle_is_minimal_ideal == expected
            assert rep.socle_is_single_matrix_block == expected


    @pytest.mark.parametrize("sizes", [(3,), (2, 2)])
    def test_one_stack_of_every_functional(self, sizes, monkeypatch):
        spec = sl.AlgebraSpec(sizes)
        stacks = []
        real = classify._characterize_stack

        def recorded(fs, seed):
            stacks.append(list(fs))
            return real(fs, seed)

        monkeypatch.setattr(classify, "_characterize_stack", recorded)
        rep = sl.verify_theorems(spec, trials=3, seed=5)
        (fs,) = stacks
        assert len(fs) == rep.functional_count + (spec.num_blocks > 1) == 9 + (spec.num_blocks > 1)
        if spec.num_blocks > 1:
            assert is_first_block_trace(fs[-1])
            assert rep.counterexample.functional is fs[-1]


def with_verdicts(rep, scalar, tracial, bound, nilpotent, square_zero, constant):
    """A real report with its six verdicts set, witnesses kept."""
    return dataclasses.replace(
        rep,
        scalar_trace_coefficient=(rep.scalar_trace_coefficient or 1.0) if scalar else None,
        tracial=tracial,
        bound=dataclasses.replace(
            rep.bound, constant=(rep.bound.constant or 1.0) if bound else None
        ),
        nilpotent=dataclasses.replace(rep.nilpotent, vanishes=nilpotent),
        square_zero=dataclasses.replace(rep.square_zero, vanishes=square_zero),
        rank_one_constancy=dataclasses.replace(rep.rank_one_constancy, constant=constant),
    )


def verdicts_of(rep):
    return (
        rep.is_scalar_trace,
        rep.tracial,
        rep.bound.constant is not None,
        rep.nilpotent.vanishes,
        rep.square_zero.vanishes,
        rep.rank_one_constancy.constant,
    )


def is_first_block_trace(f):
    return not any(np.any(w) for w in f.weights[1:])


def patch_reports(monkeypatch, edit):
    """Replace the stacked characterization that ``verify_theorems`` reads
    by one that passes each functional's real report through ``edit``."""
    real = classify._characterize_stack

    def patched(fs, seed):
        return [edit(f, rep) for f, rep in zip(fs, real(fs, seed))]

    monkeypatch.setattr(classify, "_characterize_stack", patched)


def patch_characterize(monkeypatch, change, when=lambda f, rep: True):
    """Apply ``change``, a map from six verdicts to six verdicts, to the
    reports ``when`` picks."""
    patch_reports(
        monkeypatch,
        lambda f, rep: with_verdicts(rep, *change(verdicts_of(rep))) if when(f, rep) else rep,
    )


class TestViolations:
    """Each failed prediction raises TheoremViolationError; reports are
    real ones with verdicts flipped."""

    def test_constancy_apart_from_scalar_trace(self, monkeypatch, m3):
        patch_characterize(monkeypatch, lambda v: v[:5] + (not v[5],))
        with pytest.raises(TheoremViolationError):
            sl.verify_theorems(m3, trials=2, seed=1)

    def test_tracial_apart_from_vanishing(self, monkeypatch, spec22):
        patch_characterize(
            monkeypatch,
            lambda v: v[:3] + (not v[3],) + v[4:],
            when=lambda f, rep: not is_first_block_trace(f),
        )
        with pytest.raises(TheoremViolationError):
            sl.verify_theorems(spec22, trials=2, seed=1)

    def test_tracial_but_not_scalar_on_one_block(self, monkeypatch, m3):
        # the blockwise sample, whose one block scalar has modulus 1.5
        patch_characterize(
            monkeypatch,
            lambda v: (False,) + v[1:5] + (False,),
            when=lambda f, rep: rep.is_scalar_trace
            and np.isclose(abs(rep.scalar_trace_coefficient), 1.5),
        )
        with pytest.raises(TheoremViolationError):
            sl.verify_theorems(m3, trials=2, seed=1)

    def test_block_scalars_scored_as_scalar_trace(self, monkeypatch, spec22):
        # all six verdicts true is a predicted pattern: only the planted
        # distinct block scalars refute it
        patch_characterize(
            monkeypatch,
            lambda v: (True,) * 6,
            when=lambda f, rep: rep.tracial and not is_first_block_trace(f),
        )
        with pytest.raises(TheoremViolationError, match="distinct block scalars"):
            sl.verify_theorems(spec22, trials=2, seed=1)

    def test_planted_scalar_not_recovered(self, monkeypatch, spec22):
        # all six verdicts false is a predicted pattern: only the planted
        # scalar refutes it
        patch_characterize(
            monkeypatch,
            lambda v: (False,) * 6,
            when=lambda f, rep: rep.is_scalar_trace,
        )
        with pytest.raises(TheoremViolationError, match="planted scalar"):
            sl.verify_theorems(spec22, trials=2, seed=1)

    @pytest.mark.parametrize("index", [1, 2, 5])
    def test_counterexample_pattern(self, monkeypatch, spec22, index):
        # the first-block trace turned non-tracial, unbounded or constant
        patch_characterize(
            monkeypatch,
            lambda v: v[:index] + (not v[index],) + v[index + 1:],
            when=lambda f, rep: is_first_block_trace(f),
        )
        with pytest.raises(TheoremViolationError):
            sl.verify_theorems(spec22, trials=2, seed=1)

    def test_counterexample_without_witnesses(self, monkeypatch, spec22):
        def patched(f, rep):
            if not is_first_block_trace(f):
                return rep
            constancy = dataclasses.replace(rep.rank_one_constancy, witnesses=None)
            return dataclasses.replace(rep, rank_one_constancy=constancy)

        patch_reports(monkeypatch, patched)
        with pytest.raises(TheoremViolationError):
            sl.verify_theorems(spec22, trials=2, seed=1)

    def test_counterexample_on_one_block(self, monkeypatch, m3):
        monkeypatch.setattr(
            classify, "counterexample_functional", lambda spec: sl.trace_functional(spec, 1.0)
        )
        with pytest.raises(TheoremViolationError):
            sl.verify_theorems(m3, trials=2, seed=1)

    @pytest.mark.parametrize("sizes", [(3,), (2, 2)])
    def test_minimal_ideal_disagrees(self, monkeypatch, sizes):
        monkeypatch.setattr(
            classify, "is_socle_minimal_ideal", lambda spec, seed=0: spec.num_blocks != 1
        )
        with pytest.raises(TheoremViolationError, match="structural"):
            sl.verify_theorems(sl.AlgebraSpec(sizes), trials=2, seed=1)

    @pytest.mark.parametrize("sizes", [(3,), (2, 2)])
    def test_corners_disagree(self, monkeypatch, sizes):
        monkeypatch.setattr(classify, "pAp_block_check", lambda p: p.spec.num_blocks != 1)
        with pytest.raises(TheoremViolationError, match="structural"):
            sl.verify_theorems(sl.AlgebraSpec(sizes), trials=2, seed=1)

    def test_scalar_but_not_tracial_on_several_blocks(self, monkeypatch, spec22):
        # the dense functionals, (False,) * 6, made (True, False, ..., True):
        # scalar and constant but not tracial, a pattern no algebra allows
        patch_characterize(
            monkeypatch,
            lambda v: (True,) + v[1:5] + (True,),
            when=lambda f, rep: not rep.tracial,
        )
        with pytest.raises(TheoremViolationError) as info:
            sl.verify_theorems(spec22, trials=2, seed=1)
        assert "trial 0 dense" in info.value.claim
        assert "(True, False, False, False, False, True)" in info.value.claim
        assert verdicts_of(info.value.witness) == (True, False, False, False, False, True)

    @pytest.mark.parametrize(
        "failing, flipped, error",
        [
            (2, 0, TheoremViolationError),  # trial 0 scalar fails its prediction first
            (2, 3, NumericOverflowError),  # trial 0 dense raises before trial 1 scalar
        ],
    )
    def test_the_first_functional_in_order_decides(
        self, monkeypatch, spec22, failing, flipped, error
    ):
        order = []

        def edit(f, rep):
            order.append(f)
            k = len(order) - 1
            if k == failing:
                return NumericOverflowError("a value overflows the double range")
            return with_verdicts(rep, *(not v for v in verdicts_of(rep))) if k == flipped else rep

        patch_reports(monkeypatch, edit)
        with pytest.raises(error) as info:
            sl.verify_theorems(spec22, trials=2, seed=1)
        if error is TheoremViolationError:
            assert "trial 0 scalar" in info.value.claim

    @pytest.mark.parametrize("index", [3, 4])
    def test_counterexample_must_vanish(self, monkeypatch, spec22, index):
        # the first-block trace not vanishing on nilpotents or on
        # square-zero elements, every other verdict as predicted
        patch_characterize(
            monkeypatch,
            lambda v: v[:index] + (False,) + v[index + 1:],
            when=lambda f, rep: is_first_block_trace(f),
        )
        with pytest.raises(TheoremViolationError) as info:
            sl.verify_theorems(spec22, trials=2, seed=1)
        assert is_first_block_trace(info.value.witness.functional)
