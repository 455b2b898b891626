import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soclelab as sl
import soclelab.functionals as functionals
import soclelab.sampling as sampling
from soclelab import jsonio
from soclelab.errors import (
    NoCounterexampleError,
    NumericOverflowError,
    SVDConvergenceError,
    TheoremViolationError,
)
from soclelab.functionals import CharacterizationReport, Functional, _square_zero_values
from soclelab.sampling import (
    random_element,
    random_rank_one_projection,
    rng_for,
)


def e12_functional(spec):
    w = [np.zeros((n, n), dtype=complex) for n in spec.block_sizes]
    w[0][0, 1] = 1.0
    return Functional(spec, w)


class TestEvaluate:
    def test_trace_pairing(self):
        spec = sl.AlgebraSpec((2, 1))
        f = sl.trace_functional(spec)
        a = sl.Element(spec, [np.diag([1.0, 2.0]), [[3.0]]])
        assert sl.evaluate(f, a) == pytest.approx(6.0)

    def test_unit_weight_pairing(self, m2):
        f = e12_functional(m2)
        a = sl.matrix_unit(m2, 0, 1, 0)
        assert sl.evaluate(f, a) == pytest.approx(1.0)

    def test_zero_functional(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [0.0, 0.0])
        for i in range(5):
            assert sl.evaluate(f, random_element(spec23, rng_for(137, i))) == 0

    def test_linear(self, spec23):
        rng = rng_for(139)
        f = sl.random_functional(spec23, rng)
        a, b = random_element(spec23, rng), random_element(spec23, rng)
        lhs = sl.evaluate(f, sl.scale(2.0, a) + sl.scale(-3.0j, b))
        rhs = 2.0 * sl.evaluate(f, a) - 3.0j * sl.evaluate(f, b)
        assert abs(lhs - rhs) < 1e-10


class TestTracial:
    def test_trace_is_tracial(self, spec23):
        assert sl.is_tracial(sl.trace_functional(spec23))

    def test_unit_weight_is_not(self, m2):
        f = e12_functional(m2)
        assert not sl.is_tracial(f)
        a, b = sl.tracial_witness(f)
        assert abs(sl.evaluate(f, a @ b) - sl.evaluate(f, b @ a)) > 0.5

    def test_blockwise_scalars_are_tracial(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [2.0, 5.0])
        assert sl.is_tracial(f)
        assert sl.tracial_witness(f) is None

    def test_weight_scale_once_per_call(self, spec23, monkeypatch):
        calls = []
        real = Functional.weight_scale

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(Functional, "weight_scale", counted)
        for f in (sl.trace_functional(spec23), e12_functional(sl.AlgebraSpec((2,)))):
            calls.clear()
            sl.is_tracial(f)
            assert len(calls) == 1

    def test_svd_failure_is_typed(self, m2):
        # the mean diagonal weight is summed as diagonal / n, so it no
        # longer overflows into a NaN deviation
        f = Functional(m2, [[[1e308, 1e308], [-1e308, 1e308]]])
        assert not sl.is_tracial(f)
        g = Functional(m2, (np.full((2, 2), np.nan, dtype=complex),), _checked=True)
        with pytest.raises(SVDConvergenceError):
            g.weight_scale()


def test_tracial_contradiction_raises(m2, monkeypatch):
    # Weights that claim to be scalar while evaluation is not tracial
    # mean the criterion itself is broken.
    f = e12_functional(m2)
    monkeypatch.setattr(
        functionals, "_scalar_deviations", lambda f: (np.zeros(1, dtype=complex), 0.0)
    )
    with pytest.raises(TheoremViolationError):
        sl.is_tracial(f)


@pytest.mark.parametrize("size", [1.0, 1e308])
def test_tracial_contradiction_is_found_at_any_scale(m2, monkeypatch, size):
    # the spot check reads the weights divided by their scale, so products
    # of huge weights cannot overflow into a NaN gap that passes
    shape = np.array([[1.0, 1.0], [1.0, -1.0]])
    f = Functional(m2, [size * shape])
    monkeypatch.setattr(
        functionals, "_scalar_deviations", lambda f: (np.zeros(1, dtype=complex), 0.0)
    )
    with np.errstate(all="ignore"), pytest.raises(TheoremViolationError) as info:
        sl.is_tracial(f)
    a, b = info.value.witness
    g = Functional(m2, [shape])
    assert abs(sl.evaluate(g, a @ b) - sl.evaluate(g, b @ a)) > 1e-5


def test_weight_norm_overflow_is_typed(m2):
    # every entry is finite, the operator norm 3.4e308 is not
    f = Functional(m2, [np.full((2, 2), 1.7e308)])
    with pytest.raises(NumericOverflowError, match="weight operator norm"):
        sl.is_tracial(f)


class TestScalarTrace:
    def test_common_scalar(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [3.0, 3.0])
        assert sl.is_scalar_trace(f) == pytest.approx(3.0)

    def test_first_block_trace_is_not(self, spec22):
        assert sl.is_scalar_trace(sl.counterexample_functional(spec22)) is None

    def test_zero_functional(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [0.0, 0.0])
        assert sl.is_scalar_trace(f) == 0


class TestSpectralBound:
    def test_trace_bound_constant(self, m3):
        res = sl.spectral_bound_witness(sl.trace_functional(m3))
        assert res.constant == pytest.approx(3.0)
        for i in range(5):
            a = random_element(m3, rng_for(149, i))
            assert abs(sl.evaluate(sl.trace_functional(m3), a)) <= (
                res.constant * sl.spectral_radius(a) + 1e-9
            )

    def test_unit_weight_witness(self, m2):
        res = sl.spectral_bound_witness(e12_functional(m2))
        assert res.constant is None
        assert sl.spectral_radius(res.witness) == 0.0
        assert abs(res.witness_value) == pytest.approx(1.0)

    def test_zero_functional_bound(self, spec23):
        res = sl.spectral_bound_witness(
            sl.blockwise_scalar_functional(spec23, [0.0, 0.0])
        )
        assert res.constant == 0.0


class TestSquareZeroBasis:
    def test_m2_basis(self, m2):
        basis = sl.square_zero_basis(m2)
        assert len(basis) == 3
        for w in basis:
            sq = w @ w
            assert sl.operator_norm(sq) == 0.0

    def test_scalar_block_empty(self):
        assert sl.square_zero_basis(sl.AlgebraSpec((1,))) == []

    def test_span_is_blockwise_traceless(self, spec23):
        basis = sl.square_zero_basis(spec23)
        rows = [np.concatenate([b.ravel() for b in w.blocks]) for w in basis]
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        dim = int(np.sum(svals > 1e-9 * svals[0]))
        assert dim == sum(n * n - 1 for n in spec23.block_sizes)


def wscale(w) -> float:
    return max(1.0, max(float(np.linalg.norm(b, 2)) for b in w.blocks))


def bound_witness_reference(f):
    """The square-zero scan spectral_bound_witness ran element by element."""
    best, best_val = None, 0.0
    for w in sl.square_zero_basis(f.spec):
        v = sl.evaluate(f, w)
        if abs(v) > best_val:
            best_val, best = abs(v), (w, v)
    return best


def basis_witness_reference(f, tol=functionals.TRACIAL_TOL):
    """The basis scan both vanishing checks ran element by element."""
    scale = f.weight_scale()
    for w in sl.square_zero_basis(f.spec):
        v = sl.evaluate(f, w)
        if abs(v) > tol * scale * wscale(w):
            return w, v
    return None


def bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


@st.composite
def awkward_functionals(draw):
    """Functionals with signed zeros, ties, tiny and huge entries, and
    off-diagonal parts near the vanishing threshold."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "integer", "signed-zero", "near-tracial"]))
    scale = 10.0 ** draw(st.integers(-150, 150))
    weights = []
    for n in sizes:
        if kind == "integer":
            w = rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))
        elif kind == "signed-zero":
            w = rng.choice([0.0, -0.0, 1.0, -1.0], (n, n)) + 1j * rng.choice(
                [0.0, -0.0, 1.0, -1.0], (n, n)
            )
        else:
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "near-tracial":
            w = np.eye(n) * w[0, 0] + 10.0 ** rng.uniform(-10, -7) * w
        weights.append(scale * w)
    return Functional(sl.AlgebraSpec(tuple(sizes)), weights)


# |W[1,0]| is one ulp below |W[0,1]| under the scalar abs, while np.abs
# rounds the two equal.
ULP_TIE_2 = Functional(
    sl.AlgebraSpec((2,)), [[[0, (5 + 5j) * 1e23], [(7 - 1j) * 1e23, 0]]]
)


class TestSquareZeroClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(f=awkward_functionals())
    def test_values_equal_evaluate_bitwise(self, f):
        basis = sl.square_zero_basis(f.spec)
        values, norms = _square_zero_values(f)
        assert bits(values) == bits([sl.evaluate(f, w) for w in basis])
        assert norms.tolist() == [wscale(w) for w in basis]

    @settings(max_examples=200, deadline=None)
    @given(f=awkward_functionals())
    @example(f=ULP_TIE_2)
    def test_witnesses_match_elementwise_scans(self, f):
        expected = basis_witness_reference(f)
        for check in (sl.vanishes_on_square_zero, sl.vanishes_on_nilpotents):
            got = check(f)
            if expected is None:
                continue  # the random families decide; unchanged code
            w, v = expected
            assert not got.vanishes
            assert bits(got.witness_value) == bits(v)
            assert all(bits(x) == bits(y) for x, y in zip(got.witness.blocks, w.blocks))
        best = bound_witness_reference(f)
        if not sl.is_tracial(f) and best is not None:
            got = sl.spectral_bound_witness(f)
            assert bits(got.witness_value) == bits(best[1])
            assert all(
                bits(x) == bits(y) for x, y in zip(got.witness.blocks, best[0].blocks)
            )

    def test_first_strict_maximum_wins_ties(self, m3):
        w = np.zeros((3, 3), dtype=complex)
        w[2, 0] = w[0, 2] = 1.0  # e_02 and e_20 give the same |value|
        res = sl.spectral_bound_witness(Functional(m3, [w]))
        np.testing.assert_array_equal(res.witness.blocks[0], sl.matrix_unit(m3, 0, 0, 2).blocks[0])

    def test_bound_witness_raises_when_scan_finds_nothing(self, m2, monkeypatch):
        monkeypatch.setattr(functionals, "is_tracial", lambda f: False)
        with pytest.raises(TheoremViolationError):
            sl.spectral_bound_witness(sl.trace_functional(m2))


class TestVanishing:
    def test_trace_vanishes_both_ways(self, spec23):
        f = sl.trace_functional(spec23)
        assert sl.vanishes_on_square_zero(f).vanishes
        assert sl.vanishes_on_nilpotents(f).vanishes

    def test_unit_weight_fails_with_witness(self, m2):
        f = e12_functional(m2)
        verdict = sl.vanishes_on_square_zero(f)
        assert not verdict.vanishes
        assert abs(sl.evaluate(f, verdict.witness)) > 1e-6
        assert sl.spectral_radius(verdict.witness) == 0.0
        verdict = sl.vanishes_on_nilpotents(f)
        assert not verdict.vanishes

    def test_blockwise_scalars_vanish(self, spec22):
        f = sl.counterexample_functional(spec22)
        assert sl.vanishes_on_square_zero(f).vanishes
        assert sl.vanishes_on_nilpotents(f).vanishes

    def test_scaled_trace_vanishes(self, spec23):
        rng = rng_for(151)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        assert sl.vanishes_on_nilpotents(sl.trace_functional(spec23, alpha)).vanishes


class TestRankOneConstancy:
    def test_scaled_trace_constant(self, spec23):
        verdict = sl.constant_on_rank_one_projections(
            sl.trace_functional(spec23, 3.0)
        )
        assert verdict.constant
        assert verdict.value == pytest.approx(3.0)

    def test_first_block_trace_not_constant(self, spec22):
        verdict = sl.constant_on_rank_one_projections(
            sl.counterexample_functional(spec22)
        )
        assert not verdict.constant
        (p1, v1), (p2, v2) = verdict.witnesses
        assert abs(v1 - v2) > 0.5
        f = sl.counterexample_functional(spec22)
        assert sl.evaluate(f, p1) == pytest.approx(v1)
        assert sl.evaluate(f, p2) == pytest.approx(v2)

    def test_zero_functional_constant(self, spec23):
        verdict = sl.constant_on_rank_one_projections(
            sl.blockwise_scalar_functional(spec23, [0.0, 0.0])
        )
        assert verdict.constant
        assert verdict.value == 0


class TestCounterexample:
    def test_two_blocks(self, spec22):
        f = sl.counterexample_functional(spec22)
        np.testing.assert_array_equal(f.weights[0], np.eye(2))
        np.testing.assert_array_equal(f.weights[1], np.zeros((2, 2)))
        assert sl.is_tracial(f)
        assert sl.is_scalar_trace(f) is None

    def test_one_three(self):
        spec = sl.AlgebraSpec((1, 3))
        f = sl.counterexample_functional(spec)
        first = sl.matrix_unit(spec, 0, 0, 0)
        second = sl.Element(spec, [np.zeros((1, 1)), np.eye(3)])
        assert sl.evaluate(f, first) == pytest.approx(1.0)
        assert sl.classical_trace(second) == pytest.approx(3.0)
        assert sl.evaluate(f, second) == 0

    def test_single_block_rejected(self, m2):
        with pytest.raises(NoCounterexampleError):
            sl.counterexample_functional(m2)


class TestEngineInvariants:
    def test_trace_commutes(self, spec23):
        # Tr(ab) = Tr(ba), evaluated through the weight pairing
        f = sl.trace_functional(spec23)
        for i in range(10):
            rng = rng_for(157, i)
            a, b = random_element(spec23, rng), random_element(spec23, rng)
            assert abs(sl.evaluate(f, a @ b) - sl.evaluate(f, b @ a)) <= 1e-8

    def test_three_conditions_agree_on_random_functionals(self, spec23):
        for i in range(40):
            rng = rng_for(163, i)
            kind = i % 4
            if kind == 0:
                f = sl.random_functional(spec23, rng)
            elif kind == 1:
                f = sl.trace_functional(spec23, complex(rng.standard_normal()))
            elif kind == 2:
                f = sl.blockwise_scalar_functional(
                    spec23, rng.standard_normal(2) + 1j * rng.standard_normal(2)
                )
            else:
                f = sl.counterexample_functional(spec23)
            tr = sl.is_tracial(f)
            assert tr == sl.vanishes_on_square_zero(f).vanishes
            assert tr == sl.vanishes_on_nilpotents(f).vanishes
            assert tr == (sl.spectral_bound_witness(f).constant is not None)

    def test_scalar_implies_tracial_and_constant(self, spec23):
        f = sl.trace_functional(spec23, 2.0 - 1.0j)
        assert sl.is_scalar_trace(f) is not None
        assert sl.is_tracial(f)
        assert sl.constant_on_rank_one_projections(f).constant

    def test_minimal_projection_compression_identity(self, spec23):
        # for rank-one p, p x p is evaluate(Tr, x p) times p
        f = sl.trace_functional(spec23)
        for i in range(10):
            rng = rng_for(167, i)
            p = random_rank_one_projection(spec23, rng)
            x = random_element(spec23, rng)
            lhs = p @ x @ p
            coeff = sl.evaluate(f, x @ p)
            rhs = sl.scale(coeff, p)
            assert sl.operator_norm(lhs - rhs) <= 1e-8 * max(
                1.0, sl.operator_norm(p) ** 2 * sl.operator_norm(x)
            )


def tracial_scan_reference(f):
    """The element-by-element gap scan tracial_witness ran, without its
    threshold: (block, r1, c1, r2, c2) of the first strict maximum."""
    best, best_gap = None, 0.0
    for k, (w, n) in enumerate(zip(f.weights, f.spec.block_sizes)):
        for i in range(n):
            for l in range(n):
                if i != l and abs(w[l, i]) > best_gap:
                    best_gap, best = abs(w[l, i]), (k, i, 0, 0, l)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(w[i, i] - w[j, j]) > best_gap:
                    best_gap, best = abs(w[i, i] - w[j, j]), (k, i, j, j, i)
    return best


# I + 0.5e-8 (J - I) on (4,): every entry gap, 5e-9, is under the 1e-8
# threshold, while the deviation from the mean scalar, 1.5e-8, is not.
NEAR_TRACIAL_4 = Functional(
    sl.AlgebraSpec((4,)), [np.eye(4) + 0.5e-8 * (np.ones((4, 4)) - np.eye(4))]
)


class TestTracialWitness:
    @settings(max_examples=200, deadline=None)
    @given(f=awkward_functionals())
    @example(f=ULP_TIE_2)
    def test_vectorized_scan_matches_loop(self, f):
        expected = tracial_scan_reference(f)
        got = functionals._tracial_witness(f)
        if expected is None:
            assert got is None
            return
        k, r1, c1, r2, c2 = expected
        assert got == (
            sl.matrix_unit(f.spec, k, r1, c1),
            sl.matrix_unit(f.spec, k, r2, c2),
        )

    @settings(max_examples=200, deadline=None)
    @given(f=awkward_functionals())
    @example(f=NEAR_TRACIAL_4)
    def test_witness_exactly_when_not_tracial(self, f):
        pair = sl.tracial_witness(f)
        assert sl.is_tracial(f) == (pair is None)
        if pair is not None:
            a, b = pair
            assert sl.evaluate(f, a @ b) != sl.evaluate(f, b @ a)


def characterize_reference(f):
    """The report assembled from the public verdicts, each of which
    computes its own inputs."""
    tracial = sl.is_tracial(f)
    return CharacterizationReport(
        functional=f,
        scalar_trace_coefficient=sl.is_scalar_trace(f),
        tracial=tracial,
        tracial_pair=None if tracial else sl.tracial_witness(f),
        bound=sl.spectral_bound_witness(f),
        nilpotent=sl.vanishes_on_nilpotents(f),
        square_zero=sl.vanishes_on_square_zero(f),
        rank_one_constancy=sl.constant_on_rank_one_projections(f),
    )


@st.composite
def planted_functionals(draw):
    """The scalar, blockwise, dense and counterexample functionals that
    verify_theorems characterizes."""
    spec = sl.AlgebraSpec(tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    rng = rng_for(draw(st.integers(0, 2**16)))
    kinds = ["scalar", "blockwise", "dense"] + ["counterexample"] * (spec.num_blocks > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "scalar":
        return sl.trace_functional(spec, complex(rng.standard_normal(), rng.standard_normal()))
    if kind == "blockwise":
        return sl.blockwise_scalar_functional(
            spec, rng.standard_normal(spec.num_blocks) + 1j * rng.standard_normal(spec.num_blocks)
        )
    if kind == "dense":
        return sl.random_functional(spec, rng)
    return sl.counterexample_functional(spec)


class TestCharacterizeOnePass:
    @settings(max_examples=150, deadline=None)
    @given(
        f=st.one_of(awkward_functionals(), planted_functionals()),
        seed=st.integers(0, 2**16),
    )
    @example(f=NEAR_TRACIAL_4, seed=0)
    def test_report_equals_public_verdicts_bytewise(self, f, seed):
        got = jsonio.characterization_to_json(sl.characterize(f, seed=seed))
        want = jsonio.characterization_to_json(characterize_reference(f))
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("kind", ["dense", "trace"])
    def test_shared_inputs_computed_once(self, kind, monkeypatch):
        spec = sl.AlgebraSpec((3, 4))
        f = (
            sl.random_functional(spec, rng_for(173))
            if kind == "dense"
            else sl.trace_functional(spec)
        )
        calls = []

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Functional, "weight_scale")
        for name in ("_scalar_deviations", "_square_zero_values", "random_element_stack"):
            counted(functionals, name)
        sl.characterize(f)
        assert calls.count("weight_scale") == 1
        assert calls.count("_scalar_deviations") == 1
        assert calls.count("_square_zero_values") == 1
        # the tracial spot check draws its 4 pairs as one stack, once
        assert calls.count("random_element_stack") == (1 if kind == "trace" else 0)

    def test_spot_check_reads_the_seed(self, spec23, monkeypatch):
        keys = []
        real = functionals.rng_for
        monkeypatch.setattr(functionals, "rng_for", lambda *k: keys.append(k) or real(*k))
        f = sl.trace_functional(spec23)
        sl.characterize(f, seed=29)
        sl.is_tracial(f)
        assert keys == [(29, sampling.SPOT_CHECK), (0, sampling.SPOT_CHECK)]


def reference_unitaries(n):
    """F and C F entry by entry, from the closed forms."""
    f = np.array(
        [[np.exp(-2j * np.pi * j * k / n) / np.sqrt(n) for k in range(n)] for j in range(n)]
    )
    chirp = np.diag([np.exp(1j * np.pi * k * k / n) for k in range(n)])
    return f, chirp @ f


def reference_conjugated_units(spec):
    """U e_ij U* for U = F over every block, then for U = C F, with (i, j)
    off the diagonal in row-major order."""
    out = []
    for u in range(2):
        for k, n in enumerate(spec.block_sizes):
            U = reference_unitaries(n)[u]
            for i in range(n):
                for j in range(n):
                    if i != j:
                        x = sl.zero(spec)
                        x.blocks[k][:] = np.outer(U[:, i], U[:, j].conj())
                        out.append(x)
    return out


class TestWitnessFamilies:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_conjugated_units_square_to_zero_with_norm_one(self, n):
        spec = sl.AlgebraSpec((n,))
        keys = [(0, i, j, u) for u in (2, 3) for i in range(n) for j in range(n) if i != j]
        for key in keys:
            (b,) = functionals._element(spec, key).blocks
            assert np.abs(b @ b).max() <= 1e-15
            assert abs(np.linalg.norm(b, 2) - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 13))
    def test_conjugated_units_span_the_traceless_part(self, n):
        rows = [x.blocks[0].ravel() for x in reference_conjugated_units(sl.AlgebraSpec((n,)))]
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        rank = int(np.sum(svals > 1e-9 * svals[0]))
        assert rank == n * n - 1
        assert svals[rank - 1] >= 0.5

    @settings(max_examples=150, deadline=None)
    @given(f=awkward_functionals())
    def test_nilpotent_values_match_evaluate(self, f):
        basis, norms = _square_zero_values(f)
        values, all_norms = functionals._nilpotent_values(f, basis, norms)
        units = reference_conjugated_units(f.spec)
        assert bits(values[: basis.size]) == bits(basis)
        assert all_norms.tolist() == norms.tolist() + [1.0] * len(units)
        scale = f.weight_scale()
        for v, x in zip(values[basis.size :], units, strict=True):
            assert abs(v - sl.evaluate(f, x)) <= 1e-13 * scale

    @pytest.mark.parametrize("sizes", [(3,), (1, 2, 4)])
    def test_each_index_names_its_witness(self, sizes):
        # a single value over the threshold at position p must come back
        # with the p-th element of the basis-then-conjugated-units order
        spec = sl.AlgebraSpec(sizes)
        f = sl.trace_functional(spec)
        elements = sl.square_zero_basis(spec) + reference_conjugated_units(spec)
        for p, x in enumerate(elements):
            values = np.zeros(len(elements), dtype=complex)
            values[p] = 1.0
            # a scale that puts the threshold at 0.5
            scale = 0.5 / functionals.TRACIAL_TOL
            got = functionals._first_nonvanishing(f, scale, values, np.ones(len(elements)))
            assert not got.vanishes
            for a, b in zip(got.witness.blocks, x.blocks):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(f=awkward_functionals())
    def test_projection_values_equal_evaluate_bitwise(self, f):
        values, keys = functionals._projection_values(f)
        assert len(keys) == sum(n * n for n in f.spec.block_sizes)
        for v, key in zip(values, keys, strict=True):
            p = functionals._element(f.spec, key)
            assert sl.operator_norm(p @ p - p) == 0.0
            assert sl.classical_rank(p) == 1
            assert bits(v) == bits(sl.evaluate(f, p))

    @pytest.mark.parametrize("kind", ["dense", "trace"])
    def test_characterize_draws_no_random_witnesses(self, kind, monkeypatch):
        spec = sl.AlgebraSpec((3, 4))
        f = (
            sl.random_functional(spec, rng_for(173))
            if kind == "dense"
            else sl.trace_functional(spec)
        )
        calls = []

        def counted(owner, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, wrapper)

        counted(np.linalg, "inv")
        counted(np.linalg, "cond")
        counted(sampling, "random_invertible")
        counted(sampling, "random_rank_one_projection")
        sl.characterize(f)
        assert calls == []


def report_parts(rep):
    """The verdict booleans, the witness elements and the reported
    values of one characterization report."""
    c = rep.rank_one_constancy
    flags = [
        rep.tracial,
        rep.is_scalar_trace,
        rep.bound.constant is not None,
        rep.nilpotent.vanishes,
        rep.square_zero.vanishes,
        c.constant,
    ]
    elements = [*(rep.tracial_pair or (None, None)), rep.bound.witness]
    elements += [rep.nilpotent.witness, rep.square_zero.witness]
    values = [rep.scalar_trace_coefficient, rep.bound.constant, rep.bound.witness_value]
    values += [rep.nilpotent.witness_value, rep.square_zero.witness_value, c.value]
    for p, v in c.witnesses or ((None, None), (None, None)):
        elements.append(p)
        values.append(v)
    return flags, elements, values


class TestScaleInvariance:
    def test_tiny_weights_are_not_tracial(self):
        f = Functional(sl.AlgebraSpec((2,)), [np.array([[1, 2], [3, 4]]) * 1e-100])
        rep = sl.characterize(f)
        assert not rep.tracial
        assert rep.scalar_trace_coefficient is None
        assert rep.bound.constant is None
        assert not rep.nilpotent.vanishes
        assert not rep.square_zero.vanishes
        assert not rep.rank_one_constancy.constant

    def test_zero_functional_keeps_every_verdict(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [0.0, 0.0])
        assert f.weight_scale() == 0.0
        rep = sl.characterize(f)
        assert rep.tracial and rep.scalar_trace_coefficient == 0
        assert rep.bound.constant == 0.0
        assert rep.nilpotent.vanishes and rep.square_zero.vanishes
        assert rep.rank_one_constancy.constant and rep.rank_one_constancy.value == 0

    @settings(max_examples=150, deadline=None)
    @given(f=awkward_functionals(), k=st.integers(-26, 26))
    @example(f=NEAR_TRACIAL_4, k=-26)
    def test_power_of_two_scaling(self, f, k):
        t = 2.0**k
        g = Functional(f.spec, [t * w for w in f.weights])
        flags, elements, values = report_parts(sl.characterize(f))
        gflags, gelements, gvalues = report_parts(sl.characterize(g))
        assert gflags == flags
        for x, y in zip(gelements, elements, strict=True):
            assert (x is None) == (y is None)
            if x is not None:
                assert all(bits(a) == bits(b) for a, b in zip(x.blocks, y.blocks))
        for x, y in zip(gvalues, values, strict=True):
            assert (x is None) == (y is None)
            if x is not None:
                assert x == t * y


class TestThresholdBands:
    @settings(max_examples=300, deadline=None)
    @given(f=st.one_of(awkward_functionals(), planted_functionals()))
    @example(f=NEAR_TRACIAL_4)
    def test_verdicts_agree_outside_the_bands(self, f):
        rep = sl.characterize(f)
        alphas, dev = functionals._scalar_deviations(f)
        t = functionals.TRACIAL_TOL * f.weight_scale()
        n = max(f.spec.block_sizes)
        if not t < dev <= 4 * n * t:
            bounded = rep.bound.constant is not None
            assert rep.tracial == rep.square_zero.vanishes == rep.nilpotent.vanishes == bounded
        m = max(dev, max(abs(a - np.mean(alphas)) for a in alphas))
        if not t / 5 < m <= 2 * n * t:
            assert rep.rank_one_constancy.constant == rep.is_scalar_trace

    def test_near_tracial_4_splits_inside_the_band(self):
        rep = sl.characterize(NEAR_TRACIAL_4)
        _, dev = functionals._scalar_deviations(NEAR_TRACIAL_4)
        t = functionals.TRACIAL_TOL * NEAR_TRACIAL_4.weight_scale()
        assert t < dev <= 16 * t
        assert not rep.tracial
        assert rep.square_zero.vanishes and rep.nilpotent.vanishes
