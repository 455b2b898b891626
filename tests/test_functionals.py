import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soclelab as sl
import soclelab.functionals as functionals
import soclelab.sampling as sampling
from soclelab import cli, jsonio
from soclelab.errors import (
    NoCounterexampleError,
    NonFiniteEntryError,
    NumericOverflowError,
    ShapeMismatchError,
    SocleLabError,
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


@pytest.mark.parametrize(
    "sizes, blocks, error",
    [
        ((2, 3), [np.eye(2)], ShapeMismatchError),  # one block short
        ((2,), [np.ones((2, 3))], ShapeMismatchError),  # not square
        ((2,), [[[1.0, np.nan], [0.0, 1.0]]], NonFiniteEntryError),
        ((2,), [[[1.0, 0.0], [complex(0.0, np.inf), 1.0]]], NonFiniteEntryError),
    ],
)
def test_weights_are_checked_as_an_element(sizes, blocks, error):
    """Under the trace pairing the weights are an element of the same
    algebra: a functional rejects exactly what an element rejects."""
    spec = sl.AlgebraSpec(sizes)
    raised = []
    for build in (sl.Element, Functional):
        with pytest.raises(error) as caught:
            build(spec, blocks)
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1]


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
        lhs = sl.evaluate(f, 2.0 * a - 3.0j * b)
        rhs = 2.0 * sl.evaluate(f, a) - 3.0j * sl.evaluate(f, b)
        assert abs(lhs - rhs) < 1e-10


class TestTracial:
    def test_trace_is_tracial(self, spec23):
        assert sl.characterize(sl.trace_functional(spec23)).is_tracial

    def test_unit_weight_is_not(self, m2):
        f = e12_functional(m2)
        rep = sl.characterize(f)
        assert not rep.is_tracial
        a, b = rep.tracial_witness_pair
        assert abs(sl.evaluate(f, a @ b) - sl.evaluate(f, b @ a)) > 0.5

    def test_blockwise_scalars_are_tracial(self, spec23):
        rep = sl.characterize(sl.blockwise_scalar_functional(spec23, [2.0, 5.0]))
        assert rep.is_tracial
        assert rep.tracial_witness_pair is None

    def test_weight_scale_once_per_call(self, spec23, monkeypatch):
        calls = []
        real = Functional.weight_scale

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(Functional, "weight_scale", counted)
        for f in (sl.trace_functional(spec23), e12_functional(sl.AlgebraSpec((2,)))):
            calls.clear()
            sl.characterize(f)
            assert len(calls) == 1

    def test_svd_failure_is_typed(self, m2):
        # the mean diagonal weight is summed as diagonal / n, so it no
        # longer overflows into a NaN deviation (characterize itself stops
        # at the square-zero value 2e308)
        f = Functional(m2, [[[1e308, 1e308], [-1e308, 1e308]]])
        assert not tracial_verdict(f)
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
        sl.characterize(f)


@pytest.mark.parametrize("size", [1.0, 1e308])
def test_tracial_contradiction_is_found_at_any_scale(m2, size):
    # the spot check reads the weights divided by their scale, so products
    # of huge weights cannot overflow into a NaN gap that passes; the
    # verdict is given a zero deviation, as a broken criterion would give
    shape = np.array([[1.0, 1.0], [1.0, -1.0]])
    f = Functional(m2, [size * shape])
    with np.errstate(all="ignore"), pytest.raises(TheoremViolationError) as info:
        functionals._tracial(f, 0.0, f.weight_scale(), 0)
    a, b = info.value.witness
    g = Functional(m2, [shape])
    assert abs(sl.evaluate(g, a @ b) - sl.evaluate(g, b @ a)) > 1e-5


def test_weight_norm_overflow_is_typed(m2):
    # every entry is finite, the operator norm 3.4e308 is not
    f = Functional(m2, [np.full((2, 2), 1.7e308)])
    with pytest.raises(NumericOverflowError, match="weight operator norm"):
        sl.characterize(f)


def tracial_verdict(f, seed=0):
    """The tracial verdict from its private body, on inputs of its own."""
    return functionals._tracial(f, functionals._scalar_deviations(f)[1], f.weight_scale(), seed)


class TestScalarTrace:
    def test_common_scalar(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [3.0, 3.0])
        assert sl.characterize(f).scalar_trace_coefficient == pytest.approx(3.0)

    def test_first_block_trace_is_not(self, spec22):
        rep = sl.characterize(sl.counterexample_functional(spec22))
        assert rep.scalar_trace_coefficient is None

    def test_zero_functional(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [0.0, 0.0])
        assert sl.characterize(f).scalar_trace_coefficient == 0


class TestSpectralBound:
    def test_trace_bound_constant(self, m3):
        res = sl.characterize(sl.trace_functional(m3)).spectral_bound
        assert res.constant == pytest.approx(3.0)
        for i in range(5):
            a = random_element(m3, rng_for(149, i))
            assert abs(sl.evaluate(sl.trace_functional(m3), a)) <= (
                res.constant * sl.spectrum(a).radius + 1e-9
            )

    def test_unit_weight_witness(self, m2):
        res = sl.characterize(e12_functional(m2)).spectral_bound
        assert res.constant is None
        assert sl.spectrum(res.witness).radius == 0.0
        assert abs(res.witness_value) == pytest.approx(1.0)

    def test_zero_functional_bound(self, spec23):
        rep = sl.characterize(sl.blockwise_scalar_functional(spec23, [0.0, 0.0]))
        assert rep.spectral_bound.constant == 0.0


def reference_square_zero_basis(spec):
    """Per block, e_ij for i != j in row-major order, then
    e_ii - e_ij + e_ji - e_jj for i < j, entry by entry."""
    out = []
    for k, n in enumerate(spec.block_sizes):
        for i in range(n):
            for j in range(n):
                if i != j:
                    x = sl.zero(spec)
                    x.blocks[k][i, j] = 1.0
                    out.append(x)
        for i in range(n):
            for j in range(i + 1, n):
                x = sl.zero(spec)
                x.blocks[k][i, i], x.blocks[k][i, j] = 1.0, -1.0
                x.blocks[k][j, i], x.blocks[k][j, j] = 1.0, -1.0
                out.append(x)
    return out


def keyed_square_zero_basis(spec):
    """The square-zero basis as characterize names its witnesses."""
    return [functionals._element(spec, key) for key in functionals._square_zero_keys(spec)]


class TestSquareZeroBasis:
    def test_m2_basis(self, m2):
        basis = keyed_square_zero_basis(m2)
        assert len(basis) == 3
        for w in basis:
            sq = w @ w
            assert sl.operator_norm(sq) == 0.0

    def test_scalar_block_empty(self):
        assert functionals._square_zero_keys(sl.AlgebraSpec((1,))) == []

    def test_span_is_blockwise_traceless(self, spec23):
        basis = keyed_square_zero_basis(spec23)
        rows = [np.concatenate([b.ravel() for b in w.blocks]) for w in basis]
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        dim = int(np.sum(svals > 1e-9 * svals[0]))
        assert dim == sum(n * n - 1 for n in spec23.block_sizes)


def wscale(w) -> float:
    return max(1.0, max(float(np.linalg.norm(b, 2)) for b in w.blocks))


def bound_witness_reference(f):
    """The square-zero scan of the bound witness, element by element."""
    best, best_val = None, 0.0
    for w in reference_square_zero_basis(f.spec):
        v = sl.evaluate(f, w)
        if abs(v) > best_val:
            best_val, best = abs(v), (w, v)
    return best


def basis_witness_reference(f, tol=functionals.TRACIAL_TOL):
    """The basis scan of both vanishing checks, element by element."""
    scale = f.weight_scale()
    for w in reference_square_zero_basis(f.spec):
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
        basis = reference_square_zero_basis(f.spec)
        values, norms = _square_zero_values(f)
        assert bits(values) == bits([sl.evaluate(f, w) for w in basis])
        assert norms.tolist() == [wscale(w) for w in basis]

    @settings(max_examples=200, deadline=None)
    @given(f=awkward_functionals())
    @example(f=ULP_TIE_2)
    def test_witnesses_match_elementwise_scans(self, f):
        expected = basis_witness_reference(f)
        rep = sl.characterize(f)
        for got in (rep.vanishes_on_square_zero, rep.vanishes_on_nilpotents):
            if expected is None:
                continue  # the random families decide; unchanged code
            w, v = expected
            assert not got.vanishes
            assert bits(got.witness_value) == bits(v)
            assert all(bits(x) == bits(y) for x, y in zip(got.witness.blocks, w.blocks))
        best = bound_witness_reference(f)
        if not rep.is_tracial and best is not None:
            got = rep.spectral_bound
            assert bits(got.witness_value) == bits(best[1])
            assert all(
                bits(x) == bits(y) for x, y in zip(got.witness.blocks, best[0].blocks)
            )

    def test_first_strict_maximum_wins_ties(self, m3):
        w = np.zeros((3, 3), dtype=complex)
        w[2, 0] = w[0, 2] = 1.0  # e_02 and e_20 give the same |value|
        res = sl.characterize(Functional(m3, [w])).spectral_bound
        np.testing.assert_array_equal(res.witness.blocks[0], sl.matrix_unit(m3, 0, 0, 2).blocks[0])

    def test_bound_witness_raises_when_scan_finds_nothing(self, m2):
        # a non-tracial verdict for the trace, whose square-zero values are all 0
        f = sl.trace_functional(m2)
        values = _square_zero_values(f)[0]
        with pytest.raises(TheoremViolationError):
            functionals._bounds(f.spec, [False], [None], values[None])


class TestVanishing:
    def test_trace_vanishes_both_ways(self, spec23):
        rep = sl.characterize(sl.trace_functional(spec23))
        assert rep.vanishes_on_square_zero.vanishes
        assert rep.vanishes_on_nilpotents.vanishes

    def test_unit_weight_fails_with_witness(self, m2):
        f = e12_functional(m2)
        rep = sl.characterize(f)
        verdict = rep.vanishes_on_square_zero
        assert not verdict.vanishes
        assert abs(sl.evaluate(f, verdict.witness)) > 1e-6
        assert sl.spectrum(verdict.witness).radius == 0.0
        assert not rep.vanishes_on_nilpotents.vanishes

    def test_blockwise_scalars_vanish(self, spec22):
        rep = sl.characterize(sl.counterexample_functional(spec22))
        assert rep.vanishes_on_square_zero.vanishes
        assert rep.vanishes_on_nilpotents.vanishes

    def test_scaled_trace_vanishes(self, spec23):
        rng = rng_for(151)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        assert sl.characterize(sl.trace_functional(spec23, alpha)).vanishes_on_nilpotents.vanishes


class TestRankOneConstancy:
    def test_scaled_trace_constant(self, spec23):
        rep = sl.characterize(sl.trace_functional(spec23, 3.0))
        verdict = rep.constant_on_rank_one_projections
        assert verdict.constant
        assert verdict.value == pytest.approx(3.0)

    def test_first_block_trace_not_constant(self, spec22):
        rep = sl.characterize(sl.counterexample_functional(spec22))
        verdict = rep.constant_on_rank_one_projections
        assert not verdict.constant
        (p1, v1), (p2, v2) = verdict.witness_pair
        assert abs(v1 - v2) > 0.5
        f = sl.counterexample_functional(spec22)
        assert sl.evaluate(f, p1) == pytest.approx(v1)
        assert sl.evaluate(f, p2) == pytest.approx(v2)

    def test_zero_functional_constant(self, spec23):
        rep = sl.characterize(sl.blockwise_scalar_functional(spec23, [0.0, 0.0]))
        verdict = rep.constant_on_rank_one_projections
        assert verdict.constant
        assert verdict.value == 0


class TestCounterexample:
    def test_two_blocks(self, spec22):
        f = sl.counterexample_functional(spec22)
        np.testing.assert_array_equal(f.weights[0], np.eye(2))
        np.testing.assert_array_equal(f.weights[1], np.zeros((2, 2)))
        rep = sl.characterize(f)
        assert rep.is_tracial
        assert rep.scalar_trace_coefficient is None

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
            rep = sl.characterize(f)
            assert rep.is_tracial == rep.vanishes_on_square_zero.vanishes
            assert rep.is_tracial == rep.vanishes_on_nilpotents.vanishes
            assert rep.is_tracial == (rep.spectral_bound.constant is not None)

    def test_scalar_implies_tracial_and_constant(self, spec23):
        rep = sl.characterize(sl.trace_functional(spec23, 2.0 - 1.0j))
        assert rep.scalar_trace_coefficient is not None
        assert rep.is_tracial
        assert rep.constant_on_rank_one_projections.constant

    def test_minimal_projection_compression_identity(self, spec23):
        # for rank-one p, p x p is evaluate(Tr, x p) times p
        f = sl.trace_functional(spec23)
        for i in range(10):
            rng = rng_for(167, i)
            p = random_rank_one_projection(spec23, rng)
            x = random_element(spec23, rng)
            lhs = p @ x @ p
            coeff = sl.evaluate(f, x @ p)
            rhs = coeff * p
            assert sl.operator_norm(lhs - rhs) <= 1e-8 * max(
                1.0, sl.operator_norm(p) ** 2 * sl.operator_norm(x)
            )


def tracial_scan_reference(f):
    """The element-by-element gap scan of the tracial witness, without
    its threshold: (block, r1, c1, r2, c2) of the first strict maximum."""
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


# diag(a, -a, -1.1a) on (3,), a = 0.65e308 (1 + i): the square-zero values
# 2a and 2.1a of e_00 - e_01 + e_10 - e_11 and e_00 - e_02 + e_20 - e_22
# are finite, their moduli 1.84e308 and 1.93e308 are not. The bound
# witness is the second, the first largest, and so is the tracial pair
# of the diagonal gaps W[0, 0] - W[2, 2] = 2.1a against 2a.
TOP_OF_RANGE_DIAG_3 = Functional(
    sl.AlgebraSpec((3,)), [np.diag([1.0, -1.0, -1.1]) * 0.65e308 * (1 + 1j)]
)


class TestTracialWitness:
    @settings(max_examples=200, deadline=None)
    @given(f=awkward_functionals())
    @example(f=ULP_TIE_2)
    def test_vectorized_scan_matches_loop(self, f):
        expected = tracial_scan_reference(f)
        got = functionals._tracial_witnesses(stack_of(f), [False])[0]
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
        rep = sl.characterize(f)
        pair = rep.tracial_witness_pair
        assert rep.is_tracial == (pair is None)
        if pair is not None:
            a, b = pair
            assert sl.evaluate(f, a @ b) != sl.evaluate(f, b @ a)


def stack_of(f):
    """f as a stack of one functional, the input of the verdict bodies."""
    return Functional(f.spec, tuple(w[None] for w in f.weights), _checked=True)


def characterize_reference(f, seed):
    """The report assembled verdict by verdict from the private bodies,
    each of which computes its own inputs."""
    fn, g = functionals, stack_of(f)
    tracial = [tracial_verdict(f, seed)]
    limits = fn.TRACIAL_TOL * g.weight_scale()[:, None]
    coefficient = fn._scalar_traces(*fn._scalar_deviations(g), g.weight_scale())[0]
    return CharacterizationReport(
        is_scalar_trace=coefficient is not None,
        scalar_trace_coefficient=coefficient,
        is_tracial=tracial[0],
        tracial_witness_pair=fn._tracial_witnesses(g, tracial)[0],
        spectral_bound=fn._bounds(
            f.spec, tracial, fn._scalar_deviations(g)[0], _square_zero_values(g)[0]
        )[0],
        vanishes_on_nilpotents=fn._first_nonvanishing(
            f.spec, limits, *fn._nilpotent_values(g, *_square_zero_values(g))
        )[0],
        vanishes_on_square_zero=fn._first_nonvanishing(
            f.spec, limits, *_square_zero_values(g)
        )[0],
        constant_on_rank_one_projections=fn._constancy(
            f.spec, limits, *fn._projection_values(g)
        )[0],
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
        got = jsonio.report_to_json(sl.characterize(f, seed=seed))
        want = jsonio.report_to_json(characterize_reference(f, seed))
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
        sl.characterize(f)
        assert keys == [(29, sampling.SPOT_CHECK), (0, sampling.SPOT_CHECK)]


@st.composite
def functional_stacks(draw):
    """1 to 7 functionals on one algebra: scalar, blockwise, dense and
    counterexample weights at scales from 1e-8 to 1e8, exact zeros among
    the weights or all of them, and weights whose operator norm
    overflows."""
    spec = sl.AlgebraSpec(tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    rng = rng_for(draw(st.integers(0, 2**16)))
    kinds = ["scalar", "blockwise", "dense", "sparse", "zero", "huge"]
    kinds += ["counterexample"] * (spec.num_blocks > 1)
    fs = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=7)):
        t = 10.0 ** draw(st.floats(-8, 8))
        if kind == "scalar":
            f = sl.trace_functional(spec, t * complex(rng.standard_normal(), rng.standard_normal()))
        elif kind == "blockwise":
            f = sl.blockwise_scalar_functional(spec, t * rng.standard_normal(spec.num_blocks))
        elif kind == "counterexample":
            f = sl.counterexample_functional(spec)
        elif kind == "huge":
            f = Functional(spec, [np.full((n, n), 1.7e308) for n in spec.block_sizes])
        else:
            w = sl.random_functional(spec, rng).weights
            if kind != "dense":
                w = [np.where(rng.uniform(size=x.shape) < (kind == "zero" or 0.5), 0, x) for x in w]
            f = Functional(spec, [t * x for x in w])
        fs.append(f)
    return fs


def written(rep):
    """A report as the CLI writes it, or an error as its type, details and
    message."""
    if isinstance(rep, SocleLabError):
        return type(rep), rep.details(), str(rep)
    return cli._dumps(jsonio.report_to_json(rep))


class TestCharacterizeStack:
    @settings(max_examples=150, deadline=None)
    @given(fs=functional_stacks(), seed=st.integers(0, 2**16))
    def test_each_report_is_the_one_it_gets_alone(self, fs, seed):
        stacked = functionals._characterize_stack(fs, seed)
        assert len(stacked) == len(fs)
        for f, rep in zip(fs, stacked):
            try:
                alone = sl.characterize(f, seed=seed)
            except SocleLabError as exc:
                alone = exc
            assert written(rep) == written(alone)

    def test_one_spot_check_draw_per_stack(self, spec23, monkeypatch):
        keys = []
        real = functionals.rng_for
        monkeypatch.setattr(functionals, "rng_for", lambda *k: keys.append(k) or real(*k))
        fs = [sl.trace_functional(spec23, a) for a in (1.0, 2.0, 3.0j)]
        functionals._characterize_stack(fs, 5)
        assert keys == [(5, sampling.SPOT_CHECK)]


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
        elements = reference_square_zero_basis(spec) + reference_conjugated_units(spec)
        for p, x in enumerate(elements):
            values = np.zeros((1, len(elements)), dtype=complex)
            values[0, p] = 1.0
            # a threshold of 0.5
            limits = np.full((1, 1), 0.5)
            (got,) = functionals._first_nonvanishing(spec, limits, values, np.ones(len(elements)))
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
    bound, c = rep.spectral_bound, rep.constant_on_rank_one_projections
    nilpotent, square_zero = rep.vanishes_on_nilpotents, rep.vanishes_on_square_zero
    flags = [
        rep.is_tracial,
        rep.is_scalar_trace,
        bound.constant is not None,
        nilpotent.vanishes,
        square_zero.vanishes,
        c.constant,
    ]
    elements = [*(rep.tracial_witness_pair or (None, None)), bound.witness]
    elements += [nilpotent.witness, square_zero.witness]
    values = [rep.scalar_trace_coefficient, bound.constant, bound.witness_value]
    values += [nilpotent.witness_value, square_zero.witness_value, c.value]
    for p, v in c.witness_pair or ((None, None), (None, None)):
        elements.append(p)
        values.append(v)
    return flags, elements, values


class TestScaleInvariance:
    def test_tiny_weights_are_not_tracial(self):
        f = Functional(sl.AlgebraSpec((2,)), [np.array([[1, 2], [3, 4]]) * 1e-100])
        rep = sl.characterize(f)
        assert not rep.is_tracial
        assert rep.scalar_trace_coefficient is None
        assert rep.spectral_bound.constant is None
        assert not rep.vanishes_on_nilpotents.vanishes
        assert not rep.vanishes_on_square_zero.vanishes
        assert not rep.constant_on_rank_one_projections.constant

    def test_zero_functional_keeps_every_verdict(self, spec23):
        f = sl.blockwise_scalar_functional(spec23, [0.0, 0.0])
        assert f.weight_scale() == 0.0
        rep = sl.characterize(f)
        assert rep.is_tracial and rep.scalar_trace_coefficient == 0
        assert rep.spectral_bound.constant == 0.0
        assert rep.vanishes_on_nilpotents.vanishes and rep.vanishes_on_square_zero.vanishes
        constancy = rep.constant_on_rank_one_projections
        assert constancy.constant and constancy.value == 0

    @settings(max_examples=150, deadline=None)
    @given(f=awkward_functionals(), k=st.integers(-26, 26))
    @example(f=NEAR_TRACIAL_4, k=-26)
    @example(f=TOP_OF_RANGE_DIAG_3, k=-16)
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
            bounded = rep.spectral_bound.constant is not None
            square_zero, nilpotent = rep.vanishes_on_square_zero, rep.vanishes_on_nilpotents
            assert rep.is_tracial == square_zero.vanishes == nilpotent.vanishes == bounded
        m = max(dev, max(abs(a - np.mean(alphas)) for a in alphas))
        if not t / 5 < m <= 2 * n * t:
            assert rep.constant_on_rank_one_projections.constant == rep.is_scalar_trace

    def test_near_tracial_4_splits_inside_the_band(self):
        rep = sl.characterize(NEAR_TRACIAL_4)
        _, dev = functionals._scalar_deviations(NEAR_TRACIAL_4)
        t = functionals.TRACIAL_TOL * NEAR_TRACIAL_4.weight_scale()
        assert t < dev <= 16 * t
        assert not rep.is_tracial
        assert rep.vanishes_on_square_zero.vanishes and rep.vanishes_on_nilpotents.vanishes
