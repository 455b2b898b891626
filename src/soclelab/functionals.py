"""Linear functionals on a block algebra and their trace characterizations.

A functional is stored as one weight matrix per block under the trace
pairing, f(a) = sum_i tr(W_i a_i); every linear functional on a direct
sum of matrix blocks has this form. The pairing makes the classical
characterizations decidable:

* f is tracial (f(ab) = f(ba) everywhere) iff every weight is scalar;
* f is a scalar multiple of the trace iff all those scalars agree;
* f is bounded by a multiple of the spectral radius iff it is tracial,
  and otherwise some square-zero element with spectral radius 0 and
  f != 0 refutes every such bound;
* vanishing on square-zero elements, vanishing on nilpotents, and being
  constant on rank-one projections are all decided by direct evaluation
  on explicit witness families.

Negative verdicts always carry a concrete witness that can be
re-verified independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraSpec,
    Element,
    matrix_unit,
    operator_norm,
    zero,
)
from .errors import (
    NoCounterexampleError,
    NonFiniteEntryError,
    ShapeMismatchError,
    TheoremViolationError,
)
from .sampling import (
    complex_gaussian,
    random_element,
    random_invertible,
    random_nilpotent,
    random_rank_one_projection,
    rng_for,
)

CONSTANCY_TOL = 1e-8
TRACIAL_TOL = 1e-8


class Functional:
    """Weight matrices acting by f(a) = sum of tr(W_i a_i)."""

    __slots__ = ("spec", "weights")

    def __init__(self, spec: AlgebraSpec, weights, *, _checked: bool = False):
        if _checked:
            self.spec = spec
            self.weights = weights
            return
        mats = tuple(np.asarray(w, dtype=complex) for w in weights)
        if len(mats) != spec.num_blocks:
            raise ShapeMismatchError(
                f"expected {spec.num_blocks} weight blocks, got {len(mats)}"
            )
        for i, (w, n) in enumerate(zip(mats, spec.block_sizes)):
            if w.shape != (n, n):
                raise ShapeMismatchError(
                    f"weight {i} has shape {w.shape}, expected {(n, n)}"
                )
            if not np.all(np.isfinite(w.view(float))):
                raise NonFiniteEntryError(f"weight {i} has non-finite entries")
        self.spec = spec
        self.weights = mats

    def __repr__(self) -> str:
        return f"Functional(block_sizes={self.spec.block_sizes})"

    def weight_scale(self) -> float:
        # the trace pairing makes the weights an element of the same algebra
        return max(1.0, operator_norm(Element(self.spec, self.weights, _checked=True)))


def trace_functional(spec: AlgebraSpec, alpha: complex = 1.0) -> Functional:
    """The functional alpha * Tr (all weights alpha * identity)."""
    a = complex(alpha)
    return Functional(
        spec,
        tuple(a * np.eye(n, dtype=complex) for n in spec.block_sizes),
        _checked=True,
    )


def blockwise_scalar_functional(spec: AlgebraSpec, alphas) -> Functional:
    """Tracial functional with one scalar per block."""
    alphas = [complex(x) for x in alphas]
    if len(alphas) != spec.num_blocks:
        raise ShapeMismatchError("need one scalar per block")
    return Functional(
        spec,
        tuple(a * np.eye(n, dtype=complex) for a, n in zip(alphas, spec.block_sizes)),
        _checked=True,
    )


def random_functional(spec: AlgebraSpec, rng: np.random.Generator) -> Functional:
    return Functional(
        spec,
        tuple(complex_gaussian(rng, (n, n)) for n in spec.block_sizes),
        _checked=True,
    )


def evaluate(f: Functional, a: Element) -> complex:
    if f.spec != a.spec:
        raise ShapeMismatchError("functional and element live on different algebras")
    return complex(
        sum(np.trace(w @ b) for w, b in zip(f.weights, a.blocks))
    )


def _scalar_deviations(f: Functional) -> tuple[np.ndarray, float]:
    """Per-block mean-diagonal scalars and the worst deviation from them."""
    alphas = np.array(
        [np.trace(w) / n for w, n in zip(f.weights, f.spec.block_sizes)],
        dtype=complex,
    )
    sizes = f.spec.block_sizes
    devs = tuple(w - al * np.eye(n) for w, al, n in zip(f.weights, alphas, sizes))
    return alphas, operator_norm(Element(f.spec, devs, _checked=True))


def _tracial(f: Functional, dev: float, scale: float, tol: float) -> bool:
    """The scalar-weight verdict, spot-checked on seeded random pairs."""
    verdict = dev <= tol * scale
    if verdict:
        rng = rng_for(0)
        for _ in range(4):
            a = random_element(f.spec, rng)
            b = random_element(f.spec, rng)
            gap = abs(evaluate(f, a @ b) - evaluate(f, b @ a))
            if gap > 1e3 * tol * scale:
                raise TheoremViolationError(
                    "scalar-weight criterion contradicted by direct evaluation",
                    witness=(a, b),
                )
    return verdict


def is_tracial(f: Functional, tol: float = TRACIAL_TOL) -> bool:
    """f(ab) = f(ba) for all a, b iff every weight is scalar.

    A positive verdict is spot-checked on seeded random pairs; a
    contradiction there would mean the weight criterion itself is
    broken, so it raises rather than returning.
    """
    return _tracial(f, _scalar_deviations(f)[1], f.weight_scale(), tol)


def _tracial_witness(f: Functional) -> tuple[Element, Element] | None:
    """The unit pair with the first strictly largest |f(ab) - f(ba)| > 0.

    Candidates are pairs e_(x,y), e_(y,z) in one block. Block by block,
    the off-diagonal entry W[l, i] shows against e_(i,0), e_(0,l) for
    (i, l) in row-major order, then unequal diagonal entries against
    e_(i,j), e_(j,i) for i < j. ``np.hypot`` rounds the magnitudes as
    the scalar ``abs`` does; ``np.abs`` does not."""
    gaps, pairs = [], []
    for k, (w, n) in enumerate(zip(f.weights, f.spec.block_sizes)):
        r, c = np.nonzero(~np.eye(n, dtype=bool))
        i, j = np.triu_indices(n, 1)
        gaps += [w[c, r], w[i, i] - w[j, j]]
        y = np.r_[np.zeros_like(r), j]
        pairs.append(np.column_stack([np.full(y.size, k), np.r_[r, i], y, np.r_[c, i]]))
    g = np.concatenate(gaps)
    magnitudes = np.hypot(g.real, g.imag)
    if not np.any(magnitudes):
        return None
    k, x, y, z = (int(v) for v in np.concatenate(pairs)[np.argmax(magnitudes)])
    return matrix_unit(f.spec, k, x, y), matrix_unit(f.spec, k, y, z)


def tracial_witness(f: Functional) -> tuple[Element, Element] | None:
    """A unit-matrix pair (a, b) with f(ab) != f(ba), exactly when f is
    not tracial at ``TRACIAL_TOL``."""
    if _scalar_deviations(f)[1] <= TRACIAL_TOL * f.weight_scale():
        return None
    return _tracial_witness(f)


def _scalar_trace(alphas, dev: float, scale: float, tol: float) -> complex | None:
    if dev > tol * scale:
        return None
    alpha = complex(np.mean(alphas))
    if max(abs(a - alpha) for a in alphas) > tol * scale:
        return None
    return alpha


def is_scalar_trace(f: Functional, tol: float = TRACIAL_TOL) -> complex | None:
    """The alpha with f = alpha * Tr, or None if no single alpha works."""
    alphas, dev = _scalar_deviations(f)
    return _scalar_trace(alphas, dev, f.weight_scale(), tol)


@dataclass(frozen=True)
class SpectralBoundResult:
    """Either a valid bound constant or a refuting element, never both.

    A tracial functional with block scalars alpha_i satisfies
    |f(a)| <= (sum |alpha_i| n_i) * spectral_radius(a); any other
    functional is unbounded on square-zero elements, whose spectral
    radius is 0 while f is not.
    """

    constant: float | None
    witness: Element | None
    witness_value: complex | None


def _bound(f: Functional, tracial: bool, alphas, values) -> SpectralBoundResult:
    """The bound constant from the block scalars ``alphas`` of a tracial f,
    else the square-zero element with the first largest |value|."""
    if tracial:
        c = float(sum(abs(a) * n for a, n in zip(alphas, f.spec.block_sizes)))
        return SpectralBoundResult(constant=c, witness=None, witness_value=None)
    magnitudes = np.hypot(values.real, values.imag)
    if not np.any(magnitudes):
        raise TheoremViolationError(
            "non-scalar weights vanish on the whole square-zero span"
        )
    best = int(np.argmax(magnitudes))
    return SpectralBoundResult(
        constant=None,
        witness=_square_zero_element(f.spec, _square_zero_keys(f.spec)[best]),
        witness_value=complex(values[best]),
    )


def spectral_bound_witness(f: Functional, tol: float = TRACIAL_TOL) -> SpectralBoundResult:
    if is_tracial(f, tol):
        return _bound(f, True, _scalar_deviations(f)[0], None)
    return _bound(f, False, None, _square_zero_values(f)[0])


def _square_zero_keys(spec: AlgebraSpec) -> list[tuple[int, int, int, bool]]:
    """(block, i, j, rank_one) for each element of the square-zero basis."""
    keys = []
    for k, n in enumerate(spec.block_sizes):
        keys += [(k, i, j, False) for i in range(n) for j in range(n) if i != j]
        keys += [(k, i, j, True) for i in range(n) for j in range(i + 1, n)]
    return keys


def _square_zero_element(spec: AlgebraSpec, key) -> Element:
    k, i, j, rank_one = key
    if not rank_one:
        return matrix_unit(spec, k, i, j)
    w = zero(spec)
    w.blocks[k][[i, i, j, j], [i, j, i, j]] = (1.0, -1.0, 1.0, -1.0)
    return w


def square_zero_basis(spec: AlgebraSpec) -> list[Element]:
    """Square-zero elements spanning the blockwise-traceless subspace.

    Per block of size n: the off-diagonal units e_(i,j), plus for each
    i < j the rank-one matrix e_ii - e_ij + e_ji - e_jj, which factors
    as (e_i + e_j)(e_i - e_j)^T with orthogonal factors and therefore
    squares to zero. Size-1 blocks contribute nothing.
    """
    return [_square_zero_element(spec, key) for key in _square_zero_keys(spec)]


def _square_zero_values(f: Functional) -> tuple[np.ndarray, np.ndarray]:
    """f on every square-zero basis element, and each element's norm.

    tr(W e_ij) = W[j, i], and the rank-one element gives
    (W[i,i] + W[i,j]) + (-W[j,i] - W[j,j]), summed in the order the
    blockwise product and trace sum it; adding 0 turns -0.0 into +0.0
    as :func:`evaluate` does, so the values equal evaluate's bit for
    bit. The units have operator norm 1, the rank-one elements
    |e_i + e_j| |e_i - e_j| = 2. Both arrays follow the basis order.
    """
    values, norms = [], []
    for w, n in zip(f.weights, f.spec.block_sizes):
        r, c = np.nonzero(~np.eye(n, dtype=bool))
        i, j = np.triu_indices(n, 1)
        values += [w[c, r], (w[i, i] + w[i, j]) + (-w[j, i] - w[j, j])]
        norms += [np.ones(r.size), np.full(i.size, 2.0)]
    return 0 + np.concatenate(values), np.concatenate(norms)


@dataclass(frozen=True)
class VanishingVerdict:
    vanishes: bool
    witness: Element | None
    witness_value: complex | None


def _first_nonvanishing(
    f: Functional, scale: float, values, norms, elements, tol: float
) -> VanishingVerdict:
    """The first square-zero basis element (f on them is ``values``, their
    norms ``norms``), then the first of ``elements``, on which |f| exceeds
    ``tol`` times ``scale`` times the element's norm (at least 1).
    ``elements`` is consumed lazily: nothing past the witness is drawn."""
    hits = np.flatnonzero(np.hypot(values.real, values.imag) > tol * scale * norms)
    if hits.size:
        first = int(hits[0])
        w = _square_zero_element(f.spec, _square_zero_keys(f.spec)[first])
        return VanishingVerdict(False, w, complex(values[first]))
    for w in elements:
        v = evaluate(f, w)
        if abs(v) > tol * scale * max(1.0, operator_norm(w)):
            return VanishingVerdict(False, w, v)
    return VanishingVerdict(True, None, None)


def _conjugates(spec: AlgebraSpec, trials: int, seed: int):
    """Random basis square-zero elements, each conjugated by a random invertible."""
    keys = _square_zero_keys(spec)
    rng = rng_for(seed)
    for _ in range(trials if keys else 0):
        w = _square_zero_element(spec, keys[int(rng.integers(0, len(keys)))])
        u = random_invertible(spec, rng)
        uinv = Element(spec, tuple(np.linalg.inv(b) for b in u.blocks), _checked=True)
        yield u @ w @ uinv


def _nilpotents(spec: AlgebraSpec, trials: int, seed: int):
    """Strictly triangular elements conjugated by random invertibles."""
    rng = rng_for(seed)
    for _ in range(trials):
        u = random_invertible(spec, rng)
        yield random_nilpotent(spec, rng, conjugate_by=u)


def vanishes_on_square_zero(
    f: Functional,
    trials: int = 8,
    seed: int = 0,
    tol: float = CONSTANCY_TOL,
) -> VanishingVerdict:
    """Evaluate f on the square-zero basis and random conjugates of it."""
    values, norms = _square_zero_values(f)
    conjugates = _conjugates(f.spec, trials, seed)
    return _first_nonvanishing(f, f.weight_scale(), values, norms, conjugates, tol)


def vanishes_on_nilpotents(
    f: Functional,
    trials: int = 12,
    seed: int = 0,
    tol: float = CONSTANCY_TOL,
) -> VanishingVerdict:
    """Test f on random conjugated strictly-triangular elements.

    Strict triangularity guarantees nilpotency exactly, independent of
    numerics; conjugation by random invertibles spreads the family over
    the full nilpotent cone. The square-zero basis rides along since
    those are nilpotent too.
    """
    values, norms = _square_zero_values(f)
    nilpotents = _nilpotents(f.spec, trials, seed)
    return _first_nonvanishing(f, f.weight_scale(), values, norms, nilpotents, tol)


@dataclass(frozen=True)
class ConstancyVerdict:
    constant: bool
    value: complex | None
    witnesses: tuple[tuple[Element, complex], tuple[Element, complex]] | None


def _constancy(f: Functional, scale, samples, seed, tol) -> ConstancyVerdict:
    rng = rng_for(seed)
    k = f.spec.num_blocks
    samples = max(samples, 2 * k)
    found: list[tuple[Element, complex]] = []
    for i in range(samples):
        p = random_rank_one_projection(f.spec, rng, block=i % k)
        found.append((p, evaluate(f, p)))
    for p, v in found:
        if abs(v - found[0][1]) > tol * scale:
            return ConstancyVerdict(False, None, (found[0], (p, v)))
    mean = complex(np.mean([v for _, v in found]))
    return ConstancyVerdict(True, mean, None)


def constant_on_rank_one_projections(
    f: Functional,
    samples: int = 24,
    seed: int = 0,
    tol: float = CONSTANCY_TOL,
) -> ConstancyVerdict:
    """Sample rank-one projections and compare the values of f.

    Rank-one projections live inside a single block (rank adds across
    blocks), so sampling walks the blocks round-robin; degenerate draws
    are rejected inside the sampler. A failure returns two projections
    with different values.
    """
    return _constancy(f, f.weight_scale(), samples, seed, tol)


def counterexample_functional(spec: AlgebraSpec) -> Functional:
    """Tracial but not a scalar multiple of the trace: tr of block 1.

    Exists exactly when the algebra has at least two blocks; a single
    full matrix block admits no such functional.
    """
    if spec.num_blocks < 2:
        raise NoCounterexampleError(
            "a single matrix block admits no tracial functional besides "
            "scalar multiples of the trace"
        )
    weights = [np.zeros((n, n), dtype=complex) for n in spec.block_sizes]
    weights[0] = np.eye(spec.block_sizes[0], dtype=complex)
    return Functional(spec, tuple(weights), _checked=True)


@dataclass(frozen=True)
class CharacterizationReport:
    """All characterization verdicts for one functional, with witnesses."""

    functional: Functional
    scalar_trace_coefficient: complex | None
    tracial: bool
    tracial_pair: tuple[Element, Element] | None
    bound: SpectralBoundResult
    nilpotent: VanishingVerdict
    square_zero: VanishingVerdict
    rank_one_constancy: ConstancyVerdict

    @property
    def is_scalar_trace(self) -> bool:
        return self.scalar_trace_coefficient is not None


def characterize(
    f: Functional,
    trials: int = 12,
    samples: int = 24,
    seed: int = 0,
    tol: float = CONSTANCY_TOL,
) -> CharacterizationReport:
    """Run every characterization on one functional. The block scalars, the
    weight scale, the square-zero values and the tracial verdict are
    computed once and shared by every verdict."""
    alphas, dev = _scalar_deviations(f)
    scale = f.weight_scale()
    values, norms = _square_zero_values(f)
    tracial = _tracial(f, dev, scale, TRACIAL_TOL)
    return CharacterizationReport(
        functional=f,
        scalar_trace_coefficient=_scalar_trace(alphas, dev, scale, TRACIAL_TOL),
        tracial=tracial,
        tracial_pair=None if tracial else _tracial_witness(f),
        bound=_bound(f, tracial, alphas, values),
        nilpotent=_first_nonvanishing(
            f, scale, values, norms, _nilpotents(f.spec, trials, seed), tol
        ),
        square_zero=_first_nonvanishing(
            f, scale, values, norms, _conjugates(f.spec, trials, seed), tol
        ),
        rank_one_constancy=_constancy(f, scale, samples, seed, tol),
    )
