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
  constant on rank-one projections are linear conditions, each decided
  on a fixed finite family that spans its set. Per block of size n, the
  square-zero basis (e_ij, i != j, and e_ii - e_ij + e_ji - e_jj, i < j)
  spans the traceless part, which holds every nilpotent. The nilpotent
  verdict also reads the conjugated units U e_ij U*, i != j, for the
  unitary DFT U = F = exp(-2 pi i jk/n)/sqrt(n) and U = C F with the
  chirp C = diag(exp(i pi k^2/n)); these square to zero, have norm 1
  and alone span the traceless part too. Constancy compares f on the
  idempotents e_jj and e_jj + e_jl, l != j, with f on the first.

Thresholds: let W_i = alpha_i I + D_i with alpha_i the mean diagonal,
dev = max ||D_i||, t = TRACIAL_TOL * (operator norm of the weights),
the one threshold that every verdict reads, and n the largest block
size. f is tracial iff dev <= t; x refutes vanishing if |f(x)| > t ||x||;
constancy fails if a value lies over t from the first.

* Tracial implies that both vanish: each x is traceless and of rank
  one, so |f(x)| = |tr(D x)| <= ||D|| ||x||.
* If no value of either family crosses, dev <= 4 n t: the units bound
  off-diagonal entries by t, so the rank-one basis elements bound
  |W_ii - W_jj| by 4t, and ||D_i|| <= (n - 1) t + 4t.
* Let m = max(dev, max |alpha_i - mean alpha|). If m <= t/5, every
  value lies within 3m of mean alpha and the first, a diagonal entry,
  within 2m, so f is constant. If f is constant, its diagonal lies
  within t of the first value and its off-diagonal entries within 2t
  of 0, so m <= 2 n t.

So tracial = square-zero = nilpotent = bounded outside t < dev <= 4 n t,
and constancy = scalar trace outside t/5 < m <= 2 n t. Negative verdicts
always carry a concrete witness that can be re-verified independently.
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
    NumericOverflowError,
    ShapeMismatchError,
    TheoremViolationError,
)
from .sampling import SPOT_CHECK, complex_gaussian, random_element_stack, rng_for

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
        # the trace pairing makes the weights an element of the same algebra;
        # the scale is 0 only for the zero functional
        norm = operator_norm(Element(self.spec, self.weights, _checked=True))
        return _finite(norm, "weight operator norm")


def _finite(value, name: str):
    if not np.all(np.isfinite(value)):
        raise NumericOverflowError(f"{name} overflows the double range")
    return value


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
    """Per-block mean-diagonal scalars and the worst deviation from them.
    The mean sums the diagonal divided by n, which cannot overflow."""
    sizes = f.spec.block_sizes
    alphas = np.array(
        [np.sum(np.diagonal(w) / n) for w, n in zip(f.weights, sizes)], dtype=complex
    )
    devs = tuple(w - al * np.eye(n) for w, al, n in zip(f.weights, alphas, sizes))
    for d in devs:
        _finite(d, "deviation from the block scalars")
    return alphas, operator_norm(Element(f.spec, devs, _checked=True))


def _tracial(f: Functional, dev: float, scale: float, seed: int) -> bool:
    """The scalar-weight verdict, spot-checked on 4 random pairs (a, b),
    one stack from ``rng_for(seed, SPOT_CHECK)``: f(ab) - f(ba) is taken
    on the weights divided by ``scale``, so every product stays finite."""
    verdict = dev <= TRACIAL_TOL * scale
    if verdict:
        xs = random_element_stack(f.spec, rng_for(seed, SPOT_CHECK), 8)
        gaps = sum(
            np.einsum("ij,pji->p", w / (scale or 1.0), x[::2] @ x[1::2] - x[1::2] @ x[::2])
            for w, x in zip(f.weights, xs)
        )
        bad = np.flatnonzero(np.abs(gaps) > 1e3 * TRACIAL_TOL)
        if bad.size:
            pair = (Element(f.spec, tuple(x[2 * bad[0] + q] for x in xs)) for q in (0, 1))
            raise TheoremViolationError(
                "scalar-weight criterion contradicted by direct evaluation",
                witness=tuple(pair),
            )
    return verdict


def is_tracial(f: Functional) -> bool:
    """f(ab) = f(ba) for all a, b iff every weight is scalar.

    A positive verdict is spot-checked on seeded random pairs; a
    contradiction there would mean the weight criterion itself is
    broken, so it raises rather than returning.
    """
    return _tracial(f, _scalar_deviations(f)[1], f.weight_scale(), 0)


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


def _scalar_trace(alphas, dev: float, scale: float) -> complex | None:
    if dev > TRACIAL_TOL * scale:
        return None
    alpha = complex(np.mean(alphas))
    if max(abs(a - alpha) for a in alphas) > TRACIAL_TOL * scale:
        return None
    return alpha


def is_scalar_trace(f: Functional) -> complex | None:
    """The alpha with f = alpha * Tr, or None if no single alpha works."""
    alphas, dev = _scalar_deviations(f)
    return _scalar_trace(alphas, dev, f.weight_scale())


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
        with np.errstate(over="ignore"):  # an infinite c raises just below
            c = float(sum(abs(a) * n for a, n in zip(alphas, f.spec.block_sizes)))
        _finite(c, "spectral bound constant sum |alpha_i| n_i")
        return SpectralBoundResult(constant=c, witness=None, witness_value=None)
    magnitudes = np.hypot(values.real, values.imag)
    if not np.any(magnitudes):
        raise TheoremViolationError(
            "non-scalar weights vanish on the whole square-zero span"
        )
    best = int(np.argmax(magnitudes))
    return SpectralBoundResult(
        constant=None,
        witness=_element(f.spec, _square_zero_keys(f.spec)[best]),
        witness_value=complex(values[best]),
    )


def spectral_bound_witness(f: Functional) -> SpectralBoundResult:
    if is_tracial(f):
        return _bound(f, True, _scalar_deviations(f)[0], None)
    return _bound(f, False, None, _square_zero_values(f)[0])


def _square_zero_keys(spec: AlgebraSpec) -> list[tuple[int, int, int, int]]:
    """(block, i, j, kind) for each element of the square-zero basis, in
    the key format of :func:`_element`."""
    keys = []
    for k, n in enumerate(spec.block_sizes):
        keys += [(k, i, j, 0) for i in range(n) for j in range(n) if i != j]
        keys += [(k, i, j, 1) for i in range(n) for j in range(i + 1, n)]
    return keys


def _element(spec: AlgebraSpec, key) -> Element:
    """The witness (block, i, j, kind): kind 0 is e_ij, 1 the rank-one
    e_ii - e_ij + e_ji - e_jj, 2 and 3 the conjugated units F e_ij F* and
    (C F) e_ij (C F)*, 4 the idempotent e_ii + e_ij (e_ii when i = j)."""
    k, i, j, kind = (int(v) for v in key)
    w = zero(spec)
    if kind == 0:
        w.blocks[k][i, j] = 1.0
    elif kind == 1:
        w.blocks[k][[i, i, j, j], [i, j, i, j]] = (1.0, -1.0, 1.0, -1.0)
    elif kind == 4:
        w.blocks[k][i, [i, j]] = 1.0
    else:
        u = _unitaries(spec.block_sizes[k])[kind - 2]
        w.blocks[k][:] = np.outer(u[:, i], u[:, j].conj())
    return w


def _unitaries(n: int) -> np.ndarray:
    """F and C F stacked, with phases reduced in integers before ``exp``."""
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * (np.outer(k, k) % n) / n) / np.sqrt(n)
    chirp = np.exp(1j * np.pi * (k * k % (2 * n)) / n)
    return np.stack([dft, chirp[:, None] * dft])


def square_zero_basis(spec: AlgebraSpec) -> list[Element]:
    """Square-zero elements spanning the blockwise-traceless subspace.

    Per block of size n: the off-diagonal units e_(i,j), plus for each
    i < j the rank-one matrix e_ii - e_ij + e_ji - e_jj, which factors
    as (e_i + e_j)(e_i - e_j)^T with orthogonal factors and therefore
    squares to zero. Size-1 blocks contribute nothing.
    """
    return [_element(spec, key) for key in _square_zero_keys(spec)]


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
        with np.errstate(over="ignore"):  # an infinite value raises just below
            values += [w[c, r], (w[i, i] + w[i, j]) + (-w[j, i] - w[j, j])]
        norms += [np.ones(r.size), np.full(i.size, 2.0)]
    return _finite(0 + np.concatenate(values), "square-zero value"), np.concatenate(norms)


@dataclass(frozen=True)
class VanishingVerdict:
    vanishes: bool
    witness: Element | None
    witness_value: complex | None


def _nilpotent_values(f: Functional, values, norms) -> tuple[np.ndarray, np.ndarray]:
    """The square-zero basis ``values`` and ``norms``, followed by f on
    the conjugated units, (U* W U)[j, i], and their norms, 1: first all
    the F e_ij F*, then all the (C F) e_ij (C F)*, each in basis order."""
    extra = []
    for w, n in zip(f.weights, f.spec.block_sizes):
        us = _unitaries(n)
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        extra.append((us.conj().transpose(0, 2, 1) @ w @ us)[:, j, i])
    extra = _finite(np.concatenate(extra, axis=1).ravel(), "conjugated unit value")
    return np.concatenate([values, extra]), np.concatenate([norms, np.ones(extra.size)])


def _first_nonvanishing(f: Functional, scale: float, values, norms) -> VanishingVerdict:
    """The first element on which |f| exceeds ``TRACIAL_TOL`` times
    ``scale`` times its norm. ``values`` and ``norms`` follow the
    square-zero basis and then, when longer, the conjugated units."""
    hits = np.flatnonzero(np.hypot(values.real, values.imag) > TRACIAL_TOL * scale * norms)
    if not hits.size:
        return VanishingVerdict(True, None, None)
    first = int(hits[0])
    keys = _square_zero_keys(f.spec)
    keys += [(k, i, j, u) for u in (2, 3) for k, i, j, kind in keys if kind == 0]
    w = _element(f.spec, keys[first])
    return VanishingVerdict(False, w, complex(values[first]))


def vanishes_on_square_zero(f: Functional) -> VanishingVerdict:
    """Evaluate f on the square-zero basis, which spans every square-zero
    element."""
    values, norms = _square_zero_values(f)
    return _first_nonvanishing(f, f.weight_scale(), values, norms)


def vanishes_on_nilpotents(f: Functional) -> VanishingVerdict:
    """Evaluate f on the square-zero basis, then on the conjugated units.
    Each family spans the traceless part, which holds every nilpotent.
    The basis goes first, so f gets the square-zero verdict's witness."""
    values, norms = _nilpotent_values(f, *_square_zero_values(f))
    return _first_nonvanishing(f, f.weight_scale(), values, norms)


@dataclass(frozen=True)
class ConstancyVerdict:
    constant: bool
    value: complex | None
    witnesses: tuple[tuple[Element, complex], tuple[Element, complex]] | None


def _projection_values(f: Functional) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """f on the rank-one idempotents, W[j, j] for each e_jj and then
    W[j, j] + W[l, j] for each e_jj + e_jl, with the :func:`_element` key
    of each. Adding 0 turns -0.0 into +0.0 as :func:`evaluate` does, so
    the values equal evaluate's bit for bit."""
    values, keys = [], []
    for k, (w, n) in enumerate(zip(f.weights, f.spec.block_sizes)):
        j, l = np.nonzero(~np.eye(n, dtype=bool))
        with np.errstate(over="ignore"):  # an infinite value raises just below
            values += [np.diagonal(w), w[j, j] + w[l, j]]
        keys += [(k, i, i, 4) for i in range(n)] + [(k, a, b, 4) for a, b in zip(j, l)]
    return _finite(0 + np.concatenate(values), "rank-one projection value"), keys


def _constancy(f: Functional, scale: float) -> ConstancyVerdict:
    values, keys = _projection_values(f)
    gaps = values - values[0]
    off = np.flatnonzero(np.hypot(gaps.real, gaps.imag) > TRACIAL_TOL * scale)
    if not off.size:
        return ConstancyVerdict(True, complex(values[0]), None)
    first, other = ((_element(f.spec, keys[i]), complex(values[i])) for i in (0, off[0]))
    return ConstancyVerdict(False, None, (first, other))


def constant_on_rank_one_projections(f: Functional) -> ConstancyVerdict:
    """Compare f on the rank-one idempotents e_jj and e_jj + e_jl, whose
    values fix every weight entry, with its value on the first.

    A constant verdict reports the first value. A failure returns the
    first projection and the first one whose value differs.
    """
    return _constancy(f, f.weight_scale())


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


def characterize(f: Functional, seed: int = 0) -> CharacterizationReport:
    """Run every characterization on one functional. The block scalars, the
    weight scale, the square-zero values and the tracial verdict are
    computed once and shared by every verdict; ``seed`` seeds the
    tracial spot check."""
    alphas, dev = _scalar_deviations(f)
    scale = f.weight_scale()
    values, norms = _square_zero_values(f)
    tracial = _tracial(f, dev, scale, seed)
    return CharacterizationReport(
        functional=f,
        scalar_trace_coefficient=_scalar_trace(alphas, dev, scale),
        tracial=tracial,
        tracial_pair=None if tracial else _tracial_witness(f),
        bound=_bound(f, tracial, alphas, values),
        nilpotent=_first_nonvanishing(f, scale, *_nilpotent_values(f, values, norms)),
        square_zero=_first_nonvanishing(f, scale, values, norms),
        rank_one_constancy=_constancy(f, scale),
    )
