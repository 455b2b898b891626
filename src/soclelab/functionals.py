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

Every characterization runs as one stacked pass over a list of
functionals on one algebra (:func:`_characterize_stack`); a single
functional is a stack of one. Per block, the weights form one
``(F, n, n)`` stack with one 2-norm call for the deviations and one for
the scales, and every closed-form value family is one gather over it.
The index tables, the unitaries and the witness keys are cached, and
the spot-check pairs are drawn once per stack, since all functionals of
a call share the seed. Witness elements are built only for the verdicts
that fail. Each functional's values are those it gets alone, bit for
bit; when one functional of a stack raises, each is characterized alone,
so that the first in order decides, as one by one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraSpec, Element, block_operator_norm, matrix_unit, zero
from .errors import (
    NoCounterexampleError,
    NumericOverflowError,
    ShapeMismatchError,
    SocleLabError,
    TheoremViolationError,
)
from .sampling import SPOT_CHECK, complex_gaussian, random_element_stack, rng_for

TRACIAL_TOL = 1e-8


class Functional:
    """Weight matrices acting by f(a) = sum of tr(W_i a_i).

    Inside this module a Functional may also hold a stack of them: each
    weight is then ``(F, n_i, n_i)``, row k the weights of the k-th
    functional, and every value below gains that leading axis."""

    __slots__ = ("spec", "weights")

    def __init__(self, spec: AlgebraSpec, weights, *, _checked: bool = False):
        if not _checked:
            # the weights are an element of the same algebra: its check is theirs
            weights = Element(spec, weights).blocks
        self.spec = spec
        self.weights = weights

    def __repr__(self) -> str:
        return f"Functional(block_sizes={self.spec.block_sizes})"

    def weight_scale(self) -> float:
        # the trace pairing makes the weights an element of the same algebra;
        # the scale is 0 only for the zero functional
        return _finite(block_operator_norm(self.weights), "weight operator norm")


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


@functools.lru_cache(maxsize=8)
def _index_tables(n: int) -> tuple[np.ndarray, ...]:
    """The off-diagonal positions (row, col) of an n x n block in
    row-major order, then the pairs (i, j), i < j, of ``triu_indices``:
    read-only, and cached for the last 8 block sizes."""
    tables = (*np.nonzero(~np.eye(n, dtype=bool)), *np.triu_indices(n, 1))
    for t in tables:
        t.flags.writeable = False
    return tables


def _first_max(x: np.ndarray) -> np.ndarray:
    """Per row of a ``(F, m)`` array, the index of its first largest
    entry, or -1 where the row is all 0 (all False for a mask)."""
    if not x.shape[-1]:
        return np.full(x.shape[:-1], -1)
    return np.where(x.any(axis=-1), x.argmax(axis=-1), -1)


def _first_largest(values) -> np.ndarray:
    """Per row, the index of the first largest modulus among the complex
    ``(F, m)`` array ``values(s)`` at scale s = 1, or -1 where the row is
    all 0. ``np.hypot`` rounds the moduli as the scalar ``abs`` does. A
    row with a modulus beyond the double range is ranked at s = 1/4
    instead. There the modulus of a finite value, or of the difference of
    two, is finite, and a power of two scales values that large exactly,
    so their order is kept and no tie at inf decides."""
    with np.errstate(over="ignore"):
        z = values(1.0)
        moduli = np.hypot(z.real, z.imag)
    huge = np.isinf(moduli).any(axis=-1)
    if huge.any():
        z = values(0.25)[huge]
        moduli[huge] = np.hypot(z.real, z.imag)
    return _first_max(moduli)


def _scalar_deviations(f: Functional) -> tuple[np.ndarray, np.ndarray]:
    """Per-block mean-diagonal scalars and the worst deviation from them,
    one 2-norm call per block. The mean sums the diagonal divided by n,
    which cannot overflow."""
    sizes = f.spec.block_sizes
    alphas = np.stack(
        [np.sum(np.diagonal(w, axis1=-2, axis2=-1) / n, axis=-1) for w, n in zip(f.weights, sizes)],
        axis=-1,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite one raises just below
        devs = tuple(
            w - alphas[..., k, None, None] * np.eye(n)
            for k, (w, n) in enumerate(zip(f.weights, sizes))
        )
    for d in devs:
        _finite(d, "deviation from the block scalars")
    return alphas, block_operator_norm(devs)


def _tracial(f: Functional, dev, scale, seed: int) -> bool | list[bool]:
    """The scalar-weight verdict, spot-checked on 4 random pairs (a, b),
    one stack from ``rng_for(seed, SPOT_CHECK)`` drawn when any verdict
    holds: f(ab) - f(ba) is taken on the weights divided by ``scale``, so
    every product stays finite; a contradiction there means the criterion
    is broken, and raises. Verdicts are Python bools, a list for a stack."""
    verdict = np.asarray(dev <= TRACIAL_TOL * scale)
    if verdict.any():
        xs = random_element_stack(f.spec, rng_for(seed, SPOT_CHECK), 8)
        unit = np.where(scale > 0, scale, 1.0)[..., None, None]
        gaps = sum(
            np.einsum("...ij,pji->...p", w / unit, x[::2] @ x[1::2] - x[1::2] @ x[::2])
            for w, x in zip(f.weights, xs)
        )
        bad = np.argwhere((np.abs(gaps) > 1e3 * TRACIAL_TOL) & verdict[..., None])
        if bad.size:
            p = bad[0, -1]
            pair = (Element(f.spec, tuple(x[2 * p + q] for x in xs)) for q in (0, 1))
            raise TheoremViolationError(
                "scalar-weight criterion contradicted by direct evaluation",
                witness=tuple(pair),
            )
    return verdict.tolist()


def _tracial_witnesses(f: Functional, tracial) -> list[tuple[Element, Element] | None]:
    """Per functional of the stack f that is not ``tracial``, the unit pair
    with the first strictly largest |f(ab) - f(ba)| > 0; else None.

    Candidates are pairs e_(x,y), e_(y,z) in one block. Block by block,
    the off-diagonal entry W[l, i] shows against e_(i,0), e_(0,l) for
    (i, l) in row-major order, then unequal diagonal entries against
    e_(i,j), e_(j,i) for i < j, ranked by :func:`_first_largest`."""
    if all(tracial):
        return [None] * len(tracial)

    def gaps(s):
        out = []
        for w, n in zip(f.weights, f.spec.block_sizes):
            r, c, i, j = _index_tables(n)
            out += [s * w[:, c, r], s * w[:, i, i] - s * w[:, j, j]]
        return np.concatenate(out, axis=-1)

    best = _first_largest(gaps)
    return [None if t or q < 0 else _unit_pair(f.spec, q) for t, q in zip(tracial, best)]


def _unit_pair(spec: AlgebraSpec, q: int) -> tuple[Element, Element]:
    """The q-th candidate pair of :func:`_tracial_witnesses`."""
    for k, n in enumerate(spec.block_sizes):
        r, c, i, j = _index_tables(n)
        if q < r.size:
            x, y, z = r[q], 0, c[q]
            break
        q -= r.size
        if q < i.size:
            x, y, z = i[q], j[q], i[q]
            break
        q -= i.size
    return matrix_unit(spec, k, int(x), int(y)), matrix_unit(spec, k, int(y), int(z))


def _scalar_traces(alphas, dev, scale) -> list[complex | None]:
    """Per functional, the common block scalar when it is tracial and its
    block scalars lie within the threshold of their mean, else None.
    The mean or a gap to it overflows only where sum |alpha_i| n_i does,
    which has raised for a tracial functional; any other gets None
    whatever its mean and gaps read."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(alphas, axis=-1)
        d = alphas - mean[:, None]
        gaps = np.hypot(d.real, d.imag)
    limit = TRACIAL_TOL * scale
    scalar = (dev <= limit) & (gaps.max(axis=-1) <= limit)
    return [complex(m) if ok else None for m, ok in zip(mean, scalar)]


@dataclass(frozen=True)
class SpectralBoundResult:
    """Either a valid bound constant or a refuting element, never both.

    A tracial functional with block scalars alpha_i satisfies
    |f(a)| <= (sum |alpha_i| n_i) * (spectral radius of a); any other
    functional is unbounded on square-zero elements, whose spectral
    radius is 0 while f is not.
    """

    bounded: bool
    constant: float | None
    witness: Element | None
    witness_value: complex | None


def _bounds(spec: AlgebraSpec, tracial, alphas, values) -> list[SpectralBoundResult]:
    """Per functional: the bound constant from the block scalars ``alphas``
    of a tracial one, else the square-zero element with the first largest
    |value| among its square-zero ``values`` (:func:`_first_largest`).
    The constant is summed in Python floats, which overflow to inf
    without a warning."""
    if any(tracial):
        with np.errstate(over="ignore"):  # an infinite constant raises below
            moduli = np.hypot(alphas.real, alphas.imag)
    if not all(tracial):
        best = _first_largest(lambda s: s * values)
    out = []
    for k, t in enumerate(tracial):
        if t:
            c = sum(float(m) * n for m, n in zip(moduli[k], spec.block_sizes))
            _finite(c, "spectral bound constant sum |alpha_i| n_i")
            out.append(SpectralBoundResult(True, c, None, None))
        elif best[k] < 0:
            raise TheoremViolationError(
                "non-scalar weights vanish on the whole square-zero span"
            )
        else:
            witness = _element(spec, _witness_keys(spec)[best[k]])
            out.append(SpectralBoundResult(False, None, witness, complex(values[k, best[k]])))
    return out


def _square_zero_keys(spec: AlgebraSpec) -> list[tuple[int, int, int, int]]:
    """(block, i, j, kind) for each element of the square-zero basis, in
    the key format of :func:`_element`: per block, e_ij for i != j, then
    e_ii - e_ij + e_ji - e_jj = (e_i + e_j)(e_i - e_j)^T for i < j, whose
    orthogonal factors make it square to zero."""
    keys = []
    for k, n in enumerate(spec.block_sizes):
        keys += [(k, i, j, 0) for i in range(n) for j in range(n) if i != j]
        keys += [(k, i, j, 1) for i in range(n) for j in range(i + 1, n)]
    return keys


@functools.lru_cache(maxsize=8)
def _witness_keys(spec: AlgebraSpec) -> tuple[tuple[int, int, int, int], ...]:
    """The :func:`_square_zero_keys`, then those of the conjugated units:
    first all the F e_ij F*, then all the (C F) e_ij (C F)*, each in
    basis order; the order of :func:`_nilpotent_values`. Cached for the
    last 8 algebras."""
    keys = _square_zero_keys(spec)
    return tuple(keys + [(k, i, j, u) for u in (2, 3) for k, i, j, kind in keys if kind == 0])


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


@functools.lru_cache(maxsize=8)
def _unitaries(n: int) -> np.ndarray:
    """F and C F stacked, with phases reduced in integers before ``exp``:
    read-only, and cached for the last 8 block sizes."""
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * (np.outer(k, k) % n) / n) / np.sqrt(n)
    chirp = np.exp(1j * np.pi * (k * k % (2 * n)) / n)
    us = np.stack([dft, chirp[:, None] * dft])
    us.flags.writeable = False
    return us


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
        r, c, i, j = _index_tables(n)
        with np.errstate(over="ignore"):  # an infinite value raises just below
            values += [w[..., c, r], (w[..., i, i] + w[..., i, j]) + (-w[..., j, i] - w[..., j, j])]
        norms += [np.ones(r.size), np.full(i.size, 2.0)]
    values = _finite(0 + np.concatenate(values, axis=-1), "square-zero value")
    return values, np.concatenate(norms)


@dataclass(frozen=True)
class VanishingVerdict:
    vanishes: bool
    witness: Element | None
    witness_value: complex | None


def _nilpotent_values(f: Functional, values, norms) -> tuple[np.ndarray, np.ndarray]:
    """The square-zero basis ``values`` and ``norms``, followed by f on
    the conjugated units, (U* W U)[j, i], and their norms, 1, in the
    order of :func:`_witness_keys`."""
    extra = []
    for w, n in zip(f.weights, f.spec.block_sizes):
        us = _unitaries(n)
        r, c = _index_tables(n)[:2]
        extra.append((us.conj().transpose(0, 2, 1) @ w[..., None, :, :] @ us)[..., c, r])
    extra = _finite(np.concatenate(extra, axis=-1), "conjugated unit value")
    extra = extra.reshape(*extra.shape[:-2], -1)
    return (
        np.concatenate([values, extra], axis=-1),
        np.concatenate([norms, np.ones(extra.shape[-1])]),
    )


def _first_nonvanishing(spec: AlgebraSpec, limits, values, norms) -> list[VanishingVerdict]:
    """Per functional, the first element on which |f| exceeds its
    ``limits`` entry (``TRACIAL_TOL`` times its scale) times the
    element's norm. ``values`` and ``norms`` follow the square-zero basis
    and then, when longer, the conjugated units. A |value| beyond the
    double range reads inf, which exceeds every finite limit, as it does."""
    with np.errstate(over="ignore"):
        first = _first_max(np.hypot(values.real, values.imag) > limits * norms)
    return [
        VanishingVerdict(True, None, None)
        if q < 0
        else VanishingVerdict(False, _element(spec, _witness_keys(spec)[q]), complex(v[q]))
        for v, q in zip(values, first)
    ]


class ProjectionValue(NamedTuple):
    projection: Element
    value: complex


@dataclass(frozen=True)
class ConstancyVerdict:
    constant: bool
    value: complex | None
    witness_pair: tuple[ProjectionValue, ProjectionValue] | None


def _projection_values(f: Functional) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """f on the rank-one idempotents, W[j, j] for each e_jj and then
    W[j, j] + W[l, j] for each e_jj + e_jl, with the :func:`_element` key
    of each. Adding 0 turns -0.0 into +0.0 as :func:`evaluate` does, so
    the values equal evaluate's bit for bit."""
    values, keys = [], []
    for k, (w, n) in enumerate(zip(f.weights, f.spec.block_sizes)):
        j, l = _index_tables(n)[:2]
        with np.errstate(over="ignore"):  # an infinite value raises just below
            values += [np.diagonal(w, axis1=-2, axis2=-1), w[..., j, j] + w[..., l, j]]
        keys += [(k, i, i, 4) for i in range(n)] + [(k, a, b, 4) for a, b in zip(j, l)]
    return _finite(0 + np.concatenate(values, axis=-1), "rank-one projection value"), keys


def _constancy(spec: AlgebraSpec, limits, values, keys) -> list[ConstancyVerdict]:
    """Per functional, its :func:`_projection_values` (with their
    ``keys``), which fix every weight entry, against its value on the
    first; a failure names the first that lies over its ``limits`` entry
    away. The values are finite, so a gap beyond the double range reads
    inf, never NaN, and lies over every finite limit, as it does."""
    with np.errstate(over="ignore"):
        gaps = values - values[:, :1]
        off = _first_max(np.hypot(gaps.real, gaps.imag) > limits)
    out = []
    for v, q in zip(values, off):
        if q < 0:
            out.append(ConstancyVerdict(True, complex(v[0]), None))
        else:
            first, other = (ProjectionValue(_element(spec, keys[i]), complex(v[i])) for i in (0, q))
            out.append(ConstancyVerdict(False, None, (first, other)))
    return out


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
    """All characterization verdicts for one functional, with witnesses,
    each field named by the condition it decides."""

    is_scalar_trace: bool
    scalar_trace_coefficient: complex | None
    is_tracial: bool
    tracial_witness_pair: tuple[Element, Element] | None
    spectral_bound: SpectralBoundResult
    vanishes_on_nilpotents: VanishingVerdict
    vanishes_on_square_zero: VanishingVerdict
    constant_on_rank_one_projections: ConstancyVerdict


def _characterize_stack(fs, seed: int) -> list:
    """The :class:`CharacterizationReport` of each functional of ``fs``, all
    on one algebra, or the SocleLabError that characterizing it raises.

    The weights are stacked per block and every quantity is taken once
    for the whole stack: block scalars, deviations, weight scales,
    square-zero, nilpotent and projection values, and the spot check;
    each verdict is one vectorized threshold over its stack. The stages
    run in the order in which one functional alone is decided. If the
    stack raises, each functional is characterized alone, so that each
    gets its own outcome.
    """
    spec = fs[0].spec
    stack = Functional(spec, tuple(map(np.stack, zip(*(f.weights for f in fs)))), _checked=True)
    try:
        alphas, dev = _scalar_deviations(stack)
        scale = stack.weight_scale()
        values, norms = _square_zero_values(stack)
        tracial = _tracial(stack, dev, scale, seed)
        bounds = _bounds(spec, tracial, alphas, values)
        nilpotent, nilpotent_norms = _nilpotent_values(stack, values, norms)
        projections, keys = _projection_values(stack)
    except SocleLabError as exc:
        if len(fs) == 1:
            return [exc]
        return [out for f in fs for out in _characterize_stack([f], seed)]
    limits = TRACIAL_TOL * scale[:, None]
    return [
        CharacterizationReport(c is not None, c, *verdicts)
        for c, *verdicts in zip(
            _scalar_traces(alphas, dev, scale),
            tracial,
            _tracial_witnesses(stack, tracial),
            bounds,
            _first_nonvanishing(spec, limits, nilpotent, nilpotent_norms),
            _first_nonvanishing(spec, limits, values, norms),
            _constancy(spec, limits, projections, keys),
        )
    ]


def characterize(f: Functional, seed: int = 0) -> CharacterizationReport:
    """Run every characterization on one functional: the one public way
    to decide any of them, a stack of one for :func:`_characterize_stack`.
    ``seed`` seeds the tracial spot check."""
    (rep,) = _characterize_stack([f], seed)
    if isinstance(rep, SocleLabError):
        raise rep
    return rep
