"""Seeded random generators for elements, projections, and test corpora.

All randomness flows through :func:`rng_for`. Each random family of the
library reads its own stream ``rng_for(seed, TAG[, index])`` under one
of the tags below. The key is a ``SeedSequence`` spawn key, appended to
the seed padded to four 32-bit words, so distinct (seed, key) pairs
never share a stream for seeds below 2**128 and key entries below 2**32.
``rng_for(seed)`` is ``np.random.default_rng(seed)``.

A batch of probes is one draw: generator output is sequential, so
element i of :func:`random_element_stack` does not depend on the count,
and it is the i-th of successive :func:`random_element` calls.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, Element, zero
from .errors import ProbeExhaustionError, ShapeMismatchError

# Stream tags, one per random family of the library.
PROBE = 1  # rank.spectral_rank
MULTIPLICITY_PROBE = 2  # riesz._multiplicities
SPOT_CHECK = 3  # functionals._tracial
IDEAL = 4  # classify.is_socle_minimal_ideal
FUNCTIONALS = 5  # classify.verify_theorems, per trial


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """The stream of ``seed`` under ``key``; a negative seed raises ValueError."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian: real and imaginary parts N(0, 1/2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_element(spec: AlgebraSpec, rng: np.random.Generator) -> Element:
    """Element with independent standard complex Gaussian entries."""
    blocks = random_element_stack(spec, rng, 1)
    return Element(spec, tuple(x[0] for x in blocks), _checked=True)


def random_element_stack(
    spec: AlgebraSpec, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, ...]:
    """``count`` Gaussian elements from one draw, stacked per block.

    Block i of the result has shape ``(count, n_i, n_i)``. Row k of the
    draw holds element k's ``2 * spec.dimension`` normals, laid out
    block by block as the real then the imaginary parts, the order in
    which per-block :func:`complex_gaussian` draws would consume them.
    Each block is assembled in one complex array: its real and imaginary
    parts are set from the draw and the whole is divided by sqrt(2) in
    place, the same complex division :func:`complex_gaussian` makes, so
    the bits are those of the per-block draws. The stack is laid out for
    the probe products, which multiply each block as one GEMM. A count
    whose draw numpy refuses, by its shape or by its size in memory, is
    a ShapeMismatchError that names it.
    """
    try:
        draws = rng.standard_normal((count, 2 * spec.dimension))
    except (ValueError, MemoryError):
        raise ShapeMismatchError(
            f"a stack of {count} random elements of dimension {spec.dimension} "
            "is more than numpy can allocate"
        ) from None
    root2 = np.sqrt(2)
    blocks = []
    pos = 0
    for n in spec.block_sizes:
        m = n * n
        block = np.empty((count, m), dtype=complex)
        block.real = draws[:, pos : pos + m]
        block.imag = draws[:, pos + m : pos + 2 * m]
        block /= root2
        pos += 2 * m
        blocks.append(block.reshape(count, n, n))
    return tuple(blocks)


def random_invertible(spec: AlgebraSpec, rng: np.random.Generator) -> Element:
    """Gaussian element redrawn until every block has condition number
    at most 1e4."""
    for _ in range(64):
        x = random_element(spec, rng)
        if all(np.linalg.cond(b) <= 1e4 for b in x.blocks):
            return x
    raise ProbeExhaustionError("could not draw a well-conditioned invertible")


def random_low_rank_element(
    spec: AlgebraSpec, rng: np.random.Generator, ranks=None
) -> Element:
    """Element whose block i has prescribed (or random) rank.

    Built as a product of n x r and r x n Gaussian factors, so the rank
    is exact and the zero eigenvalue is semisimple (safe for dense
    eigencomputations).
    """
    blocks = []
    for i, n in enumerate(spec.block_sizes):
        r = int(rng.integers(0, n + 1)) if ranks is None else int(ranks[i])
        if r == 0:
            blocks.append(np.zeros((n, n), dtype=complex))
        else:
            blocks.append(complex_gaussian(rng, (n, r)) @ complex_gaussian(rng, (r, n)))
    return Element(spec, tuple(blocks), _checked=True)


def random_traceless_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    g = complex_gaussian(rng, (n, n))
    return g - (np.trace(g) / n) * np.eye(n, dtype=complex)


def random_nilpotent(spec: AlgebraSpec, rng: np.random.Generator) -> Element:
    """Strictly upper-triangular blocks, which make nilpotency exact
    regardless of numerics."""
    blocks = []
    for n in spec.block_sizes:
        b = complex_gaussian(rng, (n, n))
        blocks.append(np.triu(b, k=1))
    return Element(spec, tuple(blocks), _checked=True)


def _separated_values(rng: np.random.Generator, count: int) -> list[complex]:
    """Complex values in the annulus 0.5 <= |z| <= 2.5 with pairwise
    distances >= 0.15."""
    vals: list[complex] = []
    attempts = 0
    while len(vals) < count:
        attempts += 1
        if attempts > 10000:
            raise ProbeExhaustionError("could not separate spectral values")
        r = rng.uniform(0.5, 2.5)
        th = rng.uniform(0, 2 * np.pi)
        v = r * np.exp(1j * th)
        if all(abs(v - w) >= 0.15 for w in vals):
            vals.append(complex(v))
    return vals


def _tame_similarity(n: int, rng: np.random.Generator) -> np.ndarray:
    """Generic similarity with condition number at most 3.

    Unitary factor (QR of a Gaussian) times I + N with N strictly upper
    and operator norm 1/2, so cond <= (1 + 1/2) / (1 - 1/2).
    """
    q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    upper = np.triu(complex_gaussian(rng, (n, n)), k=1)
    norm = np.linalg.norm(upper, 2)
    if norm > 0:
        upper *= 0.5 / max(norm, 1.0)
    return q @ (np.eye(n, dtype=complex) + upper)


def random_maximal_element(
    spec: AlgebraSpec,
    rng: np.random.Generator,
    zero_defect: bool = True,
) -> Element:
    """Diagonalizable element whose distinct nonzero values count = rank.

    Each block is S diag(values, 0...) S^-1 with distinct nonzero values
    (distinct across the whole element, pairwise gaps >= 0.15) and an
    optional semisimple kernel. Similarities are kept well conditioned
    so projection defects stay near the floating-point floor.
    """
    n_total = spec.matrix_dimension
    kernel = [0] * spec.num_blocks
    if zero_defect:
        for i, n in enumerate(spec.block_sizes):
            if n > 1 and rng.uniform() < 0.5:
                kernel[i] = int(rng.integers(1, n))
    n_vals = n_total - sum(kernel)
    if n_vals == 0:
        kernel[0] -= 1
        n_vals = 1
    values = _separated_values(rng, n_vals)
    blocks = []
    pos = 0
    for i, n in enumerate(spec.block_sizes):
        d = np.zeros(n, dtype=complex)
        take = n - kernel[i]
        d[:take] = values[pos : pos + take]
        pos += take
        s = _tame_similarity(n, rng)
        blocks.append(s @ np.diag(d) @ np.linalg.inv(s))
    return Element(spec, tuple(blocks), _checked=True)


def random_rank_one_projection(
    spec: AlgebraSpec, rng: np.random.Generator, block: int | None = None
) -> Element:
    """Rank-one projection u v* / (v* u) inside one (random or given) block."""
    return random_projection(spec, rng, 1, None if block is None else [block])


def random_projection(
    spec: AlgebraSpec,
    rng: np.random.Generator,
    rank: int | None = None,
    blocks: list[int] | None = None,
) -> Element:
    """Sum of 1-3 rank-one projections made orthogonal by deflation.

    Each rank-one factor lands in a random block (or a prescribed one),
    is deflated against the sum built so far, and renormalized, so the
    result is an idempotent of the requested rank up to rounding.
    """
    n_total = spec.matrix_dimension
    if rank is None:
        rank = int(rng.integers(1, min(3, n_total) + 1))
    if rank > n_total:
        raise ValueError(f"rank {rank} exceeds total dimension {n_total}")
    p = zero(spec)
    filled = {i: 0 for i in range(spec.num_blocks)}
    for j in range(rank):
        for _ in range(200):
            if blocks is not None:
                i = blocks[j % len(blocks)]
            else:
                i = int(rng.integers(0, spec.num_blocks))
            n = spec.block_sizes[i]
            if filled[i] >= n:
                continue
            u = complex_gaussian(rng, n)
            v = complex_gaussian(rng, n)
            comp = np.eye(n, dtype=complex) - p.blocks[i]
            w = comp @ u
            z = comp.conj().T @ v
            pairing = complex(np.vdot(z, w))
            if abs(pairing) < 1e-3 * np.linalg.norm(w) * np.linalg.norm(z):
                continue
            p.blocks[i][:] = p.blocks[i] + np.outer(w, z.conj()) / pairing
            filled[i] += 1
            break
        else:
            raise ProbeExhaustionError("projection sampling kept degenerating")
    return p
