"""Block-diagonal complex matrix algebras: arithmetic, spectra, oracles.

An algebra is a finite direct sum of full complex matrix blocks,
described by an :class:`AlgebraSpec`. Elements carry one square complex
matrix per block. Spectra are computed per block by a dense
nonsymmetric eigensolver and then clustered, so multiple eigenvalues
are reported once with a summed algebraic multiplicity; the full
assembled matrix is never formed.

Many elements at once (rank probes, perturbation probes) are solved as
stacks, one ``eigvals`` call per block. :func:`_clustered` alone turns a
stack of eigenvalue rows into spectral values: it applies the merge
radius and the zero snap, decides each row it can by a separation test,
and sends only the others to :func:`cluster_eigenvalues`, the one
clustering loop. Spectra, rank counts and the multiplicities' probe
counts all read its table.

Classical linear-algebra quantities (SVD rank, diagonal-sum trace) are
exposed as oracles against which the purely spectral computations in
the rest of the package are certified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    EigensolverError,
    NonFiniteEntryError,
    NotIdempotentError,
    NumericOverflowError,
    ShapeMismatchError,
    SVDConvergenceError,
    SingularResolventError,
    quote_json,
)

# Shared numerical thresholds, read directly by the functions that apply
# them. Tolerances that are relative are scaled by max(spectral radius, 1)
# or by the largest singular value, as noted at each use site.
CLUSTER_TOL = 1e-6
RANK_TOL = 1e-9
RESOLVENT_FLOOR = 1e-10
IDEMPOTENCY_TOL = 1e-8
# The most complex entries one block may hold: 2048 x 2048, 64 MiB. An
# AlgebraSpec with a larger block is refused before anything is allocated.
MAX_BLOCK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class AlgebraSpec:
    """Direct sum of full matrix blocks, given by their sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.block_sizes)
        if len(sizes) == 0:
            raise ShapeMismatchError("an algebra needs at least one block")
        if any(n < 1 for n in sizes):
            raise ShapeMismatchError(f"block sizes must be >= 1, got {sizes}")
        if max(sizes) ** 2 > MAX_BLOCK_ENTRIES:
            raise ShapeMismatchError(
                f"block size {quote_json(max(sizes))} has more than the "
                f"{MAX_BLOCK_ENTRIES} entries of the largest block"
            )
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def dimension(self) -> int:
        """Linear dimension of the algebra, sum of squared block sizes."""
        return int(sum(n * n for n in self.block_sizes))

    @property
    def matrix_dimension(self) -> int:
        """Total eigenvalue count of an element, sum of block sizes."""
        return int(sum(self.block_sizes))


class Element:
    """One square complex matrix per block of an :class:`AlgebraSpec`."""

    __slots__ = ("spec", "blocks")

    def __init__(self, spec: AlgebraSpec, blocks, *, _checked: bool = False):
        if _checked:
            self.spec = spec
            self.blocks = blocks
            return
        mats = tuple(np.asarray(b, dtype=complex) for b in blocks)
        if len(mats) != spec.num_blocks:
            raise ShapeMismatchError(
                f"expected {spec.num_blocks} blocks, got {len(mats)}"
            )
        for i, (m, n) in enumerate(zip(mats, spec.block_sizes)):
            if m.shape != (n, n):
                raise ShapeMismatchError(
                    f"block {i} has shape {m.shape}, expected {(n, n)}"
                )
            if not np.all(np.isfinite(m.view(float))):
                raise NonFiniteEntryError(f"block {i} has non-finite entries")
        self.spec = spec
        self.blocks = mats

    def __add__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        return Element(
            self.spec,
            tuple(a + b for a, b in zip(self.blocks, other.blocks)),
            _checked=True,
        )

    def __sub__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        return Element(
            self.spec,
            tuple(a - b for a, b in zip(self.blocks, other.blocks)),
            _checked=True,
        )

    def __matmul__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        return Element(
            self.spec,
            tuple(a @ b for a, b in zip(self.blocks, other.blocks)),
            _checked=True,
        )

    def __rmul__(self, alpha) -> "Element":
        a = complex(alpha)
        return Element(
            self.spec, tuple(a * b for b in self.blocks), _checked=True
        )

    def __neg__(self) -> "Element":
        return Element(self.spec, tuple(-b for b in self.blocks), _checked=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec == other.spec and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )

    def __repr__(self) -> str:
        return f"Element(block_sizes={self.spec.block_sizes})"


def _same_spec(a: Element, b: Element) -> None:
    if a.spec != b.spec:
        raise ShapeMismatchError(
            f"algebra mismatch: {a.spec.block_sizes} vs {b.spec.block_sizes}"
        )


def identity(spec: AlgebraSpec) -> Element:
    """The multiplicative unit: identity matrix in every block."""
    return Element(
        spec,
        tuple(np.eye(n, dtype=complex) for n in spec.block_sizes),
        _checked=True,
    )


def zero(spec: AlgebraSpec) -> Element:
    return Element(
        spec,
        tuple(np.zeros((n, n), dtype=complex) for n in spec.block_sizes),
        _checked=True,
    )


def matrix_unit(spec: AlgebraSpec, block: int, row: int, col: int) -> Element:
    """The element with a single 1 at (row, col) of one block."""
    n = spec.block_sizes[block]
    if not (0 <= row < n and 0 <= col < n):
        raise ShapeMismatchError(
            f"unit ({row},{col}) out of range for block of size {n}"
        )
    e = zero(spec)
    e.blocks[block][row, col] = 1.0
    return e


def scale(alpha, a: Element) -> Element:
    return alpha * a


def _blockwise(solver, blocks, error) -> list:
    """``solver`` applied to each block; a LinAlgError becomes ``error(block)``."""
    out = []
    for i, b in enumerate(blocks):
        try:
            out.append(solver(b))
        except np.linalg.LinAlgError as exc:
            raise error(i, str(exc)) from exc
    return out


def operator_norm(a: Element) -> float:
    """Largest operator 2-norm over the blocks."""
    return float(block_operator_norm(a.blocks))


def block_operator_norm(blocks) -> np.ndarray:
    """Largest operator 2-norm over a sequence of blocks.

    Block i is one ``(n_i, n_i)`` matrix or a stack ``(p, n_i, n_i)`` of
    them; a stack is solved by one 2-norm call, and the result is then
    ``(p,)``, entry k the norm of the k-th element. A solver failure
    names the block.
    """
    norms = _blockwise(
        lambda b: np.linalg.norm(b, 2, axis=(-2, -1)), blocks, SVDConvergenceError
    )
    return np.max(norms, axis=0)


def eigenvalues(a: Element) -> np.ndarray:
    """All eigenvalues with multiplicity, concatenated across blocks."""
    return block_eigenvalues(a.blocks)


def block_eigenvalues(blocks) -> np.ndarray:
    """Eigenvalues of a sequence of blocks, concatenated along the last axis.

    Block i is one ``(n_i, n_i)`` matrix or a stack ``(p, n_i, n_i)`` of
    them; a stack is solved by one ``eigvals`` call, and the result is
    then ``(p, sum n_i)``, row k holding the eigenvalues of the k-th
    matrix of every block. A solver failure or a non-finite eigenvalue names the block.
    """
    vals = _blockwise(np.linalg.eigvals, blocks, EigensolverError)
    for i, v in enumerate(vals):
        if not np.isfinite(v).all():
            raise NumericOverflowError(f"the eigenvalues of block {i} overflow the double range")
    return np.concatenate(vals, axis=-1)


def _product_eigenvalues(stacks, blocks) -> np.ndarray:
    """The :func:`block_eigenvalues` of the products x*b, for every x of
    each block's ``(p, n, n)`` stack and that block's ``b``.

    A stack is multiplied by one GEMM, as the ``(p*n, n)`` matrix of its
    rows, not by ``p`` stacked products. Only integer counts are derived
    from these products, never a report value. A product that overflows
    fails the eigensolve's own finiteness check, which is then a
    NumericOverflowError naming the block.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        products = [(x.reshape(-1, len(b)) @ b).reshape(x.shape) for x, b in zip(stacks, blocks)]
    try:
        return block_eigenvalues(products)
    except EigensolverError as exc:
        i = exc.block_index
        if np.isfinite(products[i]).all():
            raise
        raise NumericOverflowError(
            f"the probe products of block {i} overflow the double range"
        ) from None


class SpectralPoint(NamedTuple):
    """One clustered spectral value and its algebraic multiplicity."""

    value: complex
    multiplicity: int


@dataclass(frozen=True)
class SpectrumReport:
    """Distinct spectral values with algebraic multiplicities.

    ``cluster_tolerance`` is the absolute merge radius that was applied
    (``CLUSTER_TOL`` times max(spectral radius, 1)). A cluster
    whose center lands within that radius of the origin is snapped to
    exactly 0 and flagged by ``contains_zero``.
    """

    points: tuple[SpectralPoint, ...]
    cluster_tolerance: float
    contains_zero: bool

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.points], dtype=complex)

    @property
    def nonzero_values(self) -> np.ndarray:
        return np.array([v for v, _ in self.points if v != 0], dtype=complex)

    @property
    def num_nonzero(self) -> int:
        """Number of distinct nonzero spectral values."""
        return len(self.points) - (1 if self.contains_zero else 0)

    @property
    def radius(self) -> float:
        """Spectral radius: largest modulus over the distinct values."""
        return max(abs(v) for v, _ in self.points)

    def gap(self, value: complex) -> float:
        """Distance from one spectral value to the nearest other one.

        Falls back to max(radius, 1) when the spectrum is a single point.
        """
        others = [abs(v - value) for v, _ in self.points if v != value]
        return min(others) if others else max(self.radius, 1.0)


def cluster_eigenvalues(
    values: np.ndarray, tol_abs: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Agglomerate each row of eigenvalues until its centers are more
    than the row's merge radius apart.

    ``values`` is a ``(p, N)`` stack with ``tol_abs`` one merge radius
    per row (a scalar serves every row); one spectrum is a stack of one
    row. Within a row, the closest pair of clusters is merged into
    its multiplicity-weighted centroid while that pair sits within the
    row's radius. Deterministic: each row is sorted lexicographically
    first, and ties merge the lexicographically first pair. Rows are
    clustered one at a time, each on its own ``(N, N)`` distance matrix,
    so a row's result does not depend on the rows that share its stack.

    Returns two ``(p, N)`` arrays, sorted centers and counts, in which a
    center merged away has count 0.
    """
    values = np.asarray(values)
    p, n = values.shape
    order = np.lexsort((values.imag, values.real))
    centers = np.take_along_axis(values, order, axis=1).astype(complex, copy=False)
    counts = np.ones((p, n), dtype=int)
    radii = np.broadcast_to(np.asarray(tol_abs, dtype=float), (p,))
    for center, count, radius in zip(centers, counts, radii):
        with np.errstate(over="ignore"):  # an overflowed distance is inf: no merge
            diff = np.abs(center[:, None] - center[None, :])
        np.fill_diagonal(diff, np.inf)
        for _ in range(n - 1):
            # diff is symmetric, so its first minimum in row-major order has i < j
            i, j = divmod(int(diff.argmin()), n)
            # not-greater, so a NaN distance merges
            if diff[i, j] > radius:
                break
            w = count[i] + count[j]
            center[i] = (count[i] * center[i] + count[j] * center[j]) / w
            count[i] = w
            count[j] = 0
            with np.errstate(over="ignore"):  # as above; the centroid still warns
                row = np.abs(center[i] - center)
            row[count == 0] = np.inf
            diff[i] = diff[:, i] = row
            diff[j] = diff[:, j] = diff[i, i] = np.inf
    return centers, counts


def _clustered(vals: np.ndarray):
    """Per row of a ``(p, N)`` eigenvalue stack: the merge radius
    ``CLUSTER_TOL * max(spectral radius, 1)``, the centers and counts of
    its clusters, and the mask of the nonzero spectral values, the live
    centers not within the radius of 0 (a NaN center is never 0). Every
    other live center is the spectral value 0. Centers follow no order.

    With r the row's merge radius, a row is *separated* when each of its
    values has |v| <= r/2 (inner) or |v| > 2r (outer) and its outer
    values are pairwise more than 2r apart. Clustering would then leave
    its outer values as they are and snap its inner ones to 0:

    - inner values are pairwise within r, and an inner value lies more
      than 1.5r from an outer one, so the closest pair within r is
      always inner; a centroid of inner values stays in the convex
      r/2-disk, so every merge is between inner clusters, and each
      inner center is snapped to the spectral value 0;
    - no pair of outer values is within r, so each stays a center of
      its own, more than 2r from 0.

    Rounding moves a centroid or a distance by a few ulps of the row's
    scale, far inside these margins of r/2 and more. So a separated row
    keeps its values as centers, each of count 1, and its outer values
    are its nonzero mask. The other rows, including any row with a
    non-finite modulus or distance, are clustered by one
    :func:`cluster_eigenvalues` call, made only when there are any.
    """
    i, j = _pairs(vals.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite: clustered
        moduli = np.abs(vals)
        gaps = np.abs(vals[:, i] - vals[:, j])
    radii = CLUSTER_TOL * np.maximum(moduli.max(axis=-1), 1.0)
    r = radii[:, None]
    nonzero = moduli > 2 * r
    unsure = (
        (nonzero == (moduli <= r / 2)).any(axis=1)  # neither inner nor outer
        | ((gaps <= 2 * r) & nonzero[:, i] & nonzero[:, j]).any(axis=1)
        | ~np.isfinite(gaps).all(axis=1)
        | ~np.isfinite(radii)
    )
    centers, counts = vals, np.ones(vals.shape, dtype=int)
    if unsure.any():
        c, m = cluster_eigenvalues(vals[unsure], radii[unsure])
        centers = vals.copy()
        centers[unsure], counts[unsure] = c, m
        nonzero[unsure] = (m > 0) & ~(np.abs(c) <= r[unsure])
    return radii, centers, counts, nonzero


def spectrum(a: Element) -> SpectrumReport:
    """Clustered spectrum of an element.

    Eigenvalues are computed per block and merged whenever two values
    are within ``CLUSTER_TOL * max(spectral radius, 1)`` of each other.
    Any cluster centered within that radius of 0 is reported as the
    exact spectral value 0 (the rule of :func:`_clustered`).
    """
    radius, centers, counts, nonzero = (row[0] for row in _clustered(eigenvalues(a)[None, :]))
    points = [SpectralPoint(complex(c), int(m)) for c, m in zip(centers[nonzero], counts[nonzero])]
    zero_count = int(counts[~nonzero].sum())
    if zero_count:
        points.append(SpectralPoint(0j, zero_count))
    points.sort(key=lambda p: (-abs(p[0]), p[0].real, p[0].imag))
    return SpectrumReport(tuple(points), float(radius), zero_count > 0)


def nonzero_spectrum_count(a: Element) -> int:
    """#(distinct nonzero spectral values) of one element."""
    return int(nonzero_spectrum_counts(eigenvalues(a)[None, :])[0])


def nonzero_spectrum_counts(vals: np.ndarray) -> np.ndarray:
    """#(distinct nonzero spectral values) for each row of a ``(p, N)``
    stack, row k holding all eigenvalues, with multiplicity, of the k-th
    element: the sum of its :func:`_clustered` nonzero mask."""
    return _clustered(vals)[3].sum(axis=1)


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, of ``triu_indices(n, 1)``: read-only, and
    cached for the last 8 row lengths."""
    pairs = np.triu_indices(n, 1)
    for t in pairs:
        t.flags.writeable = False
    return pairs


def spectral_radius(a: Element) -> float:
    """Largest modulus of a spectral value (0 for nilpotents)."""
    return spectrum(a).radius


def resolvent(a: Element, z: complex) -> Element:
    """Blockwise solve of (z*1 - a) r = 1.

    Rejects z closer to the spectrum than ``RESOLVENT_FLOOR * max(radius,
    1)``, reporting the offending eigenvalue.
    """
    z = complex(z)
    vals = eigenvalues(a)
    scale_ = max(float(np.max(np.abs(vals))), 1.0)
    dist = np.abs(vals - z)
    k = int(np.argmin(dist))
    if dist[k] < RESOLVENT_FLOOR * scale_:
        raise SingularResolventError(z, complex(vals[k]), float(dist[k]))
    blocks = tuple(
        np.linalg.solve(z * np.eye(n, dtype=complex) - b, np.eye(n, dtype=complex))
        for b, n in zip(a.blocks, a.spec.block_sizes)
    )
    return Element(a.spec, blocks, _checked=True)


def _singular_values(a: Element) -> list[np.ndarray]:
    """The singular values of each block; a solver failure names the block."""
    return _blockwise(
        lambda b: np.linalg.svd(b, compute_uv=False), a.blocks, SVDConvergenceError
    )


def block_ranks(a: Element) -> list[int]:
    """The rank rule for general elements: SVD rank, relative cutoff per block.

    A block counts its singular values above ``RANK_TOL`` times its own
    largest one. A block whose largest singular value sits at or below
    ``RANK_TOL`` times the element-wide scale max(largest top, 1) is a
    zero block, of rank 0; without that, roundoff residue in an otherwise
    zero block would be scored against its own noise level. Idempotents
    have their own rule, :func:`idempotent_rank`.
    """
    svals = _singular_values(a)
    tops = [s[0] for s in svals]
    floor = RANK_TOL * max(max(tops), 1.0)
    return [
        int(np.sum(s > RANK_TOL * top)) if top > floor else 0
        for s, top in zip(svals, tops)
    ]


def classical_rank(a: Element) -> int:
    """SVD rank oracle: the sum of the :func:`block_ranks`."""
    return sum(block_ranks(a))


def _idempotent_ranks(p: Element) -> list[int]:
    """The :func:`idempotent_rank` of each block of p."""
    return [int(np.sum(s > 0.5)) for s in _singular_values(p)]


def idempotent_rank(p: Element) -> int:
    """The rank rule for idempotents: the singular values above 1/2.

    A nonzero singular value of an idempotent P is at least 1, so by
    Weyl's inequality any p with ||p - P|| < 1/2 has exactly rank(P)
    singular values above 1/2, however far its error lies above
    ``RANK_TOL``: a contour projection is ranked right at any node count
    whose quadrature error stays below 1/2.
    """
    return sum(_idempotent_ranks(p))


def corner_ranks(p: Element) -> list[int]:
    """The :func:`idempotent_rank` of each block of an idempotent p.

    The corner p*A*p is the block algebra of M_{r_i} over the blocks
    with rank r_i > 0. Raises when ||p^2 - p|| exceeds
    ``IDEMPOTENCY_TOL``.
    """
    defect = operator_norm(p @ p - p)
    if defect > IDEMPOTENCY_TOL:
        raise NotIdempotentError(float(defect), IDEMPOTENCY_TOL)
    return _idempotent_ranks(p)


def classical_trace(a: Element) -> complex:
    """Diagonal-sum trace oracle across all blocks."""
    return complex(sum(np.trace(b) for b in a.blocks))
