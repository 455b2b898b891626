"""Constructive commutator identities on matrix blocks.

Every traceless n x n matrix is a short linear combination of
commutators of matrix units: each off-diagonal entry comes from
[e_ii, e_ij] = e_ij, and the diagonal telescopes through
[e_i,i+1, e_i+1,i] = e_ii - e_i+1,i+1 with partial-sum coefficients.
The difference of two rank-one projections is a single commutator of
two rank-one operators, built from the defining vectors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraSpec, Element, matrix_unit
from .errors import DegenerateProjectionError, NonFiniteEntryError, NotTracelessError
from .errors import NumericOverflowError, ShapeMismatchError

TRACELESS_TOL = 1e-9
CERTIFICATE_TOL = 1e-12


@dataclass(frozen=True)
class MatrixUnit:
    """Symbolic e_(row,col) inside one block; ``element`` embeds it."""

    block: int
    row: int
    col: int

    def element(self, spec: AlgebraSpec) -> Element:
        return matrix_unit(spec, self.block, self.row, self.col)

    def to_json_dict(self) -> dict:
        return {"block": self.block, "row": self.row, "col": self.col}


@dataclass(frozen=True)
class CommutatorCertificate:
    """target = sum of c * (left right - right left) over the terms.

    Left and right factors are always single matrix units, so the
    certificate is re-verifiable from the indices alone.
    """

    block: int
    block_size: int
    terms: tuple[tuple[complex, MatrixUnit, MatrixUnit], ...]
    target: np.ndarray
    reconstruction_defect: float


def commutator_decompose(m: np.ndarray, block: int = 0) -> CommutatorCertificate:
    """Write a traceless matrix as a combination of unit commutators.

    At most n^2 - 1 terms: one per nonzero off-diagonal entry plus one
    per nonzero diagonal partial sum. Zero coefficients are skipped, so
    certificates are minimal term-by-term. A 1 x 1 input must be zero
    and yields the empty certificate.

    Raises ``NotTracelessError`` when |trace| exceeds ``TRACELESS_TOL``
    times max(1, Frobenius norm), and ``NumericOverflowError`` when the trace
    or a diagonal partial sum leaves the double range; either is decided
    without an overflowing operation.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeMismatchError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteEntryError("matrix has non-finite entries")
    n = m.shape[0]
    # The test |trace| > TRACELESS_TOL * max(1, ||m||_F), made on m / 2^e:
    # 2^e is the least power of two above every real and imaginary part,
    # and at least 1, so the scaling is exact and neither sum can overflow.
    largest = max(float(np.max(np.abs(m.real))), float(np.max(np.abs(m.imag))))
    e = max(math.frexp(largest)[1], 0)
    unit = m * math.ldexp(1.0, -e)
    t = complex(np.trace(unit))
    if abs(t) > TRACELESS_TOL * max(math.ldexp(1.0, -e), float(np.linalg.norm(unit, "fro"))):
        try:
            trace = complex(math.ldexp(t.real, e), math.ldexp(t.imag, e))
        except OverflowError:
            raise NumericOverflowError("the trace overflows the double range") from None
        raise NotTracelessError(trace)

    terms: list[tuple[complex, MatrixUnit, MatrixUnit]] = []
    rows = m.tolist()
    for i, row in enumerate(rows):
        diagonal = MatrixUnit(block, i, i)
        for j, entry in enumerate(row):
            if i != j and entry != 0:
                terms.append((entry, diagonal, MatrixUnit(block, i, j)))
    partial = 0j
    for i in range(n - 1):
        partial += rows[i][i]  # Python arithmetic: an overflow is inf, not a warning
        if not cmath.isfinite(partial):
            raise NumericOverflowError(
                f"diagonal partial sum {i} overflows the double range"
            )
        if partial != 0:
            terms.append(
                (partial, MatrixUnit(block, i, i + 1), MatrixUnit(block, i + 1, i))
            )

    cert = CommutatorCertificate(
        block=block,
        block_size=n,
        terms=tuple(terms),
        target=m.copy(),
        reconstruction_defect=0.0,
    )
    return replace(cert, reconstruction_defect=verify_certificate(cert))


def verify_certificate(cert: CommutatorCertificate) -> float:
    """Largest entrywise deviation of the rebuilt sum from the target.

    Rebuilds the sum from the stored unit indices rather than trusting
    anything recorded in the certificate, by the identity
    [e_ab, e_cd] = δ_bc e_ad - δ_da e_cb: each term adds c at (a, d)
    when b = c and subtracts it at (c, b) when d = a, in the stored
    order. The zero commutator [e_aa, e_aa] adds nothing. Every entry
    receives the same ±c in the same order as in a rebuild by matrix
    products, so the defect is bit-identical to that rebuild's.

    Raises ``NonFiniteEntryError`` for a non-finite coefficient or
    target entry, and ``ShapeMismatchError`` for a target of the wrong
    shape or a unit outside the certificate's block.
    """
    n = cert.block_size
    target = np.asarray(cert.target)
    if n < 1 or target.shape != (n, n):
        raise ShapeMismatchError("certificate target has the wrong shape")
    if not np.isfinite(target).all():
        raise NonFiniteEntryError("certificate target has non-finite entries")
    acc = [0j] * (n * n)
    for coefficient, left, right in cert.terms:
        for unit in (left, right):
            if unit.block != cert.block or not (0 <= unit.row < n and 0 <= unit.col < n):
                raise ShapeMismatchError(
                    f"{unit} lies outside block {cert.block} of size {n}"
                )
        if not cmath.isfinite(coefficient):
            raise NonFiniteEntryError(f"certificate coefficient {coefficient} is not finite")
        a, b, c, d = left.row, left.col, right.row, right.col
        if a == b == c == d:
            continue
        if b == c:
            acc[a * n + d] += coefficient
        if d == a:
            acc[c * n + b] -= coefficient
    rebuilt = np.array(acc, dtype=complex).reshape(n, n)
    return float(np.max(np.abs(rebuilt - target)))


@dataclass(frozen=True)
class RankOnePair:
    """Two rank-one projections realized as one commutator difference.

    P maps u to f(u) x and Q maps u to g(u) y (normalized so f(x) =
    g(y) = 1). With S: u -> g(u) x and T: u -> f(u) y one has S T = P
    and T S = Q, hence P - Q = S T - T S with both factors of rank one.
    """

    x: np.ndarray
    f: np.ndarray
    y: np.ndarray
    g: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    T: np.ndarray
    defect: float


def rank_one_commutator(x, f, y, g) -> RankOnePair:
    """Build S, T with P - Q = S T - T S from projection data.

    ``x, y`` are column vectors and ``f, g`` covectors (acting by the
    plain dot product, no conjugation); the pairings f(x) and g(y) must
    be nonzero and are normalized away.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    f = np.asarray(f, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if not (len(x) == len(f) == len(y) == len(g)):
        raise ShapeMismatchError("vectors and covectors must share one dimension")
    if not all(np.isfinite(v).all() for v in (x, f, y, g)):
        raise NonFiniteEntryError("vectors and covectors must have finite entries")

    fx = complex(f @ x)
    gy = complex(g @ y)
    if abs(fx) < 1e-12 * max(1.0, np.linalg.norm(f) * np.linalg.norm(x)):
        raise DegenerateProjectionError("pairing f(x) is numerically zero")
    if abs(gy) < 1e-12 * max(1.0, np.linalg.norm(g) * np.linalg.norm(y)):
        raise DegenerateProjectionError("pairing g(y) is numerically zero")
    f = f / fx
    g = g / gy

    P = np.outer(x, f)
    Q = np.outer(y, g)
    S = np.outer(x, g)
    T = np.outer(y, f)
    defect = float(np.max(np.abs((P - Q) - (S @ T - T @ S))))
    return RankOnePair(x=x, f=f, y=y, g=g, P=P, Q=Q, S=S, T=T, defect=defect)
