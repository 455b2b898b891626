"""Constructive commutator identities on matrix blocks.

Every traceless n x n matrix is a short linear combination of
commutators of matrix units: each off-diagonal entry comes from
[e_ii, e_ij] = e_ij, and the diagonal telescopes through
[e_i,i+1, e_i+1,i] = e_ii - e_i+1,i+1 with partial-sum coefficients.
A certificate holds these terms as one table: a coefficient vector and
the (row, col) of each term's left and right unit, all inside the
certificate's one block. The difference of two rank-one projections is
a single commutator of two rank-one operators, built from the defining
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateProjectionError, NonFiniteEntryError, NotTracelessError
from .errors import NumericOverflowError, ShapeMismatchError, quote_json

TRACELESS_TOL = 1e-9


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``v / 2^e`` and ``e``: 2^e is the least power of two above every
    real and imaginary part of ``v``, and at least 1, so the scaling is
    exact and no sum of products of the scaled parts can overflow."""
    largest = max(np.max(np.abs(v.real), initial=0.0), np.max(np.abs(v.imag), initial=0.0))
    e = max(math.frexp(largest)[1], 0)
    return v * math.ldexp(1.0, -e), e


@dataclass(frozen=True)
class CommutatorCertificate:
    """target = sum over k of coefficients[k] * [e_left[k], e_right[k]].

    One table: a complex (k,) ``coefficients`` vector, and integer (k, 2)
    ``left`` and ``right`` arrays of each term's unit (row, col), all in
    ``block``. The certificate is re-verifiable from the indices alone.
    """

    block: int
    block_size: int
    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    target: np.ndarray
    reconstruction_defect: float


def commutator_decompose(m: np.ndarray, block: int = 0) -> CommutatorCertificate:
    """Write a traceless matrix as a combination of unit commutators.

    At most n^2 - 1 terms: one per nonzero off-diagonal entry, in
    row-major order, then one per nonzero diagonal partial sum. Zero
    coefficients are skipped, so certificates are minimal term-by-term.
    A 1 x 1 input must be zero and yields the empty certificate.

    Raises ``ShapeMismatchError`` when ``block`` is not a nonnegative
    ``int`` (a ``bool`` is not one), ``NotTracelessError`` when |trace|
    exceeds ``TRACELESS_TOL`` times max(1, Frobenius norm), and
    ``NumericOverflowError`` when the trace or a diagonal partial sum
    leaves the double range; the trace is decided without an
    overflowing operation.
    """
    if not isinstance(block, int) or isinstance(block, bool) or block < 0:
        raise ShapeMismatchError(
            f'"block" must be a nonnegative integer, got {quote_json(block)}'
        )
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeMismatchError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteEntryError("matrix has non-finite entries")
    n = m.shape[0]
    # |trace| > TRACELESS_TOL * max(1, ||m||_F), made on m / 2^e (see _scaled)
    unit, e = _scaled(m)
    t = complex(np.trace(unit))
    if abs(t) > TRACELESS_TOL * max(math.ldexp(1.0, -e), float(np.linalg.norm(unit, "fro"))):
        try:
            trace = complex(math.ldexp(t.real, e), math.ldexp(t.imag, e))
        except OverflowError:
            raise NumericOverflowError("the trace overflows the double range") from None
        raise NotTracelessError(trace)

    rows, cols = np.nonzero((m != 0) & ~np.eye(n, dtype=bool))
    # 0 + keeps a -0.0 part of the first sum out of the coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        partial = 0 + np.cumsum(np.diagonal(m)[:-1])
    if not np.isfinite(partial).all():
        i = np.argmin(np.isfinite(partial))
        raise NumericOverflowError(f"diagonal partial sum {i} overflows the double range")
    steps = np.flatnonzero(partial)
    cert = CommutatorCertificate(
        block=block,
        block_size=n,
        coefficients=np.concatenate([m[rows, cols], partial[steps]]),
        left=np.concatenate([np.stack([rows, rows], 1), np.stack([steps, steps + 1], 1)]),
        right=np.concatenate([np.stack([rows, cols], 1), np.stack([steps + 1, steps], 1)]),
        target=m.copy(),
        reconstruction_defect=0.0,
    )
    return replace(cert, reconstruction_defect=verify_certificate(cert))


def verify_certificate(cert: CommutatorCertificate) -> float:
    """Largest entrywise deviation of the rebuilt sum from the target.

    Rebuilds the sum from the stored unit indices rather than trusting
    anything recorded in the certificate, by the identity
    [e_ab, e_cd] = δ_bc e_ad - δ_da e_cb: each term adds c at (a, d)
    when b = c and subtracts it at (c, b) when d = a. The zero
    commutator [e_aa, e_aa] adds nothing. ``np.add.at`` applies the
    contributions in term order, so every entry receives the same ±c in
    the same order as in a rebuild by matrix products, and the defect
    is bit-identical to that rebuild's.

    Raises ``NonFiniteEntryError`` for a non-finite coefficient or
    target entry, and ``ShapeMismatchError`` for a target of the wrong
    shape, a table whose arrays do not fit together, or an index
    outside the block.
    """
    n = cert.block_size
    target = np.asarray(cert.target)
    if n < 1 or target.shape != (n, n):
        raise ShapeMismatchError("certificate target has the wrong shape")
    if not np.isfinite(target).all():
        raise NonFiniteEntryError("certificate target has non-finite entries")
    coefficients = np.asarray(cert.coefficients, dtype=complex)
    left, right = np.asarray(cert.left), np.asarray(cert.right)
    k = len(coefficients) if coefficients.ndim == 1 else -1
    integral = left.dtype.kind in "iu" and right.dtype.kind in "iu"
    if not (integral and left.shape == right.shape == (k, 2)):
        raise ShapeMismatchError("certificate table has the wrong shape or index type")
    outside = ((left < 0) | (left >= n) | (right < 0) | (right >= n)).any(1)
    if outside.any():
        raise ShapeMismatchError(
            f"term {outside.argmax()} has a unit outside block {cert.block} of size {n}"
        )
    if not np.isfinite(coefficients).all():
        raise NonFiniteEntryError("certificate has non-finite coefficients")
    (a, b), (c, d) = left.T, right.T
    zero = (a == b) & (b == c) & (c == d)
    # term k's +c at (a, d), then its -c at (c, b): row-major order is term order
    hits = np.stack([(b == c) & ~zero, (d == a) & ~zero], 1)
    where = np.stack([a * n + d, c * n + b], 1)[hits]
    signed = np.stack([coefficients, -coefficients], 1)[hits]
    rebuilt = np.zeros(n * n, dtype=complex)
    np.add.at(rebuilt, where, signed)
    return float(np.max(np.abs(rebuilt.reshape(n, n) - target)))


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

    # |f(x)| < 1e-12 * max(1, ||f|| ||x||) and f / f(x), made on the scaled
    # vectors (see _scaled), so that neither overflows; likewise for g(y)
    (xu, ex), (fu, ef), (yu, ey), (gu, eg) = map(_scaled, (x, f, y, g))
    fx, gy = complex(fu @ xu), complex(gu @ yu)
    if abs(fx) < 1e-12 * max(math.ldexp(1.0, -ef - ex), np.linalg.norm(fu) * np.linalg.norm(xu)):
        raise DegenerateProjectionError("pairing f(x) is numerically zero")
    if abs(gy) < 1e-12 * max(math.ldexp(1.0, -eg - ey), np.linalg.norm(gu) * np.linalg.norm(yu)):
        raise DegenerateProjectionError("pairing g(y) is numerically zero")
    f = fu / fx * math.ldexp(1.0, -ex)
    g = gu / gy * math.ldexp(1.0, -ey)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes the defect inf or nan
        P, Q = np.outer(x, f), np.outer(y, g)
        S, T = np.outer(x, g), np.outer(y, f)
        defect = float(np.max(np.abs((P - Q) - (S @ T - T @ S))))
    if not math.isfinite(defect):
        raise NumericOverflowError("the rank-one products of x, f, y, g overflow the double range")
    return RankOnePair(x=x, f=f, y=y, g=g, P=P, Q=Q, S=S, T=T, defect=defect)
