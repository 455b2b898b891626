"""Rank from spectra alone, by randomized probing.

The rank of an element a is the supremum over x of the number of
distinct nonzero spectral values of x*a. The x attaining the supremum
form a dense open set, so independent complex-Gaussian probes land in
it with probability one; a handful of probes guards against unlucky
eigenvalue clustering near the merge tolerance. Every result is
certified against the classical SVD rank, and a disagreement raises
instead of returning.

The probes run as one batch: they are one draw from the seed's
``PROBE`` stream, multiplied by a's block in one GEMM per block and
solved by one stacked eigensolve per block, and their spectra are
counted in one call (``algebra.nonzero_spectrum_counts``), which
clusters only the probes whose count the separation test of
``algebra._clustered`` leaves open. The stream is sequential, so probe
i does not depend on the probe count, and the report is that of drawing
and counting the probes one at a time.

The GEMM multiplies a block's ``(p, n, n)`` probe stack as one
``(p*n, n)`` matrix of rows, ``(x.reshape(-1, n) @ b).reshape(x.shape)``:
row r of probe k times b is row r of the product x_k*b, so this is
the stacked ``x @ b`` in one BLAS call instead of p. The products
themselves never reach a report: a rank report holds the probe and
integer counts of the products' eigenvalues, so a rounding difference
between one GEMM and p stacked products could show only by carrying two
eigenvalues across the merge radius. An overflowed product is a
NumericOverflowError naming its block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Element,
    _product_eigenvalues,
    classical_rank,
    nonzero_spectrum_counts,
    spectrum,
)
from .errors import RankCertificationError
from .sampling import PROBE, random_element_stack, rng_for

# One generic probe suffices almost surely; the extras absorb unlucky
# clustering near the merge tolerance.
DEFAULT_PROBES = 64


@dataclass(frozen=True)
class RankReport:
    """Outcome of randomized rank probing, plus the oracle value.

    ``achieved_counts`` histograms #(distinct nonzero spectral values of
    probe*a) over all probes; the rank is its maximum, attained by
    ``best_probe``.
    """

    rank: int
    best_probe: Element
    probes_used: int
    achieved_counts: dict[int, int]
    oracle_rank: int


def spectral_rank(a: Element, probes: int = DEFAULT_PROBES, seed: int = 0) -> RankReport:
    """Probe the rank of ``a`` and certify it against the SVD oracle.

    Probe i is the i-th standard complex Gaussian element of the stream
    ``rng_for(seed, PROBE)``; a negative seed raises ValueError.
    """
    if probes < 1:
        raise ValueError("need at least one probe")
    return _probed_rank(a, probes, seed, classical_rank(a))


def _probed_rank(a: Element, probes: int, seed: int, oracle: int) -> RankReport:
    """:func:`spectral_rank` with the SVD rank ``oracle`` of ``a`` given."""
    xs = random_element_stack(a.spec, rng_for(seed, PROBE), probes)
    counts = nonzero_spectrum_counts(_product_eigenvalues(xs, a.blocks))
    best = int(np.argmax(counts))
    best_count = int(counts[best])
    if best_count != oracle:
        raise RankCertificationError(best_count, oracle, probes)
    return RankReport(
        rank=best_count,
        best_probe=Element(a.spec, tuple(x[best].copy() for x in xs), _checked=True),
        probes_used=probes,
        achieved_counts=dict(sorted(Counter(counts.tolist()).items())),
        oracle_rank=oracle,
    )


def is_maximal_finite_rank(a: Element) -> bool:
    """True iff the distinct nonzero spectral values already exhaust the rank.

    Such elements split as a sum of rank times (value * minimal
    projection) terms; see the diagonalization routine. The rank is
    :func:`_maximality_rank`'s: when the count already equals the SVD
    rank, a witnesses its own maximality (x = 1 among the products x*a)
    and no probe is drawn; otherwise ``spectral_rank(a)`` certifies it.
    """
    count = spectrum(a).num_nonzero
    return _maximality_rank(a, count, seed=0) == count


def _maximality_rank(a: Element, count: int, seed: int) -> int:
    """The certified rank of ``a``, given its nonzero-spectrum ``count``.

    The rank is the supremum of the count over the products x*a, and
    x = 1 attains ``count``; the count never exceeds the rank. So when
    ``count`` equals the SVD rank, the two routes already agree and that
    rank is returned without a probe. Otherwise it is probed as by
    :func:`spectral_rank` at ``seed`` and certified against that SVD rank.
    """
    oracle = classical_rank(a)
    if count == oracle:
        return oracle
    return _probed_rank(a, DEFAULT_PROBES, seed, oracle).rank
