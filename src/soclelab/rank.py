"""Rank from spectra alone, by randomized probing.

The rank of an element a is the supremum over x of the number of
distinct nonzero spectral values of x*a. The x attaining the supremum
form a dense open set, so independent complex-Gaussian probes land in
it with probability one; a handful of probes guards against unlucky
eigenvalue clustering near the merge tolerance. Every result is
certified against the classical SVD rank, and a disagreement raises
instead of returning.

The probes run as one batch: they are one draw from the seed's
``PROBE`` stream, multiplied by a's block in one batched product and
solved by one stacked eigensolve per block. A vectorized screen then
finds the probes with two eigenvalues within the merge radius; only
those are clustered, all in one call, and every other probe's count is
read off directly. The stream is sequential, so probe i does not depend
on the probe count, and the report is that of drawing and counting the
probes one at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Element,
    block_eigenvalues,
    classical_rank,
    nonzero_spectrum_count,
    nonzero_spectrum_counts,
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
    xs = random_element_stack(a.spec, rng_for(seed, PROBE), probes)
    products = [x @ b for x, b in zip(xs, a.blocks)]
    counts = nonzero_spectrum_counts(block_eigenvalues(products))
    best = int(np.argmax(counts))
    best_count = int(counts[best])
    oracle = classical_rank(a)
    if best_count != oracle:
        raise RankCertificationError(best_count, oracle, probes)
    return RankReport(
        rank=best_count,
        best_probe=Element(a.spec, tuple(x[best].copy() for x in xs), _checked=True),
        probes_used=probes,
        achieved_counts=dict(sorted(Counter(counts.tolist()).items())),
        oracle_rank=oracle,
    )


def is_maximal_finite_rank(a: Element, probes: int = DEFAULT_PROBES, seed: int = 0) -> bool:
    """True iff the distinct nonzero spectral values already exhaust the rank.

    Such elements split as a sum of rank times (value * minimal
    projection) terms; see the diagonalization routine.
    """
    report = spectral_rank(a, probes=probes, seed=seed)
    return nonzero_spectrum_count(a) == report.rank
