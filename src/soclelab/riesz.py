"""Riesz projections, spectral multiplicities, and the spectral trace.

The projection attached to a spectral value is the contour integral of
the resolvent around it, computed here by the trapezoid rule on a
circle: for analytic periodic integrands that rule converges
geometrically in the node count. Multiplicities come by two independent
routes (perturbation counting near the identity, and the rank of the
projection) which must agree; one element's perturbation probes are
drawn once, solved and clustered as one stack, and shared by all its
spectral values. The trace is the
multiplicity-weighted sum of spectral values, certified against the
diagonal-sum oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    RESOLVENT_FLOOR,
    AlgebraSpec,
    Element,
    SpectrumReport,
    block_eigenvalues,
    block_operator_norm,
    classical_rank,
    classical_trace,
    corner_ranks,
    operator_norm,
    spectrum,
    stacked_spectra,
)
from .errors import (
    ContourCollapseError,
    MultiplicityInconsistencyError,
    NotMaximalError,
    ProbeExhaustionError,
    ShapeMismatchError,
    SpectralGapError,
    TargetNotInSpectrumError,
    TraceCertificationError,
)
from .rank import DEFAULT_PROBES, spectral_rank
from .sampling import MULTIPLICITY_PROBE, random_element_stack, rng_for

DEFAULT_NODES = 64
# Fraction of the local spectral gap used as contour radius. Large
# enough that halving the node count leaves a visible quadrature error
# (the convergence diagnostics need that), small enough that the
# doubled disk stays strictly inside the gap.
RADIUS_FACTOR = 0.45
# Perturbation size for multiplicity counting near the identity.
DEFAULT_EPS = 1e-3
MULTIPLICITY_PROBES = 8
# Multiplicities are rejected when the local gap is below this many
# cluster tolerances; the two routes may legitimately split there.
GAP_FLOOR_FACTOR = 10.0
TRACE_CERT_TOL = 1e-8


@dataclass(frozen=True)
class RieszReport:
    """A spectral projection with its defining contour data.

    One center/radius pair per requested target; the projection is the
    sum over targets. ``range_residual`` is the least-squares defect of
    factoring the projection through the element (only meaningful, and
    only computed, when every target is nonzero)."""

    projection: Element
    centers: tuple[complex, ...]
    radii: tuple[float, ...]
    nodes: int
    idempotency_defect: float
    multiplicity: int
    range_residual: float | None


@dataclass(frozen=True)
class Diagonalization:
    """Spectral-value / minimal-projection splitting of a maximal element."""

    values: tuple[complex, ...]
    projections: tuple[Element, ...]
    residual: float


def _match_target(rep: SpectrumReport, target: complex) -> complex:
    """Snap a requested target onto a clustered spectral value."""
    target = complex(target)
    dists = [(abs(v - target), v) for v, _ in rep.points]
    d, v = min(dists, key=lambda t: t[0])
    if d > rep.cluster_tolerance:
        raise TargetNotInSpectrumError(target, v, d)
    return v


def _projection(a: Element, rep: SpectrumReport, centers, nodes: int):
    """The trapezoid-rule contour projection summed over ``centers`` (circles of
    radius ``RADIUS_FACTOR`` times each gap in ``rep``), and the radii used."""
    if nodes < 4:
        raise ValueError("need at least 4 quadrature nodes")
    scale = max(rep.radius, 1.0)
    phases = np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes))
    radii = []
    blocks = [np.zeros((n, n), dtype=complex) for n in a.spec.block_sizes]
    for c in centers:
        r = RADIUS_FACTOR * rep.gap(c)
        if r < RESOLVENT_FLOOR * scale:
            raise ContourCollapseError(
                f"contour radius {r:.3e} around {c} is below the "
                f"singularity floor {RESOLVENT_FLOOR * scale:.3e}"
            )
        radii.append(float(r))
        zs = c + r * phases
        for acc, b, n in zip(blocks, a.blocks, a.spec.block_sizes):
            eye = np.eye(n, dtype=complex)
            shifted = zs[:, None, None] * eye - b
            solved = np.linalg.solve(shifted, np.broadcast_to(eye, (nodes, n, n)))
            acc += (r / nodes) * np.einsum("j,jkl->kl", phases, solved)
    return Element(a.spec, tuple(blocks), _checked=True), tuple(radii)


def riesz_projection(a: Element, targets, nodes: int = DEFAULT_NODES) -> RieszReport:
    """Spectral projection of ``a`` onto one or more spectral values.

    Each target must match a clustered spectral value; its contour is
    the circle around that value with radius ``RADIUS_FACTOR`` times the
    distance to the nearest other value. For several targets the
    per-target projections are summed. The reported multiplicity is the
    classical rank of the projection.
    """
    if nodes < 4:
        raise ValueError("need at least 4 quadrature nodes")
    targets = [complex(t) for t in np.atleast_1d(targets)]
    if not targets:
        raise ShapeMismatchError("need at least one target")
    rep = spectrum(a)

    centers = []
    for t in targets:
        c = _match_target(rep, t)
        if any(c == c0 for c0 in centers):
            raise ShapeMismatchError(
                f"targets collapse onto the same clustered spectral value {c}"
            )
        centers.append(c)

    p, radii = _projection(a, rep, centers, nodes)
    defect = operator_norm(p @ p - p)
    mult = classical_rank(p)

    residual = None
    if all(c != 0 for c in centers):
        # Nonzero spectral values put the projection inside a*A; verify
        # by factoring p = a w in the least-squares sense.
        worst = 0.0
        for ab, pb in zip(a.blocks, p.blocks):
            w = np.linalg.lstsq(ab, pb, rcond=None)[0]
            worst = max(worst, float(np.linalg.norm(ab @ w - pb, 2)))
        residual = worst

    return RieszReport(
        projection=p,
        centers=tuple(centers),
        radii=radii,
        nodes=nodes,
        idempotency_defect=float(defect),
        multiplicity=mult,
        range_residual=residual,
    )


def _multiplicities(a: Element, rep: SpectrumReport, rank: int, centers, probes, seed, nodes):
    """Multiplicity at each of ``centers``, certified by two routes.

    Route A perturbs the identity by ``DEFAULT_EPS`` times a normalized
    Gaussian element, keeps the probes whose nonzero-spectrum count is
    the oracle ``rank`` of ``a``, and counts the distinct spectral values
    of each product within one third of the local gap of the center; all
    counts must agree. The probes do not depend on the center, so their
    spectra are computed once, after the first gap check passes, by
    :func:`_perturbed_spectra`: one stack of probes, one eigensolve per
    block and one clustering call for all of them. For nonzero centers,
    Route B is the rank of the Riesz projection; the routes share only
    ``rep`` and ``rank``.
    """
    if centers and probes < 1:
        raise ValueError("need at least one probe")
    floor = GAP_FLOOR_FACTOR * rep.cluster_tolerance
    admitted = None
    out = []
    for center in centers:
        gap = rep.gap(center)
        if gap < floor:
            raise SpectralGapError(center, gap, floor)
        if admitted is None:
            admitted = [
                s for s in _perturbed_spectra(a, probes, seed)
                if s.num_nonzero == rank  # else outside the rank-attaining set
            ]
            if not admitted:
                raise ProbeExhaustionError(
                    f"no perturbation probe preserved the rank after {probes} attempts"
                )
        ball = gap / 3.0
        near = [sum(abs(v - center) < ball for v, _ in s.points) for s in admitted]
        counts = sorted(set(near))
        if len(counts) != 1:
            msg = f"perturbation counts at {center} were not constant: {counts}"
            raise MultiplicityInconsistencyError(center, counts, None, message=msg)
        route_a = counts[0]
        if center != 0:
            route_b = classical_rank(_projection(a, rep, [center], nodes)[0])
            if route_a != route_b:
                raise MultiplicityInconsistencyError(center, route_a, route_b)
        out.append(route_a)
    return out


def _perturbed_spectra(a: Element, probes: int, seed: int):
    """Clustered spectra of (1 + eps*g_k)*a for the ``probes`` perturbations g_k.

    g_k is the k-th Gaussian element of ``rng_for(seed, MULTIPLICITY_PROBE)``
    divided by its operator norm, and eps is ``DEFAULT_EPS``. The norms
    come from one stacked 2-norm per block, the products from one stacked
    product and one ``eigvals`` per block, and the spectra from one
    clustering pass over all rows.
    """
    gs = random_element_stack(a.spec, rng_for(seed, MULTIPLICITY_PROBE), probes)
    inv_norms = (1.0 / block_operator_norm(gs)).astype(complex)[:, None, None]
    eps = complex(DEFAULT_EPS)
    products = [
        (np.eye(n, dtype=complex) + eps * (inv_norms * g)) @ b
        for g, b, n in zip(gs, a.blocks, a.spec.block_sizes)
    ]
    return stacked_spectra(block_eigenvalues(products))


def multiplicity(
    a: Element,
    target: complex,
    probes: int = MULTIPLICITY_PROBES,
    seed: int = 0,
    nodes: int = DEFAULT_NODES,
) -> int:
    """Spectral multiplicity of ``a`` at one of its spectral values,
    certified by the two routes of :func:`_multiplicities`."""
    if probes < 1:
        raise ValueError("need at least one probe")
    rep = spectrum(a)
    center = _match_target(rep, target)
    rank = classical_rank(a)
    return _multiplicities(a, rep, rank, [center], probes, seed, nodes)[0]


def spectral_trace(
    a: Element,
    probes: int = MULTIPLICITY_PROBES,
    seed: int = 0,
    nodes: int = DEFAULT_NODES,
) -> complex:
    """Multiplicity-weighted sum of spectral values.

    The spectral value 0 contributes nothing, so only nonzero values
    need their multiplicities; they share one spectrum and one set of
    perturbation probes. The result is certified against the
    diagonal-sum oracle to relative tolerance ``TRACE_CERT_TOL``.
    """
    rep = spectrum(a)
    return _spectral_trace(a, rep, classical_rank(a), classical_trace(a), probes, seed, nodes)


def _spectral_trace(a, rep, rank, oracle, probes, seed, nodes) -> complex:
    """:func:`spectral_trace` on the clustered spectrum ``rep``, the oracle
    rank and the diagonal-sum ``oracle`` of ``a``, computed once by the
    caller."""
    values = [v for v, _ in rep.points if v != 0]
    total = 0j
    mults = _multiplicities(a, rep, rank, values, probes, seed, nodes)
    for v, m in zip(values, mults):
        total += v * m
    if abs(total - oracle) > TRACE_CERT_TOL * max(1.0, abs(oracle)):
        raise TraceCertificationError(total, oracle)
    return total


def _spectral_pass(x: Element | None, seed: int):
    """Spectrum, oracle rank, diagonal trace and certified spectral trace
    of x, each computed once; x = None is the empty corner."""
    if x is None:
        return SpectrumReport((), 0.0, False), 0, 0j, 0j
    rep = spectrum(x)
    rank = classical_rank(x)
    oracle = classical_trace(x)
    trace = _spectral_trace(x, rep, rank, oracle, MULTIPLICITY_PROBES, seed, DEFAULT_NODES)
    return rep, rank, oracle, trace


def trace_bound_check(a: Element, seed: int = 0) -> bool:
    """|trace| <= rank * spectral radius, within ``TRACE_CERT_TOL``.

    The spectral trace is only certified to that relative tolerance, so
    the bound cannot be checked more tightly. One spectrum and one
    oracle rank serve both the trace and the bound.
    """
    rep, rank, _, tr = _spectral_pass(a, seed)
    bound = rank * rep.radius
    return abs(tr) <= bound + TRACE_CERT_TOL * max(1.0, bound)


def diagonalize_maximal(
    a: Element,
    probes: int = DEFAULT_PROBES,
    seed: int = 0,
    nodes: int = DEFAULT_NODES,
) -> Diagonalization:
    """Split a maximal element into value * minimal-projection terms.

    Requires #(distinct nonzero spectral values) = rank and a nonzero
    element; each spectral value then carries a rank-one projection and
    the weighted projections reconstruct the element.
    """
    rep = spectrum(a)
    count = rep.num_nonzero
    rank_rep = spectral_rank(a, probes=probes, seed=seed)
    if count == 0 or rank_rep.rank != count:
        raise NotMaximalError(rank_rep.rank, count)

    values = tuple(v for v, _ in rep.points if v != 0)
    projections = tuple(_projection(a, rep, [v], nodes)[0] for v in values)
    recon = [np.zeros((n, n), dtype=complex) for n in a.spec.block_sizes]
    for v, p in zip(values, projections):
        for acc, pb in zip(recon, p.blocks):
            acc += v * pb
    residual = operator_norm(a - Element(a.spec, tuple(recon), _checked=True))
    return Diagonalization(values, projections, float(residual))


@dataclass(frozen=True)
class CompressionReport:
    """Corner-subalgebra consistency of spectra, rank, and trace.

    The corner p*A*p of a projection p is itself a block algebra on the
    ranges of the blocks of p; its nonzero spectra, ranks, and traces
    must match the ambient computations applied to p*a*p. The empty
    corner (p = 0) has ``subalgebra`` and ``compressed`` None, rank 0,
    trace 0 and no spectral values.
    """

    subalgebra: AlgebraSpec | None
    compressed: Element | None
    nonzero_spectra_match: bool
    rank_ambient: int
    rank_compressed: int
    classical_trace_ambient: complex
    classical_trace_compressed: complex
    spectral_trace_ambient: complex
    spectral_trace_compressed: complex
    trace_match: bool

    @property
    def consistent(self) -> bool:
        return (
            self.nonzero_spectra_match
            and self.rank_ambient == self.rank_compressed
            and self.trace_match
        )


def compress_to_corner(a: Element, p: Element):
    """Matrix of p*a*p on orthonormal bases of the block ranges of p.

    Block i of p contributes its first r_i left singular vectors, r_i
    its rank under the one rank rule (:func:`~soclelab.algebra.corner_ranks`),
    so the subalgebra is the sum of M_{r_i} over r_i > 0 and a roundoff
    block of p adds nothing. Returns (subalgebra spec, compressed
    element); both are None when every r_i is 0. Raises when p is not
    idempotent within tolerance.
    """
    return _compress(p, p @ a @ p)


def _compress(p: Element, pap: Element):
    """:func:`compress_to_corner` with p*a*p given."""
    mats = []
    for pb, mb, r in zip(p.blocks, pap.blocks, corner_ranks(p)):
        if r:
            q = np.linalg.svd(pb)[0][:, :r]
            mats.append(q.conj().T @ mb @ q)
    if not mats:
        return None, None
    sub = AlgebraSpec(tuple(m.shape[0] for m in mats))
    return sub, Element(sub, tuple(mats), _checked=True)


def _nonzero_spectra_match(
    rep_a: SpectrumReport, rep_b: SpectrumReport, match_tol: float
) -> bool:
    pa = [(v, m) for v, m in rep_a.points if v != 0]
    pb = [(v, m) for v, m in rep_b.points if v != 0]
    if len(pa) != len(pb):
        return False
    used = [False] * len(pb)
    for v, m in pa:
        hit = None
        for j, (w, mm) in enumerate(pb):
            if not used[j] and abs(v - w) <= match_tol and m == mm:
                hit = j
                break
        if hit is None:
            return False
        used[hit] = True
    return True


def pAp_consistency(a: Element, p: Element, seed: int = 0) -> CompressionReport:
    """Certify that corner and ambient computations agree on p*a*p.

    p*a*p is formed once. It and its corner matrix
    (:func:`compress_to_corner`) each get one spectrum, one oracle rank
    and one diagonal trace, which their spectral traces reuse. Traces
    must agree to ``TRACE_CERT_TOL`` relative to max(1, |ambient
    trace|), also for the empty corner.
    """
    pap = p @ a @ p
    sub, compressed = _compress(p, pap)
    rep_ambient, rank_ambient, tr_ambient, s_ambient = _spectral_pass(pap, seed)
    rep_corner, rank_corner, tr_corner, s_corner = _spectral_pass(compressed, seed)
    match_tol = max(rep_ambient.cluster_tolerance, rep_corner.cluster_tolerance)
    scale = max(1.0, abs(tr_ambient))
    trace_match = (
        abs(tr_ambient - tr_corner) <= TRACE_CERT_TOL * scale
        and abs(s_ambient - s_corner) <= TRACE_CERT_TOL * scale
    )
    return CompressionReport(
        subalgebra=sub,
        compressed=compressed,
        nonzero_spectra_match=_nonzero_spectra_match(
            rep_ambient, rep_corner, match_tol
        ),
        rank_ambient=rank_ambient,
        rank_compressed=rank_corner,
        classical_trace_ambient=tr_ambient,
        classical_trace_compressed=tr_corner,
        spectral_trace_ambient=s_ambient,
        spectral_trace_compressed=s_corner,
        trace_match=trace_match,
    )
