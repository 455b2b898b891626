"""Riesz projections, spectral multiplicities, and the spectral trace.

The projection attached to a spectral value is the contour integral of
the resolvent around it, computed here by the trapezoid rule on a
circle: for analytic periodic integrands that rule converges
geometrically in the node count. Multiplicities come by two independent
routes (perturbation counting near the identity, and the rank of the
projection) which must agree; one element's perturbation probes are
drawn once, solved and clustered as one stack, and shared by all its
spectral values; the first route counts from its table by
:func:`~soclelab.algebra._clustered`, the one function that applies the
merge radius and the zero snap. The second route needs only the rank of
an idempotent, which holds at any quadrature error below 1/2, so it runs
two stacked rules over all of an element's nonzero centers. Per block,
one 16-node solve gives every center's 16-node rule and, on its even
nodes, its 8-node rule (one trapezoid sum each), and one SVD gives every
rank and every distance between the two; a center whose two rules differ
by more than 1/4 is solved afresh at ``DEFAULT_NODES``, unchecked. The
multiplicity that :func:`riesz_projection` reports, the rank of its
projection, is checked against the spectrum's count and the projection's
trace. The trace is the multiplicity-weighted sum of spectral values,
certified against the diagonal-sum oracle.

A maximal element (as many distinct nonzero spectral values as its
rank) needs no contour. Its nonzero values are simple and it vanishes
on its generalized kernel, so it is diagonalizable, and the projection
at a nonzero value is exactly P = v w^T with v its eigenvector and w^T
the matching row of the inverse eigenvector matrix, so that w^T v = 1.
:func:`diagonalize_maximal` reads every such P from one
eigendecomposition per block; the residual of a - sum(value * P)
certifies the splitting. Its maximality needs no probe: x = 1 is among
the products x*a whose counts the rank bounds, so a count equal to the
SVD rank is its own witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    RESOLVENT_FLOOR,
    AlgebraSpec,
    Element,
    SpectrumReport,
    _blockwise,
    _clustered,
    _product_eigenvalues,
    block_operator_norm,
    classical_rank,
    classical_trace,
    corner_ranks,
    idempotent_rank,
    operator_norm,
    spectrum,
)
from .errors import (
    ContourCollapseError,
    EigensolverError,
    MultiplicityInconsistencyError,
    NotMaximalError,
    NumericOverflowError,
    ProbeExhaustionError,
    ProjectionRankError,
    ShapeMismatchError,
    SocleLabError,
    SpectralGapError,
    SVDConvergenceError,
    TargetNotInSpectrumError,
    TraceCertificationError,
)
from .rank import _maximality_rank
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
# Route B's first rule, whose projection is accepted when it lies within
# _NESTED_ACCEPT of its nested half rule: half the 1/2 that
# idempotent_rank tolerates. A center it does not accept is solved
# afresh at DEFAULT_NODES.
_NESTED_NODES = 16
_NESTED_ACCEPT = 0.25
# The most complex entries (16 MiB) that a group of route B centers
# holds in one block's resolvents at DEFAULT_NODES: a group takes as
# many centers as fit, and at least one.
STACK_ENTRIES = 1 << 20


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
    with np.errstate(over="ignore"):  # hypot rounds as complex abs, but is inf past the range
        diff = rep.values - target
        dists = np.hypot(diff.real, diff.imag)
    d, v = min(zip(dists.tolist(), rep.values.tolist()), key=lambda t: t[0])
    if d > rep.cluster_tolerance:
        raise TargetNotInSpectrumError(target, v, d)
    return v


@functools.lru_cache(maxsize=8)
def _phases(nodes: int) -> np.ndarray:
    """The unit-circle nodes of the ``nodes``-point trapezoid rule;
    read-only, and cached for the last 8 node counts."""
    phases = np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes))
    phases.flags.writeable = False
    return phases


def _radius(rep: SpectrumReport, center: complex) -> float:
    """The contour radius around ``center``: ``RADIUS_FACTOR`` times its gap
    in ``rep``, at least the singularity floor."""
    scale = max(rep.radius, 1.0)
    r = RADIUS_FACTOR * rep.gap(center)
    if not np.isfinite(r):
        raise NumericOverflowError(f"the contour radius around {center} overflows the double range")
    if r < RESOLVENT_FLOOR * scale:
        raise ContourCollapseError(
            center, r, f"contour radius {r:.3e} around {center} is below the "
            f"singularity floor {RESOLVENT_FLOOR * scale:.3e}"
        )
    return r


def _contour_solves(a: Element, centers, radii, nodes: int) -> list:
    """Per block b of ``a``, (z - b)^-1 at the ``nodes``-point rule on the
    circle of radius ``radii[k]`` around each ``centers[k]``:
    ``(len(centers), nodes, n, n)``.

    Every shift is built and checked before any solve; one that overflows
    is a NumericOverflowError, a singular one a ContourCollapseError, each
    naming the first circle of the call. Each block's shifts go to one
    ``np.linalg.solve`` call, so its memory peaks at the shifts and the
    resolvents, twice the output."""
    phases = _phases(nodes)
    shifts = []
    with np.errstate(over="ignore", invalid="ignore"):
        zs = np.stack([c + r * phases for c, r in zip(centers, radii)])
        for b in a.blocks:
            shifted = np.multiply.outer(zs, np.eye(len(b), dtype=complex))
            shifted -= b
            shifts.append(shifted)
    if not all(np.isfinite(shifted).all() for shifted in shifts):
        raise NumericOverflowError(f"the contour around {centers[0]} overflows the double range")
    solves = []
    for shifted in shifts:
        eye = np.broadcast_to(np.eye(shifted.shape[-1], dtype=complex), shifted.shape)
        try:
            solves.append(np.linalg.solve(shifted, eye))
        except np.linalg.LinAlgError:
            raise ContourCollapseError(centers[0], radii[0]) from None
    return solves


def _node_sums(centers, radii, solved, nodes: int) -> list:
    """Per block, the trapezoid-rule projections ``(len(centers), n, n)``
    around every ``centers[k]``, from the resolvents ``solved`` of one
    :func:`_contour_solves` call at all ``nodes`` nodes of the circles of
    radius ``radii[k]``: one ``einsum`` per block. On the even nodes of an
    even ``nodes``, ``[s[:, ::2] for s in solved]``, it is the nested rule
    with ``nodes // 2`` nodes, bit for bit. A non-finite projection is a
    NumericOverflowError naming the first such center."""
    weights = (np.asarray(radii, dtype=float) / nodes)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        blocks = [0 + weights * np.einsum("j,cjkl->ckl", _phases(nodes), s) for s in solved]
    finite = np.logical_and.reduce([np.isfinite(m).all(axis=(1, 2)) for m in blocks])
    if not finite.all():
        center = centers[np.argmin(finite)]
        raise NumericOverflowError(f"the projection around {center} overflows the double range")
    return blocks


def riesz_projection(a: Element, targets, nodes: int = DEFAULT_NODES) -> RieszReport:
    """Spectral projection of ``a`` onto one or more spectral values.

    Each target must match a clustered spectral value; its contour is
    the circle around that value with radius ``RADIUS_FACTOR`` times the
    distance to the nearest other value. For several targets the
    per-target projections are summed. The reported multiplicity is the
    :func:`~soclelab.algebra.idempotent_rank` of the projection, which
    holds at any node count whose quadrature error stays below 1/2. It
    must equal the sum of the spectrum's multiplicities at the targets,
    and the trace of the projection must lie within 1/4 of it, else a
    ProjectionRankError is raised.
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

    radii = []
    blocks = [np.zeros((n, n), dtype=complex) for n in a.spec.block_sizes]
    for c in centers:
        r = _radius(rep, c)
        radii.append(float(r))
        solved = _contour_solves(a, [c], [r], nodes)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for acc, term in zip(blocks, _node_sums([c], [r], solved, nodes)):
                acc += term[0]
        if not all(np.isfinite(m).all() for m in blocks):
            raise NumericOverflowError(f"the projection around {c} overflows the double range")
    p = Element(a.spec, tuple(blocks), _checked=True)
    defect = operator_norm(p @ p - p)
    mult = idempotent_rank(p)
    # the second route is the spectrum's count; a projection's trace is its rank
    expected = sum(m for v, m in rep.points if v in centers)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed trace fails
        trace = classical_trace(p)
    if mult != expected or not abs(trace - mult) <= 0.25:
        raise ProjectionRankError(trace, mult, expected, 0.25)

    residual = None
    if all(c != 0 for c in centers):
        # Nonzero spectral values put the projection inside a*A; verify
        # by factoring p = a w in the least-squares sense.
        pairs = list(zip(a.blocks, p.blocks))
        ws = _blockwise(lambda ap: np.linalg.lstsq(*ap, rcond=None)[0], pairs, SVDConvergenceError)
        residual = max(float(np.linalg.norm(ab @ w - pb, 2)) for (ab, pb), w in zip(pairs, ws))

    return RieszReport(
        projection=p,
        centers=tuple(centers),
        radii=tuple(radii),
        nodes=nodes,
        idempotency_defect=float(defect),
        multiplicity=mult,
        range_residual=residual,
    )


def _multiplicities(a: Element, rep: SpectrumReport, rank: int, centers, seed):
    """Multiplicity at each of ``centers``, certified by two routes.

    Route A perturbs the identity by ``DEFAULT_EPS`` times each of
    ``MULTIPLICITY_PROBES`` normalized Gaussian elements, keeps the
    probes whose nonzero-spectrum count is the oracle ``rank`` of ``a``,
    and counts the distinct spectral values of each product within one
    third of the local gap of the center (:func:`_near_counts`); all
    counts must agree. The probes do not depend on the center, so their
    clustered table is computed once, after the first gap check passes,
    by :func:`_perturbed_spectra`. For nonzero centers, Route B is the
    :func:`~soclelab.algebra.idempotent_rank` of the Riesz projection,
    by :func:`_projection_ranks`, for all of them at once. The routes
    share only ``rep`` and ``rank``. Route A runs first, up to the first
    center it fails at; the centers are then judged in order, so the
    first one that fails either route decides the error, as center by
    center.
    """
    floor = GAP_FLOOR_FACTOR * rep.cluster_tolerance
    admitted = None
    route_a, failure = [], None
    for center in centers:
        try:
            gap = rep.gap(center)
            if gap < floor:
                raise SpectralGapError(center, gap, floor)
            if admitted is None:
                _, values, sizes, nonzero = _perturbed_spectra(a, seed)
                keep = nonzero.sum(axis=1) == rank  # else outside the rank-attaining set
                if not keep.any():
                    raise ProbeExhaustionError(
                        "no perturbation probe preserved the rank after "
                        f"{MULTIPLICITY_PROBES} attempts"
                    )
                zero = (sizes > 0) & ~nonzero
                admitted = values[keep], nonzero[keep], zero[keep].any(axis=1)
            counts = sorted(set(_near_counts(*admitted, center, gap / 3.0).tolist()))
            if len(counts) != 1:
                msg = f"perturbation counts at {center} were not constant: {counts}"
                raise MultiplicityInconsistencyError(center, counts, None, message=msg)
        except SocleLabError as exc:
            failure = exc
            break
        route_a.append(counts[0])
    route_b = iter(_projection_ranks(a, rep, [c for c in centers[: len(route_a)] if c != 0]))
    for center, count in zip(centers, route_a):
        if center != 0:
            rank_b = next(route_b)
            if isinstance(rank_b, SocleLabError):
                raise rank_b
            if count != rank_b:
                raise MultiplicityInconsistencyError(center, count, rank_b)
    if failure is not None:
        raise failure
    return route_a


def _near_counts(values, nonzero, zero, center: complex, ball: float) -> np.ndarray:
    """Route A's count at ``center`` per row of a probe table: its nonzero
    ``values`` within ``ball``, plus its value 0 (``zero``) when |center| <
    ``ball``. ``np.hypot`` rounds a distance as Python's complex ``abs``
    does; an overflowed one is inf, outside the ball."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = values - center
        near = np.hypot(d.real, d.imag) < ball
    return (near & nonzero).sum(axis=1) + (zero & (abs(center) < ball))


def _projection_ranks(a: Element, rep: SpectrumReport, centers) -> list:
    """Route B at each of ``centers``: the
    :func:`~soclelab.algebra.idempotent_rank` of its contour projection at
    the fewest nodes that certify it, or the SocleLabError it raises.

    Its first rule is the ``_NESTED_NODES``-node projection P_16, accepted
    when ||P_16 - P_8|| <= ``_NESTED_ACCEPT``, P_8 being the nested rule on
    the even nodes of the same solves. The rule converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56, 2014), so that difference bounds
    the error of P_16 with room to spare, and a rank is right whenever
    the error stays below 1/2. A center it does not accept takes the rank
    of P at ``DEFAULT_NODES``, from a fresh solve.

    The centers go in groups whose resolvents fit ``STACK_ENTRIES`` at
    ``DEFAULT_NODES`` (:func:`_nested_ranks`). If a group raises, each of
    its centers runs alone, so that each gets its own outcome.
    """
    largest = max(a.spec.block_sizes)
    size = max(1, STACK_ENTRIES // (DEFAULT_NODES * largest * largest))
    out = []
    for lo in range(0, len(centers), size):
        group = centers[lo : lo + size]
        try:
            out += _nested_ranks(a, rep, group)
        except SocleLabError as exc:
            if len(group) == 1:
                out.append(exc)
                continue
            out += [r for c in group for r in _projection_ranks(a, rep, [c])]
    return out


def _nested_ranks(a: Element, rep: SpectrumReport, centers) -> list[int]:
    """The route B rank of every center of one group, by two stacked rules.
    First, one ``_NESTED_NODES``-node solve and two node sums per block,
    P_16 and its nested rule P_8, and one SVD per block of all P_16 and
    P_16 - P_8, which gives every rank and every nested distance. Then a
    ``DEFAULT_NODES``-node solve and SVD only for the centers whose
    distance is over ``_NESTED_ACCEPT``, whose ranks it replaces."""
    radii = [_radius(rep, c) for c in centers]
    solved = _contour_solves(a, centers, radii, _NESTED_NODES)
    full = _node_sums(centers, radii, solved, _NESTED_NODES)
    half = _node_sums(centers, radii, [s[:, ::2] for s in solved], _NESTED_NODES // 2)
    svd = functools.partial(np.linalg.svd, compute_uv=False)
    stacks = [np.concatenate([p, p - h]) for p, h in zip(full, half)]
    svals = _blockwise(svd, stacks, SVDConvergenceError)
    ranks = sum((s[: len(centers)] > 0.5).sum(axis=1) for s in svals)
    distances = np.max([s[len(centers) :, 0] for s in svals], axis=0)
    escalated = np.flatnonzero(~(distances <= _NESTED_ACCEPT))
    if escalated.size:
        cs, rs = [centers[k] for k in escalated], [radii[k] for k in escalated]
        full = _node_sums(cs, rs, _contour_solves(a, cs, rs, DEFAULT_NODES), DEFAULT_NODES)
        svals = _blockwise(svd, full, SVDConvergenceError)
        ranks[escalated] = sum((s > 0.5).sum(axis=1) for s in svals)
    return ranks.tolist()


def _perturbed_spectra(a: Element, seed: int):
    """The :func:`~soclelab.algebra._clustered` table of (1 + eps*g_k)*a,
    k < ``MULTIPLICITY_PROBES``, one row per k.

    g_k is the k-th Gaussian element of ``rng_for(seed, MULTIPLICITY_PROBE)``
    divided by its operator norm, and eps is ``DEFAULT_EPS``. The norms
    come from one stacked 2-norm per block, the products from one GEMM
    and one ``eigvals`` per block, and the table from one
    :func:`~soclelab.algebra._clustered` call over all rows, which
    clusters only the rows its separation test leaves open. Only the
    counts near each center are read from it; an overflowed product is a
    NumericOverflowError.
    """
    rng = rng_for(seed, MULTIPLICITY_PROBE)
    gs = random_element_stack(a.spec, rng, MULTIPLICITY_PROBES)
    inv_norms = (1.0 / block_operator_norm(gs)).astype(complex)[:, None, None]
    eps = complex(DEFAULT_EPS)
    perturbations = [
        np.eye(n, dtype=complex) + eps * (inv_norms * g)
        for g, n in zip(gs, a.spec.block_sizes)
    ]
    return _clustered(_product_eigenvalues(perturbations, a.blocks))


def multiplicity(a: Element, target: complex, seed: int = 0) -> int:
    """Spectral multiplicity of ``a`` at one of its spectral values,
    certified by the two routes of :func:`_multiplicities`."""
    rep = spectrum(a)
    center = _match_target(rep, target)
    rank = classical_rank(a)
    return _multiplicities(a, rep, rank, [center], seed)[0]


def spectral_trace(a: Element, seed: int = 0) -> complex:
    """Multiplicity-weighted sum of spectral values.

    The spectral value 0 contributes nothing, so only nonzero values
    need their multiplicities; they share one spectrum and one set of
    perturbation probes. The result is certified against the
    diagonal-sum oracle to relative tolerance ``TRACE_CERT_TOL``.
    """
    return _spectral_pass(a, seed)[3]


def _spectral_pass(x: Element | None, seed: int):
    """Spectrum, oracle rank, diagonal trace and certified spectral trace
    (:func:`spectral_trace`) of x, each computed once; x = None is the
    empty corner."""
    if x is None:
        return SpectrumReport((), 0.0, False), 0, 0j, 0j
    rep = spectrum(x)
    rank = classical_rank(x)
    oracle = classical_trace(x)
    values = [v for v, _ in rep.points if v != 0]
    mults = _multiplicities(x, rep, rank, values, seed)
    trace = sum((v * m for v, m in zip(values, mults)), 0j)
    if abs(trace - oracle) > TRACE_CERT_TOL * max(1.0, abs(oracle)):
        raise TraceCertificationError(trace, oracle)
    return rep, rank, oracle, trace


def diagonalize_maximal(a: Element, seed: int = 0) -> Diagonalization:
    """Split a maximal element into value * minimal-projection terms.

    Requires #(distinct nonzero spectral values) = rank and a nonzero
    element. Such an element is diagonalizable with simple nonzero
    values: their algebraic multiplicities sum to at least their count
    and at most the rank, so each is 1 and their eigenvectors span a
    subspace of dimension rank, and the element is 0 on the
    complementary generalized kernel. The Riesz projection at a nonzero
    value v is then exactly P = x y^T, x the eigenvector of v and y^T
    the matching row of the inverse eigenvector matrix (y^T x = 1), read
    from one eigendecomposition per block. The eigenvalue taken for v is
    the one inside the disk that the contour of :func:`riesz_projection`
    encloses. The reconstruction residual ||a - sum v P_v|| certifies
    the result.

    The rank is certified as in :func:`~soclelab.rank.is_maximal_finite_rank`:
    a maximal element is its own witness, and ``seed`` seeds the
    ``spectral_rank`` probes drawn only when it is not.
    """
    rep = spectrum(a)
    count = rep.num_nonzero
    rank = _maximality_rank(a, count, seed)
    if count == 0 or rank != count:
        raise NotMaximalError(rank, count)

    values = tuple(v for v, _ in rep.points if v != 0)
    eigs = _blockwise(np.linalg.eig, a.blocks, EigensolverError)
    inverses = _blockwise(np.linalg.inv, [vecs for _, vecs in eigs], EigensolverError)
    projections = tuple(_eigenprojection(a, rep, v, eigs, inverses) for v in values)
    recon = [np.zeros((n, n), dtype=complex) for n in a.spec.block_sizes]
    for v, p in zip(values, projections):
        for acc, pb in zip(recon, p.blocks):
            acc += v * pb
    residual = operator_norm(a - Element(a.spec, tuple(recon), _checked=True))
    return Diagonalization(values, projections, float(residual))


def _eigenprojection(a: Element, rep: SpectrumReport, v: complex, eigs, inverses):
    """The rank-one spectral projection of a diagonalizable ``a`` at its
    simple value ``v``, from the per-block eigendecompositions ``eigs``
    ((eigenvalues, eigenvectors) pairs) and the ``inverses`` of their
    eigenvector matrices."""
    r = RADIUS_FACTOR * rep.gap(v)
    with np.errstate(over="ignore"):  # an overflowed distance is inf: outside r
        picks = [np.flatnonzero(np.abs(lam - v) < r) for lam, _ in eigs]
    found = sum(len(ks) for ks in picks)
    if found != 1:
        msg = (
            f"{found} eigenvalues lie within {r:.3e} of the spectral value {v} "
            "of a maximal element; a simple value has exactly one"
        )
        raise MultiplicityInconsistencyError(v, 1, found, message=msg)
    blocks = tuple(
        vecs[:, ks] @ inv[ks, :] for (_, vecs), inv, ks in zip(eigs, inverses, picks)
    )
    return Element(a.spec, blocks, _checked=True)


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


def _compress(p: Element, pap: Element):
    """Matrix of ``pap`` = p*a*p on orthonormal bases of the block ranges
    of p: block i gives its first r_i left singular vectors, r_i its
    :func:`~soclelab.algebra.corner_ranks` entry (which raises unless p is
    idempotent), so the subalgebra is the sum of M_{r_i} over r_i > 0 and
    a roundoff block of p adds nothing. Returns (subalgebra spec,
    compressed element), both None when every r_i is 0."""
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

    p*a*p is formed once. It and its corner matrix (:func:`_compress`)
    each get one spectrum, one oracle rank
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
