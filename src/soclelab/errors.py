"""Exception hierarchy for the algebra laboratory.

Domain errors signal bad inputs or ill-posed requests; certification
errors signal that two independent computation routes disagreed, which
is never silently accepted.

An error's details are its fields: the parameters of its constructor
without a default (so not ``message`` or ``witness``), each stored under
its own name.
"""

from __future__ import annotations

import inspect
import json
import math
import reprlib


def quote_json(value) -> str:
    """The offending ``value`` of an error message as JSON text (``null``,
    ``true``, ``"x"``), cut to 40 characters; a value that is not JSON
    keeps its bounded ``repr``."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError, RecursionError):
        return reprlib.repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _detail(value):
    """A field's JSON value: a complex is an ``[re, im]`` pair, a float
    that is not finite is ``null``, a list or tuple goes element by
    element."""
    if isinstance(value, (list, tuple)):
        return [_detail(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, complex):
        return [_detail(value.real), _detail(value.imag)]
    return value


class SocleLabError(Exception):
    """Base class for all library errors."""

    def details(self) -> dict:
        """Machine-readable payload for JSON error reports: the error's
        fields, keyed by their names."""
        params = list(inspect.signature(type(self).__init__).parameters.values())[1:]
        return {
            p.name: _detail(getattr(self, p.name))
            for p in params
            if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
        }


class UsageError(SocleLabError):
    """The command line names an unknown command or flag, a bad value, or
    a path that cannot be read or written."""


class ShapeMismatchError(SocleLabError):
    """Operands do not share an algebra layout, or blocks have wrong shapes."""


class NonFiniteEntryError(SocleLabError):
    """An element or functional contains NaN or infinite entries."""


class NumericOverflowError(SocleLabError):
    """A computed value overflows the double range; the message names it."""


class EigensolverError(SocleLabError):
    """The dense eigensolver failed to converge on a block."""

    def __init__(self, block_index: int, message: str = ""):
        self.block_index = block_index
        super().__init__(message or f"eigensolver failed to converge on block {block_index}")


class SVDConvergenceError(EigensolverError):
    """The singular value decomposition failed to converge on a block."""


class SingularResolventError(SocleLabError):
    """The resolvent was requested too close to a spectral point."""

    def __init__(self, point: complex, eigenvalue: complex, distance: float):
        self.point = point
        self.eigenvalue = eigenvalue
        self.distance = distance
        super().__init__(
            f"resolvent point {point} is within {distance:.3e} of the "
            f"spectral value {eigenvalue}"
        )


class TargetNotInSpectrumError(SocleLabError):
    """A requested contour target does not match any spectral point."""

    def __init__(self, target: complex, nearest: complex, distance: float):
        self.target = target
        self.nearest = nearest
        self.distance = distance
        super().__init__(
            f"target {target} is not a spectral point (nearest value "
            f"{nearest} at distance {distance:.3e})"
        )


class ContourCollapseError(SocleLabError):
    """No safe integration contour: its radius falls below the singularity
    floor, or a shifted block on it is singular."""

    def __init__(self, center: complex, radius: float, message: str = ""):
        self.center = center
        self.radius = radius
        super().__init__(
            message or f"the resolvent is singular on the contour of radius {radius:.3e} "
            f"around {center}"
        )


class SpectralGapError(SocleLabError):
    """The spectral gap around a target is below the resolvable threshold."""

    def __init__(self, target: complex, gap: float, floor: float):
        self.target = target
        self.gap = gap
        self.floor = floor
        super().__init__(
            f"gap {gap:.3e} around {target} is below the resolvable "
            f"threshold {floor:.3e}; multiplicities at this separation "
            "are not trusted"
        )


class ProbeExhaustionError(SocleLabError):
    """No random probe landed in the admissible set after all attempts."""


class NotTracelessError(SocleLabError):
    """Commutator decomposition requires a (numerically) traceless input."""

    def __init__(self, trace: complex):
        self.trace = trace
        super().__init__(f"matrix has nonzero trace {trace}")


class DegenerateProjectionError(SocleLabError):
    """A rank-one projection could not be normalized (pairing ~ 0)."""


class NotIdempotentError(SocleLabError):
    """An operation requiring a projection received a non-idempotent."""

    def __init__(self, defect: float, tolerance: float):
        self.defect = defect
        self.tolerance = tolerance
        super().__init__(f"idempotency defect {defect:.3e} exceeds tolerance {tolerance:.3e}")


class NotMaximalError(SocleLabError):
    """Diagonalization requires #(distinct nonzero spectral values) = rank."""

    def __init__(self, rank: int, nonzero_count: int):
        self.rank = rank
        self.nonzero_count = nonzero_count
        super().__init__(
            f"element is not maximal: rank {rank} but {nonzero_count} "
            "distinct nonzero spectral values"
        )


class NoCounterexampleError(SocleLabError):
    """Single-block algebras admit no tracial-but-not-scalar functional."""


class CertificationError(SocleLabError):
    """Two independent computation routes disagreed."""


class RankCertificationError(CertificationError):
    """Probed spectral rank disagrees with the classical rank oracle."""

    def __init__(self, spectral_rank: int, classical_rank: int, probes: int):
        self.spectral_rank = spectral_rank
        self.classical_rank = classical_rank
        self.probes = probes
        super().__init__(
            f"spectral rank {spectral_rank} != classical rank {classical_rank} "
            f"after {probes} probes"
        )


class TraceCertificationError(CertificationError):
    """Spectral trace disagrees with the diagonal-sum oracle."""

    def __init__(self, spectral_trace: complex, classical_trace: complex):
        self.spectral_trace = spectral_trace
        self.classical_trace = classical_trace
        super().__init__(f"spectral trace {spectral_trace} != classical trace {classical_trace}")


class MultiplicityInconsistencyError(CertificationError):
    """Perturbation counting and projection rank gave different answers."""

    def __init__(self, target: complex, perturbation_count, projection_rank, message=""):
        self.target = target
        self.perturbation_count = perturbation_count
        self.projection_rank = projection_rank
        super().__init__(
            message
            or f"multiplicity at {target}: perturbation counting gave "
            f"{perturbation_count}, projection rank gave {projection_rank}"
        )


class ProjectionRankError(CertificationError):
    """A Riesz projection's rank disagrees with the spectrum's multiplicity
    at its targets, or with its own trace."""

    def __init__(
        self, trace: complex, projection_rank: int, spectrum_multiplicity: int, bound: float
    ):
        self.trace = trace
        self.projection_rank = projection_rank
        self.spectrum_multiplicity = spectrum_multiplicity
        self.bound = bound
        super().__init__(
            f"Riesz projection of rank {projection_rank} and trace {trace}: the "
            f"spectrum gives multiplicity {spectrum_multiplicity}, and the trace "
            f"must lie within {bound} of the rank"
        )


class TheoremViolationError(CertificationError):
    """A verified implication pattern failed; indicates an implementation defect."""

    def __init__(self, claim: str, witness=None):
        self.claim = claim
        self.witness = witness
        super().__init__(f"predicted implication violated: {claim}")
