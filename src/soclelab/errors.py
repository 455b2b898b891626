"""Exception hierarchy for the algebra laboratory.

Domain errors signal bad inputs or ill-posed requests; certification
errors signal that two independent computation routes disagreed, which
is never silently accepted.
"""

from __future__ import annotations


class SocleLabError(Exception):
    """Base class for all library errors."""

    def details(self) -> dict:
        """Machine-readable payload for JSON error reports."""
        return {}


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
        super().__init__(
            message or f"eigensolver failed to converge on block {block_index}"
        )

    def details(self) -> dict:
        return {"block_index": self.block_index}


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

    def details(self) -> dict:
        return {
            "point": [self.point.real, self.point.imag],
            "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
            "distance": self.distance,
        }


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
    """Spectral points are too close for a safe integration contour."""


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

    def details(self) -> dict:
        return {"trace": [self.trace.real, self.trace.imag]}


class DegenerateProjectionError(SocleLabError):
    """A rank-one projection could not be normalized (pairing ~ 0)."""


class NotIdempotentError(SocleLabError):
    """An operation requiring a projection received a non-idempotent."""

    def __init__(self, defect: float, tolerance: float):
        self.defect = defect
        self.tolerance = tolerance
        super().__init__(
            f"idempotency defect {defect:.3e} exceeds tolerance {tolerance:.3e}"
        )


class NotMaximalError(SocleLabError):
    """Diagonalization requires #(distinct nonzero spectral values) = rank."""

    def __init__(self, rank: int, nonzero_count: int):
        self.rank = rank
        self.nonzero_count = nonzero_count
        super().__init__(
            f"element is not maximal: rank {rank} but {nonzero_count} "
            "distinct nonzero spectral values"
        )

    def details(self) -> dict:
        return {"rank": self.rank, "nonzero_count": self.nonzero_count}


class NoCounterexampleError(SocleLabError):
    """Single-block algebras admit no tracial-but-not-scalar functional."""


class CertificationError(SocleLabError):
    """Two independent computation routes disagreed."""


class RankCertificationError(CertificationError):
    """Probed spectral rank disagrees with the classical rank oracle."""

    def __init__(self, spectral: int, classical: int, probes: int):
        self.spectral = spectral
        self.classical = classical
        self.probes = probes
        super().__init__(
            f"spectral rank {spectral} != classical rank {classical} "
            f"after {probes} probes"
        )

    def details(self) -> dict:
        return {
            "spectral_rank": self.spectral,
            "classical_rank": self.classical,
            "probes": self.probes,
        }


class TraceCertificationError(CertificationError):
    """Spectral trace disagrees with the diagonal-sum oracle."""

    def __init__(self, spectral: complex, classical: complex):
        self.spectral = spectral
        self.classical = classical
        super().__init__(
            f"spectral trace {spectral} != classical trace {classical}"
        )

    def details(self) -> dict:
        return {
            "spectral_trace": [self.spectral.real, self.spectral.imag],
            "classical_trace": [self.classical.real, self.classical.imag],
        }


class MultiplicityInconsistencyError(CertificationError):
    """Perturbation counting and projection rank gave different answers."""

    def __init__(self, target: complex, route_a, route_b, message: str = ""):
        self.target = target
        self.route_a = route_a
        self.route_b = route_b
        super().__init__(
            message
            or f"multiplicity at {target}: perturbation counting gave "
            f"{route_a}, projection rank gave {route_b}"
        )

    def details(self) -> dict:
        return {
            "target": [self.target.real, self.target.imag],
            "perturbation_count": self.route_a,
            "projection_rank": self.route_b,
        }


class TheoremViolationError(CertificationError):
    """A verified implication pattern failed; indicates an implementation defect."""

    def __init__(self, claim: str, witness=None):
        self.claim = claim
        self.witness = witness
        super().__init__(f"predicted implication violated: {claim}")

    def details(self) -> dict:
        return {"claim": self.claim}
