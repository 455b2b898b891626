"""Exception hierarchy for the algebra laboratory.

Domain errors signal bad inputs or ill-posed requests; certification
errors signal that two independent computation routes disagreed, which
is never silently accepted.

Each class declares its details once: ``fields``, the names of the
values its constructor takes, in order, and ``text``, the ``str.format``
template of its default message over them. An error stores each field
under its name, and its details are its fields; a class without fields
takes only a message.
"""

from __future__ import annotations

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
    """Base class for all library errors.

    ``cls(*values, message="")`` stores the values under the names in
    ``fields``. A message, passed after the values or as ``message``,
    replaces ``text`` formatted over them; the wrong number of values is
    a TypeError."""

    fields: tuple[str, ...] = ()
    text = ""

    def __init__(self, *values, message: str = ""):
        if len(values) == len(self.fields) + 1 and not message:
            *values, message = values
        if len(values) != len(self.fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.fields)} values and a message, "
                f"got {len(values)} values"
            )
        named = dict(zip(self.fields, values))
        vars(self).update(named)
        super().__init__(message or self.text.format(**named))

    def details(self) -> dict:
        """Machine-readable payload for JSON error reports: the error's
        fields, keyed by their names."""
        return {name: _detail(getattr(self, name)) for name in self.fields}


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

    fields = ("block_index",)
    text = "eigensolver failed to converge on block {block_index}"


class SVDConvergenceError(EigensolverError):
    """The singular value decomposition failed to converge on a block."""


class SingularResolventError(SocleLabError):
    """The resolvent was requested too close to a spectral point."""

    fields = ("point", "eigenvalue", "distance")
    text = "resolvent point {point} is within {distance:.3e} of the spectral value {eigenvalue}"


class TargetNotInSpectrumError(SocleLabError):
    """A requested contour target does not match any spectral point."""

    fields = ("target", "nearest", "distance")
    text = (
        "target {target} is not a spectral point (nearest value {nearest} at "
        "distance {distance:.3e})"
    )


class ContourCollapseError(SocleLabError):
    """No safe integration contour: its radius falls below the singularity
    floor, or a shifted block on it is singular."""

    fields = ("center", "radius")
    text = "the resolvent is singular on the contour of radius {radius:.3e} around {center}"


class SpectralGapError(SocleLabError):
    """The spectral gap around a target is below the resolvable threshold."""

    fields = ("target", "gap", "floor")
    text = (
        "gap {gap:.3e} around {target} is below the resolvable threshold {floor:.3e}; "
        "multiplicities at this separation are not trusted"
    )


class ProbeExhaustionError(SocleLabError):
    """No random probe landed in the admissible set after all attempts."""


class NotTracelessError(SocleLabError):
    """Commutator decomposition requires a (numerically) traceless input."""

    fields = ("trace",)
    text = "matrix has nonzero trace {trace}"


class DegenerateProjectionError(SocleLabError):
    """A rank-one projection could not be normalized (pairing ~ 0)."""


class NotIdempotentError(SocleLabError):
    """An operation requiring a projection received a non-idempotent."""

    fields = ("defect", "tolerance")
    text = "idempotency defect {defect:.3e} exceeds tolerance {tolerance:.3e}"


class NotMaximalError(SocleLabError):
    """Diagonalization requires #(distinct nonzero spectral values) = rank."""

    fields = ("rank", "nonzero_count")
    text = (
        "element is not maximal: rank {rank} but {nonzero_count} distinct nonzero spectral "
        "values"
    )


class NoCounterexampleError(SocleLabError):
    """Single-block algebras admit no tracial-but-not-scalar functional."""


class CertificationError(SocleLabError):
    """Two independent computation routes disagreed."""


class RankCertificationError(CertificationError):
    """Probed spectral rank disagrees with the classical rank oracle."""

    fields = ("spectral_rank", "classical_rank", "probes")
    text = "spectral rank {spectral_rank} != classical rank {classical_rank} after {probes} probes"


class TraceCertificationError(CertificationError):
    """Spectral trace disagrees with the diagonal-sum oracle."""

    fields = ("spectral_trace", "classical_trace")
    text = "spectral trace {spectral_trace} != classical trace {classical_trace}"


class MultiplicityInconsistencyError(CertificationError):
    """Perturbation counting and projection rank gave different answers."""

    fields = ("target", "perturbation_count", "projection_rank")
    text = (
        "multiplicity at {target}: perturbation counting gave {perturbation_count}, "
        "projection rank gave {projection_rank}"
    )


class ProjectionRankError(CertificationError):
    """A Riesz projection's rank disagrees with the spectrum's multiplicity
    at its targets, or with its own trace."""

    fields = ("trace", "projection_rank", "spectrum_multiplicity", "bound")
    text = (
        "Riesz projection of rank {projection_rank} and trace {trace}: the spectrum gives "
        "multiplicity {spectrum_multiplicity}, and the trace must lie within {bound} of the rank"
    )


class TheoremViolationError(CertificationError):
    """A verified implication pattern failed; indicates an implementation
    defect. The ``witness`` is kept for the caller and is no detail."""

    fields = ("claim",)
    text = "predicted implication violated: {claim}"

    def __init__(self, claim: str, witness=None):
        self.witness = witness
        super().__init__(claim)
