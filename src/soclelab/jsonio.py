"""JSON wire formats.

Complex numbers are always two-element ``[re, im]`` arrays, matrices
are row-major nested lists of those pairs, never strings. Every
encoder/decoder pair round-trips exactly (floats survive via repr).

A report's JSON is its dataclass: :func:`report_to_json` writes every
report the CLI emits as the object of its fields, keyed by the field
names, so a field is named in one place. Two reports keep an explicit
mapper, :func:`characterization_to_json` and :func:`certificate_to_json`.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np

from .algebra import AlgebraSpec, Element
from .errors import NumericOverflowError, ShapeMismatchError, quote_json
from .functionals import CharacterizationReport, Functional


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(data) -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ShapeMismatchError(f"expected [re, im] pair, got {quote_json(data)}")
    try:
        return complex(float(data[0]), float(data[1]))
    except (TypeError, ValueError) as exc:
        raise ShapeMismatchError(
            f"expected numeric [re, im] pair, got {quote_json(data)}"
        ) from exc
    except OverflowError:
        raise NumericOverflowError(
            f"[re, im] pair {quote_json(data)} overflows the double range"
        ) from None


def matrix_to_json(m: np.ndarray) -> list:
    # a complex entry is an (re, im) pair of doubles: view it, copy nothing
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def matrix_from_json(data) -> np.ndarray:
    if not isinstance(data, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and len(row) == len(data[0]) for row in data
    ):
        raise ShapeMismatchError("expected a matrix: a list of rows of equal length")
    return np.array(
        [[complex_from_json(entry) for entry in row] for row in data],
        dtype=complex,
    )


def vector_from_json(data) -> np.ndarray:
    if not isinstance(data, (list, tuple)):
        raise ShapeMismatchError(
            f"expected a vector of [re, im] pairs, got {quote_json(data)}"
        )
    return np.array([complex_from_json(z) for z in data], dtype=complex)


def spec_from_json(data) -> AlgebraSpec:
    sizes = data.get("block_sizes") if isinstance(data, dict) else None
    if not isinstance(sizes, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) for n in sizes
    ):
        raise ShapeMismatchError(
            'algebra JSON needs a "block_sizes" field holding a list of integers'
        )
    return AlgebraSpec(tuple(sizes))


def element_to_json(a: Element) -> dict:
    return {"blocks": [matrix_to_json(b) for b in a.blocks]}


def _blocks_from_json(data, field: str, kind: str):
    """The layout and the list of matrices held in ``data[field]``: the
    matrices fix the layout, one block per matrix."""
    if not isinstance(data, dict) or not isinstance(data.get(field), list):
        raise ShapeMismatchError(
            f'{kind} JSON needs a "{field}" field holding a list of matrices'
        )
    mats = [matrix_from_json(m) for m in data[field]]
    return AlgebraSpec(tuple(m.shape[0] for m in mats)), mats


def element_from_json(data) -> Element:
    return Element(*_blocks_from_json(data, "blocks", "element"))


def functional_to_json(f: Functional) -> dict:
    return {"weights": [matrix_to_json(w) for w in f.weights]}


def functional_from_json(data) -> Functional:
    return Functional(*_blocks_from_json(data, "weights", "functional"))


def report_to_json(value):
    """The JSON payload of a report: a dataclass or ``NamedTuple`` is the
    object of its fields, keyed by the field names, and the walk goes on
    into each field. An element is ``{"blocks": ...}``, a functional
    ``{"weights": ...}``, a complex an ``[re, im]`` pair, an array its
    nested pairs, a tuple or list a list, a frozenset a sorted list, and
    dict keys become strings. A characterization nested in a report (the
    verification counterexample) is ``{"functional", "characterization"}``.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, complex):
        return complex_to_json(value)
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if isinstance(value, Element):
        return element_to_json(value)
    if isinstance(value, Functional):
        return functional_to_json(value)
    if isinstance(value, CharacterizationReport):
        return {
            "functional": functional_to_json(value.functional),
            "characterization": characterization_to_json(value),
        }
    if is_dataclass(value):
        return {f.name: report_to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a NamedTuple
        return {name: report_to_json(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [report_to_json(v) for v in value]
    if isinstance(value, frozenset):
        return [report_to_json(v) for v in sorted(value)]
    if isinstance(value, dict):
        return {str(k): report_to_json(v) for k, v in value.items()}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# An explicit mapper, not the walk: the JSON derives ``is_scalar_trace``
# and ``bounded``, and names each verdict by the condition it decides.
def characterization_to_json(rep: CharacterizationReport) -> dict:
    constancy = rep.rank_one_constancy
    witnesses = constancy.witnesses
    return {
        "is_scalar_trace": rep.is_scalar_trace,
        "scalar_trace_coefficient": report_to_json(rep.scalar_trace_coefficient),
        "is_tracial": rep.tracial,
        "tracial_witness_pair": report_to_json(rep.tracial_pair),
        "spectral_bound": {
            "bounded": rep.bound.constant is not None,
            **report_to_json(rep.bound),
        },
        "vanishes_on_nilpotents": report_to_json(rep.nilpotent),
        "vanishes_on_square_zero": report_to_json(rep.square_zero),
        "constant_on_rank_one_projections": {
            "constant": constancy.constant,
            "value": report_to_json(constancy.value),
            "witness_pair": (
                None
                if witnesses is None
                else [
                    {"projection": element_to_json(p), "value": complex_to_json(v)}
                    for p, v in witnesses
                ]
            ),
        },
    }


# An explicit mapper, not the walk: a certificate holds up to n^2 - 1
# terms, and this loop writes them several times faster than the walk.
def certificate_to_json(cert) -> dict:
    def unit(u) -> dict:
        return {"block": u.block, "row": u.row, "col": u.col}

    return {
        "block": cert.block,
        "block_size": cert.block_size,
        "terms": [
            {
                "c": complex_to_json(c),
                "left": unit(left),
                "right": unit(right),
            }
            for c, left, right in cert.terms
        ],
        "target": matrix_to_json(cert.target),
        "reconstruction_defect": cert.reconstruction_defect,
    }
