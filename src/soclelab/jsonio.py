"""JSON wire formats.

Complex numbers are always two-element ``[re, im]`` arrays, matrices
are row-major nested lists of those pairs, never strings. Every
encoder/decoder pair round-trips exactly (floats survive via repr).

A report's JSON is its dataclass: :func:`report_to_json` writes every
report the CLI emits as the object of its fields, keyed by the field
names, so a field is named in one place. One report keeps an explicit
mapper for speed, :func:`certificate_to_json`.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np

from .algebra import AlgebraSpec, Element
from .errors import NumericOverflowError, ShapeMismatchError, quote_json
from .functionals import Functional


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
    dict keys become strings.
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


# An explicit mapper, not the walk: a certificate holds up to n^2 - 1
# terms, and this loop writes them several times faster than the walk.
# Every unit is written with the certificate's block.
def certificate_to_json(cert) -> dict:
    block = cert.block
    return {
        "block": block,
        "block_size": cert.block_size,
        "terms": [
            {
                "c": complex_to_json(c),
                "left": {"block": block, "row": a, "col": b},
                "right": {"block": block, "row": r, "col": s},
            }
            for c, (a, b), (r, s) in zip(
                cert.coefficients.tolist(), cert.left.tolist(), cert.right.tolist()
            )
        ],
        "target": matrix_to_json(cert.target),
        "reconstruction_defect": cert.reconstruction_defect,
    }
