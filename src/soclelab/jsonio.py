"""JSON wire formats.

Complex numbers are always two-element ``[re, im]`` arrays, matrices
are row-major nested lists of those pairs, never strings. Every
encoder/decoder pair round-trips exactly (floats survive via repr).
Report serializers for every dataclass the CLI can emit live at the
bottom of the module, after ``dumps``, which writes a report's text.
"""

from __future__ import annotations

import math
import reprlib
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import AlgebraSpec, Element, SpectrumReport
from .errors import NumericOverflowError, ShapeMismatchError


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(data) -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ShapeMismatchError(f"expected [re, im] pair, got {reprlib.repr(data)}")
    try:
        return complex(float(data[0]), float(data[1]))
    except (TypeError, ValueError) as exc:
        raise ShapeMismatchError(
            f"expected numeric [re, im] pair, got {reprlib.repr(data)}"
        ) from exc
    except OverflowError:
        raise NumericOverflowError(
            f"[re, im] pair {reprlib.repr(data)} overflows the double range"
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


def vector_to_json(v: np.ndarray) -> list:
    return matrix_to_json(v)


def vector_from_json(data) -> np.ndarray:
    if not isinstance(data, (list, tuple)):
        raise ShapeMismatchError(
            f"expected a vector of [re, im] pairs, got {reprlib.repr(data)}"
        )
    return np.array([complex_from_json(z) for z in data], dtype=complex)


def spec_to_json(spec: AlgebraSpec) -> dict:
    return {"block_sizes": list(spec.block_sizes)}


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


def functional_to_json(f) -> dict:
    return {"weights": [matrix_to_json(w) for w in f.weights]}


def functional_from_json(data):
    from .functionals import Functional

    return Functional(*_blocks_from_json(data, "weights", "functional"))


_INDENT = "  "


def dumps(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``.

    The same bytes, and the same exception where that call raises one,
    for any payload without reference cycles. With an ``indent`` the
    standard library falls back to its pure-Python encoder; here a
    regular nested list of floats (a ``[re, im]`` pair, a matrix, a list
    of matrices) is written by one ``%``-template built from its shape
    and filled with ``float.__repr__``, and everything else by a walk
    that follows ``json.encoder``'s rules.
    """
    return _encode(payload, 0)


def _encode(o, level: int) -> str:
    """The text of ``o`` with its opening line at indent ``level``."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        text = _float_block(o, level)
        if text is None:
            text = _join("[", [_encode(x, level + 1) for x in o], "]", level)
        return text
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [
            encode_basestring_ascii(_key(k)) + ": " + _encode(v, level + 1)
            for k, v in sorted(o.items())
        ]
        return _join("{", items, "}", level)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _join(opening: str, items: list[str], closing: str, level: int) -> str:
    inner = "\n" + _INDENT * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + _INDENT * level + closing


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(x))


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _float_block(lst, level: int) -> str | None:
    """The text of a regular nested list of floats, or None for any other list.

    Regular: every list at one depth is a nonempty ``list`` of the same
    length, and every leaf is a ``float`` (an int, a bool or a float
    subclass among them sends the list down the generic walk).
    """
    if type(lst) is not list:
        return None
    shape = [len(lst)]
    flat = lst
    while type(flat[0]) is list:
        size = len(flat[0])
        if not size or set(map(type, flat)) != {list} or set(map(len, flat)) != {size}:
            return None
        shape.append(size)
        flat = list(chain.from_iterable(flat))
    if set(map(type, flat)) != {float}:
        return None
    if not math.isfinite(sum(flat)):
        for x in flat:
            _float(x)  # raises at the first non-finite leaf, as json.dumps does
    text = "%s"
    for depth in reversed(range(len(shape))):
        text = _join("[", [text] * shape[depth], "]", level + depth)
    return text % tuple(map(float.__repr__, flat))


def spectrum_report_to_json(rep: SpectrumReport) -> dict:
    return {
        "points": [
            {"value": complex_to_json(v), "multiplicity": m} for v, m in rep.points
        ],
        "cluster_tolerance": rep.cluster_tolerance,
        "contains_zero": rep.contains_zero,
    }


def rank_report_to_json(rep) -> dict:
    return {
        "rank": rep.rank,
        "oracle_rank": rep.oracle_rank,
        "probes_used": rep.probes_used,
        "achieved_counts": {str(k): v for k, v in rep.achieved_counts.items()},
        "best_probe": element_to_json(rep.best_probe),
    }


def riesz_report_to_json(rep) -> dict:
    return {
        "projection": element_to_json(rep.projection),
        "centers": [complex_to_json(c) for c in rep.centers],
        "radii": list(rep.radii),
        "nodes": rep.nodes,
        "idempotency_defect": rep.idempotency_defect,
        "multiplicity": rep.multiplicity,
        "range_residual": rep.range_residual,
    }


def diagonalization_to_json(d) -> dict:
    return {
        "values": [complex_to_json(v) for v in d.values],
        "projections": [element_to_json(p) for p in d.projections],
        "residual": d.residual,
    }


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


def _field(data, key: str, kind: str):
    if not isinstance(data, dict) or key not in data:
        raise ShapeMismatchError(f'{kind} JSON needs a "{key}" field')
    return data[key]


def certificate_from_json(data):
    from .commutators import CommutatorCertificate, MatrixUnit

    def unit(term, side: str) -> MatrixUnit:
        u = _field(term, side, "certificate term")
        return MatrixUnit(*(_field(u, k, "matrix unit") for k in ("block", "row", "col")))

    raw_terms = _field(data, "terms", "certificate")
    if not isinstance(raw_terms, list):
        raise ShapeMismatchError('certificate "terms" must be a list')
    terms = tuple(
        (
            complex_from_json(_field(t, "c", "certificate term")),
            unit(t, "left"),
            unit(t, "right"),
        )
        for t in raw_terms
    )
    return CommutatorCertificate(
        block=int(_field(data, "block", "certificate")),
        block_size=int(_field(data, "block_size", "certificate")),
        terms=terms,
        target=matrix_from_json(_field(data, "target", "certificate")),
        reconstruction_defect=float(_field(data, "reconstruction_defect", "certificate")),
    )


def rank_one_pair_to_json(pair) -> dict:
    return {
        "x": vector_to_json(pair.x),
        "f": vector_to_json(pair.f),
        "y": vector_to_json(pair.y),
        "g": vector_to_json(pair.g),
        "P": matrix_to_json(pair.P),
        "Q": matrix_to_json(pair.Q),
        "S": matrix_to_json(pair.S),
        "T": matrix_to_json(pair.T),
        "defect": pair.defect,
    }


def _maybe_complex(z) -> list[float] | None:
    return None if z is None else complex_to_json(z)


def _maybe_element(e) -> dict | None:
    return None if e is None else element_to_json(e)


def characterization_to_json(rep) -> dict:
    pair = rep.tracial_pair
    witnesses = rep.rank_one_constancy.witnesses
    return {
        "is_scalar_trace": rep.is_scalar_trace,
        "scalar_trace_coefficient": _maybe_complex(rep.scalar_trace_coefficient),
        "is_tracial": rep.tracial,
        "tracial_witness_pair": (
            None if pair is None else [element_to_json(pair[0]), element_to_json(pair[1])]
        ),
        "spectral_bound": {
            "bounded": rep.bound.constant is not None,
            "constant": rep.bound.constant,
            "witness": _maybe_element(rep.bound.witness),
            "witness_value": _maybe_complex(rep.bound.witness_value),
        },
        "vanishes_on_nilpotents": {
            "vanishes": rep.nilpotent.vanishes,
            "witness": _maybe_element(rep.nilpotent.witness),
            "witness_value": _maybe_complex(rep.nilpotent.witness_value),
        },
        "vanishes_on_square_zero": {
            "vanishes": rep.square_zero.vanishes,
            "witness": _maybe_element(rep.square_zero.witness),
            "witness_value": _maybe_complex(rep.square_zero.witness_value),
        },
        "constant_on_rank_one_projections": {
            "constant": rep.rank_one_constancy.constant,
            "value": _maybe_complex(rep.rank_one_constancy.value),
            "witness_pair": (
                None
                if witnesses is None
                else [
                    {
                        "projection": element_to_json(p),
                        "value": complex_to_json(v),
                    }
                    for p, v in witnesses
                ]
            ),
        },
    }


def ideal_report_to_json(rep) -> dict:
    return {
        "generator": element_to_json(rep.generator),
        "ideal_dimension": rep.ideal_dimension,
        "is_whole_algebra": rep.is_whole_algebra,
        "supported_blocks": sorted(rep.supported_blocks),
    }


def verification_report_to_json(rep) -> dict:
    return {
        "spec": spec_to_json(rep.spec),
        "trials": rep.trials,
        "seed": rep.seed,
        "socle_is_single_matrix_block": rep.socle_is_single_matrix_block,
        "socle_is_minimal_ideal": rep.socle_is_minimal_ideal,
        "functional_count": rep.functional_count,
        "verdicts": {
            name: {"claim": v.claim, "holds": v.holds, "details": v.details}
            for name, v in rep.verdicts.items()
        },
        "counterexample": (
            None
            if rep.counterexample is None
            else {
                "functional": functional_to_json(rep.counterexample.functional),
                "characterization": characterization_to_json(rep.counterexample),
            }
        ),
    }
