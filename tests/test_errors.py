import inspect
import json
import math

import numpy as np
import pytest

from soclelab import errors

ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.SocleLabError)
]


def named_fields(cls) -> list[str]:
    """The parameters the constructor names, but ``message`` and ``witness``."""
    return [
        p.name
        for p in inspect.signature(cls.__init__).parameters.values()
        if p.kind is p.POSITIONAL_OR_KEYWORD and p.name not in ("self", "message", "witness")
    ]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_details_are_the_named_fields(cls):
    names = named_fields(cls)
    exc = cls(*[complex(1.5, -2.0)] * len(names)) if names else cls("message")
    assert list(exc.details()) == names
    assert all(value == [1.5, -2.0] for value in exc.details().values())
    json.dumps(exc.details(), allow_nan=False)  # strict JSON: no non-finite float


def test_details_write_each_value_by_one_rule():
    exc = errors.MultiplicityInconsistencyError(np.complex128(1 + 2j), [1, 2], None)
    assert exc.details() == {
        "target": [1.0, 2.0],
        "perturbation_count": [1, 2],
        "projection_rank": None,
    }
    exc = errors.SingularResolventError(complex(math.inf, 1.0), 1e308 + 0j, np.float64(math.nan))
    assert exc.details() == {"point": [None, 1.0], "eigenvalue": [1e308, 0.0], "distance": None}
    json.dumps(exc.details(), allow_nan=False)


def test_witness_is_no_field():
    exc = errors.TheoremViolationError("a claim", witness=object())
    assert exc.details() == {"claim": "a claim"}
