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


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_details_are_the_named_fields(cls):
    values = [complex(1.5 + k, -2.0) for k in range(len(cls.fields))]
    exc = cls(*values) if cls.fields else cls("message")
    assert list(exc.details()) == list(cls.fields)
    assert [getattr(exc, name) for name in cls.fields] == values
    assert list(exc.details().values()) == [[1.5 + k, -2.0] for k in range(len(values))]
    json.dumps(exc.details(), allow_nan=False)  # strict JSON: no non-finite float
    # no class stores or names its fields apart from its declaration
    own = cls in (errors.SocleLabError, errors.TheoremViolationError)
    assert ("__init__" in vars(cls)) == own


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
