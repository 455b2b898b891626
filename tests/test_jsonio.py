import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import soclelab as sl
from soclelab import cli, jsonio
from soclelab.commutators import CommutatorCertificate, MatrixUnit
from soclelab.errors import NumericOverflowError, ShapeMismatchError, quote_json
from soclelab.sampling import random_element, random_traceless_matrix, rng_for


class TestRoundTrips:
    def test_complex_pairs(self):
        z = 1.25 - 3.5j
        assert jsonio.complex_from_json(jsonio.complex_to_json(z)) == z

    def test_element_exact(self, spec23):
        a = random_element(spec23, rng_for(181))
        data = json.loads(json.dumps(jsonio.element_to_json(a)))
        b = jsonio.element_from_json(data)
        assert a == b
        assert b.spec == spec23

    def test_spec(self, spec23):
        data = json.loads(json.dumps(jsonio.report_to_json(spec23)))
        assert jsonio.spec_from_json(data) == spec23

    def test_functional(self, spec23):
        f = sl.random_functional(spec23, rng_for(191))
        data = json.loads(json.dumps(jsonio.functional_to_json(f)))
        g = jsonio.functional_from_json(data)
        assert all(np.array_equal(x, y) for x, y in zip(f.weights, g.weights))

    def test_certificate(self):
        """The written certificate holds everything a reader needs to
        re-verify it from the unit indices alone."""
        m = random_traceless_matrix(3, rng_for(193))
        cert = sl.commutator_decompose(m)
        data = json.loads(json.dumps(jsonio.certificate_to_json(cert)))

        def unit(u):
            return MatrixUnit(u["block"], u["row"], u["col"])

        back = CommutatorCertificate(
            block=data["block"],
            block_size=data["block_size"],
            terms=tuple(
                (jsonio.complex_from_json(t["c"]), unit(t["left"]), unit(t["right"]))
                for t in data["terms"]
            ),
            target=jsonio.matrix_from_json(data["target"]),
            reconstruction_defect=data["reconstruction_defect"],
        )
        assert back.terms == cert.terms
        assert sl.verify_certificate(back) <= 1e-12

    def test_bad_payloads(self):
        with pytest.raises(ShapeMismatchError):
            jsonio.element_from_json({"rows": []})
        with pytest.raises(ShapeMismatchError):
            jsonio.complex_from_json([1.0])
        with pytest.raises(ShapeMismatchError):
            jsonio.spec_from_json({})


class TestReportSerialization:
    def test_spectrum_report(self, spec23):
        rep = sl.spectrum(random_element(spec23, rng_for(199)))
        data = jsonio.report_to_json(rep)
        assert len(data["points"]) == len(rep.points)
        assert data["points"][0] == {
            "value": jsonio.complex_to_json(rep.points[0].value),
            "multiplicity": rep.points[0].multiplicity,
        }
        json.dumps(data)

    def test_verification_report_serializes(self, spec22):
        rep = sl.verify_theorems(spec22, trials=3, seed=5)
        payload = jsonio.report_to_json(rep)
        text = json.dumps(payload, sort_keys=True)
        assert set(payload["counterexample"]) == {"functional", "characterization"}
        assert payload["counterexample"]["characterization"] == (
            jsonio.characterization_to_json(rep.counterexample)
        )
        assert json.loads(text)["socle_is_minimal_ideal"] is False

    def test_riesz_report_serializes(self):
        a = sl.Element(sl.AlgebraSpec((3,)), [np.diag([1.0, 2.0, 3.0])])
        rep = sl.riesz_projection(a, [2.0])
        payload = jsonio.report_to_json(rep)
        json.dumps(payload)
        assert payload["multiplicity"] == 1

    def test_walk_spells_each_value_type(self, spec23):
        a = random_element(spec23, rng_for(197))
        report = sl.IdealReport(
            generator=a,
            ideal_dimension=2,
            is_whole_algebra=False,
            supported_blocks=frozenset({1, 0}),
        )
        assert jsonio.report_to_json(report) == {
            "generator": jsonio.element_to_json(a),
            "ideal_dimension": 2,
            "is_whole_algebra": False,
            "supported_blocks": [0, 1],
        }
        assert jsonio.report_to_json({3: (1j, None), "x": [np.eye(1)]}) == {
            "3": [[0.0, 1.0], None],
            "x": [[[[1.0, 0.0]]]],
        }
        f = sl.trace_functional(spec23)
        assert jsonio.report_to_json([f]) == [jsonio.functional_to_json(f)]

    def test_walk_refuses_what_is_not_json(self):
        with pytest.raises(TypeError, match="set"):
            jsonio.report_to_json({"x": {1, 2}})


class TestQuoteJson:
    @pytest.mark.parametrize(
        "value, text",
        [
            (None, "null"),
            (True, "true"),
            ("x", '"x"'),
            ([1.5, None], "[1.5, null]"),
            (list(range(100000)), "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11..."),
            (1j, "1j"),
        ],
    )
    def test_offending_value_is_bounded_json_text(self, value, text):
        assert quote_json(value) == text


def _reference_matrix_to_json(m):
    """The per-entry encoder that ``matrix_to_json`` must reproduce."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _reference_vector_to_json(v):
    return [jsonio.complex_to_json(z) for z in np.asarray(v, dtype=complex)]


_SHAPES = st.tuples(st.integers(0, 5), st.integers(0, 5))
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308])


class TestMatrixEncoder:
    @settings(max_examples=100, deadline=None)
    @given(
        re=arrays(float, _SHAPES, elements=_FLOATS),
        data=st.data(),
    )
    def test_bytes_equal_the_per_entry_encoder(self, re, data):
        im = data.draw(arrays(float, re.shape, elements=_FLOATS))
        m = np.empty(re.shape, dtype=complex)
        m.real, m.imag = re, im
        for new, ref in [
            (jsonio.matrix_to_json(m), _reference_matrix_to_json(m)),
            (jsonio.matrix_to_json(m.T), _reference_matrix_to_json(m.T)),
            (jsonio.matrix_to_json(m.ravel()), _reference_vector_to_json(m.ravel())),
        ]:
            assert repr(new) == repr(ref)
            assert json.dumps(new) == json.dumps(ref)


def outcome(encode, payload):
    """The text, or the type and message of the exception raised."""
    try:
        return encode(payload)
    except (TypeError, ValueError, NumericOverflowError) as exc:
        return type(exc), str(exc)


def reference_dumps(payload):
    """The standard library's compact text, keys sorted; a float beyond the
    double range (NaN or an infinity) is the CLI's typed error."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericOverflowError("a report value overflows the double range") from None


class _Real(float):
    def __repr__(self):
        return "not used by json"


class _Count(int):
    def __repr__(self):
        return "not used by json"


class TestDumps:
    """``cli._dumps``, the one writer of reports and errors, on payloads at
    the edges of JSON: subclasses, non-finite floats, keys that are not
    strings, text that must be escaped."""

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            [[]],
            [[], [1.0]],
            [[1.0, 2.0], [3.0]],
            [[1.0], [2]],
            [1.0, 1],
            [True, 1.0],
            [[1.0, 2.0], (3.0, 4.0)],
            ([1.0, 2.0], [3.0, 4.0]),
            [[1e308, 1e308], [1e308, 1e308]],
            [[1.0, float("nan")], [float("inf"), 2.0]],
            {"a": [1.0, float("-inf")], "b": object()},
            {"b": object(), "a": [1.0, float("-inf")]},
            [_Real(1.5), 2.5],
            [_Count(3), np.float64(0.1)],
            [np.int64(3)],
            {"é\u0000 ": "\ud800\x7f"},
            {1: "int", 2.5: "float"},
            {True: 1, None: 2},
            {float("nan"): 1},
            {1: 1, "a": 2},
            {(1, 2): 1},
            "top",
            -0.0,
            None,
        ],
    )
    def test_edge_cases_equal_json_dumps(self, payload):
        assert outcome(cli._dumps, payload) == outcome(reference_dumps, payload)
