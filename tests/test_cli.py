import argparse
import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soclelab as sl
from soclelab import cli, jsonio
from soclelab.algebra import SpectralPoint
from soclelab.classify import CharacterizedFunctional, TheoremVerdict
from soclelab.cli import run
from soclelab.functionals import ProjectionValue
from soclelab.sampling import (
    complex_gaussian,
    random_element,
    random_low_rank_element,
    random_maximal_element,
    random_traceless_matrix,
    rng_for,
)

from conftest import dft_conjugated_jordan, single


def _reject_constant(token):
    raise ValueError(f"{token} is no JSON value")


def strict_loads(text):
    """``json.loads`` that rejects the ``NaN`` and ``Infinity`` tokens:
    every report and error the CLI writes is strict JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, strict_loads(out)


def invoke_stdin(capsys, argv, document):
    """``invoke`` with ``document`` as JSON on stdin; a RuntimeWarning
    raises, as every one does in this suite."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(document))
    try:
        code = run(argv)
    finally:
        sys.stdin = stdin
    return code, strict_loads(capsys.readouterr().out)


def diagonal(*values):
    """The document of one diagonal block with real ``values``."""
    n = len(values)
    return {"blocks": [[[[v if i == j else 0, 0] for j in range(n)] for i, v in enumerate(values)]]}


def write_input(tmp_path, payload, name="input.json"):
    """The path of a file holding ``payload`` as JSON; a ``str`` payload
    is written as it stands."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run_fresh(argv, stdin=None):
    """The CLI run in a fresh interpreter, on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    return subprocess.run(
        [sys.executable, "-m", "soclelab.cli", *argv],
        env=env, input=stdin, capture_output=True, text=True, timeout=120,
    )


DIAG_1_2 = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
# check-functional documents whose values overflow: a square-zero basis
# value, 1e308 + 1e308, and a rank-one projection value, W[0,0] + W[1,0]
SQUARE_ZERO_OVERFLOW = {"weights": [[[[1e308, 0], [1e308, 0]], [[-1e308, 0], [1e308, 0]]]]}
PROJECTION_OVERFLOW = {"weights": [[[[1e308, 0], [0, 0]], [[1e308, 0], [0, 0]]]]}
# diag(1.7e308, 1.7e308, -1.7e308): the last entry minus the mean overflows
DEVIATION_OVERFLOW = {
    "weights": [[[[1.7e308, 0], [0, 0], [0, 0]], [[0, 0], [1.7e308, 0], [0, 0]],
                 [[0, 0], [0, 0], [-1.7e308, 0]]]]
}
# finite blocks whose eigenvalues are not all finite: eigvals gives
# NaN + NaNi twice for the first, [inf, 1.4e276] for the second
NAN_EIGENVALUES = {"blocks": [[[[1.5e308, 1.5e308], [0, 0]], [[0, 0], [1, 0]]]]}
INF_EIGENVALUE = {"blocks": [[[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]]}


class TestCommands:
    def test_trace_command(self, tmp_path, capsys):
        a = sl.Element(sl.AlgebraSpec((3,)), [np.diag([1.0, 2.0, 3.0])])
        path = write_input(tmp_path, jsonio.element_to_json(a))
        code, out = invoke(capsys, "trace", "--input", path)
        assert code == 0
        assert out == {"spectral_trace": [6.0, 0.0], "classical_trace": [6.0, 0.0]}

    def test_spectrum_command(self, tmp_path, capsys):
        a = sl.Element(sl.AlgebraSpec((2, 3)), [np.diag([1.0, 2.0]), np.zeros((3, 3))])
        path = write_input(tmp_path, jsonio.element_to_json(a))
        code, out = invoke(capsys, "spectrum", "--input", path)
        assert code == 0
        assert out["contains_zero"] is True
        assert {tuple(p["value"]): p["multiplicity"] for p in out["points"]} == {
            (2.0, 0.0): 1,
            (1.0, 0.0): 1,
            (0.0, 0.0): 3,
        }

    def test_rank_command(self, tmp_path, capsys):
        spec = sl.AlgebraSpec((2, 2))
        a = sl.matrix_unit(spec, 0, 0, 0) + sl.identity(spec) @ sl.zero(spec)
        a = a + sl.matrix_unit(spec, 1, 0, 0) + sl.matrix_unit(spec, 1, 1, 1)
        path = write_input(tmp_path, jsonio.element_to_json(a))
        code, out = invoke(capsys, "rank", "--input", path, "--probes", "16")
        assert code == 0
        assert out["rank"] == 3 == out["oracle_rank"]

    def test_riesz_command(self, tmp_path, capsys):
        a = sl.Element(sl.AlgebraSpec((3,)), [np.diag([3.0, 1.0, 1.0])])
        payload = {"element": jsonio.element_to_json(a), "targets": [[3.0, 0.0]]}
        path = write_input(tmp_path, payload)
        code, out = invoke(capsys, "riesz", "--input", path)
        assert code == 0
        assert out["multiplicity"] == 1
        assert out["idempotency_defect"] < 1e-9

    def test_diagonalize_command(self, tmp_path, capsys):
        a = sl.Element(sl.AlgebraSpec((2,)), [[[1.0, 1.0], [0.0, 2.0]]])
        path = write_input(tmp_path, jsonio.element_to_json(a))
        code, out = invoke(capsys, "diagonalize", "--input", path)
        assert code == 0
        assert out["residual"] < 1e-9
        assert len(out["values"]) == 2

    def test_commutator_command(self, tmp_path, capsys):
        payload = {"matrix": jsonio.matrix_to_json(np.diag([1.0, -1.0]))}
        path = write_input(tmp_path, payload)
        code, out = invoke(capsys, "commutator", "--input", path)
        assert code == 0
        assert out["reconstruction_defect"] <= 1e-12
        assert out["terms"] == [
            {
                "c": [1.0, 0.0],
                "left": {"block": 0, "row": 0, "col": 1},
                "right": {"block": 0, "row": 1, "col": 0},
            }
        ]

    def test_commutator_rejects_trace(self, tmp_path, capsys):
        payload = {"matrix": jsonio.matrix_to_json(np.eye(2))}
        path = write_input(tmp_path, payload)
        code, out = invoke(capsys, "commutator", "--input", path)
        assert code == 1
        assert out["error"]["type"] == "NotTracelessError"
        assert "trace" in out["error"]["message"]

    def test_rank_one_commutator_command(self, tmp_path, capsys):
        payload = {
            "x": [[1.0, 0.0], [0.0, 0.0]],
            "f": [[1.0, 0.0], [0.0, 0.0]],
            "y": [[0.0, 0.0], [1.0, 0.0]],
            "g": [[0.0, 0.0], [1.0, 0.0]],
        }
        path = write_input(tmp_path, payload)
        code, out = invoke(capsys, "rank-one-commutator", "--input", path)
        assert code == 0
        assert out["defect"] <= 1e-12

    def test_check_functional_command(self, tmp_path, capsys):
        f = sl.counterexample_functional(sl.AlgebraSpec((2, 2)))
        path = write_input(tmp_path, jsonio.functional_to_json(f))
        code, out = invoke(capsys, "check-functional", "--input", path)
        assert code == 0
        assert out["is_tracial"] is True
        assert out["is_scalar_trace"] is False
        assert out["constant_on_rank_one_projections"]["constant"] is False

    def test_classify_command(self, capsys):
        code, out = invoke(
            capsys, "classify", "--spec", '{"block_sizes": [2, 3]}'
        )
        assert code == 0
        assert out["socle_is_minimal_ideal"] is False
        assert [r["ideal_dimension"] for r in out["block_ideals"]] == [4, 9]

    def test_verify_command_two_blocks(self, capsys):
        code, out = invoke(
            capsys,
            "verify",
            "--spec",
            '{"block_sizes": [2, 2]}',
            "--trials",
            "5",
            "--seed",
            "7",
        )
        assert code == 0
        assert out["socle_is_minimal_ideal"] is False
        cx = out["counterexample"]
        assert cx["characterization"]["is_tracial"] is True
        assert cx["characterization"]["is_scalar_trace"] is False

    def test_verify_violation_is_a_json_error(self, capsys, monkeypatch):
        # a report whose tracial verdict is flipped breaks the prediction
        real = sl.classify._characterize_stack

        def flipped(fs, seed):
            return [dataclasses.replace(rep, is_tracial=not rep.is_tracial) for rep in real(fs, seed)]

        monkeypatch.setattr(sl.classify, "_characterize_stack", flipped)
        code, out = invoke(capsys, "verify", "--spec", '{"block_sizes": [2]}', "--trials", "2")
        assert code == 2
        assert out["error"]["type"] == "TheoremViolationError"
        assert out["error"]["details"]["claim"] in out["error"]["message"]


class TestCLIBehavior:
    def test_deterministic_output(self, tmp_path, capsys):
        a = random_element(sl.AlgebraSpec((2, 2)), rng_for(211))
        path = write_input(tmp_path, jsonio.element_to_json(a))
        code1 = run(["rank", "--input", path, "--probes", "8", "--seed", "3"])
        first = capsys.readouterr().out
        code2 = run(["rank", "--input", path, "--probes", "8", "--seed", "3"])
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second

    def test_output_file(self, tmp_path):
        a = sl.identity(sl.AlgebraSpec((2,)))
        path = write_input(tmp_path, jsonio.element_to_json(a))
        out_path = tmp_path / "report.json"
        code = run(["spectrum", "--input", path, "--output", str(out_path)])
        assert code == 0
        data = strict_loads(out_path.read_text())
        assert data["points"][0]["multiplicity"] == 2

    def test_emitted_element_reparses(self, tmp_path, capsys):
        a = random_element(sl.AlgebraSpec((2, 2)), rng_for(223))
        path = write_input(tmp_path, jsonio.element_to_json(a))
        code, out = invoke(capsys, "rank", "--input", path, "--probes", "4")
        assert code == 0
        probe = jsonio.element_from_json(out["best_probe"])
        assert probe.spec == a.spec

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"blocks": [[[')
        code, out = invoke(capsys, "spectrum", "--input", str(path))
        assert code == 1
        assert "line 1" in out["error"]["message"]

    def test_schema_mismatch_diagnostic(self, tmp_path, capsys):
        path = write_input(tmp_path, {"wrong": 1})
        code, out = invoke(capsys, "spectrum", "--input", str(path))
        assert code == 1
        assert "blocks" in out["error"]["message"]

    def test_spec_flag_accepts_file(self, tmp_path, capsys):
        spec_path = write_input(tmp_path, {"block_sizes": [2, 3]}, name="spec.json")
        code, out = invoke(capsys, "classify", "--spec", spec_path)
        assert code == 0
        assert out["spec"] == {"block_sizes": [2, 3]}

    def test_riesz_schema_error(self, tmp_path, capsys):
        path = write_input(tmp_path, {"element": {"blocks": [[[[1.0, 0.0]]]]}})
        code, out = invoke(capsys, "riesz", "--input", str(path))
        assert code == 1
        assert "targets" in out["error"]["message"]

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        a = sl.identity(sl.AlgebraSpec((2,)))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(jsonio.element_to_json(a)))
        )
        code, out = invoke(capsys, "trace")
        assert code == 0
        assert out["classical_trace"] == [2.0, 0.0]

    @pytest.mark.parametrize(
        "command, document",
        [
            ("spectrum", {"blocks": 5}),
            ("spectrum", {"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]]}),
            ("spectrum", {"blocks": [[[["a", 0.0]]]]}),
            ("spectrum", 5),
            ("check-functional", {"weights": 5}),
            ("rank-one-commutator", {"x": 5, "f": [], "y": [], "g": []}),
            # entries this large overflow the contour solves into NaN
            (
                "trace",
                {
                    "blocks": [
                        [[[1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [-1e308, 0.0]]]
                    ]
                },
            ),
            # a square-zero basis value overflows the double range
            ("check-functional", SQUARE_ZERO_OVERFLOW),
            ("riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": []}),
            # both targets snap to the spectral value 1
            ("riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": [[1, 0], [1, 0]]}),
            ("commutator", {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "block": "x"}),
            ("commutator", {"matrix": [[[1, 0], [0, 0]]]}),
            ("rank-one-commutator", {"x": [[1, 0]], "f": [[1, 0], [0, 0]], "y": [[1, 0]], "g": [[1, 0]]}),
            # the trace, 3.4e308, overflows the double range
            ("commutator", {"matrix": [[[1.7e308, 0], [0, 0]], [[0, 0], [1.7e308, 0]]]}),
            # a rank-one projection value overflows the double range
            ("check-functional", PROJECTION_OVERFLOW),
            # a JSON integer beyond the double range
            ("spectrum", {"blocks": [[[[10**400, 0]]]]}),
            ("rank-one-commutator", {"x": [[10**400, 0]], "f": [[1, 0]], "y": [[1, 0]], "g": [[1, 0]]}),
            # targets must be a vector of [re, im] pairs
            ("riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": 5}),
            ("riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": None}),
            # documents are bare: no element or functional wrapper
            ("spectrum", {"element": {"blocks": [DIAG_1_2]}}),
            ("check-functional", {"functional": {"weights": [DIAG_1_2]}}),
            # an integer beyond the 4300 digits that int() converts
            pytest.param(
                "spectrum", '{"blocks": [[[[1' + "0" * 5000 + ", 0]]]]}",
                id="spectrum-long-integer",
            ),
            # a probe product x*a overflows the double range
            pytest.param(
                "rank",
                {"blocks": [[[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]]]},
                id="rank-overflowing-probe-product",
            ),
        ],
    )
    def test_bad_input_is_a_json_error(self, tmp_path, capsys, command, document):
        path = write_input(tmp_path, document)
        code, out = invoke(capsys, command, "--input", path)
        assert code == 1
        assert set(out) == {"error"}
        assert out["error"]["type"] in {
            "ShapeMismatchError",
            "SVDConvergenceError",
            "NumericOverflowError",
        }

    @pytest.mark.parametrize(
        "case, error",
        [
            ("missing input", "UsageError"),
            ("directory input", "UsageError"),
            ("missing spec", "UsageError"),
            ("undecodable input", "ShapeMismatchError"),
            ("deeply nested stdin", "ShapeMismatchError"),
            ("unwritable output", "UsageError"),
            # the probe stack is beyond numpy's largest array
            ("huge probe count", "ShapeMismatchError"),
        ],
    )
    def test_file_error_is_a_json_error(self, tmp_path, case, error):
        good = write_input(tmp_path, {"blocks": [DIAG_1_2]})
        missing = str(tmp_path / "missing.json")
        undecodable = str(tmp_path / "undecodable.json")
        Path(undecodable).write_bytes(b"\xff\xfe")
        unwritable = str(tmp_path / "missing" / "out.json")
        # the arguments, stdin, and the path or value the message names
        argv, stdin, path = {
            "missing input": (["spectrum", "--input", missing], None, missing),
            "directory input": (["spectrum", "--input", str(tmp_path)], None, str(tmp_path)),
            "missing spec": (["classify", "--spec", missing], None, missing),
            "undecodable input": (["spectrum", "--input", undecodable], None, undecodable),
            "deeply nested stdin": (["spectrum"], "[" * 200000 + "]" * 200000, "stdin"),
            "unwritable output": (
                ["spectrum", "--input", good, "--output", unwritable], None, unwritable
            ),
            "huge probe count": (
                ["rank", "--input", good, "--probes", str(10**20)], None, str(10**20)
            ),
        }[case]
        proc = run_fresh(argv, stdin=stdin)
        assert proc.returncode == 1
        assert proc.stderr == ""
        out = strict_loads(proc.stdout)
        assert set(out) == {"error"}
        assert out["error"]["type"] == error
        assert path in out["error"]["message"]

    @pytest.mark.parametrize(
        "command, document",
        [
            # a 589 KB entry where an [re, im] pair belongs
            ("spectrum", {"blocks": [[[list(range(100000))]]]}),
            # a 589 KB "block" where an index belongs
            ("commutator", {"matrix": [[[0, 0]]], "block": list(range(100000))}),
            ("riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": None}),
            ("commutator", {"matrix": [[[0, 0]]], "block": True}),
        ],
    )
    def test_shape_error_echoes_a_bounded_value(self, tmp_path, command, document):
        path = write_input(tmp_path, document)
        proc = run_fresh([command, "--input", path])
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert len(proc.stdout.encode()) < 1024
        out = strict_loads(proc.stdout)
        assert out["error"]["type"] == "ShapeMismatchError"
        # the value is echoed as its JSON text, not as a Python repr
        message = out["error"]["message"]
        assert not re.search(r"\b(None|True|False)\b|'", message)
        if "targets" in document:
            assert message.endswith("got null")
        if document.get("block") is True:
            assert message.endswith("got true")

    def test_bad_spec_is_a_json_error(self, capsys):
        code, out = invoke(capsys, "classify", "--spec", '{"block_sizes": 3}')
        assert code == 1
        assert out["error"]["type"] == "ShapeMismatchError"
        assert "block_sizes" in out["error"]["message"]


def scalar_weights(alpha, n):
    """Check-functional document of alpha * Tr on one n x n block."""
    rows = [[[alpha if i == j else 0, 0] for j in range(n)] for i in range(n)]
    return {"weights": [rows]}


@functools.cache
def _report_cases():
    """(argv, input document or None) for each of the ten commands."""
    rng = rng_for(229)
    a = random_element(sl.AlgebraSpec((2, 3)), rng)
    element = jsonio.element_to_json(a)
    vectors = {k: jsonio.matrix_to_json(rng.standard_normal(3) + 1j) for k in "xfyg"}
    return {
        "spectrum": (["spectrum"], element),
        "rank": (["rank", "--probes", "8", "--seed", "3"], element),
        "trace": (["trace", "--seed", "2"], element),
        "riesz": (
            ["riesz"],
            {"element": jsonio.element_to_json(single(np.diag([3.0, 1.0, 1.0]))),
             "targets": [[1.0, 0.0]]},
        ),
        "diagonalize": (["diagonalize"], element),
        "commutator": (
            ["commutator"],
            {"matrix": jsonio.matrix_to_json(random_traceless_matrix(4, rng)), "block": 1},
        ),
        "rank-one-commutator": (["rank-one-commutator"], vectors),
        "check-functional": (
            ["check-functional", "--seed", "5"],
            jsonio.functional_to_json(sl.random_functional(sl.AlgebraSpec((2, 2)), rng)),
        ),
        "classify": (["classify", "--spec", '{"block_sizes": [2, 1]}', "--seed", "4"], None),
        "verify": (["verify", "--spec", '{"block_sizes": [2, 2]}', "--trials", "3"], None),
    }


def compact(payload) -> str:
    """The reference text of a report or an error: one line, keys sorted."""
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


class TestReportBytes:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_report_is_the_json_dumps_reference(self, tmp_path, capsys, command):
        argv, document = _report_cases()[command]
        if document is not None:
            argv = argv + ["--input", write_input(tmp_path, document)]
        payload = cli._COMMANDS[command][0](cli.build_parser().parse_args(argv))
        code = run(argv)
        assert (code, capsys.readouterr().out) == (0, compact(payload))

    @pytest.mark.parametrize(
        "command, field, count", [("commutator", "terms", 255), ("diagonalize", "projections", 16)]
    )
    def test_hundreds_of_records_are_the_json_dumps_reference(
        self, tmp_path, capsys, command, field, count
    ):
        """A 16 x 16 certificate of 255 terms, and the 16 projections of a
        maximal element on (8, 8): many records with the same fields."""
        rng = rng_for(233)
        if command == "commutator":
            document = {"matrix": jsonio.matrix_to_json(random_traceless_matrix(16, rng))}
        else:
            document = jsonio.element_to_json(random_element(sl.AlgebraSpec((8, 8)), rng))
        argv = [command, "--input", write_input(tmp_path, document)]
        payload = cli._COMMANDS[command][0](cli.build_parser().parse_args(argv))
        assert len(payload[field]) == count
        code = run(argv)
        assert (code, capsys.readouterr().out) == (0, compact(payload))

    @pytest.mark.parametrize("command", list(cli._COMMANDS) + ["error"])
    def test_output_is_one_line_of_sorted_json(self, tmp_path, capsys, command):
        if command == "error":  # a typed error: 5 is no spectral value of diag(1, 2)
            argv, document = ["riesz"], {"element": {"blocks": [DIAG_1_2]}, "targets": [[5, 0]]}
        else:
            argv, document = _report_cases()[command]
        if document is not None:
            argv = argv + ["--input", write_input(tmp_path, document)]
        code = run(argv)
        out = capsys.readouterr().out
        assert code == (1 if command == "error" else 0)
        assert out.count("\n") == 1
        assert out == json.dumps(strict_loads(out), sort_keys=True) + "\n"


class TestRankReportBytes:
    """A ``rank`` report holds only integer counts and the probe drawn
    from the seed's stream, so its bytes are the same on every platform:
    a change to the probe path that moves one of them fails here."""

    @pytest.mark.parametrize(
        "seed, sizes, ranks, flags, digest",
        [
            (0, (2, 3), None, [],
             "9705d2e816a500981b6781efc0714bce5de58ab3ae498001658e99ebca702b6e"),
            (1, (3,), [2], ["--seed", "5", "--probes", "16"],
             "7e101942e22936d6a28c1ec4ee86889ba9028622a688e7b08c67a3053dad5787"),
            (2, (1, 1, 4), [1, 0, 2], ["--seed", "11"],
             "42ba89df25e9be4cf426d80cae7d267bcd5b3dbfe63fd29855026bf5dc3c4b46"),
            (3, (8,), [3], ["--seed", "2", "--probes", "40"],
             "f8f08615b3abf38013206d0470abd84eac0ec4fe7c5071bb579c6f31d2d5e72c"),
        ],
    )
    def test_report_digest(self, tmp_path, capsys, seed, sizes, ranks, flags, digest):
        spec = sl.AlgebraSpec(sizes)
        rng = rng_for(seed, 1 << 40)
        a = random_element(spec, rng) if ranks is None else random_low_rank_element(spec, rng, ranks)
        path = write_input(tmp_path, jsonio.element_to_json(a))
        assert run(["rank", "--input", path, *flags]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        # the digests were taken of the report indented by two spaces
        text = json.dumps(json.loads(out), sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# Written by an explicit mapper, not by the walk: the certificate's terms
# are written by a faster loop.
_EXPLICIT = {"commutator"}


def _schema_types(value, data) -> set:
    """Assert that the JSON ``data`` the walk wrote of ``value`` keys each
    dataclass and ``NamedTuple`` by its field names, at every depth; the
    types met."""
    if isinstance(value, (sl.Element, sl.Functional, np.ndarray, complex)):
        return set()
    if dataclasses.is_dataclass(value) or hasattr(value, "_fields"):
        names = getattr(value, "_fields", None) or [f.name for f in dataclasses.fields(value)]
        assert sorted(data) == sorted(names), type(value).__name__
        pairs = [(getattr(value, name), data[name]) for name in names]
        return {type(value)}.union(*(_schema_types(v, d) for v, d in pairs))
    if isinstance(value, dict):
        assert sorted(data) == sorted(map(str, value))
        return set().union(*(_schema_types(v, data[str(k)]) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return set().union(*(_schema_types(v, d) for v, d in zip(value, data)))
    return set()


class TestReportSchema:
    def test_report_keys_are_the_dataclass_fields(self, tmp_path, capsys, monkeypatch):
        """A report's JSON is its dataclass: renaming a field renames its
        key, in one place."""
        walked, walk = [], jsonio.report_to_json

        def record(value):
            walked.append(value)
            return walk(value)

        monkeypatch.setattr(jsonio, "report_to_json", record)
        met = set()
        for command, (argv, document) in _report_cases().items():
            if document is not None:
                argv = argv + ["--input", write_input(tmp_path, document)]
            walked.clear()
            assert run(argv) == 0
            data = strict_loads(capsys.readouterr().out)
            if command not in _EXPLICIT:
                met |= _schema_types(walked[0], data)
        assert met == {
            sl.AlgebraSpec,
            sl.CharacterizationReport,
            sl.ConstancyVerdict,
            sl.Diagonalization,
            sl.IdealReport,
            sl.RankOnePair,
            sl.RankReport,
            sl.RieszReport,
            sl.SpectralBoundResult,
            sl.SpectrumReport,
            SpectralPoint,
            TheoremVerdict,
            sl.VanishingVerdict,
            sl.VerificationReport,
            CharacterizedFunctional,
            ProjectionValue,
        }


def scalar_spread(sign):
    """A check-functional document on (1, 1, 1, 2): block scalars 1.7e308
    and twice sign * 1.7e308, whose sum (sign 1) or a gap to whose mean
    (sign -1) overflows, and a nilpotent 1e301 e_01 in the last block,
    so that it is not tracial."""
    scalars = [[[[v, 0]]] for v in (1.7e308, sign * 1.7e308, sign * 1.7e308)]
    return {"weights": scalars + [[[[0, 0], [1e301, 0]], [[0, 0], [0, 0]]]]}


def top_of_range_weights(exponent, sizes, seed):
    """A check-functional document of uniform weight entries in
    (-2**exponent, 2**exponent), drawn from ``rng_for(seed, 1 << 40)``."""
    rng = rng_for(seed, 1 << 40)
    weights = [(2.0**exponent * rng.uniform(-1, 1, (n, n, 2))).tolist() for n in sizes]
    return json.dumps({"weights": weights})


class TestOverflow:
    @pytest.mark.parametrize(
        "document, quantity",
        [
            # sum |alpha_i| n_i = 3e308
            (scalar_weights(1e308, 3), "spectral bound constant"),
            (SQUARE_ZERO_OVERFLOW, "square-zero value"),
            # finite entries whose operator norm is 3.4e308
            ({"weights": [[[[1.7e308, 0]] * 2] * 2]}, "weight operator norm"),
        ],
    )
    def test_overflow_is_a_named_json_error(self, tmp_path, capsys, document, quantity):
        path = write_input(tmp_path, document)
        code = run(["check-functional", "--input", path])
        text = capsys.readouterr().out
        assert code == 1
        assert "Infinity" not in text and "NaN" not in text
        error = strict_loads(text)["error"]
        assert error["type"] == "NumericOverflowError"
        assert quantity in error["message"] and "overflows" in error["message"]

    def test_overflowed_bound_constant_writes_no_warning(self, tmp_path):
        path = write_input(tmp_path, scalar_weights(1e308, 3))
        proc = run_fresh(["check-functional", "--input", path])
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert strict_loads(proc.stdout)["error"]["type"] == "NumericOverflowError"

    @pytest.mark.parametrize(
        "document, quantity",
        [
            (SQUARE_ZERO_OVERFLOW, "square-zero value"),
            (PROJECTION_OVERFLOW, "rank-one projection value"),
            (DEVIATION_OVERFLOW, "deviation from the block scalars"),
        ],
    )
    def test_overflowed_value_writes_no_warning(self, tmp_path, document, quantity):
        proc = run_fresh(["check-functional", "--input", write_input(tmp_path, document)])
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = strict_loads(proc.stdout)["error"]
        assert error["type"] == "NumericOverflowError"
        assert quantity in error["message"]

    def test_overflowed_spectrum_is_a_json_error(self, tmp_path, capsys):
        # clustering diag(1e308, 1e308) overflows its centroid to inf
        diag = [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]
        path = write_input(tmp_path, {"blocks": [diag]})
        with np.errstate(all="ignore"):
            code = run(["spectrum", "--input", path])
        text = capsys.readouterr().out
        assert code == 1
        assert "Infinity" not in text and "NaN" not in text
        assert strict_loads(text)["error"]["type"] == "NumericOverflowError"

    def test_diagonalize_at_the_top_of_the_range_writes_no_warning(self, capsys):
        # the values +-1e308 are 2e308 apart: an overflowed distance is
        # inf, farther than any merge radius, and must not warn (every
        # RuntimeWarning is an error in this suite)
        document = '{"blocks": [[[[1e308,0],[1,0]],[[0,0],[-1e308,0]]]]}'
        stdin, sys.stdin = sys.stdin, io.StringIO(document)
        try:
            code = run(["diagonalize"])
        finally:
            sys.stdin = stdin
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        report = strict_loads(captured.out)
        assert np.isfinite(report["residual"]) and report["residual"] < 1e-8
        assert sorted(v[0] for v in report["values"]) == [-1e308, 1e308]

    def test_large_scalar_trace_is_recognized(self, tmp_path, capsys):
        # the mean diagonal is summed as diagonal / n, so it cannot overflow
        path = write_input(tmp_path, scalar_weights(1e307, 3))
        code, out = invoke(capsys, "check-functional", "--input", path)
        assert code == 0
        assert out["scalar_trace_coefficient"][0] == pytest.approx(1e307, rel=1e-15)
        assert out["spectral_bound"]["constant"] == pytest.approx(3e307, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        exponent=st.integers(1000, 1023),
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        seed=st.integers(0, 2**32),
    )
    # moduli of values and gaps between them beyond the double range, in
    # a report that exits 0; a RuntimeWarning is an error in this suite
    @example(exponent=1023, sizes=[2], seed=0)
    @example(exponent=1023, sizes=[1, 2], seed=0)
    def test_reports_never_carry_non_finite_tokens(self, exponent, sizes, seed):
        stdin, sys.stdin = sys.stdin, io.StringIO(top_of_range_weights(exponent, sizes, seed))
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = run(["check-functional"])
        finally:
            sys.stdin = stdin
        text = out.getvalue()
        assert "Infinity" not in text and "NaN" not in text
        if code:
            assert (code, strict_loads(text)["error"]["type"]) == (1, "NumericOverflowError")

    @pytest.mark.parametrize(
        "document",
        [
            pytest.param(top_of_range_weights(1023, [2], 0), id="sizes-2"),
            pytest.param(top_of_range_weights(1023, [1, 2], 0), id="sizes-1-2"),
            pytest.param(json.dumps(scalar_spread(1)), id="scalar-sum"),
            pytest.param(json.dumps(scalar_spread(-1)), id="scalar-gap"),
        ],
    )
    def test_report_at_the_top_of_the_range_writes_no_warning(self, document):
        proc = run_fresh(["check-functional"], stdin=document)
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = strict_loads(proc.stdout)
        assert not report["is_tracial"] and not report["is_scalar_trace"]
        assert report["scalar_trace_coefficient"] is None

    @pytest.mark.parametrize(
        "command, document",
        [
            ("commutator", '{"matrix": [[[NaN,0],[1,0]],[[0,0],[0,0]]]}'),
            ("commutator", '{"matrix": [[[Infinity,0],[0,0]],[[0,0],[-Infinity,0]]]}'),
            (
                "rank-one-commutator",
                '{"x": [[1,0]], "f": [[NaN,0]], "y": [[1,0]], "g": [[1,0]]}',
            ),
        ],
    )
    def test_non_finite_commutator_input_is_a_typed_error(self, command, document):
        proc = run_fresh([command], stdin=document)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert strict_loads(proc.stdout)["error"]["type"] == "NonFiniteEntryError"

    def test_overflowing_commutator_trace_writes_no_warning(self):
        document = '{"matrix": [[[1.7e308,0],[0,0]],[[0,0],[1.7e308,0]]]}'
        proc = run_fresh(["commutator"], stdin=document)
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = strict_loads(proc.stdout)["error"]
        assert error["type"] == "NumericOverflowError"
        assert "trace" in error["message"]

    def test_overflowing_probe_product_writes_no_warning(self):
        document = '{"blocks": [[[[1e308,0],[1e308,0]],[[1e308,0],[-1e308,0]]]]}'
        proc = run_fresh(["rank"], stdin=document)
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = strict_loads(proc.stdout)["error"]
        assert error["type"] == "NumericOverflowError"
        assert "block 0" in error["message"]

    @pytest.mark.parametrize("command", ["spectrum", "trace", "riesz", "diagonalize"])
    @pytest.mark.parametrize("element", [NAN_EIGENVALUES, INF_EIGENVALUE], ids=["nan", "inf"])
    def test_non_finite_eigenvalues_write_no_warning(self, command, element):
        document = {"element": element, "targets": [[0, 0]]} if command == "riesz" else element
        proc = run_fresh([command], stdin=json.dumps(document))
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = strict_loads(proc.stdout)["error"]
        assert error["type"] == "NumericOverflowError"
        assert "block 0" in error["message"]

    def test_non_finite_report_value_is_a_typed_error(self):
        with pytest.raises(sl.errors.NumericOverflowError):
            cli._dumps({"value": float("inf")})


TOP_GAP = {"blocks": [[[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]]]}
TOP_NODES = {"blocks": [[[[1.797e308, 0], [0, 0]], [[0, 0], [1, 0]]]]}


class TestErrorDetails:
    """An error's details are its fields, written by the report writer."""

    @pytest.mark.parametrize(
        "kind, command, document",
        [
            ("NotMaximalError", "diagonalize", jsonio.element_to_json(single(np.eye(2)))),
            (
                "TargetNotInSpectrumError",
                "riesz",
                {"element": {"blocks": [DIAG_1_2]}, "targets": [[5, 0]]},
            ),
            (
                "SpectralGapError",
                "trace",
                jsonio.element_to_json(single(np.diag([1.0, 1.0 + 5e-6, 3.0]))),
            ),
            ("NotTracelessError", "commutator", {"matrix": [[[1, 0]]]}),
        ],
    )
    def test_error_is_the_json_dumps_reference(self, tmp_path, capsys, kind, command, document):
        argv = [command, "--input", write_input(tmp_path, document)]
        with pytest.raises(getattr(sl.errors, kind)) as info:
            cli._COMMANDS[command][0](cli.build_parser().parse_args(argv))
        exc = info.value
        assert exc.details()
        error = {"type": kind, "message": str(exc), "details": exc.details()}
        code = run(argv)
        assert (code, capsys.readouterr().out) == (1, compact({"error": error}))

    def test_an_infinite_distance_is_null(self, tmp_path, capsys):
        document = {"element": {"blocks": [[[[-1e308, 0]]]]}, "targets": [[1e308, 0]]}
        code, out = invoke(capsys, "riesz", "--input", write_input(tmp_path, document))
        assert code == 1
        assert out["error"]["type"] == "TargetNotInSpectrumError"
        assert out["error"]["details"] == {
            "target": [1e308, 0.0], "nearest": [-1e308, 0.0], "distance": None
        }

    def test_singular_contour_is_a_typed_error(self, tmp_path):
        # a node of a contour around the perturbed spectrum makes a shifted
        # block exactly singular in floating point
        document = jsonio.element_to_json(dft_conjugated_jordan(5))
        proc = run_fresh(["trace", "--input", write_input(tmp_path, document)])
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = strict_loads(proc.stdout)["error"]
        assert error["type"] == "ContourCollapseError"
        assert set(error["details"]) == {"center", "radius"}
        assert error["details"]["radius"] > 0

    @pytest.mark.parametrize(
        "command, document, message",
        [
            # values +-1.41e308: the gap between them, and so the radius, is inf
            pytest.param(
                "riesz",
                {"element": TOP_GAP, "targets": [[1.414213562373095e308, 0]]},
                "contour radius",
                id="riesz",
            ),
            pytest.param("trace", TOP_GAP, "contour radius", id="trace"),
            # diag(1.797e308, 1): the radius is finite, the nodes c + r*phase are not
            pytest.param(
                "trace",
                TOP_NODES,
                "the contour around (1.797e+308+0j) overflows",
                id="trace-contour-nodes",
            ),
            # the merge radius snaps 1 to 0, whose shifted blocks overflow
            pytest.param(
                "riesz",
                {"element": TOP_NODES, "targets": [[1, 0]]},
                "the contour around 0j overflows",
                id="riesz-contour-nodes",
            ),
        ],
    )
    def test_overflowing_contour_radius_is_a_typed_error(self, tmp_path, command, document, message):
        proc = run_fresh([command, "--input", write_input(tmp_path, document)])
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = strict_loads(proc.stdout)["error"]
        assert error["type"] == "NumericOverflowError"
        assert message in error["message"]

    def test_pairing_beyond_the_double_range_is_a_report(self):
        # f(x) = 1.5e308 - 1.5e308i: both parts are finite, its modulus is not
        document = '{"x": [[1.5, 1.5]], "f": [[0, -1e308]], "y": [[1, 0]], "g": [[1, 0]]}'
        proc = run_fresh(["rank-one-commutator"], stdin=document)
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = strict_loads(proc.stdout)
        np.testing.assert_allclose(report["f"], [[1 / 3, -1 / 3]], rtol=1e-15)
        assert report["defect"] < 1e-15


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["no-such-command"],
            ["rank", "--seed", "-1"],
            ["rank", "--probes", "0"],
            ["spectrum", "--tol-cluster", "0"],
            ["verify", "--trials", "many"],
            ["rank", "--no-such-flag"],
            # flags a command does not read are not accepted either
            ["classify", "--spec", '{"block_sizes": [2]}', "--nodes", "5"],
            ["classify", "--spec", '{"block_sizes": [2]}', "--tol-cluster", "3"],
            ["verify", "--spec", '{"block_sizes": [2]}', "--tol-cluster", "3"],
            ["trace", "--nodes", "5"],
            ["trace", "--probes", "5"],
            ["commutator", "--spec", '{"block_sizes": [2]}'],
            # the contour runs at the default node count: riesz takes no --nodes
            ["riesz", "--nodes", "2"],
            # diagonalize reads no quadrature: its projections are closed forms
            ["diagonalize", "--nodes", "3"],
            # nor a probe count: its rank check runs at the default
            ["diagonalize", "--probes", "8"],
            # an element or functional fixes its own layout
            ["spectrum", "--spec", '{"block_sizes": [2]}'],
            ["rank", "--spec", '{"block_sizes": [2]}'],
            ["trace", "--spec", '{"block_sizes": [2]}'],
            ["riesz", "--spec", '{"block_sizes": [2]}'],
            ["diagonalize", "--spec", '{"block_sizes": [2]}'],
            ["check-functional", "--spec", '{"block_sizes": [2]}'],
            # where the layout is the whole input, it is required
            ["classify"],
            ["verify", "--trials", "3"],
        ],
    )
    def test_usage_error_is_a_json_error(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        out = strict_loads(captured.out)
        assert code == 1
        assert set(out) == {"error"}
        assert out["error"]["type"] == "UsageError"
        assert out["error"]["message"].startswith("soclelab")
        assert captured.err == ""  # no plain-text usage

    def test_usage_error_ignores_output_flag(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out = invoke(capsys, "rank", "--output", str(report), "--seed", "-1")
        assert code == 1
        assert out["error"]["type"] == "UsageError"
        assert not report.exists()

    def test_each_command_takes_only_the_flags_it_reads(self):
        from soclelab.cli import build_parser

        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: sorted(
                s for a in p._actions for s in a.option_strings if s.startswith("--")
            )
            for name, p in sub.choices.items()
        }
        flags = {name: [f for f in fs if f != "--help"] for name, fs in flags.items()}
        assert flags == {
            "spectrum": ["--input", "--output"],
            "rank": ["--input", "--output", "--probes", "--seed"],
            "trace": ["--input", "--output", "--seed"],
            "riesz": ["--input", "--output"],
            "diagonalize": ["--input", "--output", "--seed"],
            "commutator": ["--input", "--output"],
            "rank-one-commutator": ["--input", "--output"],
            "check-functional": ["--input", "--output", "--seed"],
            "classify": ["--output", "--seed", "--spec"],
            "verify": ["--output", "--seed", "--spec", "--trials"],
        }
        assert sum(map(len, flags.values())) == 28

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_gives_the_bytes_of_fresh_processes(self, capsys):
        sequence = [
            ["rank", "--seed", "-1"],
            ["classify", "--spec", '{"block_sizes": [2, 1]}'],
            ["no-such-command"],
            ["verify", "--spec", '{"block_sizes": [2]}', "--trials", "2"],
        ]
        reused = []
        for argv in sequence:
            code = run(argv)
            reused.append((code, capsys.readouterr().out))
        fresh = []
        for argv in sequence:
            proc = run_fresh(argv)
            fresh.append((proc.returncode, proc.stdout))
        assert reused == fresh


# The atoms that replace one subtree of a valid document: each JSON type,
# the ends of the double range, an integer beyond it, short containers.
ATOMS = [
    None, True, False, "x", 0, -1, 1e308, -1e308, 5e-324, 10**400,
    [], {}, [0], [[0, 0]], [1.5e308, 1.5e308],
]


def _subtrees(node, path=()):
    """The path of every subtree of a JSON document, the root's first."""
    yield path
    if isinstance(node, (list, dict)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _subtrees(child, path + (key,))


def _replaced(node, path, atom):
    """A copy of ``node`` with the subtree at ``path`` replaced by ``atom``."""
    if not path:
        return atom
    node = copy.copy(node)
    node[path[0]] = _replaced(node[path[0]], path[1:], atom)
    return node


@st.composite
def mutated_runs(draw):
    """(argv, stdin text) of one command's valid document with one random
    subtree replaced by an atom; the document of classify and verify is
    their --spec layout."""
    argv, document = _report_cases()[draw(st.sampled_from(sorted(cli._COMMANDS)))]
    at = argv.index("--spec") + 1 if "--spec" in argv else None
    if at is not None:
        document = json.loads(argv[at])
    path = draw(st.sampled_from(list(_subtrees(document))))
    text = json.dumps(_replaced(document, path, draw(st.sampled_from(ATOMS))))
    if at is None:
        return argv, text
    return argv[:at] + [text] + argv[at + 1:], ""


# diag(3, 1, 1) with 1e308 above the diagonal: the contour sum around 1 overflows
JORDAN_1E308 = {
    "blocks": [[[[3, 0], [1e308, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]]
}
# x_0 g_1 = (1.5e308 + 1.5e308i)(0.7071 - 0.7071i) = 2.1e308
PRODUCT_OVERFLOW = {
    "x": [[1.5e308, 1.5e308], [1, 0]], "f": [[1, 0], [0, 0]],
    "y": [[1, 0], [0, 0]], "g": [[1, 0], [0.7071, -0.7071]],
}


class TestNoTraceback:
    @settings(max_examples=1000, deadline=None)
    @given(case=mutated_runs())
    @example(case=(["spectrum"], json.dumps(NAN_EIGENVALUES)))
    @example(case=(["diagonalize"], json.dumps(NAN_EIGENVALUES)))
    @example(case=(["trace"], json.dumps(INF_EIGENVALUE)))
    @example(case=(["riesz"], json.dumps({"element": INF_EIGENVALUE, "targets": [[0, 0]]})))
    # found by this test: a layout no array can hold, a distance and a
    # contour sum beyond the double range, rank-one products that overflow
    @example(case=(["classify", "--spec", json.dumps({"block_sizes": [10**400, 1]})], ""))
    @example(case=(["riesz"], json.dumps(
        {"element": {"blocks": [DIAG_1_2]}, "targets": [[1.5e308, 1.5e308]]}
    )))
    @example(case=(["riesz"], json.dumps({"element": JORDAN_1E308, "targets": [[1, 0]]})))
    @example(case=(["rank-one-commutator"], json.dumps(PRODUCT_OVERFLOW)))
    def test_every_mutated_document_is_a_report_or_a_typed_error(self, case):
        argv, text = case
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = run(argv)
        finally:
            sys.stdin = stdin
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code in (0, 1, 2)
        text = out.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n")
        data = strict_loads(text)
        if code:
            assert issubclass(getattr(sl.errors, data["error"]["type"]), sl.errors.SocleLabError)


    @pytest.mark.parametrize("size", [100000, 2049])
    def test_a_block_over_the_bound_is_refused_before_any_allocation(self, size, capsys):
        # 100000 x 100000 complex entries need 149 GiB; 2049 x 2049 would
        # fit, and shows that the refusal comes first
        tracemalloc.start()
        try:
            code = run(["classify", "--spec", json.dumps({"block_sizes": [size]})])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert strict_loads(captured.out)["error"]["type"] == "ShapeMismatchError"
        assert peak < size * size * 16 // 64

    @pytest.mark.parametrize("command", ["rank", "verify"])
    def test_memory_numpy_cannot_allocate_is_a_typed_error(self, monkeypatch, capsys, command):
        # a stub stands in for a command whose arrays or seed sequences
        # do not fit in memory, as `rank --probes 6000000` or
        # `verify --trials 30000000` under a small address-space limit
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, command, (exhausted, cli._COMMANDS[command][1]))
        spec = ["--spec", json.dumps({"block_sizes": [2]})]
        argv = [command] + (spec if command == "verify" else [])
        stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(diagonal(1, 2)))
        try:
            code = run(argv)
        finally:
            sys.stdin = stdin
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        error = strict_loads(captured.out)["error"]
        assert error["type"] == "ShapeMismatchError"
        assert error["message"] == "the request needs more memory than numpy can allocate"


class TestKnownWrongAnswers:
    """Inputs on which a command gives a wrong answer, each test asserting
    the right outcome: the right value, or a typed error without a
    warning. Each strict xfail names its cause in its reason: a threshold
    floored at max(1, scale) or taken against the wrong scale, a centroid
    that overflows, route A's perturbation moved past a third of the gap
    by a skewed element, or roundoff splitting a defective spectral value
    into a ring of distinct values. The tests without a marker pin
    answers that were once wrong."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="RANK_TOL * max(top, 1)")
    def test_tiny_diagonal_has_rank_two(self, capsys):
        code, out = invoke_stdin(capsys, ["rank"], diagonal(1e-10, 2e-10))
        assert code == 0
        assert (out["rank"], out["oracle_rank"]) == (2, 2)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="CLUSTER_TOL snaps both to 0")
    def test_tiny_diagonal_trace_is_the_diagonal_sum(self, capsys):
        code, out = invoke_stdin(capsys, ["trace"], diagonal(1e-8, -3e-9))
        assert code == 0
        np.testing.assert_allclose(out["spectral_trace"], [7e-9, 0.0], rtol=1e-8, atol=0)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="TRACELESS_TOL * max(1, norm)")
    def test_tiny_trace_is_not_traceless(self, capsys):
        matrix = diagonal(1e-10, 0)["blocks"][0]
        code, out = invoke_stdin(capsys, ["commutator"], {"matrix": matrix})
        assert code == 1
        assert out["error"]["type"] == "NotTracelessError"

    @pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason="the centroid overflows")
    def test_double_value_at_the_top_of_the_range(self, capsys):
        code, out = invoke_stdin(capsys, ["spectrum"], diagonal(1e308, 1e308))
        assert code == 0
        assert out["points"] == [{"multiplicity": 2, "value": [1e308, 0.0]}]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="RANK_TOL * top singular value")
    def test_triangular_with_a_large_entry_has_full_rank(self, capsys):
        # [[1, 1e6], [0, 2]]: a nonzero diagonal, so rank 2, and every
        # entry exact in binary; sigma_min / sigma_max is 2e-12
        document = {"blocks": [[[[1, 0], [1e6, 0]], [[0, 0], [2, 0]]]]}
        code, out = invoke_stdin(capsys, ["rank"], document)
        assert code == 0
        assert (out["rank"], out["oracle_rank"]) == (2, 2)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="route A's DEFAULT_EPS perturbation, scaled by the skew, passes a third of the gap",
    )
    def test_skewed_triangular_trace_is_the_diagonal_sum(self, capsys):
        # [[1, 400], [0, 2]]: values 1 and 2, one apart, but a perturbation
        # of size DEFAULT_EPS moves them by about DEFAULT_EPS * 400, so the
        # perturbation counts at 2 are not constant (exit 2)
        document = {"blocks": [[[[1, 0], [400, 0]], [[0, 0], [2, 0]]]]}
        code, out = invoke_stdin(capsys, ["trace"], document)
        assert code == 0
        np.testing.assert_allclose(out["spectral_trace"], [3.0, 0.0], rtol=1e-8, atol=1e-8)

    @staticmethod
    def riesz_agrees_with_spectrum(capsys, element):
        # at each value that spectrum reports for ``element``, riesz must
        # give spectrum's multiplicity or fail its certification (exit 2)
        document = jsonio.element_to_json(element)
        code, spectrum_out = invoke_stdin(capsys, ["spectrum"], document)
        assert code == 0
        for point in spectrum_out["points"]:
            code, out = invoke_stdin(
                capsys, ["riesz"], {"element": document, "targets": [point["value"]]}
            )
            if code != 2:
                assert code == 0
                assert out["multiplicity"] == point["multiplicity"]

    def test_riesz_multiplicity_is_that_of_the_spectrum(self, capsys):
        self.riesz_agrees_with_spectrum(capsys, dft_conjugated_jordan(4))

    def test_riesz_multiplicity_at_a_six_fold_ring(self, capsys):
        self.riesz_agrees_with_spectrum(capsys, dft_conjugated_jordan(6))

    def test_riesz_multiplicity_at_a_shifted_ring(self, capsys):
        # F (2I + J_4) F*: a defective value off the origin
        self.riesz_agrees_with_spectrum(capsys, dft_conjugated_jordan(4, 2.0))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="a defective value's ring")
    def test_conjugated_jordan_block_has_the_value_zero(self, capsys):
        document = jsonio.element_to_json(dft_conjugated_jordan(4))
        code, out = invoke_stdin(capsys, ["spectrum"], document)
        if code == 1:
            assert issubclass(getattr(sl.errors, out["error"]["type"]), sl.errors.SocleLabError)
        else:
            assert code == 0
            assert out["points"] == [{"multiplicity": 4, "value": [0.0, 0.0]}]


def _after(change):
    """A fault that applies ``change`` to every result of the function it
    replaces."""
    return lambda real: lambda *args, **kwargs: change(real(*args, **kwargs))


def _first_coefficient_scaled(real):
    """A ``CommutatorCertificate`` whose first coefficient is x 1.01."""

    def build(*, coefficients, **fields):
        scaled = coefficients.copy()
        scaled[0] *= 1.01
        return real(coefficients=scaled, **fields)

    return build


def _first_outer_scaled(real):
    """numpy, but its first ``outer`` product, P in ``rank_one_commutator``,
    is x 1.01."""
    calls = []

    def outer(u, v):
        calls.append(None)
        return (1.01 if len(calls) == 1 else 1.0) * real.outer(u, v)

    return types.SimpleNamespace(**{**vars(real), "outer": outer})


@functools.cache
def _fault_documents():
    """One document per command, each built here from a fixed stream."""
    rng = rng_for(389)
    maximal = random_maximal_element(sl.AlgebraSpec((8,)), rng)
    values = [jsonio.complex_to_json(v) for v in sl.spectrum(maximal).nonzero_values[:3]]
    low_rank = random_low_rank_element(sl.AlgebraSpec((2, 3)), rng, ranks=(1, 2))
    vectors = {k: [jsonio.complex_to_json(v) for v in complex_gaussian(rng, 8)] for k in "xfyg"}
    return {
        "rank": jsonio.element_to_json(low_rank),
        "trace": jsonio.element_to_json(maximal),
        "spectrum": jsonio.element_to_json(maximal),
        "riesz": {"element": jsonio.element_to_json(maximal), "targets": values},
        "diagonalize": jsonio.element_to_json(maximal),
        "commutator": {"matrix": jsonio.matrix_to_json(random_traceless_matrix(8, rng))},
        "rank-one-commutator": vectors,
        "check-functional": jsonio.functional_to_json(
            sl.random_functional(sl.AlgebraSpec((4,)), rng)
        ),
    }


def _unjudged(field):
    return pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"{field} is not judged: no success without a passed certificate",
    )


class TestFaultMatrix:
    """A fault in one route of a command's certificate must end in exit 2.
    Each row rebinds one name of a module, a seam that the command goes
    through, to a faulty version of it. The strict xfails are certificate
    fields that nothing in the library judges yet, so the command exits 0."""

    @pytest.mark.parametrize(
        "argv, module, name, fault, error",
        [
            pytest.param(
                ["rank"], sl.rank, "nonzero_spectrum_counts", _after(lambda c: c + 1),
                "RankCertificationError", id="rank probe counts + 1",
            ),
            pytest.param(
                ["trace"], sl.riesz, "_near_counts", _after(lambda c: c + 1),
                "MultiplicityInconsistencyError", id="trace route A counts + 1",
            ),
            pytest.param(
                ["trace"], sl.riesz, "_node_sums", _after(lambda ps: [0.3 * p for p in ps]),
                "MultiplicityInconsistencyError", id="trace route B node sums x 0.3",
            ),
            pytest.param(
                ["trace"], sl.riesz, "classical_trace", _after(lambda t: t * (1 + 1e-6)),
                "TraceCertificationError", id="trace oracle x (1 + 1e-6)",
            ),
            pytest.param(
                ["spectrum"], sl.algebra, "eigenvalues", _after(lambda v: v + 1e-3), None,
                id="spectrum eigenvalues + 1e-3", marks=_unjudged("the spectrum"),
            ),
            pytest.param(
                ["riesz"], sl.riesz, "_node_sums", _after(lambda ps: [0.3 * p for p in ps]),
                "ProjectionRankError", id="riesz node sums x 0.3",
            ),
            pytest.param(
                ["diagonalize"], sl.riesz, "_eigenprojection", _after(lambda p: 1.01 * p),
                None, id="diagonalize projections x 1.01", marks=_unjudged("residual"),
            ),
            pytest.param(
                ["commutator"], sl.commutators, "CommutatorCertificate",
                _first_coefficient_scaled, None, id="commutator one coefficient x 1.01",
                marks=_unjudged("reconstruction_defect"),
            ),
            pytest.param(
                ["rank-one-commutator"], sl.commutators, "np", _first_outer_scaled, None,
                id="rank-one-commutator P x 1.01", marks=_unjudged("defect"),
            ),
            pytest.param(
                ["check-functional"], sl.functionals, "_scalar_deviations",
                _after(lambda found: (found[0], 0 * found[1])),
                "TheoremViolationError", id="check-functional deviations x 0",
            ),
            pytest.param(
                ["classify", "--spec", '{"block_sizes": [2, 3]}'], sl.classify,
                "generated_ideal",
                _after(lambda r: dataclasses.replace(r, ideal_dimension=r.ideal_dimension + 1)),
                "TheoremViolationError", id="classify ideal dimensions + 1",
            ),
            pytest.param(
                ["verify", "--spec", '{"block_sizes": [2, 2]}', "--trials", "2"], sl.classify,
                "_characterize_stack",
                _after(lambda reps: [dataclasses.replace(r, is_tracial=not r.is_tracial) for r in reps]),
                "TheoremViolationError", id="verify tracial verdicts flipped",
            ),
        ],
    )
    def test_a_one_route_fault_exits_2(self, capsys, monkeypatch, argv, module, name, fault, error):
        document = _fault_documents().get(argv[0])
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        code, out = invoke_stdin(capsys, argv, document)
        assert code == 2
        assert out["error"]["type"] == error


def _shared_containers(payload) -> list:
    """The lists, tuples and dicts that a walk of ``payload`` reaches more
    than once: none in a tree; a cycle's entry is among them."""
    seen, shared, stack = set(), [], [payload]
    while stack:
        node = stack.pop()
        if not isinstance(node, (list, tuple, dict)):
            continue
        if id(node) in seen:
            shared.append(node)
            continue
        seen.add(id(node))
        stack.extend(node.values() if isinstance(node, dict) else node)
    return shared


def _written_payloads(monkeypatch, argv, text) -> list:
    """Every payload that ``run(argv)``, fed ``text`` on stdin, hands to
    ``cli._dumps``."""
    payloads, dumps = [], cli._dumps

    def recording(payload):
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(cli, "_dumps", recording)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    with contextlib.redirect_stdout(io.StringIO()):
        run(argv)
    return payloads


@functools.cache
def _tree_cases():
    """(argv, stdin text) of each command's report on the documents above,
    and of elements and functionals that end in a report near the top of
    the double range or in a typed error."""
    cases = {}
    for command, (argv, document) in _report_cases().items():
        cases[command] = (argv, "" if document is None else json.dumps(document))
    rng = rng_for(233)
    matrix = jsonio.matrix_to_json(random_traceless_matrix(16, rng))
    cases["commutator 16x16"] = (["commutator"], json.dumps({"matrix": matrix}))
    element = jsonio.element_to_json(random_element(sl.AlgebraSpec((8, 8)), rng))
    cases["diagonalize (8, 8)"] = (["diagonalize"], json.dumps(element))
    for n in (4, 5):
        document = jsonio.element_to_json(dft_conjugated_jordan(n))
        for command in ("spectrum", "rank", "trace", "diagonalize"):
            cases[f"{command} F J_{n} F*"] = ([command], json.dumps(document))
        value = sl.spectrum(dft_conjugated_jordan(n)).points[0].value
        riesz = {"element": document, "targets": [jsonio.complex_to_json(value)]}
        cases[f"riesz F J_{n} F*"] = (["riesz"], json.dumps(riesz))
    for name, command, document in [
        ("large scalar trace", "check-functional", scalar_weights(1e307, 3)),
        ("square-zero overflow", "check-functional", SQUARE_ZERO_OVERFLOW),
        ("projection overflow", "check-functional", PROJECTION_OVERFLOW),
        ("deviation overflow", "check-functional", DEVIATION_OVERFLOW),
        ("nan eigenvalues", "spectrum", NAN_EIGENVALUES),
        ("inf eigenvalue", "diagonalize", INF_EIGENVALUE),
        ("top gap", "trace", TOP_GAP),
        ("top nodes", "trace", TOP_NODES),
        ("top of the range", "diagonalize", diagonal(1e308, -1e308)),
        ("jordan 1e308", "riesz", {"element": JORDAN_1E308, "targets": [[1, 0]]}),
        ("product overflow", "rank-one-commutator", PRODUCT_OVERFLOW),
        ("pairing beyond the range", "rank-one-commutator",
         {"x": [[1.5, 1.5]], "f": [[0, -1e308]], "y": [[1, 0]], "g": [[1, 0]]}),
        ("spectral gap", "trace", jsonio.element_to_json(single(np.diag([1.0, 1.0 + 5e-6, 3.0])))),
        ("not in spectrum", "riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": [[5, 0]]}),
        ("not maximal", "diagonalize", jsonio.element_to_json(single(np.eye(2)))),
        ("not traceless", "commutator", {"matrix": [[[1, 0]]]}),
        ("non-finite", "commutator", '{"matrix": [[[NaN,0],[1,0]],[[0,0],[0,0]]]}'),
        ("degenerate pairing", "rank-one-commutator",
         {"x": [[1, 0]], "f": [[0, 0]], "y": [[1, 0]], "g": [[1, 0]]}),
        ("bad shape", "spectrum", {"blocks": 5}),
    ]:
        cases[name] = ([command], document if isinstance(document, str) else json.dumps(document))
    cases["usage"] = (["rank", "--seed", "-1"], "")
    return cases


def _every_subclass(cls) -> set:
    return {c for sub in cls.__subclasses__() for c in {sub} | _every_subclass(sub)}


# One instance of each SocleLabError subclass, its fields of the types the
# library raises it with: complex, float (inf too), int, list and None.
ERRORS = [
    sl.errors.UsageError("soclelab rank: argument --seed: expected an integer"),
    sl.errors.ShapeMismatchError("expected [re, im] pair, got 5"),
    sl.errors.NonFiniteEntryError("block 0 has a non-finite entry"),
    sl.errors.NumericOverflowError("a report value overflows the double range"),
    sl.errors.EigensolverError(1),
    sl.errors.SVDConvergenceError(0),
    sl.errors.SingularResolventError(1 + 0j, 1 + 1e-300j, 1e-300),
    sl.errors.TargetNotInSpectrumError(5 + 0j, -1e308 + 0j, float("inf")),
    sl.errors.ContourCollapseError(0j, 1e-300),
    sl.errors.SpectralGapError(1 + 0j, 5e-6, 1e-5),
    sl.errors.ProbeExhaustionError("no perturbation probe preserved the rank"),
    sl.errors.NotTracelessError(1 + 0j),
    sl.errors.DegenerateProjectionError("pairing f(x) is numerically zero"),
    sl.errors.NotIdempotentError(0.5, 1e-8),
    sl.errors.NotMaximalError(2, 1),
    sl.errors.NoCounterexampleError("a single block has no counterexample"),
    sl.errors.CertificationError("two routes disagree"),
    sl.errors.RankCertificationError(2, 3, 64),
    sl.errors.TraceCertificationError(6 + 0j, 5 + 0j),
    sl.errors.MultiplicityInconsistencyError(1 + 0j, [1, 2], None),
    sl.errors.ProjectionRankError(1.08 + 0.08j, 2, 1, 0.25),
    sl.errors.TheoremViolationError("tracial implies scalar", witness=[1.0]),
]


class TestPayloadsAreTrees:
    """``cli._dumps`` skips the encoder's cycle check: every payload it
    writes must be a tree, with no list, tuple or dict reached twice."""

    def test_the_walk_finds_shared_and_cyclic_containers(self):
        pair = [1.0, 0.0]
        assert _shared_containers({"a": [pair, [2.0, 0.0]], "b": {"c": [[3.0, 0.0]]}}) == []
        assert _shared_containers({"a": pair, "b": [pair]}) == [pair]
        cycle = {"a": []}
        cycle["a"].append(cycle)
        assert _shared_containers(cycle) == [cycle]

    @pytest.mark.parametrize("name", list(_tree_cases()))
    def test_every_report_and_error_is_a_tree(self, monkeypatch, name):
        argv, text = _tree_cases()[name]
        payloads = _written_payloads(monkeypatch, argv, text)
        assert len(payloads) == 1
        assert _shared_containers(payloads[0]) == []

    def test_the_errors_are_every_subclass(self):
        assert {type(exc) for exc in ERRORS} == _every_subclass(sl.errors.SocleLabError)

    @pytest.mark.parametrize("exc", ERRORS, ids=lambda exc: type(exc).__name__)
    def test_every_error_payload_is_a_tree(self, monkeypatch, exc):
        def failing(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "spectrum", (failing, ("input",)))
        payloads = _written_payloads(monkeypatch, ["spectrum"], "")
        assert [p["error"]["type"] for p in payloads] == [type(exc).__name__]
        assert _shared_containers(payloads[0]) == []


# The text ``cli._error_text`` writes for each instance of ``ERRORS``.
ERROR_TEXTS = {
    "UsageError": (
        '{"error": {"details": {}, "message": "soclelab rank: argument --seed: expected an '
        'integer", "type": "UsageError"}}\n'
    ),
    "ShapeMismatchError": (
        '{"error": {"details": {}, "message": "expected [re, im] pair, got 5", "type": '
        '"ShapeMismatchError"}}\n'
    ),
    "NonFiniteEntryError": (
        '{"error": {"details": {}, "message": "block 0 has a non-finite entry", "type": '
        '"NonFiniteEntryError"}}\n'
    ),
    "NumericOverflowError": (
        '{"error": {"details": {}, "message": "a report value overflows the double range", '
        '"type": "NumericOverflowError"}}\n'
    ),
    "EigensolverError": (
        '{"error": {"details": {"block_index": 1}, "message": "eigensolver failed to converge on '
        'block 1", "type": "EigensolverError"}}\n'
    ),
    "SVDConvergenceError": (
        '{"error": {"details": {"block_index": 0}, "message": "eigensolver failed to converge on '
        'block 0", "type": "SVDConvergenceError"}}\n'
    ),
    "SingularResolventError": (
        '{"error": {"details": {"distance": 1e-300, "eigenvalue": [1.0, 1e-300], "point": [1.0, '
        '0.0]}, "message": "resolvent point (1+0j) is within 1.000e-300 of the spectral value '
        '(1+1e-300j)", "type": "SingularResolventError"}}\n'
    ),
    "TargetNotInSpectrumError": (
        '{"error": {"details": {"distance": null, "nearest": [-1e+308, 0.0], "target": [5.0, '
        '0.0]}, "message": "target (5+0j) is not a spectral point (nearest value (-1e+308+0j) at '
        'distance inf)", "type": "TargetNotInSpectrumError"}}\n'
    ),
    "ContourCollapseError": (
        '{"error": {"details": {"center": [0.0, 0.0], "radius": 1e-300}, "message": "the '
        'resolvent is singular on the contour of radius 1.000e-300 around 0j", "type": '
        '"ContourCollapseError"}}\n'
    ),
    "SpectralGapError": (
        '{"error": {"details": {"floor": 1e-05, "gap": 5e-06, "target": [1.0, 0.0]}, "message": '
        '"gap 5.000e-06 around (1+0j) is below the resolvable threshold 1.000e-05; multiplicities '
        'at this separation are not trusted", "type": "SpectralGapError"}}\n'
    ),
    "ProbeExhaustionError": (
        '{"error": {"details": {}, "message": "no perturbation probe preserved the rank", "type": '
        '"ProbeExhaustionError"}}\n'
    ),
    "NotTracelessError": (
        '{"error": {"details": {"trace": [1.0, 0.0]}, "message": "matrix has nonzero trace '
        '(1+0j)", "type": "NotTracelessError"}}\n'
    ),
    "DegenerateProjectionError": (
        '{"error": {"details": {}, "message": "pairing f(x) is numerically zero", "type": '
        '"DegenerateProjectionError"}}\n'
    ),
    "NotIdempotentError": (
        '{"error": {"details": {"defect": 0.5, "tolerance": 1e-08}, "message": "idempotency '
        'defect 5.000e-01 exceeds tolerance 1.000e-08", "type": "NotIdempotentError"}}\n'
    ),
    "NotMaximalError": (
        '{"error": {"details": {"nonzero_count": 1, "rank": 2}, "message": "element is not '
        'maximal: rank 2 but 1 distinct nonzero spectral values", "type": "NotMaximalError"}}\n'
    ),
    "NoCounterexampleError": (
        '{"error": {"details": {}, "message": "a single block has no counterexample", "type": '
        '"NoCounterexampleError"}}\n'
    ),
    "CertificationError": (
        '{"error": {"details": {}, "message": "two routes disagree", "type": '
        '"CertificationError"}}\n'
    ),
    "RankCertificationError": (
        '{"error": {"details": {"classical_rank": 3, "probes": 64, "spectral_rank": 2}, '
        '"message": "spectral rank 2 != classical rank 3 after 64 probes", "type": '
        '"RankCertificationError"}}\n'
    ),
    "TraceCertificationError": (
        '{"error": {"details": {"classical_trace": [5.0, 0.0], "spectral_trace": [6.0, 0.0]}, '
        '"message": "spectral trace (6+0j) != classical trace (5+0j)", "type": '
        '"TraceCertificationError"}}\n'
    ),
    "MultiplicityInconsistencyError": (
        '{"error": {"details": {"perturbation_count": [1, 2], "projection_rank": null, "target": '
        '[1.0, 0.0]}, "message": "multiplicity at (1+0j): perturbation counting gave [1, 2], '
        'projection rank gave None", "type": "MultiplicityInconsistencyError"}}\n'
    ),
    "ProjectionRankError": (
        '{"error": {"details": {"bound": 0.25, "projection_rank": 2, "spectrum_multiplicity": 1, '
        '"trace": [1.08, 0.08]}, "message": "Riesz projection of rank 2 and trace (1.08+0.08j): '
        'the spectrum gives multiplicity 1, and the trace must lie within 0.25 of the rank", '
        '"type": "ProjectionRankError"}}\n'
    ),
    "TheoremViolationError": (
        '{"error": {"details": {"claim": "tracial implies scalar"}, "message": "predicted '
        'implication violated: tracial implies scalar", "type": "TheoremViolationError"}}\n'
    ),
}

# Each way a raiser overrides the default message, an empty override that
# falls back to it, and numpy scalar fields, one of them NaN.
ERROR_FORMS = [
    (
        sl.errors.ContourCollapseError(
            0.5 + 0j, 1e-13, "contour radius 1.000e-13 around (0.5+0j) is below the "
            "singularity floor 1.000e-12"
        ),
        '{"error": {"details": {"center": [0.5, 0.0], "radius": 1e-13}, "message": "contour '
        'radius 1.000e-13 around (0.5+0j) is below the singularity floor 1.000e-12", "type": '
        '"ContourCollapseError"}}\n'
    ),
    (
        sl.errors.EigensolverError(2, "Eigenvalues did not converge"),
        '{"error": {"details": {"block_index": 2}, "message": "Eigenvalues did not converge", '
        '"type": "EigensolverError"}}\n'
    ),
    (
        sl.errors.MultiplicityInconsistencyError(
            1 + 0j, [0, 1], None,
            message="perturbation counts at (1+0j) were not constant: [0, 1]",
        ),
        '{"error": {"details": {"perturbation_count": [0, 1], "projection_rank": null, '
        '"target": [1.0, 0.0]}, "message": "perturbation counts at (1+0j) were not constant: '
        '[0, 1]", "type": "MultiplicityInconsistencyError"}}\n'
    ),
    (
        sl.errors.EigensolverError(3, ""),
        '{"error": {"details": {"block_index": 3}, "message": "eigensolver failed to converge '
        'on block 3", "type": "EigensolverError"}}\n'
    ),
    (
        sl.errors.SpectralGapError(np.complex128(1 - 2j), np.float64(np.nan), np.float64(1e-5)),
        '{"error": {"details": {"floor": 1e-05, "gap": null, "target": [1.0, -2.0]}, '
        '"message": "gap nan around (1-2j) is below the resolvable threshold 1.000e-05; '
        'multiplicities at this separation are not trusted", "type": "SpectralGapError"}}\n'
    ),
]


class TestErrorPayloadBytes:
    """Every error payload is pinned as literal text: the type, message and
    details of each subclass, and each form of message override."""

    @pytest.mark.parametrize("exc", ERRORS, ids=lambda exc: type(exc).__name__)
    def test_each_subclass_writes_its_text(self, exc):
        assert cli._error_text(exc) == ERROR_TEXTS[type(exc).__name__]
        assert exc.args == (str(exc),)

    @pytest.mark.parametrize(
        "exc, text", ERROR_FORMS, ids=["positional", "lapack", "keyword", "empty", "numpy"]
    )
    def test_each_message_form_writes_its_text(self, exc, text):
        assert cli._error_text(exc) == text
        assert exc.args == (str(exc),)

    @pytest.mark.parametrize(
        "exc", [exc for exc in ERRORS if exc.details()], ids=lambda exc: type(exc).__name__
    )
    def test_a_wrong_number_of_fields_is_a_type_error(self, exc):
        count = len(exc.details())
        with pytest.raises(TypeError):
            type(exc)(*[1.0] * (count - 1))
        # one value more than the fields and a message
        with pytest.raises(TypeError):
            type(exc)(*[1.0] * count, "a message", 1.0)


# check-functional documents with integer or dyadic weights on (1, 2) and
# (2,), whose report values are sums of weight entries and the bound
# constant sum |alpha_i| n_i with |-3 + 4i| = 5: the same bytes on every
# platform.
CHARACTERIZATION_DOCUMENTS = {
    "scalar": {"weights": [[[[2.5, 0]]], [[[2.5, 0], [0, 0]], [[0, 0], [2.5, 0]]]]},
    "blockwise": {"weights": [[[[1, 0]]], [[[-3, 4], [0, 0]], [[0, 0], [-3, 4]]]]},
    "dense": {"weights": [[[[1, 0], [2, 0.5]], [[-3, 0], [4, 0]]]]},
    "zero": {"weights": [[[[0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]},
}
CHARACTERIZATION_TEXTS = {
    "scalar": (
        '{"constant_on_rank_one_projections": {"constant": true, "value": [2.5, 0.0], '
        '"witness_pair": null}, "is_scalar_trace": true, "is_tracial": true, '
        '"scalar_trace_coefficient": [2.5, 0.0], "spectral_bound": {"bounded": true, '
        '"constant": 7.5, "witness": null, "witness_value": null}, "tracial_witness_pair": '
        'null, "vanishes_on_nilpotents": {"vanishes": true, "witness": null, '
        '"witness_value": null}, "vanishes_on_square_zero": {"vanishes": true, "witness": '
        'null, "witness_value": null}}\n'
    ),
    "blockwise": (
        '{"constant_on_rank_one_projections": {"constant": false, "value": null, '
        '"witness_pair": [{"projection": {"blocks": [[[[1.0, 0.0]]], [[[0.0, 0.0], [0.0, '
        '0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "value": [1.0, 0.0]}, {"projection": '
        '{"blocks": [[[[0.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, '
        '0.0]]]]}, "value": [-3.0, 4.0]}]}, "is_scalar_trace": false, "is_tracial": true, '
        '"scalar_trace_coefficient": null, "spectral_bound": {"bounded": true, "constant": '
        '11.0, "witness": null, "witness_value": null}, "tracial_witness_pair": null, '
        '"vanishes_on_nilpotents": {"vanishes": true, "witness": null, "witness_value": '
        'null}, "vanishes_on_square_zero": {"vanishes": true, "witness": null, '
        '"witness_value": null}}\n'
    ),
    "dense": (
        '{"constant_on_rank_one_projections": {"constant": false, "value": null, '
        '"witness_pair": [{"projection": {"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, '
        '0.0], [0.0, 0.0]]]]}, "value": [1.0, 0.0]}, {"projection": {"blocks": [[[[0.0, '
        '0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}, "value": [4.0, 0.0]}]}, '
        '"is_scalar_trace": false, "is_tracial": false, "scalar_trace_coefficient": null, '
        '"spectral_bound": {"bounded": false, "constant": null, "witness": {"blocks": '
        '[[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "witness_value": [-3.0, '
        '0.0]}, "tracial_witness_pair": [{"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, '
        '0.0], [0.0, 0.0]]]]}, {"blocks": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, '
        '0.0]]]]}], "vanishes_on_nilpotents": {"vanishes": false, "witness": {"blocks": '
        '[[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "witness_value": [-3.0, '
        '0.0]}, "vanishes_on_square_zero": {"vanishes": false, "witness": {"blocks": '
        '[[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "witness_value": [-3.0, '
        '0.0]}}\n'
    ),
    "zero": (
        '{"constant_on_rank_one_projections": {"constant": true, "value": [0.0, 0.0], '
        '"witness_pair": null}, "is_scalar_trace": true, "is_tracial": true, '
        '"scalar_trace_coefficient": [0.0, 0.0], "spectral_bound": {"bounded": true, '
        '"constant": 0.0, "witness": null, "witness_value": null}, "tracial_witness_pair": '
        'null, "vanishes_on_nilpotents": {"vanishes": true, "witness": null, '
        '"witness_value": null}, "vanishes_on_square_zero": {"vanishes": true, "witness": '
        'null, "witness_value": null}}\n'
    ),
    "verify": (
        '{"counterexample": {"characterization": {"constant_on_rank_one_projections": '
        '{"constant": false, "value": null, "witness_pair": [{"projection": {"blocks": '
        '[[[[1.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "value": '
        '[1.0, 0.0]}, {"projection": {"blocks": [[[[0.0, 0.0]]], [[[1.0, 0.0], [0.0, '
        '0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "value": [0.0, 0.0]}]}, "is_scalar_trace": '
        'false, "is_tracial": true, "scalar_trace_coefficient": null, "spectral_bound": '
        '{"bounded": true, "constant": 1.0, "witness": null, "witness_value": null}, '
        '"tracial_witness_pair": null, "vanishes_on_nilpotents": {"vanishes": true, '
        '"witness": null, "witness_value": null}, "vanishes_on_square_zero": {"vanishes": '
        'true, "witness": null, "witness_value": null}}, "functional": {"weights": '
        '[[[[1.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}}, '
        '"functional_count": 3, "seed": 0, "socle_is_minimal_ideal": false, '
        '"socle_is_single_matrix_block": false, "spec": {"block_sizes": [1, 2]}, "trials": '
        '1, "verdicts": {"corner_blocks": {"claim": "scalar-trace/tracial equivalence '
        'holds exactly when every projection corner is a single full matrix block", '
        '"details": {"all_corners_single_block": false}, "holds": true}, "minimal_ideal": '
        '{"claim": "scalar-trace/tracial equivalence holds exactly when the algebra is a '
        'minimal two-sided ideal", "details": {"minimal_ideal": false}, "holds": true}, '
        '"nilpotent_vanishing": {"claim": "on a minimal-ideal algebra, vanishing on '
        'nilpotents, vanishing on square-zero elements, the rank-radius bound, and '
        'scalar-trace form are equivalent", "details": {"alpha_max_error": 0.0}, "holds": '
        'true}, "rank_one_constancy": {"claim": "constancy on rank-one projections is '
        'equivalent to being a scalar multiple of the trace", "details": '
        '{"functionals_checked": 3}, "holds": true}, "scalar_trace_equivalence": {"claim": '
        '"scalar-trace, tracial, and radius-bound conditions are equivalent exactly when '
        'the algebra is one matrix block", "details": {"single_block": false}, "holds": '
        'true}}}\n'
    ),
}


class TestCharacterizationReportBytes:
    """The characterization report is pinned as literal text: a scalar
    trace, a tracial functional that is not one, a dense functional with
    every witness, the zero functional, and the counterexample nested in
    a verification report."""

    @pytest.mark.parametrize("kind", list(CHARACTERIZATION_DOCUMENTS))
    def test_check_functional_writes_its_text(self, tmp_path, capsys, kind):
        path = write_input(tmp_path, CHARACTERIZATION_DOCUMENTS[kind])
        assert run(["check-functional", "--input", path]) == 0
        assert capsys.readouterr().out == CHARACTERIZATION_TEXTS[kind]

    def test_verify_counterexample_writes_its_text(self, capsys):
        assert run(["verify", "--spec", '{"block_sizes": [1, 2]}', "--trials", "1"]) == 0
        assert capsys.readouterr().out == CHARACTERIZATION_TEXTS["verify"]
