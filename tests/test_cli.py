import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
from soclelab import cli, jsonio
from soclelab.cli import run
from soclelab.sampling import random_element, random_traceless_matrix, rng_for

from conftest import single


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_input(tmp_path, payload, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
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
        real = sl.classify.characterize

        def flipped(f, seed=0):
            rep = real(f, seed=seed)
            return dataclasses.replace(rep, tracial=not rep.tracial)

        monkeypatch.setattr(sl.classify, "characterize", flipped)
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
        data = json.loads(out_path.read_text())
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
        ],
    )
    def test_bad_input_is_a_json_error(self, tmp_path, capsys, command, document):
        path = write_input(tmp_path, document)
        # The overflowing trace still warns from clustering and from the
        # contour solves until every threshold scales with the element
        # (ROADMAP item 1); any other case that warns fails.
        quiet = np.errstate(all="ignore") if command == "trace" else contextlib.nullcontext()
        with quiet:
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
        ],
    )
    def test_file_error_is_a_json_error(self, tmp_path, case, error):
        good = write_input(tmp_path, {"blocks": [DIAG_1_2]})
        missing = str(tmp_path / "missing.json")
        undecodable = str(tmp_path / "undecodable.json")
        Path(undecodable).write_bytes(b"\xff\xfe")
        unwritable = str(tmp_path / "missing" / "out.json")
        # the arguments, stdin, and the path the message names
        argv, stdin, path = {
            "missing input": (["spectrum", "--input", missing], None, missing),
            "directory input": (["spectrum", "--input", str(tmp_path)], None, str(tmp_path)),
            "missing spec": (["classify", "--spec", missing], None, missing),
            "undecodable input": (["spectrum", "--input", undecodable], None, undecodable),
            "deeply nested stdin": (["spectrum"], "[" * 200000 + "]" * 200000, "stdin"),
            "unwritable output": (
                ["spectrum", "--input", good, "--output", unwritable], None, unwritable
            ),
        }[case]
        proc = run_fresh(argv, stdin=stdin)
        assert proc.returncode == 1
        assert proc.stderr == ""
        out = json.loads(proc.stdout)
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
        ],
    )
    def test_shape_error_echoes_a_bounded_value(self, tmp_path, command, document):
        path = write_input(tmp_path, document)
        proc = run_fresh([command, "--input", path])
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert len(proc.stdout.encode()) < 1024
        out = json.loads(proc.stdout)
        assert out["error"]["type"] == "ShapeMismatchError"

    def test_bad_spec_is_a_json_error(self, capsys):
        code, out = invoke(capsys, "classify", "--spec", '{"block_sizes": 3}')
        assert code == 1
        assert out["error"]["type"] == "ShapeMismatchError"
        assert "block_sizes" in out["error"]["message"]


def scalar_weights(alpha, n):
    """Check-functional document of alpha * Tr on one n x n block."""
    rows = [[[alpha if i == j else 0, 0] for j in range(n)] for i in range(n)]
    return {"weights": [rows]}


def _report_cases():
    """(argv, input document or None) for each of the ten commands."""
    rng = rng_for(229)
    a = random_element(sl.AlgebraSpec((2, 3)), rng)
    element = jsonio.element_to_json(a)
    vectors = {k: jsonio.vector_to_json(rng.standard_normal(3) + 1j) for k in "xfyg"}
    return {
        "spectrum": (["spectrum"], element),
        "rank": (["rank", "--probes", "8", "--seed", "3"], element),
        "trace": (["trace", "--seed", "2"], element),
        "riesz": (
            ["riesz", "--nodes", "16"],
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


class TestReportBytes:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_report_is_the_json_dumps_reference(self, tmp_path, capsys, monkeypatch, command):
        argv, document = _report_cases()[command]
        if document is not None:
            argv = argv + ["--input", write_input(tmp_path, document)]
        payload = cli._COMMANDS[command][0](cli.build_parser().parse_args(argv))
        expected = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

        def refuse(*args, **kwargs):
            raise AssertionError("a success report went through json.dumps")

        monkeypatch.setattr(json, "dumps", refuse)
        code = run(argv)
        assert (code, capsys.readouterr().out) == (0, expected)


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
        with np.errstate(all="ignore"):
            code = run(["check-functional", "--input", path])
        text = capsys.readouterr().out
        assert code == 1
        assert "Infinity" not in text and "NaN" not in text
        error = json.loads(text)["error"]
        assert error["type"] == "NumericOverflowError"
        assert quantity in error["message"] and "overflows" in error["message"]

    def test_overflowed_bound_constant_writes_no_warning(self, tmp_path):
        path = write_input(tmp_path, scalar_weights(1e308, 3))
        proc = run_fresh(["check-functional", "--input", path])
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "NumericOverflowError"

    @pytest.mark.parametrize(
        "document, quantity",
        [
            (SQUARE_ZERO_OVERFLOW, "square-zero value"),
            (PROJECTION_OVERFLOW, "rank-one projection value"),
        ],
    )
    def test_overflowed_value_writes_no_warning(self, tmp_path, document, quantity):
        proc = run_fresh(["check-functional", "--input", write_input(tmp_path, document)])
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
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
        assert json.loads(text)["error"]["type"] == "NumericOverflowError"

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
        report = json.loads(captured.out)
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
    def test_reports_never_carry_non_finite_tokens(self, exponent, sizes, seed):
        rng = rng_for(seed, 1 << 40)
        weights = [
            (2.0**exponent * rng.uniform(-1, 1, (n, n, 2))).tolist() for n in sizes
        ]
        stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps({"weights": weights}))
        try:
            with np.errstate(all="ignore"):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = run(["check-functional"])
        finally:
            sys.stdin = stdin
        text = out.getvalue()
        assert "Infinity" not in text and "NaN" not in text
        if code:
            assert (code, json.loads(text)["error"]["type"]) == (1, "NumericOverflowError")

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
        assert json.loads(proc.stdout)["error"]["type"] == "NonFiniteEntryError"

    def test_overflowing_commutator_trace_writes_no_warning(self):
        document = '{"matrix": [[[1.7e308,0],[0,0]],[[0,0],[1.7e308,0]]]}'
        proc = run_fresh(["commutator"], stdin=document)
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "NumericOverflowError"
        assert "trace" in error["message"]

    def test_non_finite_report_value_is_a_typed_error(self):
        with pytest.raises(sl.errors.NumericOverflowError):
            cli._dumps({"value": float("inf")})


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
            # the contour quadrature needs at least 4 nodes
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
        out = json.loads(captured.out)
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
            "riesz": ["--input", "--nodes", "--output"],
            "diagonalize": ["--input", "--output", "--seed"],
            "commutator": ["--input", "--output"],
            "rank-one-commutator": ["--input", "--output"],
            "check-functional": ["--input", "--output", "--seed"],
            "classify": ["--output", "--seed", "--spec"],
            "verify": ["--output", "--seed", "--spec", "--trials"],
        }
        assert sum(map(len, flags.values())) == 29

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
