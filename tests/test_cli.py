import argparse
import json

import numpy as np
import pytest

import soclelab as sl
from soclelab import jsonio
from soclelab.cli import run
from soclelab.sampling import random_element, rng_for


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_input(tmp_path, payload, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DIAG_1_2 = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]


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
            # the mean diagonal weight overflows, so its deviation has no SVD
            (
                "check-functional",
                {"weights": [[[[1e308, 0], [1e308, 0]], [[-1e308, 0], [1e308, 0]]]]},
            ),
            ("riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": []}),
            # both targets snap to the spectral value 1
            ("riesz", {"element": {"blocks": [DIAG_1_2]}, "targets": [[1, 0], [1, 0]]}),
            ("commutator", {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "block": "x"}),
            ("commutator", {"matrix": [[[1, 0], [0, 0]]]}),
            ("rank-one-commutator", {"x": [[1, 0]], "f": [[1, 0], [0, 0]], "y": [[1, 0]], "g": [[1, 0]]}),
        ],
    )
    def test_bad_input_is_a_json_error(self, tmp_path, capsys, command, document):
        path = write_input(tmp_path, document)
        with np.errstate(all="ignore"):
            code, out = invoke(capsys, command, "--input", path)
        assert code == 1
        assert set(out) == {"error"}
        assert out["error"]["type"] in {"ShapeMismatchError", "SVDConvergenceError"}

    def test_bad_spec_is_a_json_error(self, capsys):
        code, out = invoke(capsys, "classify", "--spec", '{"block_sizes": 3}')
        assert code == 1
        assert out["error"]["type"] == "ShapeMismatchError"
        assert "block_sizes" in out["error"]["message"]


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
            ["diagonalize", "--nodes", "3"],
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
            "spectrum": ["--input", "--output", "--spec", "--tol-cluster"],
            "rank": ["--input", "--output", "--probes", "--seed", "--spec", "--tol-cluster"],
            "trace": ["--input", "--output", "--seed", "--spec", "--tol-cluster"],
            "riesz": ["--input", "--nodes", "--output", "--spec", "--tol-cluster"],
            "diagonalize": [
                "--input", "--nodes", "--output", "--probes", "--seed", "--spec",
                "--tol-cluster",
            ],
            "commutator": ["--input", "--output"],
            "rank-one-commutator": ["--input", "--output"],
            "check-functional": ["--input", "--output", "--seed", "--spec"],
            "classify": ["--output", "--seed", "--spec"],
            "verify": ["--output", "--seed", "--spec", "--trials"],
        }
        assert sum(map(len, flags.values())) == 42
