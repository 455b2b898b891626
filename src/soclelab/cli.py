"""Command-line front end: JSON in, JSON report out.

Every command reads one JSON document (file, inline, or stdin), runs
the corresponding library operation with an explicit seed, and writes
one JSON report. Identical invocations produce byte-identical output.

Exit status: 0 on success, 1 on a domain error (bad input, violated
precondition), 2 when a certification cross-check or a verified
implication pattern fails. Errors are reported as a machine-readable
JSON object on the chosen output stream.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .algebra import CLUSTER_TOL, classical_trace, spectrum
from .classify import is_socle_minimal_ideal, orthogonal_decomposition, verify_theorems
from .commutators import commutator_decompose, rank_one_commutator
from .errors import CertificationError, ShapeMismatchError, SocleLabError
from .functionals import characterize
from .rank import DEFAULT_PROBES, spectral_rank
from .riesz import DEFAULT_NODES, diagonalize_maximal, riesz_projection, spectral_trace


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soclelab",
        description="Spectral rank/trace laboratory for block matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = True):
        if needs_input:
            p.add_argument(
                "--input",
                default="-",
                help="path of the input JSON document, or - for stdin",
            )
        p.add_argument(
            "--spec",
            default=None,
            help="algebra layout as inline JSON or a path to a JSON file",
        )
        p.add_argument("--output", default="-", help="report path, or - for stdout")
        p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.add_argument("--probes", type=_positive_int, default=None)
        p.add_argument("--trials", type=_positive_int, default=None)
        p.add_argument("--nodes", type=_positive_int, default=None)
        p.add_argument("--tol-cluster", type=_positive_float, default=CLUSTER_TOL)

    for name, needs_input in [
        ("spectrum", True),
        ("rank", True),
        ("trace", True),
        ("riesz", True),
        ("diagonalize", True),
        ("commutator", True),
        ("rank-one-commutator", True),
        ("check-functional", True),
        ("classify", False),
        ("verify", False),
    ]:
        common(sub.add_parser(name), needs_input=needs_input)
    return parser


def _load_json(text: str, origin: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeMismatchError(
            f"malformed JSON in {origin} at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}"
        ) from exc


def _read_input(args):
    if args.input == "-":
        return _load_json(sys.stdin.read(), "stdin")
    with open(args.input, "r", encoding="utf-8") as fh:
        return _load_json(fh.read(), args.input)


def _read_spec(args):
    if args.spec is None:
        return None
    text = args.spec
    if not text.lstrip().startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
        return jsonio.spec_from_json(_load_json(text, args.spec))
    return jsonio.spec_from_json(_load_json(text, "--spec"))


def _element_input(args):
    data = _read_input(args)
    if isinstance(data, dict) and "element" in data:
        data = data["element"]
    return jsonio.element_from_json(data, _read_spec(args))


def _run_spectrum(args) -> dict:
    a = _element_input(args)
    return jsonio.spectrum_report_to_json(spectrum(a, args.tol_cluster))


def _run_rank(args) -> dict:
    a = _element_input(args)
    rep = spectral_rank(
        a,
        probes=args.probes or DEFAULT_PROBES,
        seed=args.seed,
        tol=args.tol_cluster,
    )
    return jsonio.rank_report_to_json(rep)


def _run_trace(args) -> dict:
    a = _element_input(args)
    s = spectral_trace(a, seed=args.seed, tol=args.tol_cluster)
    return {
        "spectral_trace": jsonio.complex_to_json(s),
        "classical_trace": jsonio.complex_to_json(classical_trace(a)),
    }


def _run_riesz(args) -> dict:
    data = _read_input(args)
    if not isinstance(data, dict) or "element" not in data or "targets" not in data:
        raise ShapeMismatchError(
            'riesz input needs {"element": {...}, "targets": [[re, im], ...]}'
        )
    a = jsonio.element_from_json(data["element"], _read_spec(args))
    targets = [jsonio.complex_from_json(t) for t in data["targets"]]
    rep = riesz_projection(
        a, targets, nodes=args.nodes or DEFAULT_NODES, tol=args.tol_cluster
    )
    return jsonio.riesz_report_to_json(rep)


def _run_diagonalize(args) -> dict:
    a = _element_input(args)
    d = diagonalize_maximal(
        a,
        probes=args.probes or DEFAULT_PROBES,
        seed=args.seed,
        tol=args.tol_cluster,
        nodes=args.nodes or DEFAULT_NODES,
    )
    return jsonio.diagonalization_to_json(d)


def _run_commutator(args) -> dict:
    data = _read_input(args)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ShapeMismatchError('commutator input needs {"matrix": [[...]]}')
    m = jsonio.matrix_from_json(data["matrix"])
    cert = commutator_decompose(m, block=int(data.get("block", 0)))
    return jsonio.certificate_to_json(cert)


def _run_rank_one_commutator(args) -> dict:
    data = _read_input(args)
    needed = {"x", "f", "y", "g"}
    if not isinstance(data, dict) or not needed.issubset(data):
        raise ShapeMismatchError(
            'rank-one-commutator input needs {"x": [...], "f": [...], '
            '"y": [...], "g": [...]} vectors of [re, im] pairs'
        )
    pair = rank_one_commutator(
        jsonio.vector_from_json(data["x"]),
        jsonio.vector_from_json(data["f"]),
        jsonio.vector_from_json(data["y"]),
        jsonio.vector_from_json(data["g"]),
    )
    return jsonio.rank_one_pair_to_json(pair)


def _run_check_functional(args) -> dict:
    data = _read_input(args)
    if isinstance(data, dict) and "functional" in data:
        data = data["functional"]
    f = jsonio.functional_from_json(data, _read_spec(args))
    rep = characterize(f, seed=args.seed)
    return jsonio.characterization_to_json(rep)


def _run_classify(args) -> dict:
    spec = _read_spec(args)
    if spec is None:
        raise ShapeMismatchError("classify needs --spec")
    ideals = orthogonal_decomposition(spec)
    return {
        "spec": jsonio.spec_to_json(spec),
        "block_ideals": [jsonio.ideal_report_to_json(r) for r in ideals],
        "socle_is_minimal_ideal": is_socle_minimal_ideal(spec, seed=args.seed),
        "socle_is_single_matrix_block": spec.num_blocks == 1,
    }


def _run_verify(args) -> dict:
    spec = _read_spec(args)
    if spec is None:
        raise ShapeMismatchError("verify needs --spec")
    rep = verify_theorems(
        spec, trials=args.trials or 100, seed=args.seed, tol=args.tol_cluster
    )
    return jsonio.verification_report_to_json(rep)


_COMMANDS = {
    "spectrum": _run_spectrum,
    "rank": _run_rank,
    "trace": _run_trace,
    "riesz": _run_riesz,
    "diagonalize": _run_diagonalize,
    "commutator": _run_commutator,
    "rank-one-commutator": _run_rank_one_commutator,
    "check-functional": _run_check_functional,
    "classify": _run_classify,
    "verify": _run_verify,
}


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _COMMANDS[args.command](args)
    except CertificationError as exc:
        _emit(
            args,
            {
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "details": exc.details(),
                }
            },
        )
        return 2
    except SocleLabError as exc:
        _emit(
            args,
            {
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "details": exc.details(),
                }
            },
        )
        return 1
    _emit(args, payload)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
