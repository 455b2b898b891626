"""Command-line front end: JSON in, JSON report out.

Every command reads one JSON document (file, inline, or stdin), runs
the corresponding library operation with an explicit seed, and writes
one JSON report. Identical invocations produce byte-identical output.

Each command accepts only the flags it reads (see ``_COMMANDS``).

Exit status: 0 on success, 1 on a usage error (unknown command or
flag, bad flag value, a path that cannot be read or written) or a
domain error (bad input, violated precondition), 2 when a certification
cross-check or a verified implication pattern fails. Errors are
reported as a machine-readable JSON object on the chosen output stream;
usage errors that come before ``--output`` is known, and any error when
``--output`` cannot be written, go to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .algebra import classical_trace, spectrum
from .classify import is_socle_minimal_ideal, orthogonal_decomposition, verify_theorems
from .commutators import commutator_decompose, rank_one_commutator
from .errors import CertificationError, NumericOverflowError, ShapeMismatchError
from .errors import SocleLabError, UsageError
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


def _node_count(text: str) -> int:
    value = int(text)
    if value < 4:
        raise argparse.ArgumentTypeError(f"expected at least 4 nodes, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises ``UsageError`` instead of exiting 2.

    ``add_subparsers`` builds the subcommand parsers with this class too.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_OPTIONS = {
    "input": dict(default="-", help="path of the input JSON document, or - for stdin"),
    "spec": dict(
        default=None, help="algebra layout as inline JSON or a path to a JSON file"
    ),
    "seed": dict(type=_nonnegative_int, default=0),
    "probes": dict(type=_positive_int, default=DEFAULT_PROBES),
    "trials": dict(type=_positive_int, default=100),
    "nodes": dict(type=_node_count, default=DEFAULT_NODES),
    "output": dict(default="-", help="report path, or - for stdout"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and reused: parsing never changes the parser."""
    parser = _Parser(
        prog="soclelab",
        description="Spectral rank/trace laboratory for block matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags + ("output",):
            p.add_argument(f"--{flag}", **_OPTIONS[flag])
    return parser


def _load_json(text: str, origin: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeMismatchError(
            f"malformed JSON in {origin} at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ShapeMismatchError(f"JSON in {origin} nests too deeply") from None


def _read_text(path: str | None, flag: str) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin when ``path`` is
    None; ``flag`` names the file in errors."""
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ShapeMismatchError(
            f"{path or 'stdin'} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except OSError as exc:
        raise UsageError(f"cannot read {flag} {path}: {exc.strerror or exc}") from None


def _read_input(args):
    path = None if args.input == "-" else args.input
    return _load_json(_read_text(path, "--input"), path or "stdin")


def _read_spec(args):
    if args.spec is None:
        return None
    text = args.spec
    if not text.lstrip().startswith("{"):
        return jsonio.spec_from_json(_load_json(_read_text(text, "--spec"), text))
    return jsonio.spec_from_json(_load_json(text, "--spec"))


def _element_input(args):
    data = _read_input(args)
    if isinstance(data, dict) and "element" in data:
        data = data["element"]
    return jsonio.element_from_json(data, _read_spec(args))


def _run_spectrum(args) -> dict:
    a = _element_input(args)
    return jsonio.spectrum_report_to_json(spectrum(a))


def _run_rank(args) -> dict:
    a = _element_input(args)
    rep = spectral_rank(a, probes=args.probes, seed=args.seed)
    return jsonio.rank_report_to_json(rep)


def _run_trace(args) -> dict:
    a = _element_input(args)
    s = spectral_trace(a, seed=args.seed)
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
    rep = riesz_projection(a, targets, nodes=args.nodes)
    return jsonio.riesz_report_to_json(rep)


def _run_diagonalize(args) -> dict:
    a = _element_input(args)
    d = diagonalize_maximal(a, probes=args.probes, seed=args.seed, nodes=args.nodes)
    return jsonio.diagonalization_to_json(d)


def _run_commutator(args) -> dict:
    data = _read_input(args)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ShapeMismatchError('commutator input needs {"matrix": [[...]]}')
    block = data.get("block", 0)
    if not isinstance(block, int) or isinstance(block, bool) or block < 0:
        raise ShapeMismatchError(f'"block" must be a nonnegative integer, got {block!r}')
    cert = commutator_decompose(jsonio.matrix_from_json(data["matrix"]), block=block)
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
    rep = verify_theorems(spec, trials=args.trials, seed=args.seed)
    return jsonio.verification_report_to_json(rep)


# Each command with its runner and the flags it reads; every command
# also takes --output.
_COMMANDS = {
    "spectrum": (_run_spectrum, ("input", "spec")),
    "rank": (_run_rank, ("input", "spec", "seed", "probes")),
    "trace": (_run_trace, ("input", "spec", "seed")),
    "riesz": (_run_riesz, ("input", "spec", "nodes")),
    "diagonalize": (_run_diagonalize, ("input", "spec", "seed", "probes", "nodes")),
    "commutator": (_run_commutator, ("input",)),
    "rank-one-commutator": (_run_rank_one_commutator, ("input",)),
    "check-functional": (_run_check_functional, ("input", "spec", "seed")),
    "classify": (_run_classify, ("spec", "seed")),
    "verify": (_run_verify, ("spec", "seed", "trials")),
}


def _dumps(payload: dict) -> str:
    try:
        return jsonio.dumps(payload) + "\n"
    except ValueError:
        raise NumericOverflowError("a report value overflows the double range") from None


def _error_text(exc: SocleLabError) -> str:
    error = {"type": type(exc).__name__, "message": str(exc), "details": exc.details()}
    return json.dumps({"error": error}, sort_keys=True, indent=2) + "\n"


def _emit(output: str, text: str) -> None:
    if output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output {output}: {exc.strerror or exc}") from None


def run(argv=None) -> int:
    output = "-"  # usage errors come before --output is known
    try:
        args = build_parser().parse_args(argv)
        output = args.output
        text, code = _dumps(_COMMANDS[args.command][0](args)), 0
    except SocleLabError as exc:
        text, code = _error_text(exc), 2 if isinstance(exc, CertificationError) else 1
    try:
        _emit(output, text)
    except UsageError as exc:  # the report or error has nowhere else to go
        sys.stdout.write(_error_text(exc))
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
