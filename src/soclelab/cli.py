"""Command-line front end: JSON in, JSON report out.

Every command reads one JSON document (file, inline, or stdin), runs
the corresponding library operation with an explicit seed, and writes
one JSON report. Identical invocations produce byte-identical output:
``_dumps`` writes each report and error as one line of JSON, keys sorted,
no ``NaN`` or ``Infinity`` (``python -m json.tool`` indents it):
``json.dumps(payload, sort_keys=True, allow_nan=False, check_circular=False)``
and a newline. It skips the encoder's cycle check, which records and
forgets every list and dict it writes: every payload is built fresh as
a tree, so no container is reached twice and no cycle can occur
(``tests/test_cli.py::TestPayloadsAreTrees`` walks each command's
reports and errors to pin that).
A document is a bare element or functional, or a JSON object whose
required fields ``_document`` checks before each is decoded by its
``jsonio`` reader. A report is written by ``jsonio.report_to_json``,
keyed by its dataclass fields; ``check-functional`` and ``commutator``
use the two explicit mappers of ``jsonio``.

Each command accepts only the flags it reads (see ``_COMMANDS``). An
element or functional fixes its own layout by its blocks, so only
``classify`` and ``verify``, whose whole input is a layout, take
``--spec``, and there it is required.

Exit status: 0 on success, 1 on a usage error (unknown command or
flag, bad flag value, a path that cannot be read or written) or a
domain error (bad input, violated precondition, a request that needs
more memory than numpy can allocate), 2 when a certification
cross-check or a verified implication pattern fails. Errors are
reported as a JSON object with the error's fields as its details, on
the chosen output stream; usage errors that come before ``--output`` is
known, and any error when ``--output`` cannot be written, go to stdout.
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
from .riesz import diagonalize_maximal, riesz_projection, spectral_trace


def _int_at_least(low: int):
    """The argparse type of an integer flag: a decimal integer, at least ``low``."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}"
            )
        return value

    return integer


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises ``UsageError`` instead of exiting 2.

    ``add_subparsers`` builds the subcommand parsers with this class too.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_OPTIONS = {
    "input": dict(default="-", help="path of the input JSON document, or - for stdin"),
    "spec": dict(
        required=True, help="algebra layout as inline JSON or a path to a JSON file"
    ),
    "seed": dict(type=_int_at_least(0), default=0),
    "probes": dict(type=_int_at_least(1), default=DEFAULT_PROBES),
    "trials": dict(type=_int_at_least(1), default=100),
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
    except ValueError:  # an integer beyond the digit limit of int()
        raise NumericOverflowError(f"an integer in {origin} overflows the double range") from None


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
    text = args.spec
    if not text.lstrip().startswith("{"):
        return jsonio.spec_from_json(_load_json(_read_text(text, "--spec"), text))
    return jsonio.spec_from_json(_load_json(text, "--spec"))


def _document(args, *required: str, **optional) -> list:
    """The values of the ``required`` fields, then of the ``optional`` ones
    (their defaults where absent), of the input document, a JSON object."""
    data = _read_input(args)
    if not isinstance(data, dict) or not data.keys() >= set(required):
        fields = ", ".join(f'"{name}"' for name in required)
        raise ShapeMismatchError(
            f"{args.command} input needs a JSON object with the fields {fields}"
        )
    return [data[name] for name in required] + [
        data.get(name, default) for name, default in optional.items()
    ]


def _run_spectrum(args) -> dict:
    a = jsonio.element_from_json(_read_input(args))
    return jsonio.report_to_json(spectrum(a))


def _run_rank(args) -> dict:
    a = jsonio.element_from_json(_read_input(args))
    return jsonio.report_to_json(spectral_rank(a, probes=args.probes, seed=args.seed))


def _run_trace(args) -> dict:
    a = jsonio.element_from_json(_read_input(args))
    s = spectral_trace(a, seed=args.seed)
    return jsonio.report_to_json({"spectral_trace": s, "classical_trace": classical_trace(a)})


def _run_riesz(args) -> dict:
    element, targets = _document(args, "element", "targets")
    a = jsonio.element_from_json(element)
    rep = riesz_projection(a, jsonio.vector_from_json(targets))
    return jsonio.report_to_json(rep)


def _run_diagonalize(args) -> dict:
    a = jsonio.element_from_json(_read_input(args))
    return jsonio.report_to_json(diagonalize_maximal(a, seed=args.seed))


def _run_commutator(args) -> dict:
    matrix, block = _document(args, "matrix", block=0)
    cert = commutator_decompose(jsonio.matrix_from_json(matrix), block=block)
    return jsonio.certificate_to_json(cert)


def _run_rank_one_commutator(args) -> dict:
    vectors = _document(args, "x", "f", "y", "g")
    pair = rank_one_commutator(*map(jsonio.vector_from_json, vectors))
    return jsonio.report_to_json(pair)


def _run_check_functional(args) -> dict:
    f = jsonio.functional_from_json(_read_input(args))
    rep = characterize(f, seed=args.seed)
    return jsonio.characterization_to_json(rep)


def _run_classify(args) -> dict:
    spec = _read_spec(args)
    ideals = orthogonal_decomposition(spec)
    return jsonio.report_to_json(
        {
            "spec": spec,
            "block_ideals": ideals,
            "socle_is_minimal_ideal": is_socle_minimal_ideal(spec, seed=args.seed),
            "socle_is_single_matrix_block": spec.num_blocks == 1,
        }
    )


def _run_verify(args) -> dict:
    spec = _read_spec(args)
    return jsonio.report_to_json(verify_theorems(spec, trials=args.trials, seed=args.seed))


# Each command with its runner and the flags it reads; every command
# also takes --output.
_COMMANDS = {
    "spectrum": (_run_spectrum, ("input",)),
    "rank": (_run_rank, ("input", "seed", "probes")),
    "trace": (_run_trace, ("input", "seed")),
    "riesz": (_run_riesz, ("input",)),
    "diagonalize": (_run_diagonalize, ("input", "seed")),
    "commutator": (_run_commutator, ("input",)),
    "rank-one-commutator": (_run_rank_one_commutator, ("input",)),
    "check-functional": (_run_check_functional, ("input", "seed")),
    "classify": (_run_classify, ("spec", "seed")),
    "verify": (_run_verify, ("spec", "seed", "trials")),
}


def _dumps(payload: dict) -> str:
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, check_circular=False) + "\n"
    except ValueError:
        raise NumericOverflowError("a report value overflows the double range") from None


def _error_text(exc: SocleLabError) -> str:
    error = {"type": type(exc).__name__, "message": str(exc), "details": exc.details()}
    return _dumps({"error": error})


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
    except MemoryError:
        exc = ShapeMismatchError("the request needs more memory than numpy can allocate")
        text, code = _error_text(exc), 1
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
