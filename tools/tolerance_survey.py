"""Tolerance survey: does a tenfold change of each tolerance fail tier-1?

For each tolerance constant, multiplied and then divided by 10, the
survey copies ``src/``, ``tests/``, ``bench/``, ``demos/`` and
``pyproject.toml`` to a temporary directory, rewrites the constant's
assignment in the copy, runs tier-1 there with ``-x`` and prints one
Markdown row per constant: ``fails`` with the first failing test, or
``passes`` with pytest's summary. A tolerance that some test depends on
fails both ways.

Usage:

    python tools/tolerance_survey.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml")
# (module under src/soclelab, constant), in the order of the table
CONSTANTS = [
    ("algebra", "CLUSTER_TOL"),
    ("functionals", "TRACIAL_TOL"),
    ("riesz", "GAP_FLOOR_FACTOR"),
    ("algebra", "RANK_TOL"),
    ("algebra", "RESOLVENT_FLOOR"),
    ("algebra", "IDEMPOTENCY_TOL"),
    ("commutators", "TRACELESS_TOL"),
    ("riesz", "TRACE_CERT_TOL"),
    ("riesz", "_NESTED_ACCEPT"),
]
# A failing Hypothesis test makes its pytest plugin import libcst, whose
# import warns; tier-1 turns that warning into an internal error that
# hides the failing test's name.
PYTEST = [
    sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
    "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
]


def assignment(name: str) -> re.Pattern:
    return re.compile(rf"^{name} = ([0-9.e+-]+)$", re.MULTILINE)


def value_of(module: str, name: str) -> float:
    text = (ROOT / "src" / "soclelab" / f"{module}.py").read_text()
    return float(assignment(name).search(text).group(1))


def run_tier1(module: str, name: str, value: float) -> str:
    """``fails: <test>`` or ``passes: <summary>`` for tier-1 with
    ``module.name`` set to ``value`` in a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        for entry in COPIED:
            src, dst = ROOT / entry, Path(tmp) / entry
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(src, dst)
        path = Path(tmp) / "src" / "soclelab" / f"{module}.py"
        text, count = assignment(name).subn(f"{name} = {value!r}", path.read_text())
        assert count == 1, f"{module}.{name} is not assigned once"
        path.write_text(text)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(PYTEST, cwd=tmp, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    if proc.returncode == 0:
        return "passes: " + lines[-1].strip("= ")
    return "fails: " + (failed[0] if failed else f"pytest exit {proc.returncode}")


def main() -> int:
    print("| constant | × 10 | ÷ 10 |")
    print("|---|---|---|")
    for module, name in CONSTANTS:
        value = value_of(module, name)
        up, down = (run_tier1(module, name, float(f"{value * f:.12g}")) for f in (10, 0.1))
        print(f"| `{name}` {value:g} | {up} | {down} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
