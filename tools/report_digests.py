"""Report digests of the ``cli-report`` documents.

For each seed, runs the 41 documents of ``bench/workloads.cli_documents``
through the CLI in process and prints the first 16 hex digits of one
SHA-256 over every document's label, exit code and stdout, in order. A
change that keeps every CLI byte keeps the three digests. Each
document's own check runs too; the exit status is 1 if any fails, and
the failures are printed after the digests.

Usage:

    python tools/report_digests.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

SEEDS = (7, 101, 211)


def digest(seed: int, failures: list[str]) -> str:
    """The digest of one seed's documents; each failed check is appended
    to ``failures``."""
    h = hashlib.sha256()
    for label, argv, text, check in workloads.cli_documents(seed):
        result = workloads.run_cli(argv, text)
        h.update(label.encode())
        h.update(str(result.code).encode())
        h.update(result.text.encode())
        reason = check(result)
        if reason is not None:
            failures.append(f"seed {seed} {label}: {reason}")
    return h.hexdigest()[:16]


def main() -> int:
    failures: list[str] = []
    for seed in SEEDS:
        print(f"seed {seed}: {digest(seed, failures)}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
