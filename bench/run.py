"""soclelab benchmark: one workload, measured end to end or traced.

    python3 bench/run.py --workload rank-probe --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory, never from an installed copy. The workload runs
in a process of its own with BLAS pinned to one thread. With
``--trace 0`` the set-up is also repeated in SETUP_PROBES extra
processes and ``setup_s`` is the median over all of them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every metric as
``{"value", "unit"}``). The line before it holds the details: the
environment, the tail percentile and its sample counts, the report
digest, any failing operations and, when tracing, a per-function
breakdown. Exits non-zero, printing no result, if a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import END_TO_END, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rank-probe", "trace-riesz", "verify-structure", "cli-report")
SETUP_PROBES = 4
BLAS_PIN = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# Every process is killed at this many seconds after the start, so the
# whole run ends within 180 s.
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    timeout = max(1.0, deadline - t0)
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, numpy_build: dict) -> dict:
    """Where the numbers come from; numpy_build is reported by the worker."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **numpy_build,
        "blas_thread_pin": BLAS_PIN,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soclelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "soclelab" / "__init__.py").is_file():
        print(f"no soclelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        result = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        if args.trace:
            units = per_layer_units()
        else:
            units = END_TO_END
            setups = [result["metrics"]["setup_s"]]
            for _ in range(SETUP_PROBES):
                probe = run_worker([*common, "--setup-only"], deadline)
                setups.append(probe["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["detail"]["setup_samples_s"] = setups
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        # Only when every operation failed: nothing was timed.
        print(f"no measurement for {missing}", file=sys.stderr)
    detail = result["detail"]
    env = environment(args.seed, detail.pop("numpy_build"))
    detail.update(workload=args.workload, trace=args.trace, environment=env)
    for failure in detail["failures"]:
        print(f"FAILED {failure['op']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not missing,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
