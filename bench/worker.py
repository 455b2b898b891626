"""One workload in its own process: set up, then a closed loop of passes.

Started by run.py as ``worker.py --workload W --seed S --seconds N
--trace 0|1 --t0 T``, where T is the CLOCK_MONOTONIC reading taken just
before the process was spawned, so set-up time covers interpreter start,
``import soclelab``, BLAS loading and corpus generation. Prints one JSON
object as its last line.

A pass runs every operation of the corpus once, in order, one at a
time: a single client in a closed loop. Passes repeat until the next
one would overrun ``--seconds``. The timing metrics are taken over each
operation's fastest latency (see fastest_latencies), so the corpus mix
is that of one pass.

With ``--trace 1`` untraced and traced passes alternate; the traced
ones give per-layer counts and self times (per operation), and the
ratio of their busy times gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS_DIR = Path(__file__).resolve().parent / "out"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run, per operation. Labels are
# ``module.function`` of the function's defining module, or
# ``linalg.<kernel>`` for numpy.linalg.
CALLS = [
    "algebra.eigenvalues",
    "algebra.nonzero_spectrum_count",
    "algebra.spectrum",
    "algebra.classical_rank",
    "algebra.cluster_eigenvalues",
    "algebra.operator_norm",
    "sampling.rng_for",
    "sampling.random_element",
    "sampling.random_invertible",
    "riesz.multiplicity",
    "riesz.riesz_projection",
    "functionals.characterize",
    "functionals.evaluate",
    "classify.generated_ideal",
    "commutators.commutator_decompose",
    "linalg.eigvals",
    "linalg.svd",
    "linalg.lstsq",
    "linalg.inv",
    "linalg.cond",
]
SELF_MS = [
    "algebra.eigenvalues",
    "algebra.nonzero_spectrum_count",
    "algebra.spectrum",
    "algebra.classical_rank",
    "algebra.cluster_eigenvalues",
    "algebra.operator_norm",
    "sampling.random_element",
    "sampling.random_invertible",
    "rank.spectral_rank",
    "riesz.multiplicity",
    "riesz.riesz_projection",
    "riesz.spectral_trace",
    "riesz.diagonalize_maximal",
    "functionals.characterize",
    "functionals.evaluate",
    "functionals.vanishes_on_square_zero",
    "functionals.vanishes_on_nilpotents",
    "classify.generated_ideal",
    "classify.orthogonal_decomposition",
    "classify.verify_theorems",
    "commutators.commutator_decompose",
    "commutators.rank_one_commutator",
]
# Self time summed over a group of functions.
GROUPS = {
    "jsonio.decode": lambda label: label.startswith("jsonio.") and label.endswith("_from_json"),
    "jsonio.encode": lambda label: label.startswith("jsonio.") and label.endswith("_to_json"),
    "cli.run": lambda label: label.startswith("cli."),
}
# Computed work from the kernels' argument shapes, not measured.
WORK = {
    "linalg.eigvals.n3": ("linalg.eigvals", "work", "computed_n3/op"),
    "linalg.solve.systems": ("linalg.solve", "extra", "count/op"),
    "linalg.solve.n3": ("linalg.solve", "work", "computed_n3/op"),
    "linalg.svd.mn2": ("linalg.svd", "work", "computed_mn2/op"),
    "linalg.norm2.calls": ("linalg.norm", "work", "count/op"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{label}.calls": "count/op" for label in CALLS}
    units.update({f"{label}.self_ms": "ms/op" for label in SELF_MS})
    units.update({f"{group}.self_ms": "ms/op" for group in GROUPS})
    units.update({name: unit for name, (_, _, unit) in WORK.items()})
    units.update(
        {
            "rank.probe_hit_ratio": "ratio",
            "cli.report_bytes": "bytes/op",
            "fail_ratio": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def tail_percentile(n: int) -> float:
    """Highest of 75 / 90 / 99 with at least ten of ``n`` samples beyond it."""
    return max((p for p in (75.0, 90.0, 99.0) if n * (1 - p / 100) >= 10), default=50.0)


@dataclass
class Pass:
    latencies: dict[int, float] = field(default_factory=dict)  # op index -> s, successes
    busy: float = 0.0  # time inside all operations, s
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    report_bytes: int = 0


def run_pass(ops, workloads, tracer=None, digest=None) -> Pass:
    """Every operation once; oracle checks and digests run outside timing."""
    out = Pass()
    for i, op in enumerate(ops):
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = tracer.op(op.run) if tracer is not None else op.run()
        except Exception as exc:  # a failed operation is counted and listed
            out.busy += time.perf_counter() - t0
            result, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            out.busy += elapsed
            reason = op.check(result)
            if reason is None:
                out.latencies[i] = elapsed
        if reason is not None:
            out.failures.append((op.label, reason))
        if digest is not None:
            workloads.canonical((op.label, reason, result), digest)
        if isinstance(result, workloads.CliResult):
            out.report_bytes += len(result.text.encode())
    return out


def failure_list(passes) -> list[dict]:
    seen = {}
    for p in passes:
        for label, reason in p.failures:
            seen.setdefault(label, reason)
    return [{"op": label, "reason": reason} for label, reason in seen.items()]


def fastest_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's fastest latency over the run's passes.

    Other tenants of the host slow whole stretches of seconds by up to
    half, in CPU time as much as in wall time; a slower sample of an
    operation measures them, not the program, which does the same work
    in every pass.
    """
    best: dict[int, float] = {}
    for p in passes:
        for i, t in p.latencies.items():
            best[i] = min(t, best.get(i, t))
    return list(best.values())


def measured_run(ops, workloads, seconds: float) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    passes: list[Pass] = []
    start = now()
    while True:
        t = now()
        passes.append(run_pass(ops, workloads, digest=digest if not passes else None))
        if now() - start + (now() - t) > seconds:
            break
    lat = np.array(fastest_latencies(passes))
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {}
    detail = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "pass_busy_s": [p.busy for p in passes],
        "digest": digest.hexdigest(),
        "failures": failure_list(passes),
        "fail_ratio": failed / attempted,
    }
    if len(lat):
        tail_pct = tail_percentile(len(ops))
        p50, tail = np.percentile(lat, [50, tail_pct])
        metrics = {
            "ops_per_s": len(lat) / float(np.sum(lat)),
            "latency_p50_ms": 1e3 * p50,
            "latency_tail_ms": 1e3 * tail,
        }
        detail["latency_tail"] = {
            "percentile": tail_pct,
            "samples": int(len(lat)),
            "beyond": int(np.sum(lat > tail)),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def traced_run(ops, workloads, seconds: float, spans_path: Path) -> dict:
    from tracer import SPAN_FIELDS, Tracer

    tracer = Tracer()
    digest = hashlib.sha256()
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = now()
    while True:
        t = now()
        plain.append(run_pass(ops, workloads, digest=digest if not plain else None))
        with tracer:
            traced.append(run_pass(ops, workloads, tracer=tracer))
        wall = now() - t
        if now() - start + wall > seconds:
            break
    summary = tracer.summary()
    n = sum(p.attempted for p in traced)

    def total(label, key):
        return summary.get(label, {}).get(key, 0.0)

    metrics = {}
    for label in CALLS:
        metrics[f"{label}.calls"] = total(label, "calls") / n
    for label in SELF_MS:
        metrics[f"{label}.self_ms"] = total(label, "self_ns") / n / 1e6
    for group, member in GROUPS.items():
        ns = sum(v["self_ns"] for label, v in summary.items() if member(label))
        metrics[f"{group}.self_ms"] = ns / n / 1e6
    for name, (label, key, _) in WORK.items():
        metrics[name] = total(label, key) / n
    drawn = total("rank.spectral_rank", "extra")
    metrics["rank.probe_hit_ratio"] = total("rank.spectral_rank", "work") / drawn if drawn else 0.0
    metrics["cli.report_bytes"] = sum(p.report_bytes for p in traced) / n
    everything = plain + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.failures) for p in everything)
    metrics["fail_ratio"] = failed / attempted
    # Each traced pass runs right after an untraced one, so a pair
    # shares the host's state; the median pair is the overhead.
    metrics["trace.overhead_ratio"] = statistics.median(
        t.busy / p.busy for p, t in zip(plain, traced)
    )
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    units = per_layer_units()
    detail = {
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "ops_per_pass": len(ops),
        "digest": digest.hexdigest(),
        "failures": failure_list(everything),
        "spans": {"count": len(tracer.spans) // len(SPAN_FIELDS), "file": str(spans_path.relative_to(ROOT))},
        "functions": {
            label: {
                "calls_per_op": v["calls"] / n,
                "self_ms_per_op": v["self_ns"] / n / 1e6,
            }
            for label, v in sorted(summary.items())
        },
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in units},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = now() if args.t0 is None else args.t0

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import soclelab

    if Path(soclelab.__file__).resolve().parent != (src / "soclelab").resolve():
        print(f"soclelab imported from {soclelab.__file__}, not {src}", file=sys.stderr)
        return 1
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = now() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.npz"
        result = traced_run(ops, workloads, args.seconds, spans)
    else:
        result = measured_run(ops, workloads, args.seconds)
        result["metrics"]["setup_s"] = setup_s
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    import numpy

    result["detail"]["numpy_build"] = {
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
