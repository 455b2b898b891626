"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

They check that traced runs repeat exactly for one seed, that the seed
drives the corpus, that tracing leaves no wrapper behind, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import soclelab  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def exact_counts(result: dict) -> dict:
    """The metrics that are computed work, not timings."""
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if not name.endswith("self_ms") and name != "trace.overhead_ratio"
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_runs_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = run_bench(workload, 7, 1)
        assert proc.returncode == 0, proc.stderr
        *_, detail, result = proc.stdout.splitlines()
        runs.append((json.loads(detail)["detail"], json.loads(result)))
    (d1, r1), (d2, r2) = runs
    assert r1["correct"] and r2["correct"]
    assert d1["digest"] == d2["digest"]
    assert exact_counts(r1) == exact_counts(r2)
    assert set(r1["metrics"]) == set(worker.per_layer_units())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_drives_corpus(workload):
    first = workloads.corpus_digest(workload, 1)
    assert workloads.corpus_digest(workload, 1) == first
    assert workloads.corpus_digest(workload, 2) != first


def _bindings() -> dict:
    out = {
        (m.__name__, name): obj
        for m in tracer.soclelab_modules()
        for name, obj in vars(m).items()
        if callable(obj)
    }
    out.update({("numpy.linalg", n): getattr(np.linalg, n) for n in tracer.LINALG_KERNELS})
    return out


def test_tracer_restores_every_binding_and_partitions_time():
    before = _bindings()
    t = tracer.Tracer()
    ops = workloads.WORKLOADS["cli-report"](3)
    with pytest.raises(ZeroDivisionError):
        with t:
            assert soclelab.spectrum is not before[("soclelab", "spectrum")]
            assert soclelab.riesz.spectrum is soclelab.spectrum
            for op in ops[:4]:
                assert op.check(t.op(op.run)) is None
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summary = t.summary()
    assert summary["op"]["calls"] == 4
    assert summary["algebra.eigenvalues"]["calls"] > 0
    assert summary["jsonio.element_from_json"]["calls"] > 0
    # Self times partition each operation's span.
    total_self = sum(v["self_ns"] for v in summary.values())
    spans = t.table()
    roots = spans[spans[:, 4] == -1]
    assert total_self == pytest.approx(float(np.sum(roots[:, 3] - roots[:, 2])))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("rank-probe", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
