"""Seeded corpora, operations and oracle checks for the four workloads.

Every corpus is generated here, with numpy only, from the workload seed;
soclelab receives nothing but the finished elements, specs and JSON
documents. The shape of each corpus (block sizes, families, scales,
ranks, kernel sizes, probe counts) is fixed, and the seed only draws
the entries, so the work per pass is the same for every seed.

Each operation is one library or CLI call. Its check compares the
result with an oracle computed here from the corpus (the rank a corpus
element was built with, the diagonal-sum trace, a recomputed
reconstruction or idempotency defect). The tolerances are pinned here,
at the values the acceptance suite uses, so that a change to the
package's own tolerances cannot loosen them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import soclelab
import soclelab.cli

TRACE_TOL = 1e-8  # relative to max(1, |diagonal-sum trace|)
IDEMPOTENCY_TOL = 1e-8
RESIDUAL_TOL = 1e-8
CERTIFICATE_TOL = 1e-12  # relative to max(1, largest entry magnitude)
SCALES = (1e-3, 1.0, 1e3)


@dataclass(frozen=True)
class Op:
    """One timed call; ``check`` returns None when the oracle agrees."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # What the program receives; hashed by corpus_digest.
    inputs: tuple = ()


# -- corpus generators ------------------------------------------------


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _element(sizes, blocks) -> soclelab.Element:
    return soclelab.Element(soclelab.AlgebraSpec(tuple(sizes)), blocks)


def _separated_values(rng, count: int, min_gap: float = 0.15) -> list[complex]:
    """Nonzero values in the annulus 0.5 <= |z| <= 2.5, pairwise >= min_gap."""
    vals: list[complex] = []
    while len(vals) < count:
        v = rng.uniform(0.5, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if all(abs(v - w) >= min_gap for w in vals):
            vals.append(complex(v))
    return vals


def _tame_similarity(rng, n: int) -> np.ndarray:
    """Unitary times (I + N), N strictly upper with norm 1/2: cond <= 3."""
    q, _ = np.linalg.qr(_gaussian(rng, (n, n)))
    upper = np.triu(_gaussian(rng, (n, n)), k=1)
    upper *= 0.5 / max(np.linalg.norm(upper, 2), 1e-300)
    return q @ (np.eye(n) + upper)


def maximal_blocks(rng, sizes) -> tuple[list[np.ndarray], list[complex]]:
    """Diagonalizable blocks S diag(values, 0...) S^-1, a quarter kernel each.

    The nonzero values are distinct across the whole element, so the
    element is maximal: its distinct nonzero spectral values exhaust
    its rank.
    """
    takes = [n - n // 4 for n in sizes]
    values = _separated_values(rng, sum(takes))
    blocks, pos = [], 0
    for n, take in zip(sizes, takes):
        d = np.zeros(n, dtype=complex)
        d[:take] = values[pos : pos + take]
        pos += take
        s = _tame_similarity(rng, n)
        blocks.append(s @ np.diag(d) @ np.linalg.inv(s))
    return blocks, values


def low_rank_block(rng, n: int, r: int) -> np.ndarray:
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    return _gaussian(rng, (n, r)) @ _gaussian(rng, (r, n))


def trace_oracle(blocks) -> complex:
    return complex(sum(np.trace(b) for b in blocks))


def _trace_error(value: complex, blocks) -> str | None:
    oracle = trace_oracle(blocks)
    if abs(value - oracle) > TRACE_TOL * max(1.0, abs(oracle)):
        return f"trace {value!r} disagrees with diagonal sum {oracle!r}"
    return None


def _residual_error(a_blocks, values, proj_blocks, rank: int) -> str | None:
    """Recompute the reconstruction a = sum v_i p_i; proj_blocks[i][b]."""
    if len(values) != rank:
        return f"{len(values)} spectral values for an element of rank {rank}"
    worst = 0.0
    for b, ab in enumerate(a_blocks):
        recon = sum(v * p[b] for v, p in zip(values, proj_blocks))
        worst = max(worst, float(np.linalg.norm(ab - recon, 2)))
    if worst > RESIDUAL_TOL:
        return f"reconstruction residual {worst:.3e} > {RESIDUAL_TOL}"
    return None


# -- rank-probe -------------------------------------------------------

RANK_SPECS = [(1,), (3,), (2, 2), (2, 3), (1, 1, 4), (4, 4), (8,)]
RANK_PER_SPEC = 20
RANK_PROBES = 64


def rank_corpus_element(seed: int, which: int, index: int):
    """(blocks, rank) of the acceptance suite's mixed families.

    index % 10: 0-4 dense, 5-7 low rank (block ranks fixed by index),
    8 one zero block, 9 one block strictly upper with two entries.
    """
    sizes = RANK_SPECS[which]
    rng = _rng(seed, 1, which * RANK_PER_SPEC + index)
    family = index % 10
    if 5 <= family <= 7:
        ranks = [(index + i) % n for i, n in enumerate(sizes)]
        return [low_rank_block(rng, n, r) for n, r in zip(sizes, ranks)], sum(ranks)
    blocks = [_gaussian(rng, (n, n)) for n in sizes]
    rank = sum(sizes)
    if family >= 8:
        j = index % len(sizes)
        n = sizes[j]
        blocks[j] = np.zeros((n, n), dtype=complex)
        rank -= n
        if family == 9:
            for t in range(min(2, n - 1)):
                blocks[j][t, t + 1] = _gaussian(rng, ())
                rank += 1
    return blocks, rank


def build_rank_probe(seed: int) -> list[Op]:
    ops = []
    for which, sizes in enumerate(RANK_SPECS):
        for index in range(RANK_PER_SPEC):
            blocks, rank = rank_corpus_element(seed, which, index)
            a = _element(sizes, blocks)
            i = len(ops)

            def check(rep, rank=rank):
                if not rep.rank == rep.oracle_rank == rank:
                    return f"rank {rep.rank}, oracle {rep.oracle_rank}, built {rank}"
                return None

            ops.append(
                Op(
                    f"rank {sizes} family {index % 10} #{index}",
                    lambda a=a, i=i: soclelab.spectral_rank(a, probes=RANK_PROBES, seed=i),
                    check,
                    (a, i),
                )
            )
    return ops


# -- trace-riesz ------------------------------------------------------

# Small specs at every scale, large ones at one scale each (rotating),
# for dense and maximal elements alike, plus the large-kernel family:
# 45 operations a pass. That is odd, so the median falls on one
# operation, and at least 40, so one sample of each operation leaves ten
# beyond the p75 tail.
SMALL_SPECS = [(8,), (12,), (6, 10), (16,)]
LARGE_SPECS = [(24,), (32,)]
LARGE_KERNEL = ((64,), 4)


def build_trace_riesz(seed: int) -> list[Op]:
    """spectral_trace on every element, diagonalize_maximal on the
    maximal ones."""
    ops: list[Op] = []

    def add_trace(label, blocks, sizes):
        a = _element(sizes, blocks)
        i = len(ops)
        ops.append(
            Op(
                label,
                lambda a=a, i=i: soclelab.spectral_trace(a, seed=i),
                lambda s, blocks=blocks: _trace_error(s, blocks),
                (a, i),
            )
        )
        return a

    for tag, family in enumerate(("dense", "maximal"), start=2):
        cases = [(sizes, scale) for sizes in SMALL_SPECS for scale in SCALES]
        cases += [(sizes, SCALES[(j + tag) % 3]) for j, sizes in enumerate(LARGE_SPECS)]
        for j, (sizes, scale) in enumerate(cases):
            rng = _rng(seed, tag, j)
            label = f"{family} {sizes} x{scale:g}"
            if family == "dense":
                add_trace(f"trace {label}", [scale * _gaussian(rng, (n, n)) for n in sizes], sizes)
                continue
            blocks, values = maximal_blocks(rng, sizes)
            blocks = [scale * b for b in blocks]
            a = add_trace(f"trace {label}", blocks, sizes)
            i = len(ops)

            def check(d, blocks=blocks, rank=len(values)):
                return _residual_error(
                    blocks, d.values, [p.blocks for p in d.projections], rank
                )

            ops.append(
                Op(
                    f"diagonalize {label}",
                    lambda a=a, i=i: soclelab.diagonalize_maximal(a, seed=i),
                    check,
                    (a, i),
                )
            )
    sizes, rank = LARGE_KERNEL
    for k, scale in enumerate(SCALES):
        rng = _rng(seed, 4, k)
        blocks = [scale * low_rank_block(rng, n, rank) for n in sizes]
        add_trace(f"trace low-rank {sizes} rank {rank} x{scale:g}", blocks, sizes)
    return ops


# -- verify-structure -------------------------------------------------

# Every spec is verified and classified, (2, 3) only verified: 41
# operations a pass, odd and at least 40 (see SMALL_SPECS).
VERIFY_SPECS = [
    (1,), (2,), (3,), (4,), (5,), (6,), (10,), (12,),
    (1, 1), (1, 2), (1, 3), (2, 2), (3, 3), (6, 6), (8, 8),
    (1, 1, 1), (1, 1, 2), (2, 3, 1), (2, 2, 2), (4, 4, 4),
]
VERIFY_ONLY = [(2, 3)]
VERIFY_TRIALS = 2


def _classify(spec, seed):
    return soclelab.orthogonal_decomposition(spec), soclelab.is_socle_minimal_ideal(
        spec, seed=seed
    )


def _check_classify(result, spec) -> str | None:
    ideals, minimal = result
    sizes = spec.block_sizes
    got = [(r.ideal_dimension, sorted(r.supported_blocks)) for r in ideals]
    want = [(n * n, [i]) for i, n in enumerate(sizes)]
    if got != want:
        return f"block ideals {got}, expected {want}"
    if minimal != (len(sizes) == 1):
        return f"minimal-ideal verdict {minimal} for {len(sizes)} blocks"
    return None


def _check_verify(rep, spec, seed) -> str | None:
    if rep.spec != spec or rep.seed != seed:
        return "report is for another spec or seed"
    if rep.functional_count != 3 * VERIFY_TRIALS:
        return f"{rep.functional_count} functionals for {VERIFY_TRIALS} trials"
    failed = sorted(k for k, v in rep.verdicts.items() if not v.holds)
    return f"verdicts not holding: {failed}" if failed else None


def build_verify_structure(seed: int) -> list[Op]:
    ops = []
    for j, sizes in enumerate(VERIFY_SPECS + VERIFY_ONLY):
        spec = soclelab.AlgebraSpec(sizes)
        s = int(_rng(seed, 5, j).integers(0, 2**31))
        ops.append(
            Op(
                f"verify_theorems {sizes}",
                lambda spec=spec, s=s: soclelab.verify_theorems(
                    spec, trials=VERIFY_TRIALS, seed=s
                ),
                lambda rep, spec=spec, s=s: _check_verify(rep, spec, s),
                (spec, s),
            )
        )
        if sizes in VERIFY_ONLY:
            continue
        ops.append(
            Op(
                f"classify {sizes}",
                lambda spec=spec, s=s: _classify(spec, s),
                lambda r, spec=spec: _check_classify(r, spec),
                (spec, s),
            )
        )
    return ops


# -- cli-report -------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    text: str


def run_cli(argv: list[str], stdin_text: str) -> CliResult:
    """``soclelab.cli.run`` with stdin and stdout swapped for buffers."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = soclelab.cli.run(argv)
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue())


def _vec(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _pairs(m: np.ndarray) -> list:
    return [_vec(row) for row in m]


def _element_doc(blocks) -> dict:
    return {"blocks": [_pairs(b) for b in blocks]}


def _decode(data) -> np.ndarray:
    return np.array([[complex(*z) for z in row] for row in data], dtype=complex)


def _cli_check(inner):
    """Wrap a report check: exit code 0 and a parseable JSON report first."""

    def check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}: {res.text[:200]}"
        try:
            report = json.loads(res.text)
        except json.JSONDecodeError as exc:
            return f"report does not parse: {exc}"
        return inner(report)

    return check


def _check_spectrum(report, blocks) -> str | None:
    mult = sum(p["multiplicity"] for p in report["points"])
    if mult != sum(b.shape[0] for b in blocks):
        return f"multiplicities sum to {mult}"
    total = sum(complex(*p["value"]) * p["multiplicity"] for p in report["points"])
    return _trace_error(total, blocks)


def _check_rank(report, rank) -> str | None:
    if not report["rank"] == report["oracle_rank"] == rank:
        return f"rank {report['rank']}, oracle {report['oracle_rank']}, built {rank}"
    return None


def _check_trace(report, blocks) -> str | None:
    return _trace_error(complex(*report["spectral_trace"]), blocks) or _trace_error(
        complex(*report["classical_trace"]), blocks
    )


def _check_riesz(report, targets) -> str | None:
    p = [_decode(b) for b in report["projection"]["blocks"]]
    defect = max(float(np.linalg.norm(b @ b - b, 2)) for b in p)
    if defect > IDEMPOTENCY_TOL:
        return f"idempotency defect {defect:.3e} > {IDEMPOTENCY_TOL}"
    if report["multiplicity"] != targets:
        return f"multiplicity {report['multiplicity']} for {targets} simple targets"
    return None


def _check_diagonalize(report, blocks, rank) -> str | None:
    values = [complex(*v) for v in report["values"]]
    projs = [[_decode(b) for b in p["blocks"]] for p in report["projections"]]
    return _residual_error(blocks, values, projs, rank)


def _unit_commutator_sum(terms, n) -> np.ndarray:
    """Sum of c [E_ab, E_cd] = c (d_bc E_ad - d_da E_cb), rebuilt here."""
    acc = np.zeros((n, n), dtype=complex)
    for t in terms:
        c = complex(*t["c"])
        a, b = t["left"]["row"], t["left"]["col"]
        cc, d = t["right"]["row"], t["right"]["col"]
        if b == cc:
            acc[a, d] += c
        if d == a:
            acc[cc, b] -= c
    return acc


def _check_commutator(report, m) -> str | None:
    rebuilt = _unit_commutator_sum(report["terms"], m.shape[0])
    defect = float(np.max(np.abs(rebuilt - m)))
    if defect > CERTIFICATE_TOL * max(1.0, float(np.max(np.abs(m)))):
        return f"certificate defect {defect:.3e}"
    return None


def _check_rank_one(report) -> str | None:
    P, Q, S, T = (_decode(report[k]) for k in "PQST")
    defect = float(np.max(np.abs((P - Q) - (S @ T - T @ S))))
    scale = max(1.0, float(np.max(np.abs(S))) * float(np.max(np.abs(T))) * len(S))
    if defect > CERTIFICATE_TOL * scale:
        return f"pair defect {defect:.3e}"
    for m in (S, T):
        s = np.linalg.svd(m, compute_uv=False)
        if int(np.sum(s > 1e-9 * s[0])) != 1:
            return "commutator factor is not rank one"
    return None


def _check_functional(report, planted: str) -> str | None:
    want = {
        "scalar": (True, True),
        "blockwise": (False, True),
        "dense": (False, False),
    }[planted]
    got = (report["is_scalar_trace"], report["is_tracial"])
    if got != want:
        return f"(scalar trace, tracial) = {got} for a {planted} functional, expected {want}"
    return None


def _check_classify_report(report, sizes) -> str | None:
    dims = [r["ideal_dimension"] for r in report["block_ideals"]]
    if dims != [n * n for n in sizes]:
        return f"block ideal dimensions {dims}"
    if report["socle_is_minimal_ideal"] != (len(sizes) == 1):
        return "minimal-ideal verdict disagrees with the block count"
    return None


def _check_verify_report(report, trials) -> str | None:
    if report["functional_count"] != 3 * trials:
        return f"{report['functional_count']} functionals for {trials} trials"
    failed = sorted(k for k, v in report["verdicts"].items() if not v["holds"])
    return f"verdicts not holding: {failed}" if failed else None


def _pairing_ok(u, v) -> bool:
    return abs(u @ v) >= 1e-2 * np.linalg.norm(u) * np.linalg.norm(v)


def cli_documents(seed: int) -> list[tuple[str, list[str], str, Callable]]:
    """(label, argv, stdin text, report check) for all ten commands."""
    docs = []

    def add(label, argv, payload, inner):
        text = "" if payload is None else json.dumps(payload)
        docs.append((label, argv, text, _cli_check(inner)))

    k = 0

    def rng():
        nonlocal k
        k += 1
        return _rng(seed, 6, k)

    # Four documents per command, five for check-functional: 41, odd
    # and at least 40 (see SMALL_SPECS).
    for sizes in [(8,), (6, 10), (32,), (2, 3)]:
        blocks = [_gaussian(rng(), (n, n)) for n in sizes]
        add(f"spectrum {sizes}", ["spectrum"], _element_doc(blocks),
            lambda r, b=blocks: _check_spectrum(r, b))
    for sizes, ranks in [((2, 3), (1, 2)), ((4, 4), (4, 4)), ((8,), (5,)), ((1, 1, 4), (1, 0, 2))]:
        r = rng()
        blocks = [low_rank_block(r, n, q) for n, q in zip(sizes, ranks)]
        add(f"rank {sizes}", ["rank", "--seed", str(k)], _element_doc(blocks),
            lambda rep, q=sum(ranks): _check_rank(rep, q))
    for sizes, scale in [((16,), 1.0), ((6, 10), 1e3), ((8,), 1e-3), ((4, 4), 1.0)]:
        blocks, _ = maximal_blocks(rng(), sizes)
        blocks = [scale * b for b in blocks]
        add(f"trace maximal {sizes} x{scale:g}", ["trace", "--seed", str(k)],
            _element_doc(blocks), lambda r, b=blocks: _check_trace(r, b))
    for sizes, count in [((32,), 3), ((6, 10), 1), ((16,), 2), ((8,), 1)]:
        blocks, values = maximal_blocks(rng(), sizes)
        payload = {"element": _element_doc(blocks), "targets": _vec(values[:count])}
        add(f"riesz {sizes} {count} targets", ["riesz"], payload,
            lambda r, c=count: _check_riesz(r, c))
    for sizes in [(32,), (8, 8), (16,), (6, 10)]:
        blocks, values = maximal_blocks(rng(), sizes)
        add(f"diagonalize {sizes}", ["diagonalize", "--seed", str(k)],
            _element_doc(blocks),
            lambda r, b=blocks, q=len(values): _check_diagonalize(r, b, q))
    for n in (32, 8, 16, 4):
        g = _gaussian(rng(), (n, n))
        m = g - (np.trace(g) / n) * np.eye(n)
        add(f"commutator {n}x{n}", ["commutator"], {"matrix": _pairs(m)},
            lambda r, m=m: _check_commutator(r, m))
    for n in (32, 4, 16, 8):
        r = rng()
        vecs: list[np.ndarray] = []
        while len(vecs) < 4:
            u, v = _gaussian(r, n), _gaussian(r, n)
            if _pairing_ok(u, v):
                vecs.extend([u, v])
        payload = dict(zip("xfyg", (_vec(v) for v in vecs)))
        add(f"rank-one-commutator {n}", ["rank-one-commutator"], payload, _check_rank_one)
    for sizes, planted in [
        ((4,), "scalar"), ((2, 3), "blockwise"), ((2, 3), "dense"), ((2, 2), "scalar"), ((4,), "dense")
    ]:
        r = rng()
        if planted == "dense":
            weights = [_gaussian(r, (n, n)) for n in sizes]
        else:
            alphas = [complex(1.5 + i, r.uniform(-1, 1)) for i in range(len(sizes))]
            if planted == "scalar":
                alphas = alphas[:1] * len(sizes)
            weights = [al * np.eye(n) for al, n in zip(alphas, sizes)]
        add(f"check-functional {planted} {sizes}", ["check-functional", "--seed", str(k)],
            {"weights": [_pairs(w) for w in weights]},
            lambda rep, p=planted: _check_functional(rep, p))
    for sizes in [(2, 3, 1), (4, 4), (3,), (2, 2)]:
        spec = json.dumps({"block_sizes": list(sizes)})
        s = str(rng().integers(0, 2**31))
        add(f"classify {sizes}", ["classify", "--spec", spec, "--seed", s], None,
            lambda r, sz=sizes: _check_classify_report(r, sz))
    for sizes in [(3,), (2, 2), (1, 2), (4,)]:
        spec = json.dumps({"block_sizes": list(sizes)})
        s = str(rng().integers(0, 2**31))
        add(f"verify {sizes}",
            ["verify", "--spec", spec, "--trials", str(VERIFY_TRIALS), "--seed", s],
            None, lambda r: _check_verify_report(r, VERIFY_TRIALS))
    return docs


def build_cli_report(seed: int) -> list[Op]:
    return [
        Op(label, lambda argv=argv, text=text: run_cli(argv, text), check, (argv, text))
        for label, argv, text, check in cli_documents(seed)
    ]


# Workload name -> corpus builder taking the seed.
WORKLOADS = {
    "rank-probe": build_rank_probe,
    "trace-riesz": build_trace_riesz,
    "verify-structure": build_verify_structure,
    "cli-report": build_cli_report,
}


# -- report digests ---------------------------------------------------


def canonical(obj, h) -> None:
    """Feed a deterministic byte encoding of a result into hash ``h``.

    Arrays contribute their raw bytes, floats their repr, so two results
    hash equal exactly when they are bit-identical.
    """
    if isinstance(obj, CliResult):
        h.update(b"cli%d:" % obj.code)
        h.update(obj.text.encode())
    elif isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, soclelab.Element):
        canonical(obj.blocks, h)
    elif isinstance(obj, soclelab.Functional):
        canonical(obj.weights, h)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            canonical(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            canonical(obj[key], h)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            canonical(item, h)
        h.update(b"]")
    elif isinstance(obj, (frozenset, set)):
        canonical(sorted(obj), h)
    else:
        h.update(repr(obj).encode())


def corpus_digest(name: str, seed: int) -> str:
    """SHA-256 over the generated inputs of one workload."""
    h = hashlib.sha256()
    for op in WORKLOADS[name](seed):
        h.update(op.label.encode())
        canonical(op.inputs, h)
    return h.hexdigest()
