import ast
import importlib
import inspect
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
import soclelab.riesz as riesz
from soclelab.algebra import CLUSTER_TOL, MAX_BLOCK_ENTRIES, cluster_eigenvalues, idempotent_rank
from soclelab.algebra import _clustered, nonzero_spectrum_counts
from soclelab.errors import (
    NonFiniteEntryError,
    ShapeMismatchError,
    SingularResolventError,
    SVDConvergenceError,
)
from soclelab.sampling import random_element, random_invertible, random_maximal_element, rng_for

from conftest import reference_cluster, reference_spectrum, report_order, single


class TestConstruction:
    def test_spec_validation(self):
        with pytest.raises(ShapeMismatchError):
            sl.AlgebraSpec(())
        with pytest.raises(ShapeMismatchError):
            sl.AlgebraSpec((2, 0))
        spec = sl.AlgebraSpec((2, 3))
        assert spec.dimension == 13
        assert spec.matrix_dimension == 5

    def test_block_entries_are_bounded(self):
        largest = int(np.sqrt(MAX_BLOCK_ENTRIES))
        assert sl.AlgebraSpec((1, largest)).block_sizes == (1, largest)
        for sizes in [(largest + 1,), (2, 100000), (10**400,)]:
            with pytest.raises(ShapeMismatchError, match="entries of the largest block"):
                sl.AlgebraSpec(sizes)

    def test_block_shape_checked(self, spec23):
        with pytest.raises(ShapeMismatchError):
            sl.Element(spec23, [np.eye(2), np.eye(2)])
        with pytest.raises(ShapeMismatchError):
            sl.Element(spec23, [np.eye(2)])

    def test_rejects_non_finite(self, m2):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteEntryError):
            sl.Element(m2, [bad])


class TestArithmetic:
    def test_identity_single(self):
        spec = sl.AlgebraSpec((1,))
        np.testing.assert_array_equal(sl.identity(spec).blocks[0], [[1.0]])

    def test_identity_two_blocks(self, spec23):
        one = sl.identity(spec23)
        np.testing.assert_array_equal(one.blocks[0], np.eye(2))
        np.testing.assert_array_equal(one.blocks[1], np.eye(3))

    def test_identity_neutral(self, spec23):
        a = random_element(spec23, rng_for(3))
        one = sl.identity(spec23)
        for left, orig in zip((one @ a).blocks, a.blocks):
            np.testing.assert_allclose(left, orig)
        for right, orig in zip((a @ one).blocks, a.blocks):
            np.testing.assert_allclose(right, orig)

    def test_unit_product(self, m2):
        e12 = sl.matrix_unit(m2, 0, 0, 1)
        e21 = sl.matrix_unit(m2, 0, 1, 0)
        np.testing.assert_array_equal(
            (e12 @ e21).blocks[0], sl.matrix_unit(m2, 0, 0, 0).blocks[0]
        )

    def test_scale_by_zero(self, spec23):
        a = random_element(spec23, rng_for(5))
        z = sl.scale(0.0, a)
        assert all(np.all(b == 0) for b in z.blocks)

    def test_addition_blockwise(self, spec23):
        rng = rng_for(7)
        a = random_element(spec23, rng)
        b = random_element(spec23, rng)
        for sblock, ablock, bblock in zip((a + b).blocks, a.blocks, b.blocks):
            np.testing.assert_allclose(sblock, ablock + bblock)

    def test_spec_mismatch_raises(self, m2, m3):
        with pytest.raises(ShapeMismatchError):
            sl.identity(m2) @ sl.identity(m3)


class TestSpectrum:
    def test_identity_spectrum(self, spec23):
        rep = sl.spectrum(sl.identity(spec23))
        assert rep.points == ((1 + 0j, 5),)
        assert not rep.contains_zero

    def test_mixed_spectrum_by_hand(self, spec23):
        # char polys: (x-1)(x-2) on block 1, x^3 on block 2
        a = sl.Element(spec23, [np.diag([1.0, 2.0]), np.zeros((3, 3))])
        rep = sl.spectrum(a)
        assert dict((v, m) for v, m in rep.points) == {2: 1, 1: 1, 0: 3}
        assert rep.contains_zero

    def test_nilpotent_spectrum(self, m2):
        rep = sl.spectrum(sl.matrix_unit(m2, 0, 0, 1))
        assert rep.points == ((0j, 2),)

    def test_merges_close_values(self):
        a = single(np.diag([1.0, 1.0 + 1e-9]))
        rep = sl.spectrum(a)
        assert len(rep.points) == 1
        assert rep.points[0][1] == 2

    def test_far_apart_merge_writes_no_warning(self):
        # the merged center 5e307 lies 2e308 from -1.5e308: the overflowed
        # distance is inf, no merge, and no RuntimeWarning (an error here)
        rep = sl.spectrum(single(np.diag([5e307, 5e307, -1.5e308])))
        assert rep.points == ((-1.5e308 + 0j, 1), (5e307 + 0j, 2))

    def test_multiplicity_conservation_random(self, spec23):
        for i in range(20):
            a = random_element(spec23, rng_for(11, i))
            assert sum(m for _, m in sl.spectrum(a).points) == spec23.matrix_dimension

    def test_jacobson_nonzero_spectra_agree(self, spec23):
        # product order never changes the nonzero spectrum
        for i in range(10):
            rng = rng_for(13, i)
            x = random_element(spec23, rng)
            a = random_element(spec23, rng)
            left = np.sort_complex(sl.spectrum(x @ a).nonzero_values)
            right = np.sort_complex(sl.spectrum(a @ x).nonzero_values)
            assert len(left) == len(right)
            np.testing.assert_allclose(left, right, atol=1e-8, rtol=1e-8)


def one_row(values, tol_abs):
    """The surviving centers and counts of one row, clustered as a stack of one."""
    centers, counts = cluster_eigenvalues(np.asarray(values)[None], tol_abs)
    live = counts[0] > 0
    return centers[0, live], counts[0, live]


def assert_same_clusters(values, tol_abs):
    centers, counts = one_row(values, tol_abs)
    ref_centers, ref_counts = reference_cluster(values, tol_abs)
    assert centers.tobytes() == ref_centers.tobytes()
    assert counts.tobytes() == ref_counts.tobytes()


def _grid(pairs):
    # one decimal makes exact ties between pairwise distances common
    return [complex(re, im) / 10 for re, im in pairs]


def _pairs(size, bound):
    return st.lists(
        st.tuples(st.integers(-bound, bound), st.integers(-bound, bound)),
        min_size=size,
        max_size=size,
    )


@st.composite
def cluster_row(draw, n):
    """n eigenvalues: a tie grid, a zero cluster beside one, or Gaussian."""
    kind = draw(st.sampled_from(["grid", "zero", "gauss"]))
    if kind == "grid":
        return _grid(draw(_pairs(n, 15)))
    if kind == "zero":
        m = draw(st.integers(0, n))
        noise = [1e-9 * complex(re, im) for re, im in draw(_pairs(m, 9))]
        return noise + _grid(draw(_pairs(n - m, 15)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return list(rng.standard_normal(n) + 1j * rng.standard_normal(n))


RADII = [1e-6, 1e-3, 0.1, 0.15, 0.3, 0.75, 2.0]


@st.composite
def cluster_stack(draw, n=None, max_rows=6):
    """A (p, n) eigenvalue stack and one merge radius per row."""
    if n is None:
        n = draw(st.integers(1, 12))
    p = draw(st.integers(1, max_rows))
    rows = np.array([draw(cluster_row(n)) for _ in range(p)], dtype=complex)
    radii = np.array(draw(st.lists(st.sampled_from(RADII), min_size=p, max_size=p)))
    return rows.reshape(p, n), radii


# unit directions on the axes, where a modulus is exact, and off them
DIRECTIONS = [1, -1, 1j, -1j, np.exp(0.25j * np.pi), np.exp(2j)]


@st.composite
def threshold_row(draw, n):
    """n eigenvalues on the thresholds of the count's separation test.

    An anchor of modulus up to 1e300 fixes the merge radius r. Every
    other value has modulus r/2, r or 2r, or lies r or 2r from a value
    drawn before it, each times 1 + 2**-k, 1 or 1 - 2**-k; or it is an
    exact signed zero. The row is then shuffled.
    """
    anchor = draw(st.sampled_from([0.5, 1.0, 3.0, 1e6, 1e150, 1e300]))
    row = [anchor * draw(st.sampled_from(DIRECTIONS))]
    r = CLUSTER_TOL * max(float(np.abs(row[0])), 1.0)
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["modulus", "gap", "zero"]))
        if kind == "zero":
            row.append(complex(*draw(st.tuples(*[st.sampled_from([0.0, -0.0])] * 2))))
            continue
        k = draw(st.integers(1, 53))
        step = r * draw(st.sampled_from([1 + 2.0**-k, 1.0, 1 - 2.0**-k]))
        step *= draw(st.sampled_from(DIRECTIONS))
        if kind == "modulus":
            row.append(draw(st.sampled_from([0.5, 1.0, 2.0])) * step)
        else:
            row.append(draw(st.sampled_from(row)) + draw(st.sampled_from([1.0, 2.0])) * step)
    return draw(st.permutations(row))


class TestClustering:
    @settings(max_examples=300, deadline=None)
    @given(
        # one decimal makes exact ties between pairwise distances common
        points=st.lists(
            st.tuples(st.integers(-15, 15), st.integers(-15, 15)), max_size=30
        ),
        tol_abs=st.sampled_from([1e-6, 0.1, 0.15, 0.3, 0.75, 2.0]),
    )
    def test_matches_rebuilding_reference(self, points, tol_abs):
        values = np.array([complex(re, im) for re, im in points]) / 10
        assert_same_clusters(values, tol_abs)

    @settings(max_examples=300, deadline=None)
    @given(stack=cluster_stack())
    def test_stack_matches_per_row_loop(self, stack):
        rows, radii = stack
        centers, counts = cluster_eigenvalues(rows, radii)
        assert centers.shape == counts.shape == rows.shape
        for k, (row, radius) in enumerate(zip(rows, radii)):
            ref_centers, ref_counts = reference_cluster(row, radius)
            live = counts[k] > 0
            assert centers[k][live].tobytes() == ref_centers.tobytes()
            assert counts[k][live].tobytes() == ref_counts.tobytes()
            assert_same_clusters(row, radius)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_result_ignores_its_stack_mates(self, data):
        rows, radii = data.draw(cluster_stack())
        mates, mate_radii = data.draw(cluster_stack(n=rows.shape[1]))
        p = len(rows)
        order = data.draw(st.permutations(range(p + len(mates))))
        mixed = cluster_eigenvalues(
            np.concatenate([rows, mates])[order], np.concatenate([radii, mate_radii])[order]
        )
        alone = cluster_eigenvalues(rows, radii)
        for pos, k in enumerate(order):
            if k < p:
                for got, want in zip(mixed, alone):
                    assert got[pos].tobytes() == want[k].tobytes()

    def test_sixty_fold_zero_cluster(self):
        rng = rng_for(7)
        noise = 1e-9 * (rng.standard_normal(60) + 1j * rng.standard_normal(60))
        values = np.concatenate([noise, [1.0, 1.0 + 2e-7, 2.0j]])
        assert_same_clusters(values, 1e-6)
        assert sorted(one_row(values, 1e-6)[1].tolist()) == [1, 2, 60]

    @settings(max_examples=300, deadline=None)
    @given(stack=cluster_stack())
    def test_nonzero_counts_match_per_row_reference(self, stack):
        rows, _ = stack
        counts = nonzero_spectrum_counts(rows)
        assert counts.shape == (len(rows),)
        for row, count in zip(rows, counts.tolist()):
            radius = CLUSTER_TOL * max(np.abs(row).max(), 1.0)
            centers, _ = reference_cluster(row, radius)
            assert count == int(np.sum(np.abs(centers) > radius))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_counts_at_the_separation_thresholds(self, data):
        n = data.draw(st.integers(1, 8))
        p = data.draw(st.integers(1, 6))
        vals = np.array([data.draw(threshold_row(n)) for _ in range(p)], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            counts = nonzero_spectrum_counts(vals)
        assert counts.tolist() == [len(reference_spectrum(row)[1]) for row in vals]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_clustered_rows_match_the_reference(self, data):
        """Each row of the :func:`_clustered` table, separated or clustered,
        against :func:`reference_spectrum`: its nonzero values and their
        counts, its multiplicity of 0 and its radius. Rows from the
        threshold and the cluster strategies share a stack."""
        n = data.draw(st.integers(1, 8))
        p = data.draw(st.integers(1, 6))
        kinds = st.sampled_from([threshold_row, cluster_row])
        vals = np.array([data.draw(data.draw(kinds)(n)) for _ in range(p)], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            radii, centers, counts, nonzero = _clustered(vals)
        for row, radius, c, m, nz in zip(vals, radii, centers, counts, nonzero):
            want_radius, want_points, want_zero = reference_spectrum(row)
            points = sorted(zip(c[nz].tolist(), m[nz].tolist()), key=report_order)
            assert repr(points) == repr(want_points)
            assert int(m[(m > 0) & ~nz].sum()) == want_zero
            assert repr(float(radius)) == repr(want_radius)

    def test_separated_spectra_make_no_clustering_call(self, clustering_calls):
        a = random_maximal_element(sl.AlgebraSpec((2, 3, 8)), rng_for(29))
        sl.spectrum(a)
        riesz._perturbed_spectra(a, 0)
        assert clustering_calls == []
        # the pair at 1 is within the radius: the one row is clustered
        sl.spectrum(single(np.diag([1.0, 1.0, 2.0])))
        assert [call.shape for call in clustering_calls] == [(1, 3)]

    def test_rows_merge_at_their_own_radius(self):
        # radius 1e-6 keeps the pair in row 0 apart; 1e-4 merges the one in row 1
        vals = np.array([[0.5, 0.5 + 2e-6, 0], [100, 50, 50 + 1e-5]], dtype=complex)
        assert nonzero_spectrum_counts(vals).tolist() == [2, 2]


class TestSpectralRadius:
    def test_identity(self, spec23):
        assert sl.spectral_radius(sl.identity(spec23)) == 1.0

    def test_nilpotent_is_zero(self, m2):
        assert sl.spectral_radius(sl.matrix_unit(m2, 0, 0, 1)) == 0.0

    def test_direct_eigenvalues(self):
        a = single(np.diag([3.0, -4.0j]))
        assert sl.spectral_radius(a) == pytest.approx(4.0)


class TestResolvent:
    def test_zero_element(self, m2):
        r = sl.resolvent(sl.zero(m2), 1.0)
        np.testing.assert_allclose(r.blocks[0], np.eye(2))

    def test_scalar_resolvent(self):
        a = single(np.diag([1.0, 2.0]))
        r = sl.resolvent(a, 3.0)
        np.testing.assert_allclose(r.blocks[0], np.diag([0.5, 1.0]))

    def test_on_eigenvalue_raises(self):
        a = single(np.diag([1.0, 2.0]))
        with pytest.raises(SingularResolventError) as err:
            sl.resolvent(a, 2.0)
        assert err.value.eigenvalue == pytest.approx(2.0)

    def test_residual_small(self, spec23):
        one = sl.identity(spec23)
        for i in range(10):
            a = random_element(spec23, rng_for(17, i))
            z = 5.0 + 1.0j  # comfortably outside the Gaussian spectrum
            r = sl.resolvent(a, z)
            defect = sl.operator_norm((sl.scale(z, one) - a) @ r - one)
            assert defect < 1e-10


class TestClassicalOracles:
    def test_rank_identity(self, m3):
        assert sl.classical_rank(sl.identity(m3)) == 3

    def test_rank_by_row_reduction(self, m2):
        # e11 + e12 has one nonzero row
        a = sl.matrix_unit(m2, 0, 0, 0) + sl.matrix_unit(m2, 0, 0, 1)
        assert sl.classical_rank(a) == 1

    def test_rank_zero(self, spec23):
        assert sl.classical_rank(sl.zero(spec23)) == 0

    def test_rank_ignores_roundoff_blocks(self, spec23):
        a = sl.Element(spec23, [np.eye(2), 1e-15 * np.ones((3, 3))])
        assert sl.classical_rank(a) == 2

    def test_rank_svd_failure_is_typed(self, m2):
        a = sl.Element(m2, (np.full((2, 2), np.nan, dtype=complex),), _checked=True)
        with pytest.raises(SVDConvergenceError) as info:
            sl.classical_rank(a)
        assert info.value.details() == {"block_index": 0}

    def test_trace_identity(self, spec23):
        assert sl.classical_trace(sl.identity(spec23)) == 5

    def test_trace_nilpotent(self, m2):
        assert sl.classical_trace(sl.matrix_unit(m2, 0, 0, 1)) == 0

    def test_trace_diagonal_sum(self):
        a = sl.Element(sl.AlgebraSpec((2, 1)), [np.diag([1.0, 2.0]), [[3.0]]])
        assert sl.classical_trace(a) == 6

    def test_rank_monotone_under_multiplication(self, spec23):
        for i in range(10):
            rng = rng_for(19, i)
            a = sl.sampling.random_low_rank_element(spec23, rng)
            x = random_element(spec23, rng)
            assert sl.classical_rank(x @ a) <= sl.classical_rank(a)
            u = random_invertible(spec23, rng)
            assert sl.classical_rank(u @ a) == sl.classical_rank(a)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    exponent=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_idempotent_rank_survives_any_error_below_one_half(n, exponent, seed):
    # Weyl: the nonzero singular values of an idempotent are at least 1
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, n + 1))
    s = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 10.0**exponent
    s += 3 * np.sqrt(n) * 10.0**exponent * np.eye(n)
    p = s @ np.diag([1.0] * r + [0.0] * (n - r)) @ np.linalg.inv(s)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e *= 0.45 / np.linalg.norm(e, 2)
    assert idempotent_rank(single(p + e)) == r


def public_functions():
    """Qualified name -> function, for every public function and method
    defined in a soclelab module."""
    found = {}
    for info in pkgutil.iter_modules(sl.__path__):
        module = importlib.import_module(f"soclelab.{info.name}")
        owners = [module] + [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        ]
        for owner in owners:
            for name, fn in inspect.getmembers(owner, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == module.__name__:
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def test_no_public_function_takes_a_tolerance():
    """Thresholds are module constants, read where they are applied, never
    per-call parameters: no public function or method of any soclelab
    module takes ``tol``, ``floor`` or ``*_tol``."""
    found = public_functions()
    knobs = [
        f"{name}({p})"
        for name, fn in found.items()
        for p in inspect.signature(fn).parameters
        if p in ("tol", "floor") or p.endswith("_tol")
    ]
    assert {"soclelab.algebra.spectrum", "soclelab.algebra.SpectrumReport.gap"} <= set(found)
    assert knobs == []


def test_no_public_function_takes_a_parameter_it_never_reads():
    """Every parameter of every function or method defined in ``soclelab``,
    public, private and nested alike (``self`` and ``cls`` aside), is
    read somewhere in its body: an input that nothing reads is deleted,
    not accepted and ignored."""
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "soclelab").glob("*.py"))
    unread, checked = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            checked.add(f"{path.name}:{node.name}")
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            unread += [
                f"{path.name}:{node.lineno}:{node.name}({p.arg})"
                for p in params
                if p.arg not in ("self", "cls") and p.arg not in read
            ]
    # public, private and nested functions are all checked
    assert {"algebra.py:spectrum", "riesz.py:_contour_solves", "cli.py:integer"} <= checked
    assert unread == []


class _Reads(ast.NodeVisitor):
    """Every name an ``ast.Name`` or ``ast.Attribute`` reads, outside the
    body of a function of that same name."""

    def __init__(self):
        self.names, self.defs = set(), []

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id not in self.defs:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.defs:
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_exported_function_is_reached():
    """Each public function of every ``soclelab`` module is read by the
    package, a demo or a benchmark script: an answer the package
    computes has one public path, and a second path that only tests
    reach is deleted. The re-exports in ``__init__.py`` and the
    benchmark's own tests do not count."""
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in (root / "src" / "soclelab").glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "demos").glob("*.py"), *(root / "bench").glob("*.py")]
    reads = _Reads()
    for path in paths:
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    unreached = sorted(
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(sl.__path__)
        for name, fn in inspect.getmembers(
            importlib.import_module(f"soclelab.{info.name}"), inspect.isfunction
        )
        if not name.startswith("_")
        and fn.__module__ == f"soclelab.{info.name}"
        and name not in reads.names
        # the sampling generators are inputs, for the tests and demos
        and info.name != "sampling"
    )
    # evaluate is the independent oracle: the tests re-check every witness
    # that characterize returns against it, so the package itself never
    # calls it
    assert unreached == ["functionals.evaluate"]


def test_every_module_constant_is_read():
    """Each module-level UPPER_CASE constant of ``soclelab`` is read by the
    package: a threshold or setting that nothing applies is deleted."""
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "soclelab").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    reads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    reads |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    constants = [
        f"{module}:{target.id}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
    ]
    assert "algebra.py:CLUSTER_TOL" in constants
    assert [c for c in constants if c.split(":")[1] not in reads] == []


def test_one_writer_of_json_text():
    """``cli._dumps`` writes every report and error, and ``errors.quote_json``
    an offending value inside a message: nothing else in ``soclelab``
    calls ``json.dumps``, and no module reaches into ``json.encoder``."""
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "soclelab").glob("*.py"))
    callers, imported, attributes = [], [], []
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps":
                    callers.append(where)
                elif isinstance(node, ast.Import):
                    imported += [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported += [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    attributes.append(ast.unparse(node))
    assert callers == ["cli._dumps", "errors.quote_json"]
    # json is imported whole, so no bare dumps escapes the count above
    assert [name for name in imported if name.startswith("json.")] == []
    assert [name for name in attributes if name.startswith("json.encoder")] == []


def test_every_private_function_is_called():
    """Each module-level ``_name`` function of ``soclelab`` is read by the
    package outside its own body: a helper that nothing calls is
    deleted with its last caller. Tests do not count."""
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "soclelab").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = _Reads()
    for tree in trees.values():
        reads.visit(tree)
    helpers = [
        f"{module}:{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    ]
    assert "algebra.py:_clustered" in helpers
    assert [h for h in helpers if h.split(":")[1] not in reads.names] == []


def test_only_rank_probing_and_the_contour_take_counts():
    """Each certified route runs at one configuration: a probe count is a
    parameter only of rank probing, and a node count only of the contour
    projection."""
    takers = {
        knob: sorted(
            name for name, fn in public_functions().items()
            if knob in inspect.signature(fn).parameters
        )
        for knob in ("probes", "nodes")
    }
    assert takers == {
        "probes": ["soclelab.rank.spectral_rank"],
        "nodes": ["soclelab.riesz.riesz_projection"],
    }
