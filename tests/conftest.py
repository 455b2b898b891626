import numpy as np
import pytest
from hypothesis import strategies as st

from soclelab import AlgebraSpec, Element, algebra
from soclelab.sampling import complex_gaussian, rng_for


@pytest.fixture
def m2():
    return AlgebraSpec((2,))


@pytest.fixture
def m3():
    return AlgebraSpec((3,))


@pytest.fixture
def spec23():
    return AlgebraSpec((2, 3))


@pytest.fixture
def spec22():
    return AlgebraSpec((2, 2))


@pytest.fixture
def clustering_calls(monkeypatch):
    """The stacks passed to ``algebra.cluster_eigenvalues``, one array per
    call, recorded while the test runs."""
    calls = []
    real = algebra.cluster_eigenvalues

    def counted(*args, **kwargs):
        calls.append(np.array(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(algebra, "cluster_eigenvalues", counted)
    return calls


def reference_cluster(values, tol_abs):
    """Agglomerative clustering that rebuilds the distance matrix every merge."""
    order = np.lexsort((values.imag, values.real))
    centers = values[order].astype(complex)
    counts = np.ones(len(centers), dtype=int)
    while len(centers) > 1:
        diff = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(diff, np.inf)
        i, j = np.unravel_index(int(np.argmin(diff)), diff.shape)
        if diff[i, j] > tol_abs:
            break
        if i > j:
            i, j = j, i
        w = counts[i] + counts[j]
        centers[i] = (counts[i] * centers[i] + counts[j] * centers[j]) / w
        counts[i] = w
        centers = np.delete(centers, j)
        counts = np.delete(counts, j)
    return centers, counts


def report_order(point):
    """The order of a spectrum report's points: modulus down, then real
    and imaginary part up."""
    value = point[0]
    return -abs(value), value.real, value.imag


def reference_spectrum(row):
    """One row of eigenvalues by :func:`reference_cluster` at the merge
    radius ``CLUSTER_TOL * max(|v|, 1)``: the radius, the nonzero values
    with their counts in :func:`report_order`, and the multiplicity of
    the value 0, the centers within the radius of 0."""
    radius = algebra.CLUSTER_TOL * max(float(np.abs(row).max()), 1.0)
    centers, counts = reference_cluster(np.asarray(row, dtype=complex), radius)
    zero = np.abs(centers) <= radius
    points = sorted(zip(centers[~zero].tolist(), counts[~zero].tolist()), key=report_order)
    return radius, points, int(counts[zero].sum())


def single(matrix) -> Element:
    """Element of the one-block algebra holding the given matrix."""
    m = np.asarray(matrix, dtype=complex)
    return Element(AlgebraSpec((m.shape[0],)), [m])


def dft_conjugated_jordan(n, value=0.0):
    """F (value I + J_n) F* on one block: F the unitary n-point DFT, F_jk =
    e^(2 pi i jk/n) / sqrt(n), and J_n the nilpotent Jordan block."""
    k = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return single(f @ (value * np.eye(n) + np.diag(np.ones(n - 1), 1)) @ f.conj().T)


def _unitary(n, rng):
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _similarity(n, kappa, rng):
    """U diag(s) W with U, W unitary and s in [1, kappa], so cond <= kappa."""
    return _unitary(n, rng) @ np.diag(rng.uniform(1.0, kappa, n)) @ _unitary(n, rng)


@st.composite
def similar_maximal(draw):
    """(blocks, nonzero values) of an element built as S D S^-1 per block.

    D holds the block's nonzero values, then its kernel of zeros; S is
    U diag(s) W with U, W unitary and s in [1, kappa], so cond(S) <= 1e2.
    The nonzero values are distinct points of the lattice 0.15 * Z[i], so
    any two are at least 0.15 apart and at least 0.15 from 0."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    kernels = [draw(st.integers(0, n)) for n in sizes]
    if sum(sizes) == sum(kernels):
        kernels[0] -= 1
    count = sum(sizes) - sum(kernels)
    lattice = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any)
    points = draw(st.lists(lattice, min_size=count, max_size=count, unique=True))
    values = [0.15 * complex(re, im) for re, im in points]
    kappa = draw(st.floats(1.0, 1e2))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    blocks, pos = [], 0
    for n, k in zip(sizes, kernels):
        d = np.zeros(n, dtype=complex)
        d[: n - k] = values[pos : pos + n - k]
        pos += n - k
        s = _similarity(n, kappa, rng)
        blocks.append(s @ np.diag(d) @ np.linalg.inv(s))
    return blocks, values


@st.composite
def similar_elements(draw):
    """(kind, element) around the maximal case, from :func:`similar_maximal`.

    - "maximal": the S D S^-1 element itself;
    - "zero-block": the same with a zero block appended;
    - "repeated": its blocks followed by unitary conjugates of them, so
      every nonzero value is taken twice and the rank doubles;
    - "identity": the unit of its algebra;
    - "nilpotent": S N S^-1 per block, N strictly upper triangular.
    """
    kind = draw(
        st.sampled_from(["maximal", "zero-block", "repeated", "identity", "nilpotent"])
    )
    blocks, _ = draw(similar_maximal())
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero-block":
        n = draw(st.integers(1, 3))
        blocks = blocks + [np.zeros((n, n), dtype=complex)]
    elif kind == "repeated":
        unitaries = [_unitary(len(b), rng) for b in blocks]
        blocks = blocks + [q @ b @ q.conj().T for q, b in zip(unitaries, blocks)]
    elif kind == "identity":
        blocks = [np.eye(len(b), dtype=complex) for b in blocks]
    elif kind == "nilpotent":
        kappa = draw(st.floats(1.0, 1e2))
        blocks = [
            s @ np.triu(complex_gaussian(rng, s.shape), k=1) @ np.linalg.inv(s)
            for s in (_similarity(len(b), kappa, rng) for b in blocks)
        ]
    spec = AlgebraSpec(tuple(len(b) for b in blocks))
    return kind, Element(spec, blocks)
