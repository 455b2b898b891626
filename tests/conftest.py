import numpy as np
import pytest
from hypothesis import strategies as st

from soclelab import AlgebraSpec, Element
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


def single(matrix) -> Element:
    """Element of the one-block algebra holding the given matrix."""
    m = np.asarray(matrix, dtype=complex)
    return Element(AlgebraSpec((m.shape[0],)), [m])


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
