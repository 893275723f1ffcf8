"""Perron eigenvalue computation and its Collatz-Wielandt certificates."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tigraph
from tigraph import Digraph, ValidationError, perron_eigenvalue, sft_entropy

GOLDEN = (1 + math.sqrt(5)) / 2
PLASTIC = 1.3247179572447460  # positive root of x^3 = x + 1


def test_golden_ratio_matrix():
    res = perron_eigenvalue([[1, 1], [1, 0]])
    assert abs(res.value - GOLDEN) <= res.error_bound + 1e-12
    assert res.error_bound <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_all_ones_matrix(k):
    res = perron_eigenvalue(np.ones((k, k), dtype=int))
    assert abs(res.value - k) <= 1e-9


def test_plastic_number(plastic):
    res = perron_eigenvalue(plastic)
    assert abs(res.value - PLASTIC) <= 1e-9
    assert abs(math.log(res.value) - 0.281) <= 5e-4


def test_zero_matrix_and_nilpotent():
    assert perron_eigenvalue([[0]]).value == 0.0
    assert perron_eigenvalue([[0, 1], [0, 0]]).value == 0.0


def test_reducible_max_over_blocks():
    # two disjoint cycles of different sizes: lambda = 1 either way, but a
    # 2x2 all-ones block dominates the 2-cycle
    a = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    res = perron_eigenvalue(a)
    assert abs(res.value - 2.0) <= 1e-9
    assert set(res.witness_block) == {0, 1}


def test_periodic_block_converges():
    # pure 4-cycle is periodic; the diagonal shift must still converge
    a = np.roll(np.eye(4, dtype=int), 1, axis=1)
    res = perron_eigenvalue(a)
    assert abs(res.value - 1.0) <= 1e-9


def test_invalid_inputs():
    with pytest.raises(ValidationError):
        perron_eigenvalue([[1, 2, 3]])
    with pytest.raises(ValidationError):
        perron_eigenvalue([[-1]])
    with pytest.raises(ValidationError):
        perron_eigenvalue([[1]], tol=0)


def test_sft_entropy_self_loop():
    assert sft_entropy(Digraph.from_edges(1, [(1, 1)])) == 0.0


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sft_entropy_complete_digraph(k):
    edges = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
    assert abs(sft_entropy(Digraph.from_edges(k, edges)) - math.log(k)) <= 1e-9


def test_sft_entropy_golden_mean_graph():
    t = Digraph.from_edges(2, [(1, 1), (1, 2), (2, 1)])
    assert abs(sft_entropy(t) - math.log(GOLDEN)) <= 1e-9


def test_sft_entropy_requires_pruned():
    with pytest.raises(ValidationError):
        sft_entropy(Digraph.from_edges(2, [(1, 2)]))


def _random_01_matrix(draw, n):
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(bits, dtype=int).reshape(n, n)


@st.composite
def small_01_matrices(draw, n_max=8):
    n = draw(st.integers(1, n_max))
    return _random_01_matrix(draw, n)


@given(small_01_matrices())
@settings(max_examples=80, deadline=None)
def test_matches_numpy_eigenvalues(a):
    res = perron_eigenvalue(a)
    lam_true = max(abs(np.linalg.eigvals(a.astype(float))))
    assert abs(res.value - lam_true) <= res.error_bound + 1e-7


@given(small_01_matrices(n_max=6))
@settings(max_examples=60, deadline=None)
def test_monotone_in_edges(a):
    res1 = perron_eigenvalue(a)
    b = a.copy()
    zeros = np.argwhere(b == 0)
    if len(zeros) == 0:
        return
    i, j = zeros[0]
    b[i, j] = 1
    res2 = perron_eigenvalue(b)
    assert res2.value >= res1.value - 2e-10


@given(small_01_matrices(n_max=6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(a, rnd):
    n = a.shape[0]
    perm = list(range(n))
    rnd.shuffle(perm)
    p = np.eye(n, dtype=int)[perm]
    res1 = perron_eigenvalue(a)
    res2 = perron_eigenvalue(p @ a @ p.T)
    assert abs(res1.value - res2.value) <= 2e-10


@given(small_01_matrices(n_max=8), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_power_identity(a, k):
    lam = perron_eigenvalue(a).value
    lam_k = perron_eigenvalue(np.linalg.matrix_power(a, k)).value
    assert abs(lam_k - lam**k) <= 1e-6 * max(1.0, lam**k)


@given(small_01_matrices(n_max=7))
@settings(max_examples=80, deadline=None)
def test_interval_brackets_rayleigh_quotient(a):
    res = perron_eigenvalue(a)
    if len(res.witness_block) < 2:
        return
    idx = np.array(res.witness_block)
    block = a[np.ix_(idx, idx)].astype(float) + np.eye(len(idx))
    v = np.array(res.witness_vector)
    rayleigh = float(v @ (block @ v) / (v @ v))
    lo = res.value + 1 - res.error_bound
    hi = res.value + 1 + res.error_bound
    assert lo - 1e-12 <= rayleigh <= hi + 1e-12


@st.composite
def irreducible_int_matrices(draw, n_max=12):
    """Nonnegative integer matrices made strongly connected by a cycle."""
    n = draw(st.integers(2, n_max))
    entries = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    a = np.array(entries, dtype=int).reshape(n, n)
    for i in range(n):
        a[i, (i + 1) % n] = max(a[i, (i + 1) % n], 1)
    return a


def _scipy_power_iteration(a, tol=1e-10):
    """The power iteration on an irreducible matrix with scipy's CSR matvec."""
    sparse = pytest.importorskip("scipy.sparse")
    block = sparse.csr_array(np.asarray(a, dtype=float))
    vec = np.ones(block.shape[0])
    iters = 0
    while True:
        w = block @ vec + vec
        iters += 1
        ratios = w / vec
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= 2.0 * tol:
            break
        vec = w / w.max()
    value, err = (lo + hi) / 2.0 - 1.0, (hi - lo) / 2.0
    return value, max(err, (value + err) - value), iters, tuple(float(x) for x in vec)


@given(irreducible_int_matrices())
@settings(max_examples=60, deadline=None)
def test_matvec_is_bitwise_scipy_csr(a):
    res = perron_eigenvalue(a)
    value, err, iters, vec = _scipy_power_iteration(a)
    assert (res.value, res.error_bound, res.iterations, res.witness_vector) == (value, err, iters, vec)


@given(small_01_matrices(n_max=9))
@settings(max_examples=60, deadline=None)
def test_dense_digraph_and_scipy_sparse_inputs_agree(a):
    sparse = pytest.importorskip("scipy.sparse")
    n = a.shape[0]
    edges = [(i + 1, j + 1) for i, j in zip(*np.nonzero(a))]
    expect = perron_eigenvalue(a)
    assert perron_eigenvalue(Digraph.from_edges(n, edges)) == expect
    assert perron_eigenvalue(a.tolist()) == expect
    assert perron_eigenvalue(sparse.csr_array(a)) == expect
    assert perron_eigenvalue(sparse.coo_matrix(a)) == expect


def test_sparse_input_is_validated():
    sparse = pytest.importorskip("scipy.sparse")
    with pytest.raises(ValidationError, match="square"):
        perron_eigenvalue(sparse.csr_array(np.ones((2, 3))))
    with pytest.raises(ValidationError, match="nonnegative"):
        perron_eigenvalue(sparse.csr_array(np.array([[1.0, -1.0], [1.0, 0.0]])))


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(tigraph.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import tigraph.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
