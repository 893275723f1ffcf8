"""Perron eigenvalue computation and its Collatz-Wielandt certificates."""

import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tigraph
import tigraph.spectral as spectral
from tigraph import (
    Digraph,
    NoConvergenceError,
    SpectralResult,
    TIGraph,
    UGraph,
    ValidationError,
    perron_eigenvalue,
    prune_stranded,
    serialize_tigraph,
    sft_entropy,
    ti_from_circle,
)
from tigraph.ingest import AffinePiece, Arc, CircleMap, IntervalCover
from tigraph.spectral import FLOAT_LOOP_MAX_ENTRIES, NUMPY_IMPORT_WORK, _to_csr
from tigraph.structure import _tarjan

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
    for bad in ([1, 2], np.zeros((2, 2, 2)), np.float64(1.0)):  # 1-D, 3-D, 0-D
        with pytest.raises(ValidationError, match="matrix must be square"):
            perron_eigenvalue(bad)
    with pytest.raises(ValidationError):
        perron_eigenvalue([[-1]])
    with pytest.raises(ValidationError, match="nonempty"):
        perron_eigenvalue(np.zeros((0, 0)))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            perron_eigenvalue([[1, bad], [1, 1]])
    for tol in (0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            perron_eigenvalue([[1]], tol=tol)


@pytest.mark.parametrize("cap", [0, -1, True, False, 2.5, "5"])
def test_iteration_cap_other_than_none_or_a_positive_int_is_refused(cap):
    with pytest.raises(ValidationError, match="iteration_cap must be None or an int >= 1"):
        perron_eigenvalue([[1, 1], [1, 0]], iteration_cap=cap)


@pytest.mark.parametrize(
    "a, value, iterations, block",
    [
        ([[1e-20]], "0x1.79ca10c924223p-67", 0, (0,)),
        ([[5.7, 0, 0], [0, 0, 1], [0, 1, 0]], "0x1.6cccccccccccdp+2", 1, (0,)),
        ([[3, 0], [0, 0]], "0x1.8000000000000p+1", 0, (0,)),
    ],
    ids=["tiny_entry", "beside_a_regular_block", "beside_an_empty_vertex"],
)
def test_one_vertex_blocks_keep_their_entry_bitwise(a, value, iterations, block):
    # a one-vertex block is its stored diagonal entry (or 0), with no step
    res = perron_eigenvalue(a)
    assert res.value.hex() == value
    assert res.error_bound.hex() == "0x0.0p+0"
    assert res.iterations == iterations
    assert res.witness_block == block
    assert res.witness_vector == (1.0,)


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
def irreducible_int_matrices(draw, n_min=2, n_max=12):
    """Nonnegative integer matrices made strongly connected by a cycle."""
    n = draw(st.integers(n_min, n_max))
    entries = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    a = np.array(entries, dtype=int).reshape(n, n)
    for i in range(n):
        a[i, (i + 1) % n] = max(a[i, (i + 1) % n], 1)
    return a


def _above_the_crossover(a):
    return np.count_nonzero(a) > FLOAT_LOOP_MAX_ENTRIES


# blocks that iterate in numpy; those of n <= 12 drawn above mostly do not
large_irreducible_int_matrices = irreducible_int_matrices(n_min=8, n_max=24).filter(_above_the_crossover)


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


@given(st.one_of(irreducible_int_matrices(), large_irreducible_int_matrices))
@settings(max_examples=120, deadline=None)
def test_matvec_is_bitwise_scipy_csr(a):
    res = perron_eigenvalue(a)
    value, err, iters, vec = _scipy_power_iteration(a)
    assert (res.value, res.error_bound, res.iterations, res.witness_vector) == (value, err, iters, vec)


@given(small_01_matrices(n_max=9))
@settings(max_examples=60, deadline=None)
def test_dense_digraph_and_scipy_sparse_inputs_agree(a):
    # the Digraph, array and list forms; a scipy matrix is refused (below)
    n = a.shape[0]
    edges = [(i + 1, j + 1) for i, j in zip(*np.nonzero(a))]
    expect = perron_eigenvalue(a)
    assert perron_eigenvalue(Digraph.from_edges(n, edges)) == expect
    assert perron_eigenvalue(a.tolist()) == expect


def test_sparse_input_is_validated():
    # numpy's own ValueError or TypeError never leaks out
    with pytest.raises(ValidationError, match="numeric"):
        perron_eigenvalue([[1, 2], [3]])
    with pytest.raises(ValidationError, match="numeric"):
        perron_eigenvalue([["a"]])
    sparse = pytest.importorskip("scipy.sparse")
    with pytest.raises(ValidationError, match="numeric"):
        perron_eigenvalue(sparse.csr_array(np.ones((2, 2))))


HEAVY_MODULES = ("numpy", "scipy", "_hashlib")


def _heavy_modules_after(*argvs):
    """Which of numpy, scipy and _hashlib a fresh interpreter holds after
    importing ``tigraph.cli`` and running ``main`` on each argv."""
    src = str(Path(tigraph.__file__).resolve().parents[1])
    script = (
        f"import contextlib, io, json, sys; sys.path.insert(0, {src!r}); import tigraph.cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert tigraph.cli.main(argv) == 0, argv\n"
        f"print(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_scipy():
    # nor numpy, nor OpenSSL through hashlib's _hashlib
    assert _heavy_modules_after() == []


def test_reports_whose_blocks_are_regular_load_no_numpy(tmp_path, dbl):
    # every Perron block of both reports has one vertex or equal row sums
    arcs = [
        Arc.from_endpoints(Fraction(5 * i - 1, 1000), Fraction(5 * (i + 1) + 1, 1000))
        for i in range(200)
    ]
    cmap = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(3), Fraction(0)),))
    cover, _ = prune_stranded(ti_from_circle(cmap, IntervalCover(tuple(arcs))))
    (tmp_path / "dbl.json").write_text(serialize_tigraph(dbl))
    (tmp_path / "cover.json").write_text(serialize_tigraph(cover))
    loaded = _heavy_modules_after(
        ["report", str(tmp_path / "dbl.json")],
        ["report", str(tmp_path / "cover.json"), "--m-max", "2"],
    )
    assert loaded == []


def _non_regular_survey_graphs(corpus, count):
    """The first ``count`` graphs of ``corpus`` whose T is one block with
    unequal row sums, each as JSON."""
    found = []
    for d in corpus:
        res = perron_eigenvalue(Digraph.from_edges(d["n"], [tuple(e) for e in d["t_edges"]]))
        if res.iterations > 1 and len(res.witness_block) == d["n"]:
            found.append(json.dumps(d))
        if len(found) == count:
            return found
    raise AssertionError("too few non-regular survey graphs")


def test_reports_load_numpy_only_for_a_block_above_the_crossover(tmp_path, dbl, survey_corpus):
    # the golden-mean T: one block with row sums 2 and 1
    gm = TIGraph(Digraph.from_edges(2, [(1, 1), (1, 2), (2, 1)]), UGraph.from_edges(2, []))
    (tmp_path / "dbl.json").write_text(serialize_tigraph(dbl))
    (tmp_path / "gm.json").write_text(serialize_tigraph(gm))
    argvs = [["oracle", str(tmp_path / "dbl.json"), "-n", "2"], ["report", str(tmp_path / "gm.json")]]
    for k, text in enumerate(_non_regular_survey_graphs(survey_corpus, 3)):
        (tmp_path / f"survey{k}.json").write_text(text)
        argvs.append(["report", str(tmp_path / f"survey{k}.json")])
    # the complete digraph on n vertices less one edge, with I empty: its
    # one block, of n^2 - 1 entries, is above the crossover and not regular,
    # but converges in plain floats within the import budget
    n = math.isqrt(FLOAT_LOOP_MAX_ENTRIES + 1) + 1
    edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if (i, j) != (1, 2)]
    assert len(edges) > FLOAT_LOOP_MAX_ENTRIES
    t = Digraph.from_edges(n, edges)
    assert len(edges) * perron_eigenvalue(t).iterations <= NUMPY_IMPORT_WORK
    (tmp_path / "big.json").write_text(serialize_tigraph(TIGraph(t, UGraph.from_edges(n, []))))
    argvs.append(["report", str(tmp_path / "big.json"), "--m-max", "1"])
    assert _heavy_modules_after(*argvs) == []
    # a 60-cycle with the chord 1 -> 30, with I empty: 61 entries and
    # thousands of steps, so its plain work passes the budget
    edges = [(i, i % 60 + 1) for i in range(1, 61)] + [(1, 30)]
    t = Digraph.from_edges(60, edges)
    assert len(edges) > FLOAT_LOOP_MAX_ENTRIES
    assert len(edges) * perron_eigenvalue(t).iterations > NUMPY_IMPORT_WORK
    (tmp_path / "slow.json").write_text(serialize_tigraph(TIGraph(t, UGraph.from_edges(60, []))))
    assert _heavy_modules_after(["report", str(tmp_path / "slow.json"), "--m-max", "1"]) == ["numpy"]


def _complete_digraph_perron(n, preload_numpy):
    """Every field of ``perron_eigenvalue`` on the complete digraph on n
    vertices, floats as hex, and whether numpy was loaded after it, from a
    fresh interpreter that first imports numpy if ``preload_numpy``."""
    src = str(Path(tigraph.__file__).resolve().parents[1])
    script = (
        f"import json, sys; sys.path.insert(0, {src!r})\n"
        + ("import numpy\n" if preload_numpy else "")
        + "from itertools import product\nfrom tigraph import Digraph, perron_eigenvalue\n"
        f"r = perron_eigenvalue(Digraph.from_edges({n}, product(range(1, {n} + 1), repeat=2)))\n"
        "fields = [r.value.hex(), r.error_bound.hex(), r.iterations, list(r.witness_block)]\n"
        "print(json.dumps(fields + [[x.hex() for x in r.witness_vector], 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_row_regular_block_above_the_crossover_stops_at_its_first_step():
    # 64 entries: the first step runs in numpy when numpy is loaded, and in
    # plain floats, importing nothing, when it is not; both give one result
    n = 8
    assert n * n > FLOAT_LOOP_MAX_ENTRIES
    *numpy_fields, numpy_loaded = _complete_digraph_perron(n, preload_numpy=True)
    *plain_fields, plain_loaded = _complete_digraph_perron(n, preload_numpy=False)
    assert numpy_loaded and not plain_loaded
    assert numpy_fields == plain_fields
    assert plain_fields == [float(n).hex(), (0.0).hex(), 1, list(range(n)), [(1.0).hex()] * n]


def test_a_row_regular_block_above_the_import_budget_loads_no_numpy():
    # 224^2 = 50,176 entries: the one plain step it is allowed settles it
    n = 224
    assert n * n > NUMPY_IMPORT_WORK
    *fields, loaded = _complete_digraph_perron(n, preload_numpy=False)
    assert not loaded
    assert fields[:3] == [float(n).hex(), (0.0).hex(), 1]


@given(large_irreducible_int_matrices, st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_handing_the_iterate_to_numpy_at_any_step_changes_nothing(a, plain):
    # the plain and numpy steps are bitwise equal, so wherever the iterate
    # changes hands the result is scipy's, iteration count and iterate too
    with patch.object(spectral, "_plain_steps", lambda entries, cap: plain):
        res = perron_eigenvalue(a)
    value, err, iters, vec = _scipy_power_iteration(a)
    assert (res.value, res.error_bound, res.iterations, res.witness_vector) == (value, err, iters, vec)


def _pad_above_the_crossover(a):
    """``a`` with a complete block of new vertices joined to its vertex 0,
    so that the one block has more than FLOAT_LOOP_MAX_ENTRIES entries."""
    k = math.isqrt(FLOAT_LOOP_MAX_ENTRIES) + 1
    n = len(a)
    big = np.zeros((n + k, n + k))
    big[:n, :n] = a
    big[n:, n:] = 1.0
    big[0, n] = big[n, 0] = 1.0
    return big


# an overflow at the first step, and a vec_i that underflows to 0 after
# hundreds of steps (vertex 3's entry is about 1e-600 of vertex 0's)
OVERFLOW = [[0.0, 1e308], [1e308, 1e308]]
UNDERFLOW = [[0, 1, 0, 1], [1, 0, 0, 0], [1e-300, 0, 0, 0], [0, 0, 1e-300, 0]]


@pytest.mark.parametrize(
    "a, message",
    [
        (OVERFLOW, "iterate not finite after 1 iterations"),
        (_pad_above_the_crossover(OVERFLOW), "iterate not finite after 1 iterations"),
        (UNDERFLOW, "iterate not finite after"),
        (_pad_above_the_crossover(UNDERFLOW), "iterate not finite after"),
    ],
    ids=["overflow", "overflow_numpy", "underflow", "underflow_numpy"],
)
def test_a_non_finite_iterate_stops_the_iteration(a, message):
    # at the first infinite or nan ratio, not at the iteration cap, on both
    # sides of the crossover, and with no RuntimeWarning from numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergenceError, match=f"^block of size {len(a)}: {message}"):
            perron_eigenvalue(a)


@st.composite
def row_regular_matrices(draw, n_max=10):
    """Irreducible row-regular matrices, as (dense array, form).

    A cyclic permutation (which makes the matrix irreducible) plus random
    permutation matrices, each adding one weight to every row.  The
    "digraph" form keeps 0/1 entries by skipping a permutation that meets
    the support; "float" weights the permutations by random floats, whose
    row sums then agree only up to rounding.
    """
    n = draw(st.integers(2, n_max))
    form = draw(st.sampled_from(["digraph", "int", "float"]))
    a = np.zeros((n, n), dtype=float if form == "float" else int)
    perms = [[(i + 1) % n for i in range(n)]]
    perms += draw(st.lists(st.permutations(range(n)), max_size=4))
    for perm in perms:
        if form == "digraph" and any(a[i, j] for i, j in enumerate(perm)):
            continue
        weight = draw(st.floats(0.125, 8.0)) if form == "float" else 1
        for i, j in enumerate(perm):
            a[i, j] += weight
    return a, form


@given(row_regular_matrices())
@settings(max_examples=150, deadline=None)
def test_row_regular_blocks_are_read_off_their_first_step(case):
    a, form = case
    n = a.shape[0]
    given_a = (
        Digraph.from_edges(n, [(i + 1, j + 1) for i, j in zip(*np.nonzero(a))]) if form == "digraph" else a
    )
    res = perron_eigenvalue(given_a)
    assert res.iterations == 1
    assert res.witness_block == tuple(range(n))
    assert _bits(res) == _bits(_reference_perron(given_a))
    value, err, iters, vec = _scipy_power_iteration(a)
    assert (res.value, res.error_bound, res.iterations, res.witness_vector) == (value, err, iters, vec)
    if form != "float":
        assert res.error_bound == 0.0
        assert res.value == float(a[0].sum())


# --- the iteration against an independent reference loop ---------------------


def _reference_sccs(n, indptr, indices):
    """Iterative Tarjan on a CSR pattern; 0-based components, each sorted."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        work = [(root, indptr[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, ptr = work[-1]
            advanced = False
            while ptr < indptr[v + 1]:
                w = indices[ptr]
                ptr += 1
                if not index[w]:
                    work[-1] = (v, ptr)
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, indptr[w]))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


@st.composite
def sparse_digraphs(draw, n_max=12):
    """Random digraphs of up to 2n edges, loops allowed: most have vertices
    on no cycle and vertices that no earlier root reaches."""
    n = draw(st.integers(1, n_max))
    edges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    return Digraph.from_edges(n, edges)


@given(sparse_digraphs())
@settings(max_examples=300, deadline=None)
def test_tarjan_lists_components_in_the_reference_order(t):
    # perron_eigenvalue names the failing block and breaks witness ties by it
    succ, indptr, indices, _ = _to_csr(t)
    comps = [sorted(v - 1 for v in comp) for comp in _tarjan(t.n, succ)]
    assert comps == _reference_sccs(t.n, indptr, indices)


def _reference_perron(a, tol=1e-10, iteration_cap=None):
    """The single-matrix power iteration, one block after another."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    _, indptr, indices, data = _to_csr(a)
    n = len(indptr) - 1
    results = []
    total_iters = 0
    for comp in _reference_sccs(n, indptr, indices):
        if len(comp) == 1:
            v = comp[0]
            val = next(
                (float(data[p]) for p in range(indptr[v], indptr[v + 1]) if indices[p] == v), 0.0
            )
            results.append((val, 0.0, (v,), (1.0,)))
            continue
        local = {v: i for i, v in enumerate(comp)}
        rows, cols, take = [], [], []
        for v in comp:
            for ptr in range(indptr[v], indptr[v + 1]):
                col = local.get(indices[ptr])
                if col is not None:
                    rows.append(local[v])
                    cols.append(col)
                    take.append(ptr)
        block_rows = np.array(rows, dtype=np.int64)
        block_cols = np.array(cols, dtype=np.int64)
        block_data = np.asarray(data)[take]
        nb = len(comp)
        cap = iteration_cap if iteration_cap is not None else 100 * nb * nb + 1000
        vec = np.ones(nb)
        iters = 0
        while True:
            w = np.bincount(block_rows, weights=block_data * vec[block_cols], minlength=nb) + vec
            iters += 1
            ratios = w / vec
            lo = float(ratios.min())
            hi = float(ratios.max())
            if hi - lo <= 2.0 * tol:
                break
            if iters >= cap:
                raise NoConvergenceError(
                    f"block of size {nb}: interval width {hi - lo:.3e} after {iters} iterations"
                )
            vec = w / w.max()
        total_iters += iters
        results.append(((lo + hi) / 2.0 - 1.0, (hi - lo) / 2.0, tuple(comp), tuple(float(x) for x in vec)))
    best = max(range(len(results)), key=lambda k: results[k][0])
    value, err_best, block_ids, vec_out = results[best]
    overshoot = max((v + e) - value for v, e, _, _ in results)
    return SpectralResult(value, max(err_best, overshoot, 0.0), total_iters, block_ids, vec_out)


def _bits(res: SpectralResult):
    """Every field of a result, floats by their exact bit pattern."""
    return (
        res.value.hex(),
        res.error_bound.hex(),
        res.iterations,
        res.witness_block,
        tuple(x.hex() for x in res.witness_vector),
    )


@st.composite
def block_matrices(draw, n_max=9):
    """0/1 or small-integer matrices of the shapes the iteration treats apart.

    Reducible (random sparse), periodic (a cycle of cyclic classes), a
    singleton with or without a loop among other blocks, and all-zero.
    """
    n = draw(st.integers(1, n_max))
    kind = draw(st.sampled_from(["random", "periodic", "loops", "zero"]))
    a = np.zeros((n, n), dtype=int)
    if kind == "random":
        a = _random_01_matrix(draw, n) * draw(st.integers(1, 3))
    elif kind == "periodic":
        # p cyclic classes v % p, edges only into the next class, and a
        # Hamiltonian cycle through them so the graph is irreducible
        p = draw(st.integers(1, min(n, 4)))
        n -= n % p
        a = np.zeros((n, n), dtype=int)
        for i in range(n):
            a[i, (i + 1) % n] = 1
            for j in range((i + 1) % p, n, p):
                a[i, j] |= int(draw(st.booleans()))
    elif kind == "loops":
        for i in range(n):
            a[i, i] = int(draw(st.booleans()))
        if n > 2:
            a[1, 2] = a[2, 1] = 1
    return a


def _as_input(a, form):
    if form == "digraph" and (a <= 1).all():
        n = a.shape[0]
        return Digraph.from_edges(n, [(i + 1, j + 1) for i, j in zip(*np.nonzero(a))])
    if form == "list":
        return a.tolist()
    return a


input_forms = st.sampled_from(["dense", "digraph", "list"])


@given(block_matrices(), input_forms)
@settings(max_examples=300, deadline=None)
def test_results_are_bitwise_the_reference_loop(a, form):
    a = _as_input(a, form)
    assert _bits(perron_eigenvalue(a)) == _bits(_reference_perron(a))


def _outcome(fn):
    try:
        return [_bits(r) for r in fn()]
    except (NoConvergenceError, ValidationError) as exc:
        return (type(exc), str(exc))


@given(
    st.lists(st.tuples(block_matrices(n_max=7), input_forms), min_size=1, max_size=6),
    st.integers(1, 3),
)
@settings(max_examples=120, deadline=None)
def test_iteration_cap_raises_for_the_first_failing_matrix_and_block(mats, cap):
    mats = [_as_input(a, form) for a, form in mats]
    expect = _outcome(lambda: [_reference_perron(a, iteration_cap=cap) for a in mats])
    assert _outcome(lambda: [perron_eigenvalue(a, iteration_cap=cap) for a in mats]) == expect


def test_iteration_cap_error_names_the_first_block():
    # a 3-cycle needs several steps; its block comes before the 4-cycle's
    a = np.zeros((7, 7), dtype=int)
    for i in range(3):
        a[i, (i + 1) % 3] = 1
    a[0, 0] = 1
    for i in range(4):
        a[3 + i, 3 + (i + 1) % 4] = 1
    a[3, 3] = 1
    expect = _outcome(lambda: [_reference_perron(a, iteration_cap=2)])
    assert expect[0] is NoConvergenceError and "block of size 3" in expect[1]
    assert _outcome(lambda: [perron_eigenvalue(a, iteration_cap=2)]) == expect
