"""Certified Perron eigenvalue computation for nonnegative integer matrices.

The matrix is split into strongly connected blocks; each irreducible block
A' is handled by power iteration on A' + Id (the diagonal shift makes the
block aperiodic, so the iteration converges even when A' is periodic).  Every
reported value carries a two-sided Collatz-Wielandt certificate

    min_i (Bv)_i / v_i  <=  lambda(B)  <=  max_i (Bv)_i / v_i

evaluated on a strictly positive iterate v, so the error bound is rigorous
up to floating-point rounding.  Natural logarithm throughout.

Matrices are held as CSR in plain lists and numpy arrays; scipy is not
imported.  The matvec ``np.bincount(rows, weights=data * v[cols])`` adds
each row's products in stored order, as a CSR matvec does, so the values
are bitwise those of scipy's ``csr_matvec``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, ValidationError
from .graph import Digraph

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SpectralResult:
    """Perron eigenvalue estimate with a certified half-width.

    The true eigenvalue lies in [value - error_bound, value + error_bound];
    witness_block/witness_vector record the dominant irreducible block and
    the positive iterate whose Collatz-Wielandt ratios produced the interval.
    Block indices are 0-based row indices of the input matrix.
    """

    value: float
    error_bound: float
    iterations: int
    witness_block: tuple[int, ...] = ()
    witness_vector: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.value - self.error_bound < -1e-12:
            raise ValidationError("certified interval dips below zero")


def _to_csr(a) -> tuple[int, list[int], list[int], np.ndarray]:
    """A square nonnegative matrix as CSR lists: (n, indptr, indices, data).

    Takes a Digraph, a dense array-like, or a sparse matrix with a
    ``tocsr`` method (scipy's), which keeps its stored entry order.
    """
    if isinstance(a, Digraph):
        indptr = [0]
        indices: list[int] = []
        for row in a.succ:
            indices.extend(j - 1 for j in row)
            indptr.append(len(indices))
        return a.n, indptr, indices, np.ones(len(indices))
    if hasattr(a, "tocsr"):
        mat = a.tocsr()
        shape = mat.shape
        indptr = mat.indptr.tolist()
        indices = mat.indices.tolist()
        data = np.asarray(mat.data, dtype=float)
    else:
        dense = np.asarray(a, dtype=float)
        if dense.ndim != 2:
            raise ValidationError("matrix must be square")
        shape = dense.shape
        rows, cols = np.nonzero(dense)
        data = dense[rows, cols]
        indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).tolist()
        indices = cols.tolist()
    if shape[0] != shape[1]:
        raise ValidationError("matrix must be square")
    if data.size and data.min() < 0:
        raise ValidationError("matrix must be nonnegative")
    return shape[0], indptr, indices, data


def _csr_sccs(n: int, indptr, indices) -> list[list[int]]:
    """Iterative Tarjan on a CSR pattern; returns 0-based components."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        work: list[tuple[int, int]] = [(root, indptr[root])]
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
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
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


def perron_eigenvalue(a, tol: float = DEFAULT_TOL, iteration_cap: int | None = None) -> SpectralResult:
    """Perron eigenvalue of a square nonnegative matrix, certified to ``tol``.

    Accepts a dense array-like, a scipy sparse matrix, or a Digraph.  Raises
    NoConvergenceError if some block's certified interval does not shrink
    below ``tol`` within the iteration cap (default 100 n^2 + 1000 per block).
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    n, indptr, indices, data = _to_csr(a)
    comps = _csr_sccs(n, indptr, indices)

    results: list[tuple[float, float, tuple[int, ...], tuple[float, ...]]] = []
    total_iters = 0
    for comp in comps:
        if len(comp) == 1:
            v = comp[0]
            val = _entry(indptr, indices, data, v, v)
            results.append((val, 0.0, (v,), (1.0,)))
            continue
        # the block's entries, each row in stored order
        local = {v: i for i, v in enumerate(comp)}
        rows: list[int] = []
        cols: list[int] = []
        take: list[int] = []
        for v in comp:
            for ptr in range(indptr[v], indptr[v + 1]):
                col = local.get(indices[ptr])
                if col is not None:
                    rows.append(local[v])
                    cols.append(col)
                    take.append(ptr)
        block_rows = np.array(rows, dtype=np.int64)
        block_cols = np.array(cols, dtype=np.int64)
        block_data = data[take]
        nb = len(comp)
        cap = iteration_cap if iteration_cap is not None else 100 * nb * nb + 1000
        vec = np.ones(nb)
        iters = 0
        while True:
            # (A' + Id) v
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
        value = (lo + hi) / 2.0 - 1.0
        err = (hi - lo) / 2.0
        results.append((value, err, tuple(comp), tuple(float(x) for x in vec)))

    best = max(range(len(results)), key=lambda k: results[k][0])
    value, err_best, block_ids, vec_out = results[best]
    # lambda_true <= max_k (value_k + err_k); fold that into the half-width.
    overshoot = max((v + e) - value for v, e, _, _ in results)
    error_bound = max(err_best, overshoot, 0.0)
    return SpectralResult(value, error_bound, total_iters, block_ids, vec_out)


def _entry(indptr: list[int], indices: list[int], data: np.ndarray, i: int, j: int) -> float:
    for ptr in range(indptr[i], indptr[i + 1]):
        if indices[ptr] == j:
            return float(data[ptr])
    return 0.0


def sft_entropy(t: Digraph, tol: float = DEFAULT_TOL) -> float:
    """log of the Perron eigenvalue of the transition matrix (natural log).

    Requires the degree invariant (every vertex has an incoming and an
    outgoing edge), which guarantees the eigenvalue is at least 1.
    """
    if not t.is_pruned():
        raise ValidationError("transition graph must be pruned (no stranded vertices)")
    res = perron_eigenvalue(t, tol=tol)
    return float(np.log(max(res.value, 1.0)))
