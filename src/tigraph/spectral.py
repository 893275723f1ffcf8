"""Certified Perron eigenvalue computation for nonnegative integer matrices.

Each matrix is split into strongly connected blocks; each irreducible block
A' is handled by power iteration on A' + Id (the diagonal shift makes the
block aperiodic, so the iteration converges even when A' is periodic).  Every
reported value carries a two-sided Collatz-Wielandt certificate

    min_i (Bv)_i / v_i  <=  lambda(B)  <=  max_i (Bv)_i / v_i

evaluated on a strictly positive iterate v, so the error bound is rigorous
up to floating-point rounding.  Natural logarithm throughout.

``perron_eigenvalues`` runs the blocks of many matrices in one power
iteration over their concatenated entries: one ``np.bincount`` per step
gives every block's (A' + Id) v, and ``reduceat`` takes each block's ratio
bounds and maximum.  Each block is recorded at its own convergence step or
cap, and every block runs until the last one is recorded.  Blocks share no
entry, ``bincount`` row or ``reduceat`` segment, so each block's values go
through the same IEEE operations in the same order as when it runs alone:
every result is bitwise the one ``perron_eigenvalue`` gives for its matrix.

Matrices are held as CSR in plain lists and numpy arrays; scipy is not
imported.  The matvec ``np.bincount(rows, weights=data * v[cols])`` adds
each row's products in stored order, as a CSR matvec does, so the values
are bitwise those of scipy's ``csr_matvec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, compress

import numpy as np

from .errors import NoConvergenceError, ValidationError
from .graph import Digraph
from .structure import _tarjan

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


def _to_csr(a) -> tuple[tuple, list[int], list[int], np.ndarray]:
    """A square nonnegative matrix as (succ, indptr, indices, data).

    ``succ[i]`` lists the 1-based columns stored in row i, the form
    ``structure._tarjan`` reads.  Takes a Digraph, a dense array-like, or a
    sparse matrix with a ``tocsr`` method (scipy's), which keeps its stored
    entry order.
    """
    if isinstance(a, Digraph):
        indptr = list(accumulate(map(len, a.succ), initial=0))
        indices = [j - 1 for row in a.succ for j in row]
        return a.succ, indptr, indices, np.ones(len(indices))
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
    succ = tuple([j + 1 for j in indices[indptr[i] : indptr[i + 1]]] for i in range(shape[0]))
    return succ, indptr, indices, data


def _split(a, iteration_cap: int | None) -> tuple[list, list]:
    """One matrix as its per-component parts and its irreducible blocks.

    ``parts`` has one slot per strongly connected component, in Tarjan
    order: a singleton's (value, 0.0, (v,), (1.0,), 0) is filled in here;
    a block's slot is None until the iteration fills it.  Each block is
    (slot, component, rows and cols, data, cap): its entries in stored
    order, rows and columns numbered from 0 within the block.
    """
    succ, indptr, indices, data = _to_csr(a)
    parts: list = []
    blocks: list = []
    for comp in _tarjan(len(succ), succ):
        comp = sorted(v - 1 for v in comp)
        if len(comp) == 1:
            v = comp[0]
            parts.append((_entry(indptr, indices, data, v, v), 0.0, (v,), (1.0,), 0))
            continue
        nb = len(comp)
        pos = {v: i for i, v in enumerate(comp)}
        rows: list[int] = []
        cols: list[int] = []
        take: list[int] = []
        for v in comp:
            for ptr in range(indptr[v], indptr[v + 1]):
                col = pos.get(indices[ptr])
                if col is not None:
                    rows.append(pos[v])
                    cols.append(col)
                    take.append(ptr)
        cap = iteration_cap if iteration_cap is not None else 100 * nb * nb + 1000
        blocks.append((len(parts), tuple(comp), np.array([rows, cols]), data[take], cap))
        parts.append(None)
    return parts, blocks


def _iterate(blocks: list, tol: float) -> list[tuple[float, float, int, tuple[float, ...]]]:
    """Power iteration on A' + Id for every block at once.

    Returns (lo, hi, iterations, v) per block, where v is the iterate whose
    ratios gave the bounds lo and hi.  A block is recorded at its first step
    with hi - lo <= 2 tol, or else at its cap, and runs on until the last
    block is recorded.
    """
    sizes = [len(b[1]) for b in blocks]
    starts = list(accumulate(sizes[:-1], initial=0))
    at = np.array(starts)  # reduceat converts a list on every call
    rows, cols = np.concatenate([b[2] + s for b, s in zip(blocks, starts)], axis=1)
    data = np.concatenate([b[3] for b in blocks])
    caps = [b[4] for b in blocks]
    running = [True] * len(blocks)  # until recorded
    first_cap = min(caps)  # of the running blocks
    block_of = np.repeat(np.arange(len(blocks)), sizes)  # position -> block
    out: list = [None] * len(blocks)
    vec = np.ones(block_of.size)
    width_tol = 2.0 * tol
    iters = 0
    while True:
        # (A' + Id) v, every block at once
        prod = vec[cols]
        prod *= data
        w = np.bincount(rows, weights=prod, minlength=vec.size)
        w += vec
        iters += 1
        ratios = w / vec
        lo = np.minimum.reduceat(ratios, at)
        hi = np.maximum.reduceat(ratios, at)
        width = (hi - lo).tolist()  # a list's min costs less than a ufunc reduce
        if min(compress(width, running)) <= width_tol or iters >= first_cap:
            for k, cap in enumerate(caps):
                if running[k] and (width[k] <= width_tol or cap <= iters):
                    running[k] = False
                    block_vec = tuple(vec[starts[k] : starts[k] + sizes[k]].tolist())
                    out[k] = (float(lo[k]), float(hi[k]), iters, block_vec)
            if not any(running):
                return out
            first_cap = min(compress(caps, running))
        w /= np.maximum.reduceat(w, at)[block_of]
        vec = w


def _solve(batch: list, tol: float) -> list[SpectralResult]:
    """Results of the split matrices of one batch, in order.

    Raises the NoConvergenceError of the first matrix, and within it of the
    first block, that reached its cap, as a one-matrix loop would.
    """
    blocks = [b for _, mat_blocks in batch for b in mat_blocks]
    outcomes = iter(_iterate(blocks, tol) if blocks else ())
    results = []
    for parts, mat_blocks in batch:
        for (slot, comp, _, _, _), (lo, hi, iters, vec) in zip(mat_blocks, outcomes):
            if hi - lo > 2.0 * tol:
                raise NoConvergenceError(
                    f"block of size {len(comp)}: interval width {hi - lo:.3e} after {iters} iterations"
                )
            parts[slot] = ((lo + hi) / 2.0 - 1.0, (hi - lo) / 2.0, comp, vec, iters)
        best = max(range(len(parts)), key=lambda k: parts[k][0])
        value, err_best, block_ids, vec_out, _ = parts[best]
        # lambda_true <= max_k (value_k + err_k); fold that into the half-width.
        overshoot = max((v + e) - value for v, e, _, _, _ in parts)
        error_bound = max(err_best, overshoot, 0.0)
        total_iters = sum(part[4] for part in parts)
        results.append(SpectralResult(value, error_bound, total_iters, block_ids, vec_out))
    return results


def perron_eigenvalues(
    mats, tol: float = DEFAULT_TOL, iteration_cap: int | None = None
) -> list[SpectralResult]:
    """``perron_eigenvalue`` of every matrix of an iterable, in one iteration.

    The iterable is read once and no matrix is kept once its blocks are
    built, so the matrices of a generator are never all in memory at once.
    Every result is bitwise the one-matrix one.  Raises the error that
    calling ``perron_eigenvalue`` on the matrices in order would raise first.
    """
    if not 0 < tol < math.inf:  # also false for nan
        raise ValidationError("tol must be positive and finite")
    batch: list = []
    for a in mats:
        try:
            batch.append(_split(a, iteration_cap))
        except ValidationError:
            _solve(batch, tol)  # an earlier matrix's NoConvergenceError comes first
            raise
    return _solve(batch, tol)


def perron_eigenvalue(a, tol: float = DEFAULT_TOL, iteration_cap: int | None = None) -> SpectralResult:
    """Perron eigenvalue of a square nonnegative matrix, certified to ``tol``.

    Accepts a dense array-like, a scipy sparse matrix, or a Digraph.  Raises
    NoConvergenceError if some block's certified interval does not shrink
    below ``tol`` within the iteration cap (default 100 n^2 + 1000 per block).
    """
    return perron_eigenvalues((a,), tol, iteration_cap)[0]


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
