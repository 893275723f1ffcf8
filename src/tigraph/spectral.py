"""Certified Perron eigenvalue computation for nonnegative integer matrices.

Each matrix is split into strongly connected blocks; each irreducible block
A' is handled by power iteration on A' + Id (the diagonal shift makes the
block aperiodic, so the iteration converges even when A' is periodic).  Every
reported value carries a two-sided Collatz-Wielandt certificate

    min_i (Bv)_i / v_i  <=  lambda(B)  <=  max_i (Bv)_i / v_i

evaluated on a strictly positive iterate v, so the error bound is rigorous
up to floating-point rounding.  Natural logarithm throughout.

Each block runs its own power iteration, one block after another in Tarjan
order, and is recorded at its first step with an interval width of at most
2 tol.

Matrices are held as CSR in plain lists; scipy is not imported.  The first
step from the all-ones vector is each row's sum in stored order plus 1,
computed in plain floats.  A block whose first step already certifies it
(a row-regular block, whose lambda is its common row sum, exactly) is
recorded there, and a one-vertex block is its diagonal entry, read from
the entries the block loop gathers, with no step; any other block
continues from that step in numpy, so numpy is imported only for a block
that needs more steps, or for array-like input.  The numpy matvec
``np.bincount(rows, weights=data * v[cols])`` adds each row's products in
stored order, as the plain-float step and a CSR matvec do, so every step is
bitwise that of scipy's ``csr_matvec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import NoConvergenceError, ValidationError
from .graph import Digraph, require_pruned
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


def _to_csr(a) -> tuple[tuple, list[int], list[int], list[float]]:
    """A square nonnegative matrix as (succ, indptr, indices, data).

    ``succ[i]`` lists the 1-based columns stored in row i, the form
    ``structure._tarjan`` reads.  Takes a Digraph, whose unit weights need
    no numpy, or a dense array-like; anything numpy cannot read as a float
    array is refused with ValidationError.
    """
    if isinstance(a, Digraph):
        indptr = list(accumulate(map(len, a.succ), initial=0))
        indices = [j - 1 for row in a.succ for j in row]
        return a.succ, indptr, indices, [1.0] * len(indices)
    import numpy as np

    try:
        dense = np.asarray(a, dtype=float)
    except (ValueError, TypeError) as exc:  # ragged rows, non-numeric entries
        raise ValidationError("matrix must be numeric, with rows of one length") from exc
    if dense.ndim != 2:
        raise ValidationError("matrix must be square")
    shape = dense.shape
    rows, cols = np.nonzero(dense)
    data = dense[rows, cols]
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).tolist()
    indices = cols.tolist()
    if shape[0] != shape[1] or not shape[0]:
        raise ValidationError("matrix must be square and nonempty")
    if not (np.isfinite(data) & (data >= 0)).all():
        raise ValidationError("matrix entries must be finite and nonnegative")
    succ = tuple([j + 1 for j in indices[indptr[i] : indptr[i + 1]]] for i in range(shape[0]))
    return succ, indptr, indices, data.tolist()


def perron_eigenvalue(a, tol: float = DEFAULT_TOL, iteration_cap: int | None = None) -> SpectralResult:
    """Perron eigenvalue of a square nonnegative matrix, certified to ``tol``.

    Accepts a dense array-like or a Digraph.  Raises ValidationError for an
    empty, ragged or non-square matrix or one with a negative, NaN, infinite
    or non-numeric entry.  Raises NoConvergenceError if some
    block's certified interval does not shrink below ``tol`` within the
    iteration cap (default 100 n^2 + 1000 per block); the error names the
    first such block in Tarjan order.

    A block settled by its first step (a row-regular one: all row sums
    equal to within 2 tol) counts one iteration and is read off its row
    sums with no numpy; a one-vertex block counts none.  numpy is imported
    for array-like input and for a block that needs a second step.
    """
    if not 0 < tol < math.inf:  # also false for nan
        raise ValidationError("tol must be positive and finite")
    succ, indptr, indices, data = _to_csr(a)
    width_tol = 2.0 * tol
    # (value, half-width, block, iterate, iterations) per component
    parts: list[tuple[float, float, tuple[int, ...], tuple[float, ...], int]] = []
    for comp in _tarjan(len(succ), succ):
        comp = sorted(v - 1 for v in comp)
        nb = len(comp)
        pos = {v: i for i, v in enumerate(comp)}
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        # the first step (A' + Id) 1: each row's sum in stored order, plus 1
        first: list[float] = []
        for v in comp:
            total = 0.0
            for ptr in range(indptr[v], indptr[v + 1]):
                col = pos.get(indices[ptr])
                if col is not None:
                    rows.append(pos[v])
                    cols.append(col)
                    vals.append(data[ptr])
                    total += data[ptr]
            first.append(total + 1.0)
        if nb == 1:  # the block is its diagonal entry, stored or 0
            parts.append((vals[0] if vals else 0.0, 0.0, tuple(comp), (1.0,), 0))
            continue
        # its ratios to the all-ones vector are the step itself
        lo = min(first)
        hi = max(first)
        iters = 1
        if hi - lo <= width_tol:  # row-regular: lambda is the common row sum
            parts.append(((lo + hi) / 2.0 - 1.0, (hi - lo) / 2.0, tuple(comp), (1.0,) * nb, iters))
            continue
        import numpy as np

        block_rows = np.array(rows)
        block_cols = np.array(cols)
        block_data = np.array(vals)
        cap = iteration_cap if iteration_cap is not None else 100 * nb * nb + 1000
        w = np.array(first)
        while True:
            if iters >= cap:
                raise NoConvergenceError(
                    f"block of size {nb}: interval width {hi - lo:.3e} after {iters} iterations"
                )
            w /= w.max()
            vec = w
            # (A' + Id) v
            prod = vec[block_cols]
            prod *= block_data
            w = np.bincount(block_rows, weights=prod, minlength=nb)
            w += vec
            iters += 1
            ratios = w / vec
            lo = float(ratios.min())
            hi = float(ratios.max())
            if hi - lo <= width_tol:
                break
        value = (lo + hi) / 2.0 - 1.0
        parts.append((value, (hi - lo) / 2.0, tuple(comp), tuple(vec.tolist()), iters))
    best = max(range(len(parts)), key=lambda k: parts[k][0])
    value, err_best, block_ids, vec_out, _ = parts[best]
    # lambda_true <= max_k (value_k + err_k); fold that into the half-width.
    overshoot = max((v + e) - value for v, e, _, _, _ in parts)
    error_bound = max(err_best, overshoot, 0.0)
    total_iters = sum(part[4] for part in parts)
    return SpectralResult(value, error_bound, total_iters, block_ids, vec_out)


def sft_entropy(t: Digraph, tol: float = DEFAULT_TOL) -> float:
    """log of the Perron eigenvalue of the transition matrix (natural log).

    Requires the degree invariant (every vertex has an incoming and an
    outgoing edge), which guarantees the eigenvalue is at least 1.
    """
    require_pruned(t)
    res = perron_eigenvalue(t, tol=tol)
    return math.log(max(res.value, 1.0))
