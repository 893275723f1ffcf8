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
the entries the block loop gathers, with no step.  Any other block
continues from that step in plain floats.  One with at most
``FLOAT_LOOP_MAX_ENTRIES`` stored entries stays there; a larger one hands
its iterate to numpy at once if numpy is loaded, and else once its plain
work (stored entries x steps) passes ``NUMPY_IMPORT_WORK``, a budget sized
to numpy's import.  So numpy is imported only for a block above both, or
for array-like input.  Both loops add each row's products in stored order,
the plain one with ``+=`` (never ``sum()``, which compensates from Python 3.12)
and the numpy one with ``np.bincount(rows, weights=data * v[cols])``, as
the first step and a CSR matvec do, so every step is bitwise that of
scipy's ``csr_matvec``.  An iterate that overflows, or whose ratios do,
stops the iteration with NoConvergenceError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate

from .errors import NoConvergenceError, ValidationError
from .graph import Digraph, require_pruned
from .structure import _tarjan

DEFAULT_TOL = 1e-10

# The most stored entries a block may have for its power iteration to run in
# plain floats; a larger block runs in numpy.  One step of a block with 4
# entries a row took, in plain floats against numpy on one core (CPython
# 3.11, numpy 2.4): 4.4 against 5.7 us at 40 entries, 5.0 against 5.8 us at
# 48, 6.4 against 5.8 us at 64, 7.6 against 5.8 us at 80.  With 2 entries a
# row plain floats are slower from 40 entries, with 8 from 80 only.  The
# one-off cost of importing numpy is weighed by NUMPY_IMPORT_WORK.
FLOAT_LOOP_MAX_ENTRIES = 48

# The plain-float work (stored entries x steps, the first step included) a
# block above FLOAT_LOOP_MAX_ENTRIES does before its iterate goes to numpy,
# when numpy is not loaded yet; once it is, such a block goes at once.
# Importing numpy took 69-87 ms (five runs of `python -X importtime`, CPython
# 3.11, numpy 2.4) and about 12 MB.  A plain step took about 0.05 us per entry
# plus 0.4 us per row (0.43 us per entry at one entry a row, 0.16-0.18 at
# three or four), so this budget is 2.5-22 ms of plain steps, at most about a
# third of the import.  It is spent per block, and a report of k blocks just
# under it pays it k times, so it is kept well below one import: the 68 blocks
# of the 2,000-arc `rcover` probe (180,000-290,000 each) hand over within the
# first block, while the one 63-entry block of the complete digraph on 8
# vertices less one edge (12 steps, 756) never loads numpy.
NUMPY_IMPORT_WORK = 50_000


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


def _float_step(nb: int, rows: list[int], cols: list[int], vals: list[float]):
    """The step of the power iteration on the nb x nb block A' whose stored
    entries, row by row in stored order, are ``vals`` at (``rows``, ``cols``),
    in plain floats.

    ``step(w)`` normalises ``w`` to ``vec = w / max(w)`` and returns
    ``(w', vec, lo, hi)`` with ``w' = (A' + Id) vec`` and [lo, hi] the range of
    the ratios ``w'_i / vec_i``, which is infinite if some ``vec_i`` is 0.
    """
    block: list[list[tuple[int, float]]] = [[] for _ in range(nb)]
    for i, col, d in zip(rows, cols, vals):
        block[i].append((col, d))

    def step(w: list[float]):
        top = max(w)
        vec = [x / top for x in w]
        nxt = []
        for i, row in enumerate(block):
            total = 0.0
            for col, d in row:
                total += vec[col] * d
            nxt.append(total + vec[i])
        try:
            ratios = [x / v for x, v in zip(nxt, vec)]
        except ZeroDivisionError:  # some vec_i underflowed to 0
            return nxt, vec, math.inf, math.inf
        return nxt, vec, min(ratios), max(ratios)

    return step


def _numpy_step(nb: int, rows: list[int], cols: list[int], vals: list[float], np):
    """``_float_step``'s step in numpy, for an array ``w``; a ratio with
    ``vec_i`` = 0 is inf or nan.  Run it under ``np.errstate(all="ignore")``."""
    block_rows = np.array(rows)
    block_cols = np.array(cols)
    block_data = np.array(vals)

    def step(w):
        vec = w / w.max()
        prod = vec[block_cols]
        prod *= block_data
        nxt = np.bincount(block_rows, weights=prod, minlength=nb)
        nxt += vec
        ratios = nxt / vec
        return nxt, vec, float(ratios.min()), float(ratios.max())

    return step


def _plain_steps(entries: int, cap: int) -> int:
    """How many steps, the first included, a block that its first step does
    not settle, with ``entries`` stored entries, takes in plain floats
    before numpy takes its iterate: all of them up to
    ``FLOAT_LOOP_MAX_ENTRIES``, above it none more once numpy is loaded,
    and else those within ``NUMPY_IMPORT_WORK``."""
    if entries <= FLOAT_LOOP_MAX_ENTRIES:
        return cap
    if "numpy" in sys.modules:
        return 1
    return max(1, NUMPY_IMPORT_WORK // entries)


def _iterate(step, w, lo: float, hi: float, iters: int, width_tol: float, cap: int, stop: int):
    """Steps the power iteration from its step number ``iters``, ``w``
    (whose ratios span [lo, hi]), until the interval is at most
    ``width_tol`` wide or ``stop`` steps are done.

    Returns (w, vec, lo, hi, iters) of the last step; vec is None when no
    step was taken.  Raises NoConvergenceError at the first infinite or nan
    ratio, or once ``cap`` steps have not converged.
    """
    nb = len(w)
    vec = None
    while not hi - lo <= width_tol:  # a nan width goes on to the check below
        if not hi < math.inf:  # also true for nan
            raise NoConvergenceError(f"block of size {nb}: iterate not finite after {iters} iterations")
        if iters >= cap:
            raise NoConvergenceError(
                f"block of size {nb}: interval width {hi - lo:.3e} after {iters} iterations"
            )
        if iters >= stop:
            break
        w, vec, lo, hi = step(w)
        iters += 1
    return w, vec, lo, hi, iters


def perron_eigenvalue(a, tol: float = DEFAULT_TOL, iteration_cap: int | None = None) -> SpectralResult:
    """Perron eigenvalue of a square nonnegative matrix, certified to ``tol``.

    Accepts a dense array-like or a Digraph.  Raises ValidationError for an
    empty, ragged or non-square matrix or one with a negative, NaN, infinite
    or non-numeric entry.  Raises NoConvergenceError if some
    block's certified interval does not shrink below ``tol`` within the
    iteration cap (default 100 n^2 + 1000 per block), or as soon as one of
    its iterates overflows; the error names the first such block in Tarjan
    order.

    A block settled by its first step (a row-regular one: all row sums
    equal to within 2 tol) counts one iteration and is read off its row
    sums; a one-vertex block counts none.  Any other block starts in plain
    floats and, above ``FLOAT_LOOP_MAX_ENTRIES`` stored entries, goes on in
    numpy at once if numpy is loaded and else once its plain work passes
    ``NUMPY_IMPORT_WORK`` entry-steps, so numpy is imported only for
    array-like input and for a block above both.
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
        cap = iteration_cap if iteration_cap is not None else 100 * nb * nb + 1000
        # plain floats first; the steps are bitwise equal, so handing the
        # iterate to numpy changes none
        w = first
        plain = _plain_steps(len(vals), cap)
        if plain > 1:
            step = _float_step(nb, rows, cols, vals)
            w, vec, lo, hi, iters = _iterate(step, w, lo, hi, iters, width_tol, cap, plain)
        if not hi - lo <= width_tol:
            import numpy as np

            with np.errstate(all="ignore"):  # an overflow is refused by _iterate, not warned about
                step = _numpy_step(nb, rows, cols, vals, np)
                _, vec, lo, hi, iters = _iterate(step, np.array(w), lo, hi, iters, width_tol, cap, cap)
        value = (lo + hi) / 2.0 - 1.0
        parts.append((value, (hi - lo) / 2.0, tuple(comp), tuple(map(float, vec)), iters))
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
