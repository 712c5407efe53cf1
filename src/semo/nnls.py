"""Non-negative least squares by the classic active-set iteration.

Solves min_beta sum_i w_i * (y_i - X_i . beta)^2 subject to beta >= 0.
Weights fold in as a sqrt(w) row scaling.  The scaled system
[sqrt(w) X | sqrt(w) y] is then reduced, a block of rows at a time, to
the triangular factor R of its QR factorization, so the iteration works
on at most n + 1 rows whatever the row count.  The reduction is exact:
with A = sqrt(w) X and b = sqrt(w) y, [A | b] = Q R for a Q with
orthonormal columns, so ||b - A beta|| = ||R[:, n] - R[:, :n] beta|| for
every beta.  The objective, the gradient A'(b - A beta) and every
least-squares solution on a column subset are those of the full system,
and R keeps the condition number of A (a Gram-matrix X'WX solve would
square it).  On the reduced system this is the Lawson-Hanson procedure:
the coefficient with the largest positive gradient leaves the zero
bound, a least-squares solve runs on the free columns, and a line search
pins any coefficient the solve drove negative back at zero.  Finite and
deterministic; ties break on the lowest column index.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSystem

# Rows of the scaled system folded into R per QR, so no full-size copy is made.
BLOCK_ROWS = 1024

# Absolute KKT tolerance on the gradient over zero-bound columns; rounds per column.
TOL = 1e-9
ROUNDS_PER_COLUMN = 3


def weighted_sse(X, y, beta, weights=None) -> float:
    """Objective value sum_i w_i * (y_i - X_i . beta)^2."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    residual = y - X @ beta
    if weights is None:
        return float(residual @ residual)
    w = np.asarray(weights, dtype=float)
    return float(w @ (residual * residual))


def _reduce_rows(X, y, sw):
    """Triangular factor R of [sw X | sw y], folding BLOCK_ROWS rows per QR."""
    m, n = X.shape
    R = np.empty((0, n + 1))
    for start in range(0, m, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, m))
        block = np.column_stack([X[rows], y[rows]])
        if sw is not None:
            block *= sw[rows, None]
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    return R


def _free_ls(A, b, free):
    s = np.zeros(A.shape[1])
    s[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
    return s


def solve_nnls(X, y, weights=None) -> np.ndarray:
    """Return beta >= 0 minimizing the weighted squared residual.

    Stops once no gradient over the columns held at zero exceeds TOL, or
    after ROUNDS_PER_COLUMN rounds per column.  Raises DegenerateSystem
    when the design has no usable columns (empty, or an all-zero column).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    m, n = X.shape
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")
    if m == 0 or n == 0:
        raise DegenerateSystem("empty design matrix")
    sw = None
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValueError(f"weights have shape {w.shape}, expected ({m},)")
        if not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be finite and strictly positive")
        sw = np.sqrt(w)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    if not np.all(X.any(axis=0)):
        raise DegenerateSystem("design matrix has an all-zero column")

    R = _reduce_rows(X, y, sw)
    if not np.all(np.isfinite(R)):
        raise ValueError("X and y must be finite")
    A, b = R[:, :n], R[:, n]

    beta = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    grad = A.T @ b
    for _ in range(ROUNDS_PER_COLUMN * n):
        bound = ~free
        if not bound.any() or np.max(grad[bound]) <= TOL:
            break
        candidates = np.where(bound, grad, -np.inf)
        free[int(np.argmax(candidates))] = True
        s = _free_ls(A, b, free)
        # Pull back along the segment [beta, s] until the free set is feasible.
        while np.min(s[free]) <= 0.0:
            limiting = free & (s <= 0.0)
            alpha = np.min(beta[limiting] / (beta[limiting] - s[limiting]))
            beta = beta + alpha * (s - beta)
            pinned = free & (beta <= TOL * max(1.0, float(np.max(np.abs(beta)))))
            beta[pinned] = 0.0
            free[pinned] = False
            if not free.any():
                s = np.zeros(n)
                break
            s = _free_ls(A, b, free)
        beta = s
        grad = A.T @ (b - A @ beta)
    return beta
