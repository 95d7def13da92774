"""Dense solve helper with mixed-precision iterative refinement.

The clamped fault locations put segment admittances of order 1/eps into the
nodal matrices, so a plain double-precision solve loses ~cond * ulp digits.
A couple of refinement steps with the residual accumulated in extended
precision recovers near-working-precision forward accuracy at these sizes.
The matrix may itself be held in extended precision; the factorization
then uses its double rounding and the refinement converges to the solution
of the extended system.
"""

from __future__ import annotations

import numpy as np


def refined_solve(a: np.ndarray, b: np.ndarray, iters: int = 2) -> np.ndarray:
    """Solve a x = b with iterative refinement (extended-precision residual).

    ``a`` may be a stack (..., n, n); ``b`` is then (..., n, k), with an
    explicit trailing axis even for one right-hand side, since numpy 1.x and
    2.x read a stacked (..., n) ``b`` differently. A 1-D ``b`` is one vector,
    shared by every system of a stack.
    """
    vector = np.ndim(b) == 1
    b_hi = np.asarray(b, dtype=np.clongdouble)
    if vector:
        b_hi = b_hi[:, None]
    a_lo = np.asarray(a, dtype=complex)
    # b carries a's stack axes too: numpy 1.x reads a right-hand side with
    # one axis fewer than the matrix as a stack of vectors
    stack = np.broadcast_shapes(a_lo.shape[:-2], b_hi.shape[:-2])
    b_hi = np.broadcast_to(b_hi, stack + b_hi.shape[-2:])
    x = np.linalg.solve(a_lo, b_hi.astype(complex))
    a_hi = np.asarray(a, dtype=np.clongdouble)
    for _ in range(iters):
        r = b_hi - a_hi @ x.astype(np.clongdouble)
        x = x + np.linalg.solve(a_lo, r.astype(complex))
    return x[..., 0] if vector else x
