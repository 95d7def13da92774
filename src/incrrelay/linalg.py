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
    """Solve a x = b with iterative refinement (extended-precision residual)."""
    a_lo = np.asarray(a, dtype=complex)
    x = np.linalg.solve(a_lo, np.asarray(b, dtype=complex))
    a_hi = np.asarray(a, dtype=np.clongdouble)
    b_hi = np.asarray(b, dtype=np.clongdouble)
    for _ in range(iters):
        r = b_hi - a_hi @ x.astype(np.clongdouble)
        d = np.linalg.solve(a_lo, r.astype(complex))
        x = x + d
    return x
