"""Reference window sweep, one orbit step at a time.

This is the transfer of the window solver as the package took it before the
sweep was composed by doubling: from the zero terminal condition R_W = 0 it
steps backwards, R_k = q_k + mask * (Ainv_k R_{k+1} subst_k), masking after
every transport, and stops at the first step whose norm outgrows the
window's largest source by ``WINDOW_GROWTH_GUARD``.  The tests check
``orbitnf.normalform._window_sweep`` against it.  Batch axes after the step
axis are carried along, so P windows are swept side by side.
"""

import numpy as np

from orbitnf.normalform import WINDOW_GROWTH_GUARD, SeriesStagnationError


def window_sweep(op, q_vecs: np.ndarray) -> tuple[np.ndarray, dict]:
    """(R_0..R_W, diagnostics) for the twisted sources q_vecs of one degree."""
    W = len(q_vecs)
    q_scale = np.maximum(1.0, np.linalg.norm(q_vecs, axis=(-2, -1)).max(axis=0))
    R = np.zeros((W + 1,) + q_vecs.shape[1:])
    max_norm = 0.0
    for k in range(W - 1, -1, -1):
        R[k] = q_vecs[k] + op.mask * (op.ainvs[k] @ R[k + 1] @ op.substs[k])
        norms = np.linalg.norm(R[k], axis=(-2, -1))
        max_norm = max(max_norm, float(norms.max()))
        if np.any(norms > WINDOW_GROWTH_GUARD * q_scale):
            raise SeriesStagnationError(f"window sweep diverged at degree {op.n}, step {k}")
    return R, {"max_sweep_norm": max_norm}
