"""Reference window sweep, one orbit step at a time.

This is the transfer of the window solver as the package took it before the
sweep was composed by doubling: from the zero terminal condition R_W = 0 it
steps backwards, R_k = q_k + mask * (Ainv_k R_{k+1} subst_k), masking after
every transport, and stops at the first step whose norm outgrows its
window's largest source by ``WINDOW_GROWTH_GUARD``.  The tests check
``orbitnf.normalform._window_sweep`` against it.  ``doubling_scan`` is the
sweep as the package composed it by doubling before windows shared steps, on
(W, P) stacks, which the forest must reproduce bit for bit.  It takes the sweep's
arguments: the P windows are stepped side by side through their rows, and a
row that several windows share is recomputed, to the same value, by each.
"""

import numpy as np

from orbitnf.normalform import WINDOW_CHUNK, WINDOW_GROWTH_GUARD, SeriesStagnationError


def window_sweep(op, q_vecs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, dict]:
    """(R of every row, diagnostics) for the twisted sources q_vecs of one
    degree; rows[k, p] is the row of step k of window p, rows[W] terminal."""
    W = len(rows) - 1
    q_scale = np.maximum(1.0, np.linalg.norm(q_vecs, axis=(-2, -1))[rows[:-1]].max(axis=0))
    R = np.zeros((rows.max() + 1,) + q_vecs.shape[1:])
    max_norm = 0.0
    for k in range(W - 1, -1, -1):
        here = rows[k]
        R[here] = q_vecs[here] + op.mask * (op.ainvs[here] @ R[rows[k + 1]] @ op.substs[here])
        norms = np.linalg.norm(R[here], axis=(-2, -1))
        max_norm = max(max_norm, float(norms.max()))
        if np.any(norms > WINDOW_GROWTH_GUARD * q_scale):
            raise SeriesStagnationError(f"window sweep diverged at degree {op.n}, step {k}")
    return R, {"max_sweep_norm": max_norm}


def doubling_scan(ainvs: np.ndarray, substs: np.ndarray, mask: np.ndarray,
                  q_vecs: np.ndarray) -> np.ndarray:
    """R_0..R_W of the windows of (W, P, ...) stacks, each scanned alone: in
    chunks of WINDOW_CHUNK steps, last first, level s adds the sum at k + s,
    carried through the product pair of steps k..k+s-1, to the sum at k, and
    each new pair is rebalanced by a power of two."""
    W = len(q_vecs)
    R = np.concatenate([q_vecs, np.zeros_like(q_vecs[:1])])
    with np.errstate(all="ignore"):
        for b0 in reversed(range(0, W, WINDOW_CHUNK)):
            n = min(WINDOW_CHUNK, W - b0) + 1
            L, M, Rc = ainvs[b0:], substs[b0:], R[b0:b0 + n]
            s = 1
            while s < n:
                Rc[:n - s] += np.where(mask, L[:n - s] @ Rc[s:] @ M[:n - s], 0.0)
                if 2 * s < n:
                    L, M = L[:n - 2 * s] @ L[s:n - s], M[s:n - s] @ M[:n - 2 * s]
                    e = (np.frexp(np.abs(L).max(axis=(-2, -1)))[1]
                         - np.frexp(np.abs(M).max(axis=(-2, -1)))[1]) // 2
                    L, M = np.ldexp(L, -e[..., None, None]), np.ldexp(M, e[..., None, None])
                s *= 2
    return R
