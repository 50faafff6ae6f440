"""Reference Smith doubling of the degree series, one type at a time.

This is the series as the package had it before its gathers were batched:
each type's blocks are copied into zero-padded stacks by a Python loop over
the types, every Frobenius norm goes through ``np.linalg.norm``, and the
doubled factors are rebalanced by the binary exponents of their largest
entries.  The tests require ``normalform._series`` to give the same bytes,
the same diagnostics and the same errors.  ``transported_sum`` is
``cocycle._transported_sum`` as it was before it took stop groups: one set
of sources, which stops as a whole.
"""

import numpy as np

from orbitnf.cocycle import _frobenius, _rebalance
from orbitnf.normalform import SeriesBudgetError, SeriesStagnationError


def rebalance(L: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each pair (L, M) of two stacks by 2^-e and 2^e, which leaves L X M exact.

    e halves the gap between the binary exponents of their largest entries,
    so a long product of expanding L and contracting M stays in float range.
    """
    e = (np.frexp(np.abs(L).max(axis=(-2, -1)))[1]
         - np.frexp(np.abs(M).max(axis=(-2, -1)))[1]) // 2
    return np.ldexp(L, -e[..., None, None]), np.ldexp(M, e[..., None, None])


def series(op, q_vecs: np.ndarray, series_tol: float,
            max_terms: int) -> tuple[np.ndarray, dict]:
    """Fixed point H(k) = Q(k) + Phi_k(H(k+1)) around the orbit, by Smith's doubling.

    A type (i, s) moves alone, X -> Ainv_k[i] X subst_k[s], so from phase p
    its part of H is sum_t A^t G B^t with G the first-period sum, A =
    Ainv_p[i] ... Ainv_{p+K-1}[i] and B = subst_{p+K-1}[s] ... subst_p[s].
    The types are stacked, zero-padded to one shape, and every step
    G <- G + A G B, A <- A A, B <- B B doubles the T periods summed.  The
    dropped tail sum_{j>=1} A^j G B^j of a type has norm at most
    rho/(1-rho) ||G||_F with rho = ||A||_F ||B||_F, so the doubling stops once
    the root sum of squares of those bounds over the types is within
    series_tol * max(1, ||H(p)||_F) at every phase p (NaN never passes).  A
    non-finite rho ||G||_F or ||H(p)||_F, which the next step would overflow,
    raises SeriesStagnationError; more than max_terms terms, at the first
    period or at a doubling, raise SeriesBudgetError.
    """
    K = len(q_vecs)
    info = {"short_circuit": not q_vecs.any(), "series_terms": 0, "tail_bound": 0.0}
    if info["short_circuit"]:
        return np.zeros_like(q_vecs), info
    sizes = [(rows.stop - rows.start, len(cols)) for rows, cols in op.types]
    d, c = np.max(sizes, axis=0)
    Q = np.zeros((len(sizes), K, d, c))
    X = np.zeros((len(sizes), K, d, d))
    Y = np.zeros((len(sizes), K, c, c))
    for t, ((rows, cols), (dt, ct)) in enumerate(zip(op.types, sizes)):
        Q[t, :, :dt, :ct] = q_vecs[:, rows, cols]
        X[t, :, :dt, :dt] = op.ainvs[:, rows, rows]
        Y[t, :, :ct, :ct] = op.substs[:, cols[:, None], cols]
    nxt = (np.arange(K) + 1) % K
    G, A, B = Q, X, Y
    for _ in range(K - 1):
        G = Q + X @ G[:, nxt] @ Y
        A, B = rebalance(X @ A[:, nxt], B[:, nxt] @ Y)
    T = 1
    with np.errstate(all="ignore"):
        while True:
            rho = np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(B, axis=(-2, -1))
            g = np.linalg.norm(G, axis=(-2, -1))
            h = np.linalg.norm(g, axis=0)
            if not (np.all(np.isfinite(rho * g)) and np.all(np.isfinite(h))):
                raise SeriesStagnationError(
                    f"transported series for degree {op.n} has no certified "
                    f"contraction: the {T}-period transfer norm reached "
                    f"rho = {float(np.max(rho)):.3g}; epsilon and spectrum are "
                    "inconsistent with this cocycle")
            bound = np.where(rho < 1.0, rho / (1.0 - rho), np.inf) * g
            tail = np.linalg.norm(bound, axis=0)
            if T * K <= max_terms and np.all(tail <= series_tol * np.maximum(1.0, h)):
                break
            if 2 * T * K > max_terms:
                raise SeriesBudgetError(
                    f"series for degree {op.n} did not settle within {max_terms} "
                    f"terms (rho = {float(np.max(rho)):.3g} after {T * K})")
            G = G + A @ G @ B
            A, B = rebalance(A @ A, B @ B)
            T *= 2
    H = np.zeros_like(q_vecs)
    for t, ((rows, cols), (dt, ct)) in enumerate(zip(op.types, sizes)):
        H[:, rows, cols] = G[t, :, :dt, :ct]
    info.update(series_terms=T * K, tail_bound=float(tail.max()))
    return H, info


def transported_sum(Q, X, Y, nxt, K, tol, budget, what):
    """Smith's doubling of G(p) = Q(p) + X_p G(nxt_p) Y_p on (types, phases,
    r, c) stacks, stopped once the tails of every type and phase are within
    tol; returns G, the terms summed T K and the (phases,) tail bounds."""
    G, A, B = Q, X, Y
    for _ in range(K - 1):
        G = Q + X @ G[:, nxt] @ Y
        A, B = _rebalance(X @ A[:, nxt], B[:, nxt] @ Y)
    T = 1
    with np.errstate(all="ignore"):
        while True:
            a, b, g = _frobenius(A), _frobenius(B), _frobenius(G)
            rho = a * b
            h = _frobenius(g, axis=0)
            if not (np.isfinite(rho * g).all() and np.isfinite(h).all()):
                raise SeriesStagnationError(
                    f"transported series for {what} has no certified "
                    f"contraction: the {T}-period transfer norm reached "
                    f"rho = {float(np.max(rho)):.3g}; epsilon and spectrum are "
                    "inconsistent with this cocycle")
            bound = rho / np.maximum(1.0 - rho, 0.0) * g
            tail = _frobenius(bound, axis=0)
            if T * K <= budget and (tail <= tol * np.maximum(1.0, h)).all():
                return G, T * K, tail
            if 2 * T * K > budget:
                raise SeriesBudgetError(
                    f"series for {what} did not settle within {budget} "
                    f"terms (rho = {float(np.max(rho)):.3g} after {T * K})")
            e = ((np.frexp(a)[1] - np.frexp(b)[1]) // 2)[..., None, None]
            A, B = np.ldexp(A, -e), np.ldexp(B, e)
            G = G + A @ G @ B
            A, B = A @ A, B @ B
            T *= 2
