"""Reference series certificate and transported series, one type and one phase at a time.

These are the transfer loops as the package took them before the degree
series was summed by doubling: the certificate forms the one-period
products of every (type, phase) pair, squares them until the product of
their spectral norms is below one, and the series moves each phase through
its own transfer step, one term at a time, until the certified tail of a
q-period chunk is below the tolerance.  The certificate's power cap is kept
here, so the reference shares no code with the package.  The tests check
``orbitnf.normalform._series`` against them.  ``one_cycle`` runs a
one-cycle transfer in the degree loop.
"""

from functools import reduce

import numpy as np

from orbitnf.normalform import SeriesBudgetError, SeriesStagnationError

MAX_SERIES_CERT_POWER = 64


def series_certificate(op, period: int) -> tuple[int, float]:
    """Smallest power-of-two q with every q-period type norm ||A||_2 ||S||_2 below one."""
    pairs = []
    for rows, cols in op.types:
        for p in range(period):
            blocks = [(op.ainvs[(p + j) % period][rows, rows],
                       op.substs[(p + j) % period][np.ix_(cols, cols)])
                      for j in range(period)]
            pairs.append((reduce(np.matmul, [a for a, _ in blocks]),
                          reduce(np.matmul, [s for _, s in blocks[::-1]])))
    q = 1
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            rho = float(max((np.linalg.norm(A, ord=2) * np.linalg.norm(S, ord=2)
                             if np.isfinite(A).all() and np.isfinite(S).all() else np.inf
                             for A, S in pairs), default=0.0))
            if rho < 1.0:
                return q, rho
            if not np.isfinite(rho) or 2 * q > MAX_SERIES_CERT_POWER:
                raise SeriesStagnationError(f"degree {op.n}: rho = {rho:.3g} at q = {q}")
            pairs = [(A @ A, S @ S) for A, S in pairs]
        q *= 2


def run_series(op, q_vecs, series_tol: float, max_terms: int,
               period: int) -> tuple[list[np.ndarray], dict]:
    """The transported series with the reference certificate, phase by phase.

    The tail bound is rho/(1-rho) times the largest chunk norm, a bound on
    the Frobenius norm of every phase's dropped tail.
    """
    info = {"short_circuit": False, "series_terms": 0, "tail_bound": 0.0}
    if all(not np.any(q) for q in q_vecs):
        info["short_circuit"] = True
        return [np.zeros_like(q) for q in q_vecs], info
    q_cert, rho = series_certificate(op, period)
    chunk_len = q_cert * period
    H = [np.zeros_like(q) for q in q_vecs]
    terms = [q.copy() for q in q_vecs]
    chunk = [0.0] * period
    n_terms = steps_in_chunk = 0
    while True:
        for k in range(period):
            H[k] += terms[k]
            chunk[k] += float(np.linalg.norm(terms[k]))
        n_terms += 1
        steps_in_chunk += 1
        if steps_in_chunk == chunk_len:
            tail = max(chunk) * rho / (1.0 - rho)
            scale = max(1.0, max(float(np.linalg.norm(h)) for h in H))
            if tail <= series_tol * scale:
                info["series_terms"] = n_terms
                info["tail_bound"] = tail
                return H, info
            chunk = [0.0] * period
            steps_in_chunk = 0
        if n_terms > max_terms:
            raise SeriesBudgetError(f"series for degree {op.n} did not settle")
        terms = [op.mask * (op.ainvs[k] @ terms[(k + 1) % period] @ op.substs[k])
                 for k in range(period)]


def one_cycle(transfer):
    """A transfer of one cycle's (K, m, n) sources, returning its conjugator
    terms and diagnostics, as a transfer of the degree loop, which hands a
    transfer the stacked sources of every cycle it solves."""
    def stacked(op, q_vecs):
        solved = [transfer(op, q) for q in q_vecs]
        return np.array([np.asarray(h) for h, _ in solved]), [info for _, info in solved]

    return stacked

