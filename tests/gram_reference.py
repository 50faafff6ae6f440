"""Reference Gram series of one block, summed one orbit step at a time.

This is the frame sum as the package took it before the series was summed
by doubling: every step n multiplies the block cocycle once more and adds
exp(-eps |n|) Z_n^T Z_n, and after every chunk of q periods a decay
certificate decides whether to stop, each time direction at half the
requested relative tail.  The certificate is kept here, so the reference
shares no summation code with ``orbitnf.cocycle.lyapunov_frames``, which the
tests check against it.  The step budget is read from ``orbitnf.cocycle`` at
call time, so a test that patches it there limits both.
"""

import math

import numpy as np

from orbitnf import cocycle
from orbitnf.cocycle import TailCertificationError

MAX_CERT_POWER = 256


def decay_certificate(period_maps: list[np.ndarray], eps_per_period: float) -> tuple[int, float]:
    """Smallest power-of-two q with weighted q-period growth below one.

    Checks both time directions: max_p sigma_max(P_p^{+-q})^2 < exp(eps q K)
    where P_p is the per-period product normalized to unit exponent.
    Returns (q, rho), rho the largest weighted q-period growth.
    """
    forward = [P.copy() for P in period_maps]
    backward = [np.linalg.inv(P) for P in period_maps]
    q = 1
    while q <= MAX_CERT_POWER:
        worst = max(2.0 * math.log(np.linalg.norm(P, ord=2)) for P in forward + backward)
        if worst < eps_per_period * q:
            return q, math.exp(worst - eps_per_period * q)
        forward = [P @ P for P in forward]
        backward = [P @ P for P in backward]
        q *= 2
    raise TailCertificationError(f"no power up to {MAX_CERT_POWER} periods certifies decay")


def block_gram(restrictions: list[np.ndarray], chi: float, eps: float, start: int,
               tail_tol: float) -> tuple[np.ndarray, int, float]:
    """(gram, horizon, relative tail bound) of one block from orbit point start."""
    K = len(restrictions)
    mc = restrictions[0].shape[0]
    fwd = [math.exp(-chi) * restrictions[p] for p in range(K)]
    bwd = [np.linalg.inv(f) for f in fwd]

    period_maps = []
    for p in range(K):
        P = np.eye(mc)
        for j in range(K):
            P = fwd[(p + j) % K] @ P
        period_maps.append(P)
    q, rho = decay_certificate(period_maps, eps * K)
    chunk_len = q * K

    G = np.zeros((mc, mc))
    total_trace = 0.0
    tails = []
    horizon = 0
    for direction, step_maps, n0 in ((1, fwd, 0), (-1, bwd, 1)):
        Z = np.eye(mc)
        if direction == -1:
            Z = bwd[(start - 1) % K] @ Z
        n = n0
        chunk_trace = 0.0
        steps_in_chunk = 0
        while True:
            W = math.exp(-eps * n) * (Z.T @ Z)
            G += W
            tr = float(np.trace(W))
            total_trace += tr
            chunk_trace += tr
            steps_in_chunk += 1
            if steps_in_chunk == chunk_len:
                tail = chunk_trace * rho / (1.0 - rho)
                if tail <= tail_tol / 2 * total_trace:
                    tails.append(tail)
                    horizon = max(horizon, n)
                    break
                chunk_trace = 0.0
                steps_in_chunk = 0
            n += 1
            if n > cocycle.MAX_GRAM_STEPS:
                raise TailCertificationError("gram series did not settle within the step budget")
            if direction == 1:
                Z = step_maps[(start + n - 1) % K] @ Z
            else:
                Z = step_maps[(start - n) % K] @ Z
    return 0.5 * (G + G.T), horizon, sum(tails) / max(total_trace, 1e-300)
