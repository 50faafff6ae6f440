"""Reference sandwich check: the frame-norm growth of sampled block vectors.

This is the check as the package ran it before the envelopes were exact:
per orbit point it draws `samples` random vectors of every block, pushes
each one n = +-1..+-n_max steps through the linear cocycle one iterate at a
time, and compares log(||Phi u||_{k+n} / ||u||_k) against the advertised
envelope.  The comparison factor is tested on `samples` random ambient
vectors.  The tests check ``orbitnf.cocycle.sandwich_check`` and
``orbitnf.cocycle.log_envelopes`` against it: every sampled ratio lies
inside the exact envelope, so the exact violation is never the smaller.

``ambient_log_envelopes`` is the exact envelope as the package first formed
it, from unscaled products of the whole space; the tests require the block
envelopes to agree with it wherever those products stay in float range.
"""

import math

import numpy as np

from orbitnf.cocycle import LyapunovFrames
from orbitnf.polymap import GradedSpace


def euclidean_frames(period, dim):
    """Frames whose Grams are all the identity."""
    return LyapunovFrames(np.broadcast_to(np.eye(dim), (period, dim, dim)))


def linear_iterate(cocycle, base, n):
    """Matrix of the n-step linear cocycle from orbit point base, one step at a time."""
    M = np.eye(cocycle.dim)
    if n >= 0:
        for j in range(n):
            M = cocycle.linears[(base + j) % cocycle.period] @ M
        return M
    for j in range(-n):
        M = M @ cocycle.linears[(base - 1 - j) % cocycle.period]
    return np.linalg.inv(M)


def frame_norm(frames, k, u):
    """||u||_k, read from the Gram at orbit point k alone."""
    return math.sqrt(u @ frames.grams[k] @ u)


def sandwich_sample(cocycle, spectrum, frames, n_max=None, samples=8, seed=0):
    """(max violation, keps_ok, ratios): ratios maps (k, block, n) to the
    sampled log ratios of that orbit point, block and step."""
    K = cocycle.period
    if n_max is None:
        n_max = max(2 * K, 12)
    space = GradedSpace(spectrum.multiplicities)
    rng = np.random.default_rng(seed)
    eps = spectrum.epsilon

    max_violation = 0.0
    keps_ok = True
    ratios = {}
    for k in range(K):
        iterates = {n: linear_iterate(cocycle, k, n)
                    for n in range(-n_max, n_max + 1) if n != 0}
        for _ in range(samples):
            w = rng.standard_normal(cocycle.dim)
            ew = float(np.linalg.norm(w))
            gw = frame_norm(frames, k, w)
            if gw < ew * (1.0 - 1e-9) or gw > frames.k_eps[k] * ew * (1.0 + 1e-9):
                keps_ok = False
        for i in range(1, space.n_blocks + 1):
            sl = space.block_slice(i)
            chi = spectrum.exponents[i - 1]
            for _ in range(samples):
                u = np.zeros(cocycle.dim)
                u[sl] = rng.standard_normal(sl.stop - sl.start)
                nu = frame_norm(frames, k, u)
                if nu == 0.0:
                    continue
                for n in range(-n_max, n_max + 1):
                    if n == 0:
                        continue
                    v = iterates[n] @ u
                    r = math.log(frame_norm(frames, (k + n) % K, v) / nu)
                    ratios.setdefault((k, i, n), []).append(r)
                    hi = chi * n + eps * abs(n)
                    lo = chi * n - eps * abs(n)
                    max_violation = max(max_violation, r - hi, lo - r)
    return max(max_violation, 0.0), keps_ok, ratios


def ambient_log_envelopes(cocycle, frames, n_max):
    """Exact log envelopes from ambient products, in the layout of log_envelopes.

    With the Cholesky factors G_k = L_k L_k^T of the frame Grams and R_{k,i}
    the triangular factor of the QR factorisation of the block-i columns of
    L_k^T, so that ||u||_k = ||R_{k,i} u_i||, the envelopes are the log
    extreme singular values of the block-i columns of L_{k+n}^T Phi(k, n),
    times R_{k,i}^{-1}, with Phi(k, n) the unscaled n-step map of the whole
    space.
    """
    K = cocycle.period
    steps = np.r_[-n_max:0, 1:n_max + 1]
    A = cocycle.linears
    A_inv = np.linalg.inv(A)
    points = np.arange(K)
    fwd, bwd = [A], [A_inv[(points - 1) % K]]
    for n in range(2, n_max + 1):
        fwd.append(A[(points + n - 1) % K] @ fwd[-1])
        bwd.append(A_inv[(points - n) % K] @ bwd[-1])
    phi = np.stack(bwd[::-1] + fwd, axis=1)
    LT = np.linalg.cholesky(frames.grams).transpose(0, 2, 1)
    pushed = LT[(points[:, None] + steps) % K] @ phi
    envelopes = []
    for sl in cocycle.space.block_slices:
        R = np.linalg.qr(LT[..., sl], mode="r")
        sigma = np.linalg.svd(pushed[..., sl] @ np.linalg.inv(R)[:, None], compute_uv=False)
        envelopes.append(np.log(sigma[..., [-1, 0]]))
    return steps, envelopes
