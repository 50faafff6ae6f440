"""Polynomial cocycles over a periodic orbit and their Lyapunov data.

An OrbitCocycle is a finite sequence of polynomial fiber maps, one per orbit
point, composed cyclically; its linear parts are one (K, m, m) stack.  The
coordinate blocks of its grading are the invariant splitting: the linear
parts of a grading-adapted cocycle are block diagonal, and block i carries
one Lyapunov exponent chi_i.  The spectrum is read block by block: chi_i
from the log determinants of the block's steps, and the test that the block
carries one rate from the monodromy of exp(-chi_i) times its steps,
renormalised every step with its log scale kept.  No product of the whole
space is formed, so a fast block never sinks below the rounding of a slow
one and no product leaves the float range, however long the period.

The frames built here, one LyapunovFrames object of (K, m, m) stacks, carry
the epsilon-weighted inner product: per block a two-sided weighted sum of
pushforward Grams.  Each time direction is the fixed point
G_k = I + exp(-eps) F_k^T G_{k+1} F_k of a transfer along the orbit, like
the degree series of ``normalform``, and ``_transported_sum`` sums both:
Smith's doubling, stopped once Frobenius norms of the doubled transfer bound
the dropped tail, on zero-padded stacks, here of every block and both time
directions in one batch.  Under that inner product one step of the cocycle
moves block i vectors by a factor inside [exp(chi_i - eps), exp(chi_i + eps)],
the paper's proof that the twisted transfer contracts; the solver bounds its
tail by norms of the transfer itself instead.  The sandwich check tests the
n-step version of that bound exactly: the extreme singular values of every
frame-weighted n-step block map, taken in one batched SVD per block, each
block's steps scaled by exp(-chi_i) so that no product leaves the float
range either.  One stacked eigvalsh, when a LyapunovFrames is made, tests
every Gram and gives the comparison factors; the sandwich check factorises
the Gram of each block once.

The check reports are defined here, the lowest module with a report: a
``_Report`` states its bounded quantities once, as the (line, ok) limits of
``_limit``, and passes exactly when all of them hold.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .grading import Spectrum
from .polymap import GradedSpace, PolyMap, _linear_parts, stack_jets

MAX_GRAM_STEPS = 200_000


class NonContractingError(ValueError):
    """A coordinate block has a Lyapunov exponent >= 0."""


class ClusterGapError(ValueError):
    """Rates or exponents lie too close to tell one cluster from two."""


class TailCertificationError(RuntimeError):
    """No power of the period map certifies decay of a truncated series."""


class SeriesBudgetError(RuntimeError):
    """Transported series did not settle within the term budget."""


class SeriesStagnationError(RuntimeError):
    """No certified contraction for the transported series.

    Usually means epsilon is inconsistent with the spectral gap at this
    degree, or the cocycle data does not match the declared spectrum.
    """


@dataclass(eq=False)
class OrbitCocycle:
    """Fiber maps F_0, ..., F_{K-1} over a length-K orbit.

    Map k sends the fiber at orbit point k to the fiber at point k+1 (mod K).
    All maps share one graded coordinate space, fix the origin, and have
    invertible linear parts.  The maps are stacked once into the read-only
    (K, m, jet_width(m, degree)) jet stack ``jets``, and their linear parts
    into the read-only (K, m, m) stack ``linears``.
    """

    space: GradedSpace
    fiber_maps: tuple[PolyMap, ...]

    def __post_init__(self):
        self.fiber_maps = tuple(self.fiber_maps)
        if not self.fiber_maps:
            raise ValueError("cocycle needs at least one fiber map")
        for k, pm in enumerate(self.fiber_maps):
            if pm.source != self.space or pm.target != self.space:
                raise ValueError(f"fiber map {k} is not over the cocycle space")
            if np.any(pm.constant != 0.0):
                raise ValueError(f"fiber map {k} does not fix the origin")
        self.jets = stack_jets(self.fiber_maps, self.degree)
        self.jets.setflags(write=False)
        self.linears = np.ascontiguousarray(_linear_parts(self.jets, self.dim))
        # condition number sigma_max / sigma_min of 1e12 or more, zero maps included
        sigma = np.linalg.svd(self.linears, compute_uv=False)
        singular = np.flatnonzero(sigma[:, 0] >= 1e12 * sigma[:, -1])
        if singular.size:
            raise ValueError(f"fiber map {singular[0]} has a non-invertible linear part")
        self.linears.setflags(write=False)

    @property
    def period(self) -> int:
        return len(self.fiber_maps)

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def degree(self) -> int:
        return max(pm.degree for pm in self.fiber_maps)

    @cached_property
    def block_rates(self) -> tuple[np.ndarray, list[np.ndarray]]:
        return _block_rates(self)

    def map_at(self, k: int) -> PolyMap:
        return self.fiber_maps[k % self.period]

    def to_dict(self) -> dict:
        return {
            "block_dims": list(self.space.block_dims),
            "fiber_maps": [pm.to_dict() for pm in self.fiber_maps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OrbitCocycle":
        if data.get("periodic", True) is not True:
            raise ValueError("cocycle key 'periodic' must be true: only periodic "
                             "orbits are supported")
        space = GradedSpace(tuple(data["block_dims"]))
        return cls(space, tuple(PolyMap.from_dict(d) for d in data["fiber_maps"]))


def _block_rates(cocycle: OrbitCocycle) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per coordinate block i, its exponent chi_i and the rates it carries.

    The cocycle must be grading-adapted: linear parts with off-block entries
    beyond 1e-12 relative raise.  chi_i = sum_k log|det A_k[i]| / (K m_i) is
    read from the (K, m_i, m_i) stack of block-i steps A_k[i].  The rates of
    block i are chi_i plus the log moduli per period of the eigenvalues of
    the monodromy of exp(-chi_i) A_k[i], renormalised every step by a power
    of two (exact), whose exponents add up to its log scale; so no product
    leaves the float range, however long the period.  Rates too far below the
    largest to resolve (modulus 0) share what the others leave of m_i chi_i.
    """
    A, space, K = cocycle.linears, cocycle.space, cocycle.period
    block = np.array(space.block_of_coord)
    off = np.max(np.abs(A) * (block[:, None] != block[None, :]), axis=(1, 2))
    mixed = np.flatnonzero(off > 1e-12 * np.maximum(1.0, np.max(np.abs(A), axis=(1, 2))))
    if mixed.size:
        raise ValueError(f"fiber map {mixed[0]} is not grading-adapted "
                         "(linear part has off-block entries)")
    chi, rates = [], []
    for sl in space.block_slices:
        steps, mi = A[:, sl, sl], sl.stop - sl.start
        chi.append(float(np.linalg.slogdet(steps)[1].sum()) / (K * mi))
        P, scale = np.eye(mi), 0
        for step in math.exp(-chi[-1]) * steps:
            P = step @ P
            e = int(np.frexp(np.abs(P).max())[1])
            P, scale = np.ldexp(P, -e), scale + e
        with np.errstate(divide="ignore"):
            log_moduli = np.log(np.abs(np.linalg.eigvals(P))) + scale * math.log(2.0)
        rates.append(chi[-1] + log_moduli / K)
        lost = np.isneginf(rates[-1])
        rates[-1][lost] = (mi * chi[-1] - rates[-1][~lost].sum()) / max(lost.sum(), 1)
    return np.array(chi), rates


def _check_carried(rates: list[np.ndarray], exponents: tuple[float, ...]) -> None:
    """Raise unless every rate of coordinate block i is nearest chi_i among
    the exponents."""
    chi = np.array(exponents)
    for i, r in enumerate(rates, start=1):
        astray = r[np.abs(r[:, None] - chi).argmin(axis=1) != i - 1]
        if astray.size:
            raise ValueError(
                f"coordinate block {i} does not carry its exponent chi_{i} = "
                f"{chi[i - 1]:.6g}: its monodromy has the rate {astray[0]:.6g} (log "
                "modulus / period), nearest another exponent; order the coordinate "
                "blocks by increasing exponent")


def monodromy_spectrum(
    cocycle: OrbitCocycle,
    epsilon: float,
    resonance_tol: float = 1e-9,
    cluster_tol: float = 1e-6,
) -> Spectrum:
    """Lyapunov spectrum of a grading-adapted cocycle, one exponent per coordinate block.

    Exponents and rates are read block by block once (``block_rates``), with
    the clustering margin cluster_tol * max(1, largest |chi_i|).  The rates
    of a block chain into one cluster when each is within the margin of the
    next.  A block whose rates split within ten margins raises
    ClusterGapError; split wider, it carries two rates, a ValueError naming
    the block and its extreme rates.  A block with chi_i >= 0 raises
    NonContractingError, exponents of two blocks within ten margins raise
    ClusterGapError, and blocks out of increasing order raise a ValueError
    naming the first block whose rate sits nearest another exponent.
    """
    chi, rates = cocycle.block_rates
    margin = cluster_tol * max(1.0, float(np.max(np.abs(chi))))
    for i, r in enumerate(rates, start=1):
        r = sorted(r.tolist())
        # equal rates are no gap
        gap = max((b - a for a, b in zip(r, r[1:]) if b > a), default=0.0)
        if gap > 10.0 * margin:
            raise ValueError(f"coordinate block {i} carries two rates, {r[0]:.6g} and "
                             f"{r[-1]:.6g} (log modulus / period); give each rate its "
                             "own coordinate block")
        if gap > margin:
            raise ClusterGapError(f"coordinate block {i} has the rate gap {gap:.3e}, "
                                  f"inside the clustering margin {10.0 * margin:.3e}")
    hot = np.flatnonzero(chi >= 0.0)
    if hot.size:
        raise NonContractingError(f"coordinate block {hot[0] + 1} has the exponent "
                                  f"{chi[hot[0]]:.6g} >= 0: it does not contract")
    exponents = sorted(chi.tolist())
    for a, b in zip(exponents, exponents[1:]):
        if b - a <= 10.0 * margin:
            raise ClusterGapError(f"exponent gap {b - a:.3e} is inside the clustering "
                                  f"margin {10.0 * margin:.3e}")
    _check_carried(rates, exponents)
    return Spectrum(tuple(chi.tolist()), cocycle.space.block_dims, epsilon, resonance_tol)


@dataclass(eq=False)
class LyapunovFrames:
    """Epsilon-weighted inner products at every orbit point, as (K, m, m) stacks.

    grams[k] is the SPD matrix of the inner product at point k in the
    cocycle's coordinates, symmetrised on entry (the norm reads only the
    symmetric part); ``lyapunov_frames`` builds it block diagonal over the
    coordinate blocks.  horizon and tail_bound record per point how the
    defining series was truncated: the terms summed in each time direction,
    and the bound on the dropped tail relative to the Frobenius norm of the
    block-diagonal sum.  One stacked eigvalsh of the finite Grams is the
    positive-definiteness test and gives lambda_min, the least eigenvalue,
    and k_eps, the square root of the greatest, which bounds the comparison
    with the euclidean norm from above.
    """

    grams: np.ndarray
    horizon: np.ndarray | int = 0
    tail_bound: np.ndarray | float = 0.0

    def __post_init__(self):
        G = np.asarray(self.grams, dtype=float)
        if G.ndim != 3 or G.shape[1] != G.shape[2]:
            raise ValueError("grams must be a (K, m, m) stack")
        self.grams = 0.5 * (G + G.transpose(0, 2, 1))
        self.horizon = np.broadcast_to(self.horizon, len(G))
        self.tail_bound = np.broadcast_to(self.tail_bound, len(G))
        if not np.isfinite(self.grams).all():
            raise ValueError("gram matrix is not positive definite")
        eigs = np.linalg.eigvalsh(self.grams)
        if not (eigs[:, 0] > 0.0).all():
            raise ValueError("gram matrix is not positive definite")
        self.lambda_min, self.k_eps = eigs[:, 0], np.sqrt(eigs[:, -1])
        self.grams.setflags(write=False)


def _frobenius(x: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """Frobenius norms over `axis`, formed as np.linalg.norm forms them."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _rebalance(L: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each pair (L, M) of two stacks by 2^-e and 2^e, which leaves L X M exact.

    e halves the gap between the binary exponents of their largest entries,
    so a long product of expanding L and contracting M stays in float range;
    a stack longer than its matrices' size is reduced across, which is faster.
    """
    top = [t[:, 0] if t.shape[1] == 1 else np.ascontiguousarray(t.T).max(axis=0)
           if len(t) > t.shape[1] else t.max(axis=1)
           for t in (np.abs(X).reshape(-1, X.shape[-2] * X.shape[-1]) for X in (L, M))]
    e = ((np.frexp(top[0])[1] - np.frexp(top[1])[1]) // 2).reshape(L.shape[:-2] + (1, 1))
    return np.ldexp(L, -e), np.ldexp(M, e)


def _transported_sum(Q: np.ndarray, X: np.ndarray, Y: np.ndarray, nxt: np.ndarray,
                     K: int, tol: float, budget: int,
                     what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed point G(p) = Q(p) + X_p G(nxt_p) Y_p of a transfer, by Smith's doubling.

    Q, X and Y are (types, phases, r, c), (types, phases, r, r) and
    (types, phases, c, c) stacks, zero-padded to one shape, Q maybe with a
    leading axis of stop groups, and nxt closes a cycle every K phases.  From
    phase p a type's G is sum_t A^t S B^t with S the first-period sum, A =
    X_p X_{nxt p} ... (K factors) and B = ... Y_{nxt p} Y_p, and every step
    G <- G + A G B, A <- A A, B <- B B doubles the T periods summed, (A, B)
    first balanced by a power of two read off the norms of the stop test
    (the first-period products by ``_rebalance``).  The tail sum_{j>=1}
    A^j G B^j of a type has norm at most rho/(1-rho) ||G||_F, rho =
    ||A||_F ||B||_F, so a group stops, and takes no more doublings, once the
    root sum of squares of those bounds over its types is within tol *
    max(1, ||G(p)||_F) at every phase p (NaN never passes); A and B do not
    read Q, so each group has the bits of a call of its own.  A non-finite
    rho ||G||_F or ||G(p)||_F of a group still summing raises
    SeriesStagnationError; more than budget terms, at the first period or at
    a doubling, SeriesBudgetError; both name the series by ``what``.
    Returns G, the terms summed T K and the (phases,) tail bounds.
    """
    G, A, B = Q, X, Y
    for _ in range(K - 1):
        G = Q + X @ G[..., nxt, :, :] @ Y
        A, B = _rebalance(X @ A[:, nxt], B[:, nxt] @ Y)
    live, out, T = np.arange(len(Q)), None, 1  # out: G, T K, tails once a group stops alone
    with np.errstate(all="ignore"):
        while True:
            a, b, g = _frobenius(A), _frobenius(B), _frobenius(G)
            rho = a * b
            h = _frobenius(g, axis=-2)
            if not (np.isfinite(rho * g).all() and np.isfinite(h).all()):
                raise SeriesStagnationError(
                    f"transported series for {what} has no certified "
                    f"contraction: the {T}-period transfer norm reached "
                    f"rho = {float(np.max(rho)):.3g}; epsilon and spectrum are "
                    "inconsistent with this cocycle")
            # rho / (1 - rho) where rho < 1, else rho / 0 = inf
            bound = rho / np.maximum(1.0 - rho, 0.0) * g
            tail = _frobenius(bound, axis=-2)
            ok = tail <= tol * np.maximum(1.0, h)
            if T * K <= budget and ok.any():
                done = ok.all(axis=-1)
                if done.all() and out is None:  # every group at once, done all True
                    return G, done * (T * K), tail
                if done.any():
                    out = out or (np.empty(Q.shape), np.zeros(len(Q), int), np.empty(tail.shape))
                    for part, value in zip(out, (G[done], T * K, tail[done])):
                        part[live[done]] = value
                    if done.all():
                        return out
                    live, G = live[~done], G[~done]
            if 2 * T * K > budget:
                raise SeriesBudgetError(
                    f"series for {what} did not settle within {budget} "
                    f"terms (rho = {float(np.max(rho)):.3g} after {T * K})")
            # halve the gap between the binary exponents of the norms; a
            # power of two is exact, so neither A G B nor rho moves
            e = ((np.frexp(a)[1] - np.frexp(b)[1]) // 2)[..., None, None]
            A, B = np.ldexp(A, -e), np.ldexp(B, e)
            G = G + A @ G @ B
            A, B = A @ A, B @ B
            T *= 2


def lyapunov_frames(
    cocycle: OrbitCocycle,
    spectrum: Spectrum,
    tail_tol: float = 1e-12,
) -> LyapunovFrames:
    """Build the epsilon-weighted frames at every orbit point.

    The coordinate blocks are the splitting, so the step of block i at point
    k is the block slice A_k[i] of the linear parts.  Per block i, with F_k
    = exp(-chi_i) A_k[i], the forward sum is the fixed point G_k = I +
    exp(-eps) F_k^T G_{k+1} F_k and the backward one the same in the inverse
    steps, going back one point a step.  One ``_transported_sum`` takes every
    block, zero-padded to the largest, and both directions, as 2K phases of
    one stop group, with X = exp(-eps/2) F^T and Y = exp(-eps/2) F, each
    direction within tail_tol/2 of its own Frobenius norm; the n = 0
    identity of both is taken off once.  Either direction's sum is at most
    the Gram, so the two tail bounds together stay within tail_tol of the
    Gram's Frobenius norm, the recorded tail_bound.  The ambient Gram, dim *
    blockdiag(per-block sums), dominates the euclidean Gram.
    """
    if spectrum.epsilon <= 0.0:
        raise ValueError("frames need a positive epsilon")
    K, m, space = cocycle.period, cocycle.dim, cocycle.space
    if spectrum.multiplicities != space.block_dims:
        raise ValueError("spectrum multiplicities do not match the coordinate grading")

    dims = np.array(space.block_dims)
    d = int(dims.max())
    Y = np.zeros((space.n_blocks, 2 * K, d, d))
    for t, (chi, sl) in enumerate(zip(spectrum.exponents, space.block_slices)):
        F = math.exp(-chi) * cocycle.linears[:, sl, sl]
        # row k steps forward from point k, row K + k back from it
        Y[t, :, :dims[t], :dims[t]] = np.concatenate([F, np.roll(np.linalg.inv(F), 1, axis=0)])
    Y *= math.exp(-spectrum.epsilon / 2)
    # the identity of every block, zero on its padding
    Q = np.broadcast_to((np.eye(d) * (np.arange(d) < dims[:, None, None]))[:, None], Y.shape)
    nxt = np.r_[np.arange(1, K + 1) % K, K + np.arange(-1, K - 1) % K]
    try:
        G, horizon, tails = _transported_sum(Q, Y.transpose(0, 1, 3, 2), Y, nxt, K,
                                             tail_tol / 2, MAX_GRAM_STEPS, "the frame grams")
    except (SeriesBudgetError, SeriesStagnationError) as exc:
        raise TailCertificationError(str(exc)) from exc
    G = G[:, :K] + G[:, K:] - Q[:, :K]
    G_blocks = np.zeros((K, m, m))
    for t, sl in enumerate(space.block_slices):
        G_blocks[:, sl, sl] = G[t, :, :dims[t], :dims[t]]
    tail = (tails[:K] + tails[K:]) / _frobenius(G_blocks)
    frames = LyapunovFrames(m * G_blocks, horizon, tail)
    low = np.flatnonzero(frames.lambda_min < 1.0 - 1e-6)
    if low.size:
        raise ValueError(f"frame gram fails to dominate the euclidean product "
                         f"(lambda_min {frames.lambda_min[low[0]]:.6g})")
    return frames


def _limit(label: str, value: float, kind: str, bound: float) -> tuple[str, bool]:
    """One bounded quantity of a check: the line naming it with its value and
    bound, and whether it holds, ``value <= bound``, which NaN never does."""
    return f"{label} {value:.3g} > {kind} {bound:.3g}", value <= bound


class _Report:
    """A check report.  ``limits()`` states its bounded quantities once, by
    default each field named in ``_bounded`` against ``tol``; the report
    passes exactly when all of them hold.  ``to_dict`` holds every field but
    the maps, and ``passed``."""

    _bounded: tuple[str, ...] = ()

    def limits(self) -> list[tuple[str, bool]]:
        return [_limit(name, getattr(self, name), "tol", self.tol) for name in self._bounded]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.limits())

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.metadata.get("serialized", True):
                value = getattr(self, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
        out["passed"] = self.passed
        return out


@dataclass(frozen=True)
class SandwichReport(_Report):
    """Exact check of the n-step norm envelopes and the comparison factor."""

    max_violation: float
    keps_ok: bool
    lambda_min_gram: float
    n_max: int
    n_envelopes: int
    tol: float

    def limits(self) -> list[tuple[str, bool]]:
        return [("keps_ok false", self.keps_ok),
                _limit("max_violation", self.max_violation, "tol", self.tol)]


def log_envelopes(
    cocycle: OrbitCocycle,
    frames: LyapunovFrames,
    n_max: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exact extreme log growth of every block in the frame norms.

    For orbit point k, block i and step n, the log of the least and the
    greatest ratio ||Phi(k, n) u||_{k+n} / ||u||_k over the vectors u on the
    coordinates of block i.  The blocks are the splitting (``block_rates``
    rejects a cocycle that is not grading-adapted), and ||u||_k = ||R_{k,i}
    u_i|| with R_{k,i}^T R_{k,i} the Cholesky factorisation of the block
    Gram G_k[i, i]: these are the log extreme singular values of R_{k+n,i}
    Phi_i(k, n) R_{k,i}^{-1}, one batched SVD per block.  The products take
    block i's rows of the linear parts times exp(-chi_i), so they stay in
    float range at any period, and chi_i n is added back to the logs.
    Returns the steps -n_max..-1, 1..n_max and, per block, an array of shape
    (K, 2 n_max, 2) holding (log sigma_min, log sigma_max).
    """
    K, space, (chi, _) = cocycle.period, cocycle.space, cocycle.block_rates
    if len(frames.grams) != K:
        raise ValueError("need one frame per orbit point")
    if n_max < 1:
        raise ValueError(f"n_max must satisfy n_max >= 1, got {n_max}")
    steps = np.r_[-n_max:0, 1:n_max + 1]
    A = cocycle.linears.copy()
    for c, sl in zip(chi, space.block_slices):
        A[:, sl] *= math.exp(-c)
    A_inv = np.linalg.inv(A)
    points = np.arange(K)
    # Phi(k, n) = A_{k+n-1} Phi(k, n-1) forward, A_{k-n}^{-1} Phi(k, 1-n) backward
    phi = np.empty((K, 2 * n_max) + A.shape[1:])
    phi[:, n_max - 1], phi[:, n_max] = A_inv[(points - 1) % K], A
    for n in range(2, n_max + 1):
        phi[:, n_max + n - 1] = A[(points + n - 1) % K] @ phi[:, n_max + n - 2]
        phi[:, n_max - n] = A_inv[(points - n) % K] @ phi[:, n_max - n + 1]
    envelopes = []
    for c, sl in zip(chi, space.block_slices):
        R = np.linalg.cholesky(frames.grams[:, sl, sl]).transpose(0, 2, 1)
        sigma = np.linalg.svd(R[(points[:, None] + steps) % K] @ phi[..., sl, sl]
                              @ np.linalg.inv(R)[:, None], compute_uv=False)
        envelopes.append(np.log(sigma[..., [-1, 0]]) + c * steps[:, None])
    return steps, envelopes


def sandwich_check(
    cocycle: OrbitCocycle,
    spectrum: Spectrum,
    frames: LyapunovFrames,
    n_max: int | None = None,
    tol: float = 1e-6,
) -> SandwichReport:
    """Verify exp(chi_i n - eps |n|) <= growth <= exp(chi_i n + eps |n|) exactly.

    The exact log envelopes of every block over n = +-1..+-n_max steps from
    every orbit point (log_envelopes) are compared against the advertised
    exponential envelope.  The euclidean comparison ||u|| <= ||u||_eps holds
    when the least Gram eigenvalue is at least 1 (within 1e-9 in the norm);
    ||u||_eps <= k_eps ||u|| holds by the definition of k_eps.  The report
    passes when the comparison holds and no violation exceeds tol; a NaN
    violation fails it.
    """
    K = cocycle.period
    if n_max is None:
        n_max = max(2 * K, 12)
    steps, envelopes = log_envelopes(cocycle, frames, n_max)
    slack = spectrum.epsilon * np.abs(steps)
    env, chi = np.stack(envelopes), np.array(spectrum.exponents)[:, None, None]
    violations = np.stack([env[..., 1] - (chi * steps + slack),
                           (chi * steps - slack) - env[..., 0]])
    max_violation = float(np.max(violations, initial=0.0))
    lam_min = float(np.min(frames.lambda_min))
    return SandwichReport(
        max_violation=max_violation,
        keps_ok=lam_min >= (1.0 - 1e-9) ** 2,
        lambda_min_gram=lam_min,
        n_max=n_max,
        n_envelopes=K * len(envelopes) * len(steps),
        tol=tol,
    )
