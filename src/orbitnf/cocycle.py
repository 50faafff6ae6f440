"""Polynomial cocycles over a periodic orbit and their Lyapunov data.

An OrbitCocycle is a finite sequence of polynomial fiber maps, one per orbit
point, composed cyclically.  From the monodromy (the product of the linear
parts around one period) we extract Lyapunov exponents as log moduli of
eigenvalues, cluster them into blocks, and recover the invariant splitting as
null spaces of annihilating polynomials of the monodromy.

The frames built here carry the epsilon-weighted inner product: per block a
two-sided geometric sum of pushforward Grams, truncated once a per-period
contraction certificate bounds the dropped tail below a requested tolerance.
Under that inner product one step of the cocycle moves block i vectors by a
factor inside [exp(chi_i - eps), exp(chi_i + eps)], which is what the
degree-by-degree solver leans on.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grading import Spectrum
from .polymap import GradedSpace, PolyMap

MAX_CERT_POWER = 256
MAX_GRAM_STEPS = 200_000


class NonContractingError(ValueError):
    """Monodromy has an eigenvalue of modulus >= 1."""


class ClusterGapError(ValueError):
    """Eigenvalue moduli cannot be split into well-separated clusters."""


class TailCertificationError(RuntimeError):
    """No power of the period map certifies decay of a truncated series."""


@dataclass(eq=False)
class OrbitCocycle:
    """Fiber maps F_0, ..., F_{K-1} over a length-K orbit.

    Map k sends the fiber at orbit point k to the fiber at point k+1 (mod K
    when periodic).  All maps share one graded coordinate space, fix the
    origin, and have invertible linear parts.  The linear parts are
    extracted once and handed out as read-only arrays.
    """

    space: GradedSpace
    fiber_maps: tuple[PolyMap, ...]
    periodic: bool = True

    def __post_init__(self):
        self.fiber_maps = tuple(self.fiber_maps)
        if not self.fiber_maps:
            raise ValueError("cocycle needs at least one fiber map")
        self._linears = tuple(pm.linear_matrix() for pm in self.fiber_maps)
        for k, (pm, A) in enumerate(zip(self.fiber_maps, self._linears)):
            if pm.source != self.space or pm.target != self.space:
                raise ValueError(f"fiber map {k} is not over the cocycle space")
            if np.any(pm.constant != 0.0):
                raise ValueError(f"fiber map {k} does not fix the origin")
            if np.linalg.cond(A) > 1e12:
                raise ValueError(f"fiber map {k} has a non-invertible linear part")
            A.setflags(write=False)

    @property
    def period(self) -> int:
        return len(self.fiber_maps)

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def degree(self) -> int:
        return max(pm.degree for pm in self.fiber_maps)

    def _index(self, k: int) -> int:
        if self.periodic:
            return k % self.period
        if not 0 <= k < self.period:
            raise IndexError(f"step {k} outside the stored orbit window")
        return k

    def map_at(self, k: int) -> PolyMap:
        return self.fiber_maps[self._index(k)]

    def linear(self, k: int) -> np.ndarray:
        return self._linears[self._index(k)]

    def monodromy(self, base: int = 0) -> np.ndarray:
        """Product of the linear parts over one period, starting at base."""
        if not self.periodic:
            raise ValueError("monodromy requires a periodic cocycle")
        return self.linear_iterate(base, self.period)

    def linear_iterate(self, base: int, n: int) -> np.ndarray:
        """Matrix of the n-step linear cocycle from orbit point base."""
        if n >= 0:
            M = np.eye(self.dim)
            for j in range(n):
                M = self.linear(base + j) @ M
            return M
        M = np.eye(self.dim)
        for j in range(-n):
            M = M @ self.linear(base - 1 - j)
        return np.linalg.inv(M)

    def to_dict(self) -> dict:
        return {
            "block_dims": list(self.space.block_dims),
            "periodic": self.periodic,
            "fiber_maps": [pm.to_dict() for pm in self.fiber_maps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OrbitCocycle":
        space = GradedSpace(tuple(data["block_dims"]))
        maps = tuple(PolyMap.from_dict(d) for d in data["fiber_maps"])
        return cls(space, maps, bool(data.get("periodic", True)))


def _cluster_chain(values: np.ndarray, tol: float) -> list[list[int]]:
    order = np.argsort(values, kind="stable")
    scale = max(1.0, float(np.max(np.abs(values))))
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        prev = clusters[-1][-1]
        if values[idx] - values[prev] <= tol * scale:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def _fix_column_signs(B: np.ndarray) -> np.ndarray:
    B = B.copy()
    for j in range(B.shape[1]):
        i = int(np.argmax(np.abs(B[:, j])))
        if B[i, j] < 0:
            B[:, j] = -B[:, j]
    return B


def _cluster_basis(M: np.ndarray, eigs: np.ndarray, members: list[int]) -> np.ndarray:
    """Orthonormal basis of the monodromy spectral subspace for one cluster.

    Null space of the real annihilating polynomial of the cluster eigenvalues,
    raised to the cluster multiplicity so Jordan chains are killed too.
    """
    m = M.shape[0]
    mc = len(members)
    if mc == m:
        return np.eye(m)
    prod = np.eye(m)
    used = set()
    for j in members:
        if j in used:
            continue
        lam = eigs[j]
        if abs(lam.imag) <= 1e-12 * max(1.0, abs(lam)):
            prod = (M - lam.real * np.eye(m)) @ prod
            used.add(j)
        else:
            # real quadratic factor absorbs the conjugate partner
            prod = (M @ M - 2.0 * lam.real * M + (abs(lam) ** 2) * np.eye(m)) @ prod
            used.add(j)
            partner = None
            for j2 in members:
                if j2 not in used and abs(eigs[j2] - np.conj(lam)) <= 1e-8 * max(1.0, abs(lam)):
                    partner = j2
                    break
            if partner is None:
                raise ClusterGapError("complex eigenvalue without conjugate partner in cluster")
            used.add(partner)
    N = np.linalg.matrix_power(prod, mc)
    _, s, Vh = np.linalg.svd(N)
    tol_null = max(s[0], 1e-300) * 1e-8
    n_null = int(np.sum(s <= tol_null))
    if n_null != mc or (mc < m and s[m - mc - 1] <= 10.0 * tol_null):
        raise ClusterGapError(
            f"annihilator null space has dimension {n_null}, expected {mc}; "
            "eigenvalue clusters are numerically ill-separated"
        )
    return _fix_column_signs(Vh[m - mc:].T)


def _qr_positive(Z: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(Z)
    d = np.sign(np.diag(R))
    d[d == 0.0] = 1.0
    return Q * d


def monodromy_spectrum(
    cocycle: OrbitCocycle,
    epsilon: float,
    resonance_tol: float = 1e-9,
    cluster_tol: float = 1e-6,
) -> tuple[Spectrum, tuple[np.ndarray, ...]]:
    """Lyapunov spectrum and invariant block bases along the orbit.

    Exponents are log moduli of monodromy eigenvalues divided by the period,
    clustered with relative tolerance cluster_tol.  Returns the spectrum and,
    for every orbit point, an orthonormal basis matrix whose column blocks
    span the splitting, transported by the cocycle with per-block QR.
    """
    if not cocycle.periodic:
        raise ValueError("spectrum extraction requires a periodic cocycle")
    K = cocycle.period
    M = cocycle.monodromy(0)
    eigs = np.linalg.eigvals(M)
    moduli = np.abs(eigs)
    if np.any(moduli >= 1.0):
        raise NonContractingError(
            f"monodromy spectral radius {float(np.max(moduli)):.6g} is not < 1"
        )
    if np.any(moduli <= 0.0):
        raise NonContractingError("monodromy is singular")
    values = np.log(moduli) / K

    clusters = _cluster_chain(values, cluster_tol)
    scale = max(1.0, float(np.max(np.abs(values))))
    for a, b in zip(clusters, clusters[1:]):
        gap = values[b[0]] - values[a[-1]]
        if gap <= 10.0 * cluster_tol * scale:
            raise ClusterGapError(
                f"exponent gap {gap:.3e} is inside the clustering margin "
                f"{10.0 * cluster_tol * scale:.3e}"
            )

    exponents = tuple(float(np.mean(values[c])) for c in clusters)
    multiplicities = tuple(len(c) for c in clusters)
    spectrum = Spectrum(exponents, multiplicities, epsilon, resonance_tol)

    B0 = np.hstack([_cluster_basis(M, eigs, c) for c in clusters])
    space = GradedSpace(multiplicities)
    bases = [B0]
    for k in range(K - 1):
        A = cocycle.linear(k)
        prev = bases[-1]
        cols = []
        for i in range(1, space.n_blocks + 1):
            sl = space.block_slice(i)
            cols.append(_qr_positive(A @ prev[:, sl]))
        bases.append(np.hstack(cols))
    return spectrum, tuple(bases)


def finite_time_exponents(cocycle: OrbitCocycle, horizon: int, base: int = 0) -> np.ndarray:
    """QR-accumulated finite-time Lyapunov exponents, sorted ascending."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not cocycle.periodic and base + horizon > cocycle.period:
        raise ValueError("horizon exceeds the stored orbit window")
    m = cocycle.dim
    Q = np.eye(m)
    acc = np.zeros(m)
    for j in range(horizon):
        Z = cocycle.linear(base + j) @ Q
        Q, R = np.linalg.qr(Z)
        d = np.diag(R)
        if np.any(d == 0.0):
            raise NonContractingError("degenerate pushforward in QR accumulation")
        acc += np.log(np.abs(d))
        sgn = np.sign(d)
        Q = Q * sgn
    return np.sort(acc / horizon)


@dataclass(eq=False)
class LyapunovFrame:
    """Epsilon-weighted inner product at one orbit point.

    gram is the ambient SPD matrix of the inner product, basis the orthonormal
    block basis of the splitting it was built in.  k_eps bounds the comparison
    with the euclidean norm from above; the lower bound is 1 by construction.
    horizon and tail_bound record how the defining series was truncated.
    """

    gram: np.ndarray
    basis: np.ndarray
    horizon: int = 0
    tail_bound: float = 0.0

    def __post_init__(self):
        G = np.asarray(self.gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("gram must be a square matrix")
        if not np.allclose(G, G.T, atol=1e-10 * max(1.0, float(np.max(np.abs(G))))):
            raise ValueError("gram must be symmetric")
        self.gram = 0.5 * (G + G.T)
        try:
            np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix is not positive definite") from None

    @classmethod
    def euclidean(cls, dim: int) -> "LyapunovFrame":
        return cls(np.eye(dim), np.eye(dim))

    @cached_property
    def k_eps(self) -> float:
        return float(math.sqrt(np.linalg.eigvalsh(self.gram)[-1]))

    def norm(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(math.sqrt(u @ self.gram @ u))

    def norm_batch(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        return np.sqrt(np.einsum("ij,jk,ik->i", U, self.gram, U))


def _block_restrictions(
    cocycle: OrbitCocycle, bases: tuple[np.ndarray, ...], block_slice: slice
) -> list[np.ndarray]:
    """Per-step matrices of the cocycle restricted to one invariant block."""
    K = cocycle.period
    out = []
    for p in range(K):
        A = cocycle.linear(p)
        V = bases[p][:, block_slice]
        W = bases[(p + 1) % K][:, block_slice]
        C = W.T @ A @ V
        residual = np.linalg.norm(A @ V - W @ C)
        if residual > 1e-8 * max(1.0, float(np.linalg.norm(A))):
            raise ValueError(
                f"block basis is not invariant under fiber map {p} "
                f"(residual {residual:.3e})"
            )
        out.append(C)
    return out


def _decay_certificate(period_maps: list[np.ndarray], eps_per_period: float) -> tuple[int, float]:
    """Smallest power-of-two q with weighted q-period growth below one.

    Checks both time directions: max_p sigma_max(P_p^{+-q})^2 < exp(eps q K)
    where P_p is the per-period product normalized to unit exponent.
    """
    forward = [P.copy() for P in period_maps]
    backward = [np.linalg.inv(P) for P in period_maps]
    q = 1
    while q <= MAX_CERT_POWER:
        worst = -np.inf
        for P in forward + backward:
            s = np.linalg.norm(P, ord=2)
            if not np.isfinite(s):
                worst = np.inf
                break
            worst = max(worst, 2.0 * math.log(max(s, 1e-300)) - eps_per_period * q)
        if worst < 0.0:
            return q, math.exp(worst)
        forward = [P @ P for P in forward]
        backward = [P @ P for P in backward]
        q *= 2
    raise TailCertificationError(
        "no power up to "
        f"{MAX_CERT_POWER} periods certifies decay; epsilon is too small for this cocycle"
    )


def _chunked_sum(steps: list[np.ndarray], eps: float, n0: int, q: int, rho: float,
                 carried: float, tail_tol: float) -> tuple[np.ndarray, int, float, float]:
    """One direction of a block's Gram series, summed in whole certified chunks.

    steps are the K one-step maps in the order this direction applies them
    and Z_n their n-step product; the series is exp(-eps n) Z_n^T Z_n over
    n >= n0.  Periodicity gives Z_{j+tK} = Z_j R^t with R = Z_K, so period t
    adds exp(-eps t K) (R^t)^T S R^t, S being the sum over the first period.
    The powers R^t come by doubling, O(log horizon) array operations in all.
    The sum stops after the first chunk of q periods whose trace times
    rho/(1-rho) is at most tail_tol times the running trace, which starts
    from carried.  Returns (gram, last n summed, running trace, tail bound).
    """
    K, mc = len(steps), steps[0].shape[0]
    prods = [np.eye(mc)]
    for A in steps:
        prods.append(A @ prods[-1])
    S = sum(math.exp(-eps * n) * (prods[n].T @ prods[n]) for n in range(n0, n0 + K))
    R = prods[K]
    # whole chunks that end at n <= MAX_GRAM_STEPS
    max_periods = (MAX_GRAM_STEPS + 1 - n0) // (q * K) * q
    pows = np.eye(mc)[None]
    while True:
        t = min(len(pows), max_periods) // q * q
        if t:
            weights = np.exp(-eps * K * np.arange(t))
            SP = S @ pows[:t]
            traces = weights * np.einsum("tji,tji->t", pows[:t], SP)
            chunk_traces = traces.reshape(-1, q).sum(axis=1)
            totals = carried + np.cumsum(chunk_traces)
            tails = chunk_traces * rho / (1.0 - rho)
            done = np.flatnonzero(tails <= tail_tol * totals)
            if done.size:
                c = int(done[0])
                t = (c + 1) * q
                G = np.einsum("tji,tjl->il", weights[:t, None, None] * pows[:t], SP[:t])
                return G, n0 + t * K - 1, float(totals[c]), float(tails[c])
        if len(pows) >= max_periods:
            raise TailCertificationError("gram series did not settle within the step budget")
        pows = np.concatenate([pows, pows @ (pows[-1] @ R)])[:max_periods]


def _block_grams(restrictions: list[np.ndarray], chi: float, eps: float,
                 tail_tol: float) -> list[tuple[np.ndarray, int, float]]:
    """Two-sided weighted Gram sums of one block, one per start phase.

    Sums exp(-eps |n|) Z_n^T Z_n where Z_n is the n-step block cocycle from
    the start point, normalized by exp(-chi n).  The certificate bounds the
    dropped tail in trace norm by the last summed chunk times rho/(1-rho).
    Returns (gram, horizon, tail bound relative to the trace) per start.
    """
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
    q, rho = _decay_certificate(period_maps, eps * K)

    out = []
    for start in range(K):
        G_f, n_f, total, tail_f = _chunked_sum(
            [fwd[(start + j) % K] for j in range(K)], eps, 0, q, rho, 0.0, tail_tol)
        # the running trace carries over into the backward direction
        G_b, n_b, total, tail_b = _chunked_sum(
            [bwd[(start - 1 - j) % K] for j in range(K)], eps, 1, q, rho, total, tail_tol)
        G = G_f + G_b
        out.append((0.5 * (G + G.T), max(n_f, n_b), (tail_f + tail_b) / max(total, 1e-300)))
    return out


def lyapunov_frames(
    cocycle: OrbitCocycle,
    spectrum: Spectrum,
    bases: tuple[np.ndarray, ...],
    tail_tol: float = 1e-12,
) -> tuple[LyapunovFrame, ...]:
    """Build the epsilon-weighted frames at every orbit point.

    The ambient Gram is dim * blockdiag(per-block sums) pulled back through
    the block basis, which makes it dominate the euclidean Gram.
    """
    if spectrum.epsilon <= 0.0:
        raise ValueError("frames need a positive epsilon")
    if not cocycle.periodic:
        raise ValueError("frames are built over a periodic cocycle")
    if len(bases) != cocycle.period:
        raise ValueError("need one basis per orbit point")
    space = GradedSpace(spectrum.multiplicities)
    if space.dim != cocycle.dim:
        raise ValueError("spectrum multiplicities do not match the cocycle dimension")

    m = cocycle.dim
    per_block = []
    for i in range(1, space.n_blocks + 1):
        sl = space.block_slice(i)
        restrictions = _block_restrictions(cocycle, bases, sl)
        grams = _block_grams(restrictions, spectrum.exponents[i - 1], spectrum.epsilon, tail_tol)
        per_block.append((sl, grams))

    frames = []
    for k in range(cocycle.period):
        G_blocks = np.zeros((m, m))
        horizon = 0
        tail = 0.0
        for sl, grams in per_block:
            Gb, steps, rel_tail = grams[k]
            G_blocks[sl, sl] = Gb
            horizon = max(horizon, steps)
            tail = max(tail, rel_tail)
        B = bases[k]
        Binv = np.linalg.inv(B)
        G_amb = Binv.T @ (m * G_blocks) @ Binv
        G_amb = 0.5 * (G_amb + G_amb.T)
        lam_min = float(np.linalg.eigvalsh(G_amb)[0])
        if lam_min < 1.0 - 1e-6:
            raise ValueError(
                f"frame gram fails to dominate the euclidean product (lambda_min {lam_min:.6g})"
            )
        frames.append(LyapunovFrame(G_amb, B.copy(), horizon, tail))
    return tuple(frames)


@dataclass(frozen=True)
class SandwichReport:
    """Sampled check of the one-and-n-step norm bounds in the frames."""

    max_violation: float
    keps_ok: bool
    lambda_min_gram: float
    n_max: int
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.keps_ok and self.max_violation <= 1e-6


def sandwich_check(
    cocycle: OrbitCocycle,
    spectrum: Spectrum,
    frames: tuple[LyapunovFrame, ...],
    n_max: int | None = None,
    samples: int = 8,
    seed: int = 0,
) -> SandwichReport:
    """Verify exp((chi_i - eps) n) <= growth <= exp((chi_i + eps) n) sampled.

    Block vectors are pushed n steps both ways through the linear cocycle and
    their frame norms compared against the advertised exponential envelope.
    Also confirms the euclidean comparison ||u|| <= ||u||_eps <= k_eps ||u||.
    """
    K = cocycle.period
    if n_max is None:
        n_max = max(2 * K, 12)
    space = GradedSpace(spectrum.multiplicities)
    rng = np.random.default_rng(seed)
    eps = spectrum.epsilon

    max_violation = 0.0
    keps_ok = True
    lam_min = np.inf
    count = 0
    for k in range(K):
        Fk = frames[k]
        iterates = {n: cocycle.linear_iterate(k, n)
                    for n in range(-n_max, n_max + 1) if n != 0}
        lam_min = min(lam_min, float(np.linalg.eigvalsh(Fk.gram)[0]))
        for _ in range(samples):
            w = rng.standard_normal(cocycle.dim)
            ew = float(np.linalg.norm(w))
            gw = Fk.norm(w)
            if gw < ew * (1.0 - 1e-9) or gw > Fk.k_eps * ew * (1.0 + 1e-9):
                keps_ok = False
        for i in range(1, space.n_blocks + 1):
            sl = space.block_slice(i)
            chi = spectrum.exponents[i - 1]
            Vb = Fk.basis[:, sl]
            for _ in range(samples):
                c = rng.standard_normal(Vb.shape[1])
                u = Vb @ c
                nu = Fk.norm(u)
                if nu == 0.0:
                    continue
                for n in range(-n_max, n_max + 1):
                    if n == 0:
                        continue
                    v = iterates[n] @ u
                    r = math.log(frames[(k + n) % K].norm(v) / nu)
                    hi = chi * n + eps * abs(n)
                    lo = chi * n - eps * abs(n)
                    max_violation = max(max_violation, r - hi, lo - r)
                    count += 1
    return SandwichReport(
        max_violation=float(max(max_violation, 0.0)),
        keps_ok=keps_ok,
        lambda_min_gram=float(lam_min),
        n_max=n_max,
        n_samples=count,
    )
