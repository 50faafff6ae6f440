"""Degree-by-degree conjugation of an orbit cocycle to its normal form.

At homogeneous degree n the conjugacy equation along the orbit reads

    S_n(k) + H_n(k+1) o A_k  =  A_k o H_n(k) + P_n(k)

with A_k the linear parts, S_n(k) the degree-n source assembled from lower
degrees, H_n the new conjugator terms, and P_n the terms the normal form is
allowed to keep.  P_n lives in the sub-resonance (admissible) slots; the
non-admissible part of H_n is determined uniquely by the twisted transfer
fixed point

    H(k) = Q(k) + Phi_k(H(k+1)),    Phi_k(R) = A_k^{-1} o R o A_k.

In coefficient coordinates Phi_k is the two-sided matrix action
c -> mask * (Ainv_k @ c @ subst_k) where subst_k is the monomial substitution
matrix of A_k and mask keeps non-admissible slots.

One loop, ``_degree_loop``, runs the recursion.  Each degree assembles the
sources once as coefficient arrays, hands their twisted versions Q(k) to a
transfer solver, adds the admissible part of the lift, and finishes in
coefficient space: term_k = S_n(k) + H_n(k+1) @ subst_k - A_k @ H_n(k).  The
admissible part of term_k is P_n(k); the rest must vanish.  Three transfer
solvers plug into it:

* the transported series (``solve_normal_form``), truncated once a power of
  the one-period transfer certifies a contraction, which bounds the tail;
* the dense oracle ``verify.direct_solve_oracle``, one linear solve;
* the backward sweep of ``solve_window`` along a finite orbit window from a
  zero terminal condition.  It accepts flag-preserving (block-triangular)
  linear parts; the mask after every transport is exactly the quotient by
  the sub-resonance directions.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cocycle import LyapunovFrame, OrbitCocycle, lyapunov_frames, monodromy_spectrum
from .grading import Spectrum, SubResStructure, contraction_factor
from .polymap import (
    GradedSpace,
    PolyMap,
    _poly_mul,
    _poly_pow,
    compose_truncated,
)

MAX_SERIES_CERT_POWER = 64

LiftPolicy = Callable[[int, int], "PolyMap | None"]
# (degree operator, twisted sources Q(k)) -> (conjugator terms, diagnostics)
Transfer = Callable[["_DegreeOperator", list[np.ndarray]], tuple[list[np.ndarray], dict]]


class SeriesBudgetError(RuntimeError):
    """Transported series did not settle within the term budget."""


class SeriesStagnationError(RuntimeError):
    """No certified contraction for the transported series.

    Usually means epsilon is inconsistent with the spectral gap at this
    degree, or the cocycle data does not match the declared spectrum.
    """


def _monomials(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    def rec(prefix, remaining):
        if len(prefix) == dim - 1:
            yield prefix + (remaining,)
            return
        for p in range(remaining + 1):
            yield from rec(prefix + (p,), remaining - p)

    return tuple(sorted(rec((), degree)))


class _DegreeOperator:
    """Coefficient-space form of the degree-n transfer along the orbit.

    Coefficients of a homogeneous degree-n map sit in an (m, n_mono) array;
    column order is the sorted monomial list.  mask is True on slots whose
    type is non-admissible, so mask * c is the projection that drops the
    sub-resonance directions.
    """

    def __init__(self, space: GradedSpace, structure: SubResStructure, n: int,
                 linears: Sequence[np.ndarray]):
        self.space = space
        self.n = n
        self.degree_bound = structure.degree_bound
        self.monos = _monomials(space.dim, n)
        self.mono_index = {a: j for j, a in enumerate(self.monos)}
        admissible = structure.admissible(n)
        mask = np.ones((space.dim, len(self.monos)), dtype=bool)
        for i in range(space.dim):
            bi = space.block_of_coord[i]
            for j, alpha in enumerate(self.monos):
                if (bi, space.block_degrees(alpha)) in admissible:
                    mask[i, j] = False
        self.mask = mask
        self.linears = [np.asarray(A, dtype=float) for A in linears]
        self.ainvs = [np.linalg.inv(A) for A in self.linears]
        self.substs = [self._subst(A) for A in self.linears]

    def _subst(self, A: np.ndarray) -> np.ndarray:
        """subst[a, b] = coefficient of t^beta_b in (A t)^alpha_a."""
        dim = self.space.dim
        forms = []
        for j in range(dim):
            form = {}
            for l in range(dim):
                if A[j, l] != 0.0:
                    key = tuple(1 if idx == l else 0 for idx in range(dim))
                    form[key] = float(A[j, l])
            forms.append(form)
        pow_caches = [dict() for _ in range(dim)]
        subst = np.zeros((len(self.monos), len(self.monos)))
        one = {(0,) * dim: 1.0}
        for a, alpha in enumerate(self.monos):
            acc = one
            for j, p in enumerate(alpha):
                if p == 0:
                    continue
                acc = _poly_mul(acc, _poly_pow(forms[j], p, self.n, pow_caches[j]), self.n)
            for beta, c in acc.items():
                subst[a, self.mono_index[beta]] = c
        return subst

    def vec(self, pmap: PolyMap) -> np.ndarray:
        c = np.zeros((self.space.dim, len(self.monos)))
        for (i, alpha), v in pmap.coeffs.items():
            c[i, self.mono_index[alpha]] = v
        return c

    def polymap(self, c: np.ndarray) -> PolyMap:
        coeffs = {}
        for i in range(self.space.dim):
            for j, alpha in enumerate(self.monos):
                if c[i, j] != 0.0:
                    coeffs[(i, alpha)] = float(c[i, j])
        return PolyMap(self.space, self.space, self.n,
                       np.zeros(self.space.dim), coeffs)

    def apply(self, k: int, c: np.ndarray) -> np.ndarray:
        """Masked transfer of a coefficient array through step k."""
        return self.mask * (self.ainvs[k] @ c @ self.substs[k])

    def source(self, k: int, s_vec: np.ndarray) -> np.ndarray:
        """Masked twisted source Q(k) = proj_N(Ainv_k o proj_N(S))."""
        return self.mask * (self.ainvs[k] @ (self.mask * s_vec))

    def phi_matrix(self, k: int) -> np.ndarray:
        """Dense matrix of apply(k, .) on row-major flattened coefficients."""
        M = np.kron(self.ainvs[k], self.substs[k].T)
        return self.mask.ravel()[:, None] * M


def _series_certificate(op: _DegreeOperator, period: int) -> tuple[int, float]:
    """Smallest power-of-two q with every q-period transfer norm below one."""
    phis = [op.phi_matrix(k) for k in range(period)]
    psis = []
    for p in range(period):
        P = np.eye(phis[0].shape[0])
        for j in range(period):
            P = P @ phis[(p + j) % period]
        psis.append(P)
    q = 1
    while q <= MAX_SERIES_CERT_POWER:
        rho = 0.0
        for P in psis:
            s = np.linalg.norm(P, ord=2)
            rho = max(rho, float(s) if np.isfinite(s) else np.inf)
        if rho < 1.0:
            return q, rho
        psis = [P @ P for P in psis]
        q *= 2
    raise SeriesStagnationError(
        "transported series has no certified contraction up to "
        f"{MAX_SERIES_CERT_POWER} periods; epsilon and spectrum are inconsistent "
        "with this cocycle"
    )


def _run_series(op: _DegreeOperator, q_vecs: list[np.ndarray], series_tol: float,
                max_terms: int, period: int) -> tuple[list[np.ndarray], dict]:
    info = {
        "short_circuit": False,
        "series_terms": 0,
        "certificate_q": None,
        "certificate_rho": None,
        "tail_bound": 0.0,
        "measured_period_ratio": None,
    }
    if all(not np.any(q) for q in q_vecs):
        info["short_circuit"] = True
        return [np.zeros_like(q) for q in q_vecs], info

    q_cert, rho = _series_certificate(op, period)
    info["certificate_q"] = q_cert
    info["certificate_rho"] = rho
    chunk_len = q_cert * period

    H = [np.zeros_like(q) for q in q_vecs]
    terms = [q.copy() for q in q_vecs]
    chunk = [0.0] * period
    prev_chunk = None
    n_terms = 0
    steps_in_chunk = 0
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
                if prev_chunk is not None:
                    ratios = [c / p for c, p in zip(chunk, prev_chunk) if p > 0.0]
                    if ratios:
                        info["measured_period_ratio"] = max(ratios) ** (1.0 / q_cert)
                return H, info
            prev_chunk = chunk
            chunk = [0.0] * period
            steps_in_chunk = 0
        if n_terms > max_terms:
            raise SeriesBudgetError(
                f"series for degree {op.n} did not settle within {max_terms} terms"
            )
        terms = [op.apply(k, terms[(k + 1) % period]) for k in range(period)]


@dataclass(eq=False)
class SolverContext:
    """Everything the degree loop needs, validated once.

    The periodic solver requires a grading-adapted cocycle: the coordinate
    blocks are the splitting, so the linear parts must be block diagonal and
    their block sizes must match the spectrum multiplicities.
    """

    cocycle: OrbitCocycle
    spectrum: Spectrum
    structure: SubResStructure
    frames: tuple[LyapunovFrame, ...]
    order: int
    series_tol: float = 1e-13
    max_series_terms: int = 10_000
    lift_policy: LiftPolicy | None = None
    require_adapted: bool = True

    def __post_init__(self):
        if not self.cocycle.periodic:
            raise ValueError("the periodic solver needs a periodic cocycle")
        if self.order < max(1, self.structure.degree_bound):
            raise ValueError(
                f"order {self.order} is below the degree bound {self.structure.degree_bound}"
            )
        if self.spectrum.multiplicities != self.cocycle.space.block_dims:
            raise ValueError(
                "spectrum multiplicities do not match the coordinate grading"
            )
        if len(self.frames) != self.cocycle.period:
            raise ValueError("need one frame per orbit point")
        if self.order >= 2:
            contraction_factor(self.spectrum, self.order)
        if self.require_adapted:
            space = self.cocycle.space
            for k in range(self.cocycle.period):
                A = self.cocycle.linear(k)
                off = A.copy()
                for i in range(1, space.n_blocks + 1):
                    sl = space.block_slice(i)
                    off[sl, sl] = 0.0
                if np.max(np.abs(off)) > 1e-12 * max(1.0, float(np.max(np.abs(A)))):
                    raise ValueError(
                        f"fiber map {k} is not grading-adapted "
                        "(linear part has off-block entries)"
                    )
        self._operators: dict[int, _DegreeOperator] = {}
        self._linears = [self.cocycle.linear(k) for k in range(self.cocycle.period)]

    @classmethod
    def prepare(cls, cocycle: OrbitCocycle, epsilon: float, order: int, *,
                resonance_tol: float = 1e-9, cluster_tol: float = 1e-6,
                tail_tol: float = 1e-12, series_tol: float = 1e-13,
                max_series_terms: int = 10_000,
                lift_policy: LiftPolicy | None = None) -> "SolverContext":
        """Extract spectrum and frames from the cocycle, then build a context."""
        spectrum, bases = monodromy_spectrum(cocycle, epsilon, resonance_tol, cluster_tol)
        frames = lyapunov_frames(cocycle, spectrum, bases, tail_tol)
        structure = SubResStructure.from_spectrum(spectrum)
        return cls(cocycle, spectrum, structure, frames, order,
                   series_tol=series_tol, max_series_terms=max_series_terms,
                   lift_policy=lift_policy)

    def operator(self, n: int) -> _DegreeOperator:
        if n not in self._operators:
            self._operators[n] = _DegreeOperator(
                self.cocycle.space, self.structure, n, self._linears
            )
        return self._operators[n]


def _source_vecs(op: _DegreeOperator, fiber_maps: Sequence[PolyMap],
                 h_maps: list[PolyMap], p_maps: list[PolyMap]) -> list[np.ndarray]:
    """Degree-n sources S(k) = [H(k+1) o F_k - P_k o H(k)]_n as coefficient arrays."""
    n, C = op.n, len(h_maps)
    return [op.vec(compose_truncated(h_maps[(k + 1) % C], f, n).homogeneous_part(n)
                   - compose_truncated(p_maps[k], h_maps[k], n).homogeneous_part(n))
            for k, f in enumerate(fiber_maps)]


def solve_homogeneous_degree(op: _DegreeOperator, fiber_maps: Sequence[PolyMap],
                             h_maps: list[PolyMap], p_maps: list[PolyMap],
                             transfer: Transfer, lift_policy: LiftPolicy | None = None
                             ) -> tuple[list[np.ndarray], list[np.ndarray], dict]:
    """One degree of the conjugacy equation, solved in coefficient space.

    Returns the degree-n conjugator terms (one array per conjugator), the
    normal form terms P_n (one per map) and the degree's diagnostics.  Below
    the degree bound the non-admissible residue of the finished equation is
    the admissible violation; above it P_n vanishes and the residue is the
    defect.
    """
    n = op.n
    s_vecs = _source_vecs(op, fiber_maps, h_maps, p_maps)
    h_vecs, info = transfer(op, [op.source(k, s) for k, s in enumerate(s_vecs)])
    if lift_policy is not None:
        for k in range(len(h_vecs)):
            lift = lift_policy(k, n)
            if lift is not None:
                h_vecs[k] = h_vecs[k] + ~op.mask * op.vec(lift.homogeneous_part(n))
    C = len(h_vecs)
    terms = [s + h_vecs[(k + 1) % C] @ op.substs[k] - op.linears[k] @ h_vecs[k]
             for k, s in enumerate(s_vecs)]
    residue = max(float(np.max(np.abs(op.mask * t))) for t in terms)
    below = n <= op.degree_bound
    diag = dict(info, degree=n,
                source_norm=max(float(np.linalg.norm(s)) for s in s_vecs),
                solution_norm=max(float(np.linalg.norm(h)) for h in h_vecs),
                admissible_violation=residue if below else None,
                defect=None if below else residue)
    return h_vecs, [~op.mask * t for t in terms], diag


def _degree_loop(fiber_maps: Sequence[PolyMap], n_conj: int,
                 operator: Callable[[int], _DegreeOperator], order: int,
                 transfer: Transfer, lift_policy: LiftPolicy | None = None
                 ) -> tuple[list[PolyMap], list[PolyMap], list[dict]]:
    """Degrees 2..order along fiber_maps: conjugators, normal forms, diagnostics.

    There are n_conj conjugators: the period on a periodic orbit, where the
    index k+1 wraps, or one more than the maps on a window.
    """
    space = fiber_maps[0].source
    h_maps = [PolyMap.identity(space, order) for _ in range(n_conj)]
    p_maps = [PolyMap.from_linear(f.linear_matrix(), space, space, 1) for f in fiber_maps]
    diags = []
    for n in range(2, order + 1):
        op = operator(n)
        h_vecs, p_vecs, diag = solve_homogeneous_degree(
            op, fiber_maps, h_maps, p_maps, transfer, lift_policy)
        for maps, vecs in ((h_maps, h_vecs), (p_maps, p_vecs)):
            for k, v in enumerate(vecs):
                if v.any():
                    maps[k] = maps[k] + op.polymap(v)
        diags.append(diag)
    return h_maps, p_maps, diags


@dataclass(eq=False)
class NormalFormResult:
    """Conjugator and normal form at every orbit point, plus solve telemetry."""

    conjugator: tuple[PolyMap, ...]
    normal_form: tuple[PolyMap, ...]
    spectrum: Spectrum
    structure: SubResStructure
    order: int
    diagnostics: dict

    @property
    def period(self) -> int:
        return len(self.conjugator)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "spectrum": self.spectrum.to_dict(),
            "structure": self.structure.to_dict(),
            "conjugator": [pm.to_dict() for pm in self.conjugator],
            "normal_form": [pm.to_dict() for pm in self.normal_form],
            "diagnostics": self.diagnostics,
        }


def solve_normal_form(ctx: SolverContext) -> NormalFormResult:
    """Run the degree loop 2..order with the transported series."""
    K = ctx.cocycle.period

    def series(op, q_vecs):
        h_vecs, info = _run_series(op, q_vecs, ctx.series_tol, ctx.max_series_terms, K)
        info["contraction_factor"] = contraction_factor(ctx.spectrum, op.n)
        return h_vecs, info

    h_maps, p_maps, degree_diags = _degree_loop(
        [ctx.cocycle.map_at(k) for k in range(K)], K, ctx.operator, ctx.order,
        series, ctx.lift_policy)
    diagnostics = {
        "order": ctx.order,
        "period": K,
        "degree_bound": ctx.structure.degree_bound,
        "spectral_gap": ctx.structure.spectral_gap,
        "epsilon": ctx.spectrum.epsilon,
        "degrees": degree_diags,
    }
    return NormalFormResult(
        conjugator=tuple(h_maps),
        normal_form=tuple(p_maps),
        spectrum=ctx.spectrum,
        structure=ctx.structure,
        order=ctx.order,
        diagnostics=diagnostics,
    )


def _flag_preserving_check(space: GradedSpace, A: np.ndarray, tol: float = 1e-10) -> bool:
    scale = max(1.0, float(np.max(np.abs(A))))
    for i in range(space.dim):
        for j in range(space.dim):
            if space.block_of_coord[i] > space.block_of_coord[j]:
                if abs(A[i, j]) > tol * scale:
                    return False
    return True


def solve_window(fiber_maps: Sequence[PolyMap], structure: SubResStructure,
                 order: int, *, growth_guard: float = 1e9
                 ) -> tuple[list[PolyMap], list[PolyMap], dict]:
    """Normal form along a finite orbit window, zero terminal condition.

    Accepts flag-preserving linear parts (block triangular against the
    grading).  Every transport is followed by the projection that drops
    admissible slots, which solves the conjugacy equation in the quotient by
    the sub-resonance directions; the dropped part is exactly what the
    degree-n normal form term absorbs.  Reliable near the window start; the
    terminal truncation error decays at the per-degree contraction rate.
    """
    fiber_maps = list(fiber_maps)
    if not fiber_maps:
        raise ValueError("window needs at least one fiber map")
    space = fiber_maps[0].source
    W = len(fiber_maps)
    linears = []
    for k, pm in enumerate(fiber_maps):
        if pm.source != space or pm.target != space:
            raise ValueError(f"window map {k} is not over a common space")
        if np.max(np.abs(pm.constant)) > 0.0:
            raise ValueError(f"window map {k} does not fix the origin")
        A = pm.linear_matrix()
        if not _flag_preserving_check(space, A):
            raise ValueError(
                f"window map {k} has a below-flag linear entry; the projected "
                "sweep is only valid for flag-preserving cocycles"
            )
        linears.append(A)

    def sweep(op, q_vecs):
        q_scale = max(1.0, max(float(np.linalg.norm(q)) for q in q_vecs))
        R = [np.zeros_like(q_vecs[0])] * (W + 1)
        max_norm = 0.0
        for k in range(W - 1, -1, -1):
            R[k] = q_vecs[k] + op.apply(k, R[k + 1])
            nrm = float(np.linalg.norm(R[k]))
            max_norm = max(max_norm, nrm)
            if nrm > growth_guard * q_scale:
                raise SeriesStagnationError(
                    f"window sweep diverged at degree {op.n}, step {k}"
                )
        return R, {"max_sweep_norm": max_norm}

    h, p, per_degree = _degree_loop(
        fiber_maps, W + 1, lambda n: _DegreeOperator(space, structure, n, linears),
        order, sweep)
    return h, p, {"window": W, "per_degree": per_degree}
