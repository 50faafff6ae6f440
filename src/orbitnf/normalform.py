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
matrix of A_k and mask keeps non-admissible slots.  With block-diagonal A_k
this factors by type: the slots of type (i, s) move among themselves as
X -> Ainv_k[i] X subst_k[s], the paper's per-type operator, and the series
certificate and the dense oracle work type by type.

One loop, ``_degree_loop``, runs the recursion on jet stacks of the
conjugators and normal forms.  Each degree assembles all its sources in one
stacked composition, hands the twisted sources Q(k) to a transfer solver,
adds the admissible part of the lift, and finishes in coefficient space:
term_k = S_n(k) + H_n(k+1) @ subst_k - A_k @ H_n(k), whose admissible part
is P_n(k) and whose rest must vanish.  Three transfer solvers plug into it:

* the transported series (``solve_normal_form``), truncated once a power of
  the one-period transfer certifies a contraction, which bounds the tail;
* the dense oracle ``verify.direct_solve_oracle``, one linear solve;
* the backward sweep of ``solve_window`` along a finite orbit window from a
  zero terminal condition.  It accepts flag-preserving (block-triangular)
  linear parts; the mask after every transport is exactly the quotient by
  the sub-resonance directions.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .cocycle import LyapunovFrame, OrbitCocycle, lyapunov_frames, monodromy_spectrum
from .grading import Spectrum, SubResStructure, contraction_factor
from .polymap import (GradedSpace, PolyMap, _linear_jets, _mono_table, _powers,
                      admissible_mask, compose_jets, degree_cols, jet_width, stack_jets,
                      top_degree)

MAX_SERIES_CERT_POWER = 64
# a window sweep whose norm outgrows its sources by this factor has diverged
WINDOW_GROWTH_GUARD = 1e9

LiftPolicy = Callable[[int, int], "PolyMap | None"]
# (degree operator, stacked twisted sources Q(k)) -> (conjugator terms, diagnostics)
Transfer = Callable[["_DegreeOperator", np.ndarray], tuple[Sequence[np.ndarray], dict]]


class SeriesBudgetError(RuntimeError):
    """Transported series did not settle within the term budget."""


class SeriesStagnationError(RuntimeError):
    """No certified contraction for the transported series.

    Usually means epsilon is inconsistent with the spectral gap at this
    degree, or the cocycle data does not match the declared spectrum.
    """


class _DegreeOperator:
    """Coefficient-space form of the degree-n transfer along the orbit.

    Coefficients of a homogeneous degree-n map sit in an (m, n_mono) array,
    the degree-n columns of a jet.  mask is True exactly on the
    non-admissible slots, so mask * c drops the sub-resonance part, and
    ``types`` lists those slots by type (i, s) as (rows, cols): the
    coordinate slice of block i and the columns of the monomials with block
    degrees s.  substs[k, a, b] is the coefficient of t^beta_b in (A_k t)^alpha_a.

    With block-diagonal A_k, subst_k maps the monomials of each block degree
    s among themselves, so Phi_k acts on the block X of type (i, s) alone, as
    X -> Ainv_k[i] X subst_k[s].  The series certificate and the dense oracle
    use these blocks; ``apply`` keeps the full product, which also transports
    the block-triangular (flag-preserving) linear parts of a window.
    """

    def __init__(self, space: GradedSpace, structure: SubResStructure, n: int,
                 linears: Sequence[np.ndarray]):
        self.space = space
        self.n = n
        self.degree_bound = structure.degree_bound
        self.mask = ~admissible_mask(space, space, n, structure.admissible(n))
        by_degrees: dict[tuple[int, ...], list[int]] = {}
        for j, alpha in enumerate(_mono_table(space.dim, n)[0]):
            by_degrees.setdefault(space.block_degrees(alpha), []).append(j)
        self.types = [(space.block_slice(i), np.array(cols))
                      for _, cols in sorted(by_degrees.items())
                      for i in range(1, space.n_blocks + 1)
                      if self.mask[space.block_slice(i).start, cols[0]]]
        self.linears = np.asarray(linears, dtype=float)
        self.ainvs = np.linalg.inv(self.linears)
        # the degree-n powers of the linear parts are the substitution matrices
        for _, _, self.substs in _powers(_linear_jets(self.linears), space.dim, n, n):
            pass

    def apply(self, k: int, c: np.ndarray) -> np.ndarray:
        """Masked transfer of a coefficient array through step k."""
        return self.mask * (self.ainvs[k] @ c @ self.substs[k])

    def source(self, s_vecs: np.ndarray) -> np.ndarray:
        """Masked twisted sources Q(k) = proj_N(Ainv_k o proj_N(S(k))) of a stack."""
        return self.mask * (self.ainvs @ (self.mask * s_vecs))

    def type_blocks(self, k: int, rows: slice, cols: np.ndarray):
        """(Ainv_k[i], subst_k[s]) of one type: Phi_k acts as X -> Ainv X subst."""
        return self.ainvs[k][rows, rows], self.substs[k][np.ix_(cols, cols)]


def _series_certificate(op: _DegreeOperator, period: int) -> tuple[int, float]:
    """Smallest power-of-two q with every q-period transfer norm below one.

    Over one period from point p a type moves as X -> A X S with
    A = Ainv_p[i] Ainv_{p+1}[i] ... and S = ... subst_{p+1}[s] subst_p[s], the
    Kronecker product of A and S^T, whose norm is ||A||_2 ||S||_2.  As no
    type feeds another, the maximum over types and phases is exact.  Powers
    whose entries overflow give rho = inf and stop the search at once.
    """
    pairs = []
    for rows, cols in op.types:
        for p in range(period):
            blocks = [op.type_blocks((p + j) % period, rows, cols) for j in range(period)]
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
                raise SeriesStagnationError(
                    f"transported series for degree {op.n} has no certified "
                    f"contraction: the {q}-period transfer norm is rho = {rho:.3g} "
                    f"(at most {MAX_SERIES_CERT_POWER} periods tried); epsilon and "
                    "spectrum are inconsistent with this cocycle"
                )
            pairs = [(A @ A, S @ S) for A, S in pairs]
        q *= 2


def _run_series(op: _DegreeOperator, q_vecs: np.ndarray, series_tol: float,
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
    blocks are the splitting, so the linear parts must be block diagonal (up
    to 1e-12 relative) and their block sizes must match the spectrum
    multiplicities.  That is what splits the degree operators type by type.
    """

    cocycle: OrbitCocycle
    spectrum: Spectrum
    structure: SubResStructure
    frames: tuple[LyapunovFrame, ...]
    order: int
    series_tol: float = 1e-13
    max_series_terms: int = 10_000
    lift_policy: LiftPolicy | None = None

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
        block = np.array(self.cocycle.space.block_of_coord)
        for k in range(self.cocycle.period):
            A = self.cocycle.linear(k)
            off = A[block[:, None] != block[None, :]]
            if np.max(np.abs(off), initial=0.0) > 1e-12 * max(1.0, float(np.max(np.abs(A)))):
                raise ValueError(
                    f"fiber map {k} is not grading-adapted "
                    "(linear part has off-block entries)"
                )
        self._operators: dict[int, _DegreeOperator] = {}

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
                self.cocycle.space, self.structure, n,
                [self.cocycle.linear(k) for k in range(self.cocycle.period)]
            )
        return self._operators[n]


def _source_vecs(op: _DegreeOperator, fibers: np.ndarray, conj: np.ndarray,
                 nf: np.ndarray) -> np.ndarray:
    """Degree-n sources S(k) = [H(k+1) o F_k - P_k o H(k)]_n, one stacked composition.

    fibers, conj and nf are jet stacks of the fiber maps F_k, the conjugators
    H (k+1 wraps modulo their number) and the normal forms P_k; in the loop
    the degree-n parts of H and P are still zero.
    """
    K, m, n = len(fibers), op.space.dim, op.n
    width = jet_width(m, n)
    nxt = (np.arange(K) + 1) % len(conj)
    comp = compose_jets(np.concatenate([conj[nxt, :, :width], nf[:, :, :width]]),
                        np.concatenate([fibers[:, :, :width], conj[:K, :, :width]]),
                        m, n)[..., degree_cols(m, n)]
    return comp[:K] - comp[K:]


def solve_homogeneous_degree(op: _DegreeOperator, fibers: np.ndarray, conj: np.ndarray,
                             nf: np.ndarray, transfer: Transfer,
                             lift_policy: LiftPolicy | None = None
                             ) -> tuple[np.ndarray, np.ndarray, dict]:
    """One degree of the conjugacy equation, solved in coefficient space.

    Takes jet stacks as ``_source_vecs`` does.  Returns the degree-n
    conjugator terms (one array per conjugator), the normal form terms P_n
    (one per map) and the degree's diagnostics.  Below the degree bound the
    non-admissible residue of the finished equation is the admissible
    violation; above it P_n vanishes and the residue is the defect.
    """
    n, K, C = op.n, len(fibers), len(conj)
    s_vecs = _source_vecs(op, fibers, conj, nf)
    h_vecs, info = transfer(op, op.source(s_vecs))
    h_vecs = np.array(h_vecs)
    if lift_policy is not None:
        for k in range(C):
            lift = lift_policy(k, n)
            if lift is not None:
                h_vecs[k] += ~op.mask * lift.part(n)
    terms = s_vecs + h_vecs[(np.arange(K) + 1) % C] @ op.substs - op.linears @ h_vecs[:K]
    residue = float(np.max(np.abs(op.mask * terms)))
    below = n <= op.degree_bound
    diag = dict(info, degree=n,
                source_norm=float(np.linalg.norm(s_vecs, axis=(1, 2)).max()),
                solution_norm=float(np.linalg.norm(h_vecs, axis=(1, 2)).max()),
                admissible_violation=residue if below else None,
                defect=None if below else residue)
    return h_vecs, ~op.mask * terms, diag


def _degree_loop(fiber_maps: Sequence[PolyMap], n_conj: int,
                 operator: Callable[[int], _DegreeOperator], order: int,
                 transfer: Transfer, lift_policy: LiftPolicy | None = None
                 ) -> tuple[list[PolyMap], list[PolyMap], list[dict]]:
    """Degrees 2..order along fiber_maps: conjugators, normal forms, diagnostics.

    There are n_conj conjugators: the period on a periodic orbit, where the
    index k+1 wraps, or one more than the maps on a window.  Conjugators and
    normal forms grow as jet stacks, one degree block at a time.
    """
    space = fiber_maps[0].source
    fibers = stack_jets(fiber_maps, order)
    conj = stack_jets([PolyMap.identity(space, 1)] * n_conj, order)
    nf = stack_jets([f.truncated(1) for f in fiber_maps], order)
    diags = []
    for n in range(2, order + 1):
        op = operator(n)
        h_vecs, p_vecs, diag = solve_homogeneous_degree(
            op, fibers, conj, nf, transfer, lift_policy)
        cols = degree_cols(space.dim, n)
        conj[:, :, cols] = h_vecs
        nf[:, :, cols] = p_vecs
        diags.append(diag)
    h_maps = [PolyMap.from_jet(space, space, order, h) for h in conj]
    p_maps = [PolyMap.from_jet(space, space, order, p).truncated(top_degree(p, space.dim))
              for p in nf]
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
        "frames": [{"horizon": f.horizon, "tail_bound": f.tail_bound} for f in ctx.frames],
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
    block = np.array(space.block_of_coord)
    below = A[block[:, None] > block[None, :]]
    return not np.any(np.abs(below) > tol * max(1.0, float(np.max(np.abs(A)))))


def solve_window(fiber_maps: Sequence[PolyMap], structure: SubResStructure,
                 order: int) -> tuple[list[PolyMap], list[PolyMap], dict]:
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
        q_scale = max(1.0, float(np.linalg.norm(q_vecs, axis=(1, 2)).max()))
        R = [np.zeros_like(q_vecs[0])] * (W + 1)
        max_norm = 0.0
        for k in range(W - 1, -1, -1):
            R[k] = q_vecs[k] + op.apply(k, R[k + 1])
            nrm = float(np.linalg.norm(R[k]))
            max_norm = max(max_norm, nrm)
            if nrm > WINDOW_GROWTH_GUARD * q_scale:
                raise SeriesStagnationError(
                    f"window sweep diverged at degree {op.n}, step {k}"
                )
        return R, {"max_sweep_norm": max_norm}

    h, p, per_degree = _degree_loop(
        fiber_maps, W + 1, lambda n: _DegreeOperator(space, structure, n, linears),
        order, sweep)
    return h, p, {"window": W, "per_degree": per_degree}
