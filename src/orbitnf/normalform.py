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
and the dense oracle work type by type.

One loop, ``_degree_loop``, runs the recursion on jet stacks of the
conjugators and normal forms, H(nxt[k]) after map k: a cycle on an orbit, a
forest of windows, and several cycles of one orbit at once on a leading
axis (``solve_cycles``: the main solve, the gauge check's lifted twin, the
oracle's re-solve).  The powers of the fiber maps are formed once, in their
composition table: composing on the right of F_k is linear, so
[H(k+1) o F_k]_n is a sum of products of the degree-d parts of H with blocks
of the table, and the table's diagonal blocks are the substitution matrices
of the degree operators.  Only P_k o H(k) is a composition per degree, whose
powers of H stop at the top degree of P.  Each degree hands the twisted
sources Q(k) of a cycle to its transfer solver and finishes in coefficient
space: term_k = S_n(k) + H_n(k+1) @ subst_k - A_k @ H_n(k), whose
admissible part is P_n(k) and whose rest must vanish.  H and P are unique
only up to a sub-resonance polynomial; a cycle may fix that gauge with a
``lift`` map, whose admissible degree-n part joins its conjugators before
the finish.  Three transfer solvers plug into the loop:

* the transported series (``solve_normal_form``): per type, a geometric
  series in the one-period transfer, summed by Smith's doubling until the
  norms of the doubled factors bound the dropped tail, in
  ``cocycle._transported_sum``, one call for all series cycles, which sums
  the Lyapunov frames too;
* the dense oracle ``verify.direct_solve_oracle``, per type one linear
  solve of the K-cyclic system, by block-cyclic elimination;
* the sweep of ``solve_window`` along finite orbit windows from a zero
  terminal condition, a suffix scan composed by pointer jumping.  The steps
  from which all windows' maps agree bit for bit are one chain of the
  forest, solved once.  It accepts flag-preserving (block-triangular)
  linear parts, whose steps send no admissible slot to a non-admissible
  one, so the sweep needs no mask between steps: masking the transported
  sums is exactly the quotient by the sub-resonance directions.

A periodic solve keeps its (K, m, w) stacks of H and P as they come out of
the loop, in a ``NormalFormResult``; its PolyMap tuples are views of their
rows, built on first read for the API and the report.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

# the series errors are raised by cocycle._transported_sum and re-exported here
from .cocycle import (LyapunovFrames, OrbitCocycle, SeriesBudgetError, SeriesStagnationError,
                      _check_carried, _frobenius, _rebalance, _transported_sum,
                      lyapunov_frames, monodromy_spectrum)
from .grading import Spectrum, SubResStructure, _type_table, contraction_factor
from .polymap import (GradedSpace, PolyMap, _linear_jets, _linear_parts, compose_jets,
                      composition_table, degree_cols, jet_width, stack_jets, top_degree)

# a window sweep whose norm outgrows its sources by this factor has diverged
WINDOW_GROWTH_GUARD = 1e9
# the window scan doubles inside chunks of at most this many steps, so no
# product spans more, and the expanding admissible types the products carry
# stay inside the float range
WINDOW_CHUNK = 2048

# (degree operator, (cycles, K, m, n) sources Q(k)) -> (conjugator terms, diagnostics per cycle)
Transfer = Callable[["_DegreeOperator", np.ndarray], tuple[np.ndarray, list[dict]]]
Cycle = tuple[Transfer, "PolyMap | None"]  # a cycle of the degree loop


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on stacks of matrices; over an inner dimension of 1 each entry is
    one product, added to 0.0 as matmul adds it, so elementwise is exact."""
    return a * b + 0.0 if a.shape[-1] == 1 else a @ b


class _DegreeOperator:
    """Coefficient-space form of the degree-n transfer along the orbit.

    Coefficients of a homogeneous degree-n map sit in an (m, n_mono) array,
    the degree-n columns of a jet.  mask is True exactly on the
    non-admissible slots, so mask * c drops the sub-resonance part, and
    ``types`` lists those slots by type (i, s) as (rows, cols): the
    coordinate slice of block i and the columns of the monomials with block
    degrees s.  substs[k, a, b] is the coefficient of t^beta_b in (A_k t)^alpha_a.

    The operator reads the composition table of the fiber maps
    (``polymap.composition_table``), which ``_source_vecs`` also reads:
    subst_k is the leading square of its degree-n block T_n.  The linear
    parts A_k of the same maps and their inverses ``ainvs`` are handed in,
    formed once for every degree of the table.

    With block-diagonal A_k, subst_k maps the monomials of each block degree
    s among themselves, so Phi_k acts on the block X of type (i, s) alone, as
    X -> Ainv_k[i] X subst_k[s].  The series and the dense oracle use these
    blocks.  A window operator holds the block-triangular (flag-preserving)
    linear parts of the rows of its forest.
    """

    def __init__(self, space: GradedSpace, structure: SubResStructure, n: int,
                 table: tuple[np.ndarray, ...], linears: np.ndarray, ainvs: np.ndarray):
        self.space = space
        self.n = n
        self.degree_bound = structure.degree_bound
        # the table through the solve's order, asked for before the mask's
        columns = _type_table(space.block_dims, len(table)).columns[n]
        self.mask = ~structure.mask(n)
        self.types = [(space.block_slice(i), cols) for cols in columns
                      for i in range(1, space.n_blocks + 1)
                      if self.mask[space.block_slice(i).start, cols[0]]]
        self.table, self.linears, self.ainvs = table, linears, ainvs
        self.substs = np.ascontiguousarray(table[n - 1][..., :self.mask.shape[1]])

    def source(self, s_vecs: np.ndarray) -> np.ndarray:
        """Masked twisted sources Q(k) = proj_N(Ainv_k o proj_N(S(k))) of a stack."""
        return self.mask * _matmul(self.ainvs, self.mask * s_vecs)

    @cached_property
    def type_index(self) -> tuple[np.ndarray, ...]:
        """Gather indices of the types, zero-padded to the largest (rows, cols).

        Returns (rows, cols, rows_pad, cols_pad, slots): rows[t] and cols[t]
        index the coefficient rows and columns of type t, padded with index 0
        where rows_pad and cols_pad are True; slots is (t, row, col,
        coefficient row, coefficient column) of every slot that is not
        padding, the scatter back.
        """
        starts = np.array([rows.start for rows, _ in self.types])
        dts = np.array([rows.stop - rows.start for rows, _ in self.types])
        cts = np.array([len(cols) for _, cols in self.types])
        rows_pad = np.arange(dts.max()) >= dts[:, None]
        cols_pad = np.arange(cts.max()) >= cts[:, None]
        rows = np.where(rows_pad, 0, starts[:, None] + np.arange(dts.max()))
        cols = np.zeros(cols_pad.shape, dtype=np.intp)
        cols[~cols_pad] = np.concatenate([cols for _, cols in self.types])
        t, i, j = np.nonzero(~rows_pad[:, :, None] & ~cols_pad[:, None, :])
        return rows, cols, rows_pad, cols_pad, (t, i, j, rows[t, i], cols[t, j])


def _gather_types(stack: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """Blocks of a (..., K, p, q) stack at padded (index, padding) rows and
    cols of every type, in one fancy index: shape (..., types, K, rows,
    cols), zero on the padding."""
    (r, r_pad), (c, c_pad) = rows, cols
    out = stack[..., np.arange(stack.shape[-3])[:, None, None], r[:, None, :, None],
                c[:, None, None, :]]
    np.copyto(out, 0.0, where=r_pad[:, None, :, None] | c_pad[:, None, None, :])
    return out


def _series(op: _DegreeOperator, q_vecs: np.ndarray, series_tol: float,
            max_terms: int) -> tuple[np.ndarray, list[dict]]:
    """Fixed point H(k) = Q(k) + Phi_k(H(k+1)) around the orbit, by Smith's doubling.

    A type (i, s) moves alone, X -> Ainv_k[i] X subst_k[s], so from phase p
    its part of H is sum_t A^t G B^t with G the first-period sum, A =
    Ainv_p[i] ... Ainv_{p+K-1}[i] and B = subst_{p+K-1}[s] ... subst_p[s].
    The types are gathered into zero-padded stacks by ``op.type_index``, one
    fancy index per stack, summed by ``cocycle._transported_sum`` with each
    cycle a stop group (one alone needs no group axis; one without sources
    stops no later than the rest and stays zero), and scattered back.  A
    cycle stops once the root sum of squares of its types' tail bounds is
    within series_tol * max(1, ||H(p)||_F) at every phase p; no certified
    contraction raises SeriesStagnationError, over max_terms SeriesBudgetError.
    """
    K, live = q_vecs.shape[1], q_vecs.any(axis=(1, 2, 3))
    infos = [{"short_circuit": not on, "series_terms": 0, "tail_bound": 0.0} for on in live]
    H = np.zeros_like(q_vecs)
    if not live.any():
        return H, infos
    at = 0 if len(q_vecs) == 1 else slice(None)
    rows, cols, rows_pad, cols_pad, slots = op.type_index
    Q = _gather_types(q_vecs[at], (rows, rows_pad), (cols, cols_pad))
    X = _gather_types(op.ainvs, (rows, rows_pad), (rows, rows_pad))
    Y = _gather_types(op.substs, (cols, cols_pad), (cols, cols_pad))
    G, terms, tails = _transported_sum(Q, X, Y, (np.arange(K) + 1) % K, K, series_tol,
                                       max_terms, f"degree {op.n}")
    t, i, j, hr, hc = slots
    H[at][..., hr, hc] = G.swapaxes(-4, -3)[..., t, i, j]
    H[~live] = 0.0
    for info, on, T, tail in zip(infos, live, terms.flat, tails.reshape(len(live), -1).max(1)):
        if on:
            info.update(series_terms=int(T), tail_bound=float(tail))
    return H, infos


@dataclass(eq=False)
class SolverContext:
    """Everything the degree loop needs, validated once.

    The periodic solver requires a grading-adapted cocycle: the coordinate
    blocks are the splitting, so the linear parts must be block diagonal (up
    to 1e-12 relative), their block sizes must match the spectrum
    multiplicities, and block i must carry exponent chi_i: every rate that
    ``OrbitCocycle.block_rates`` reads from block i is nearest chi_i among the
    exponents.  That is what splits the degree operators type by type.

    The solve bounds its series tails by per-type transfer norms, not by
    the Lyapunov frames: ``frames`` builds them with ``tail_tol`` on first
    read, for the sandwich check and the report.
    The composition table of the fiber maps (``table``), the inverses of the
    linear parts (``ainvs``) and the degree operators (``operators``, by
    degree) are built on first use in a solve, and every cycle of every
    later solve on the context reads them; ``series`` is its series transfer.
    """

    cocycle: OrbitCocycle
    spectrum: Spectrum
    order: int
    tail_tol: float = 1e-12
    series_tol: float = 1e-13
    max_series_terms: int = 10_000

    def __post_init__(self):
        if self.order < max(1, self.structure.degree_bound):
            raise ValueError(
                f"order {self.order} is below the degree bound {self.structure.degree_bound}"
            )
        if self.spectrum.multiplicities != self.cocycle.space.block_dims:
            raise ValueError(
                "spectrum multiplicities do not match the coordinate grading"
            )
        if self.order >= 2:
            contraction_factor(self.spectrum, self.order)
        _check_carried(self.cocycle.block_rates[1], self.spectrum.exponents)
        self.operators: dict[int, _DegreeOperator] = {}

    @classmethod
    def prepare(cls, cocycle: OrbitCocycle, epsilon: float, order: int, *,
                resonance_tol: float = 1e-9, cluster_tol: float = 1e-6,
                tail_tol: float = 1e-12, series_tol: float = 1e-13,
                max_series_terms: int = 10_000) -> "SolverContext":
        """Read the spectrum from the coordinate blocks, then build a context."""
        spectrum = monodromy_spectrum(cocycle, epsilon, resonance_tol, cluster_tol)
        return cls(cocycle, spectrum, order, tail_tol, series_tol, max_series_terms)

    @property
    def structure(self) -> SubResStructure:
        return self.spectrum.structure

    @cached_property
    def frames(self) -> LyapunovFrames:
        """The epsilon-weighted frames at every orbit point, built once."""
        return lyapunov_frames(self.cocycle, self.spectrum, self.tail_tol)

    @cached_property
    def table(self) -> tuple[np.ndarray, ...]:
        """Composition table of the fiber maps through `order`, built on first read."""
        return composition_table(self.cocycle.jets, self.cocycle.dim, self.order)

    @cached_property
    def ainvs(self) -> np.ndarray:
        """Inverses of the linear parts, one stacked call for every degree."""
        return np.linalg.inv(self.cocycle.linears)

    def operator(self, n: int) -> _DegreeOperator:
        """The degree-n operator over the table, built on first use."""
        if n not in self.operators:
            self.operators[n] = _DegreeOperator(self.cocycle.space, self.structure, n,
                                                self.table, self.cocycle.linears, self.ainvs)
        return self.operators[n]

    def series(self, op: _DegreeOperator, q_vecs: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        h_vecs, infos = _series(op, q_vecs, self.series_tol, self.max_series_terms)
        rate = contraction_factor(self.spectrum, op.n)
        return h_vecs, [dict(info, contraction_factor=rate) for info in infos]


def _source_vecs(op: _DegreeOperator, conj: np.ndarray, nf: np.ndarray,
                 nxt: np.ndarray) -> np.ndarray:
    """Degree-n sources S(k) = [H(nxt[k]) o F_k - P_k o H(k)]_n of every cycle.

    conj and nf are (cycles, rows, m, w) jet stacks of the conjugators H and
    the normal forms P_k, H(nxt[k]) the conjugator after map k; in the loop
    the degree-n parts of H and P are still zero.  The first term is linear
    in H, the sum over d <= n of H_d(nxt[k]) times the degree-n columns of
    the table's degree-d block; the second is one stacked composition per
    cycle, whose powers of H stop at P's top degree.
    """
    K, m, n = len(op.linears), op.space.dim, op.n
    cols, width = degree_cols(m, n), jet_width(m, n)
    after, hf = conj[:, nxt, :, :width], 0.0
    for d in range(1, n + 1):
        lo = cols.start - degree_cols(m, d).start
        block = op.table[d - 1][..., lo:lo + op.mask.shape[1]]
        hf = hf + _matmul(after[..., degree_cols(m, d)], block)
    for p, h, s in zip(nf, conj, hf):
        s -= compose_jets(p[..., :width], h[:K, :, :width], m, n)[..., cols]
    return hf


def solve_homogeneous_degree(op: _DegreeOperator, conj: np.ndarray, nf: np.ndarray,
                             nxt: np.ndarray, cycles: Sequence[Cycle]
                             ) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """One degree of the conjugacy equation, solved in coefficient space.

    Takes jet stacks as ``_source_vecs`` does and a (transfer, lift) pair
    per cycle: a transfer solves each run of its cycles in one call, and the
    admissible degree-n part of a lift joins the conjugators of its cycle.
    Returns per cycle the degree-n conjugator terms (one array per
    conjugator), the normal form terms P_n (one per map) and diagnostics.
    Below the degree bound the non-admissible residue of the finished
    equation is the admissible violation, above it the defect.
    """
    n, K = op.n, len(op.linears)
    s_vecs = _source_vecs(op, conj, nf, nxt)
    q_vecs, h_vecs, infos = op.source(s_vecs), [], []
    for transfer, run in groupby(cycles, key=lambda cycle: cycle[0]):
        h, solved = transfer(op, q_vecs[len(infos):len(infos) + len(list(run))])
        h_vecs.append(h)
        infos += solved
    h_vecs = h_vecs[0] if len(h_vecs) == 1 else np.concatenate(h_vecs)
    for c, (_, lift) in enumerate(cycles):
        if lift is not None:
            h_vecs[c] += ~op.mask * lift.part(n)
    terms = s_vecs + _matmul(h_vecs[:, nxt], op.substs) - _matmul(op.linears, h_vecs[:, :K])
    residues = np.abs(op.mask * terms).max(axis=(1, 2, 3))
    below = n <= op.degree_bound
    norms = (_frobenius(x).max(axis=1) for x in (s_vecs, h_vecs))
    diags = [dict(info, degree=n, monomials=op.mask.shape[1], slots=op.mask.size,
                  admissible_slots=int(op.mask.size - op.mask.sum()), types=len(op.types),
                  source_norm=float(s), solution_norm=float(h),
                  admissible_violation=float(r) if below else None,
                  defect=None if below else float(r))
             for info, s, h, r in zip(infos, *norms, residues)]
    return h_vecs, ~op.mask * terms, diags


def _degree_loop(fibers: np.ndarray, nxt: np.ndarray,
                 operator: Callable[[int], _DegreeOperator], order: int,
                 cycles: Sequence[Cycle]) -> tuple[np.ndarray, np.ndarray, list[list[dict]]]:
    """Degrees 2..order along a (K, m, w) jet stack of fiber maps, for every cycle.

    The conjugator after map k is row nxt[k]: a periodic orbit is the cycle
    k -> k + 1 mod K, windows a forest whose roots, rows K on, are terminal
    conjugators that stay the identity.  Every (transfer, lift) cycle solves
    the same maps on a leading axis of the stacks, which broadcasts over the
    table that operator(n) reads, with the bits of a loop of its own.
    Returns the jet stacks through `order` and the diagnostics per cycle.
    """
    m = fibers.shape[-2]
    nf = np.zeros((len(cycles),) + fibers.shape[:-1] + (jet_width(m, order),))
    nf[..., :m + 1] = fibers[..., :m + 1]
    conj = np.zeros((len(cycles), max(len(fibers), nxt.max() + 1)) + nf.shape[2:])
    conj[..., :m + 1] = _linear_jets(np.eye(m))
    diags: list[list[dict]] = [[] for _ in cycles]
    for n in range(2, order + 1):
        h_vecs, p_vecs, degree = solve_homogeneous_degree(operator(n), conj, nf, nxt, cycles)
        cols = degree_cols(m, n)
        conj[..., cols] = h_vecs
        nf[..., cols] = p_vecs
        for diag, rec in zip(diags, degree):
            diag.append(rec)
    return conj, nf, diags


def solve_cycles(ctx: "SolverContext", cycles: Sequence[Cycle]) -> list["NormalFormResult"]:
    """The degree loop around the orbit of ctx, one result per (transfer, lift) cycle."""
    K = ctx.cocycle.period
    conj, nf, degree_diags = _degree_loop(ctx.cocycle.jets, (np.arange(K) + 1) % K,
                                          ctx.operator, ctx.order, cycles)
    diagnostics = {"order": ctx.order, "period": K, "degree_bound": ctx.structure.degree_bound,
                   "spectral_gap": ctx.structure.spectral_gap, "epsilon": ctx.spectrum.epsilon,
                   "table_bytes": sum(T.nbytes for T in ctx.table)}
    return [NormalFormResult(h, p, ctx.spectrum, ctx.order, dict(diagnostics, degrees=d))
            for h, p, d in zip(conj, nf, degree_diags)]


@dataclass(eq=False)
class NormalFormResult:
    """Conjugator and normal form at every orbit point, plus solve telemetry.

    ``conjugator_jets`` and ``normal_form_jets`` are the read-only jet stacks
    of H_k and P_k, shape (K, m, jet_width(m, order)), which every check
    reads.  ``conjugator`` and ``normal_form`` are PolyMap views of their
    rows, built on first read for the API and the report; each P_k view is
    truncated to the degree of its top term.
    """

    conjugator_jets: np.ndarray
    normal_form_jets: np.ndarray
    spectrum: Spectrum
    order: int
    diagnostics: dict

    def __post_init__(self):
        for jets in (self.conjugator_jets, self.normal_form_jets):
            jets.setflags(write=False)

    @classmethod
    def from_maps(cls, conjugator, normal_form, spectrum: Spectrum, order: int,
                  diagnostics: dict) -> "NormalFormResult":
        """A result over loaded maps, each sequence stacked once at `order`."""
        return cls(stack_jets(conjugator, order), stack_jets(normal_form, order),
                   spectrum, order, diagnostics)

    @property
    def structure(self) -> SubResStructure:
        return self.spectrum.structure

    @property
    def period(self) -> int:
        return len(self.conjugator_jets)

    @cached_property
    def space(self) -> GradedSpace:
        return GradedSpace(self.spectrum.multiplicities)

    @cached_property
    def conjugator(self) -> tuple[PolyMap, ...]:
        return tuple(PolyMap.from_jet(self.space, self.space, self.order, h)
                     for h in self.conjugator_jets)

    @cached_property
    def normal_form(self) -> tuple[PolyMap, ...]:
        m = self.space.dim
        tops = [top_degree(p, m) for p in self.normal_form_jets]
        return tuple(PolyMap.from_jet(self.space, self.space, d, p[:, :jet_width(m, d)])
                     for p, d in zip(self.normal_form_jets, tops))

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "spectrum": self.spectrum.to_dict(),
            "structure": self.structure.to_dict(),
            "conjugator": [pm.to_dict() for pm in self.conjugator],
            "normal_form": [pm.to_dict() for pm in self.normal_form],
            "diagnostics": self.diagnostics,
        }


def solve_normal_form(ctx: SolverContext, lift: PolyMap | None = None) -> NormalFormResult:
    """Run the degree loop 2..order with the transported series, one cycle of
    ``solve_cycles``; `lift` fixes the gauge: its admissible part is added to
    every conjugator."""
    return solve_cycles(ctx, [(ctx.series, lift)])[0]


def _window_sweep(rows: np.ndarray) -> Transfer:
    """The transfer R_k = q_k + mask * (Ainv_k R_{k+1} subst_k), R_W = 0, on
    a forest of windows, by pointer jumping.

    rows[k, p] is the row of step k of window p, numbered by step, then
    window; rows[W] are terminal rows past the maps.  A flag-preserving step
    sends no admissible slot to a non-admissible one, so R_k is the masked
    sum of Ainv_k..Ainv_{j-1} q_j subst_{j-1}..subst_k over j >= k.  Chunks
    of WINDOW_CHUNK steps are scanned last first, each closed by the next.
    At level s a row adds L_s R[ahead] M_s, ahead s steps on, while that row
    lies in the chunk, and pairs combine as (L_s L_s[ahead], M_s[ahead] M_s),
    rebalanced by a power of two (exact) against the Ainv-products'
    overflow: every row sees the operands of its window scanned alone, in
    the same association.  Masked sums keep the expanding admissible types
    out.  A row past WINDOW_GROWTH_GUARD times the largest source of a window
    through it, or not finite, diverges; the error names the last such step.
    """
    # steps b..e hold the rows first[b]..last[e] - 1
    W, first, last = len(rows) - 1, rows[:, 0], rows[:, -1] + 1
    ahead = np.empty(last[-2], dtype=np.intp)
    ahead[rows[:-1]] = rows[1:]
    # per chunk, last first, and level: the rows s steps ahead of those within
    # s steps of its end, and where the rows 2s steps ahead sit among them
    chunks = []
    for b0 in reversed(range(0, W, WINDOW_CHUNK)):
        end, s, lo = min(b0 + WINDOW_CHUNK, W), 1, first[b0]
        nxt, levels = ahead[lo:last[end - 1]], []
        while len(nxt):
            s *= 2
            levels.append((nxt, nxt[:last[end - s] - lo if end - s >= b0 else 0] - lo))
            nxt = nxt.take(levels[-1][1])
        chunks.append((lo, levels))

    def sweep(op: _DegreeOperator, q_vecs: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        (q_vecs,) = q_vecs  # one cycle
        R = np.zeros((last[-1],) + q_vecs.shape[1:])
        R[:len(q_vecs)] = q_vecs
        with np.errstate(all="ignore"):
            for lo, levels in chunks:
                L, M = op.ainvs[lo:], op.substs[lo:]
                for nxt, pos in levels:
                    n, k = len(nxt), len(pos)
                    R[lo:lo + n] += np.where(
                        op.mask, _matmul(_matmul(L[:n], R.take(nxt, 0)), M[:n]), 0.0)
                    if k:
                        L, M = _rebalance(_matmul(L[:k], L.take(pos, 0)),
                                          _matmul(M.take(pos, 0), M[:k]))
            norms = np.linalg.norm(R, axis=(-2, -1))
            q_scale = np.linalg.norm(q_vecs, axis=(-2, -1)).take(rows[:-1]).max(axis=0)
            diverged = ~(norms.take(rows) <= WINDOW_GROWTH_GUARD * np.maximum(1.0, q_scale))
        if diverged.any():
            raise SeriesStagnationError(f"window sweep diverged at degree {op.n}, "
                                        f"step {np.nonzero(diverged)[0].max()}")
        return R[None], [{"max_sweep_norm": float(norms.max())}]

    return sweep


def solve_window(jets: np.ndarray, space: GradedSpace, structure: SubResStructure,
                 order: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Normal forms along finite orbit windows, zero terminal condition.

    jets is a window-major stack of fiber jets over `space`, shape
    (W, P, m, w): entry [k, p] is step k of window p, and every map fixes
    the origin.  Returns the conjugator stack H(0..W), shape
    (W+1, P, m, jet_width(m, order)), the normal form stack P(0..W-1) of
    shape (W, P, m, jet_width(m, order)) and diagnostics.

    Accepts flag-preserving linear parts: block triangular against the
    grading, with below-flag entries of at most 1e-10 relative, which are
    then taken as zero.  The transported sum is projected onto the
    non-admissible slots, which solves the conjugacy equation in the
    quotient by the sub-resonance directions; the dropped part is exactly
    what the degree-n normal form term absorbs.  Reliable near the window
    start; the terminal truncation error decays at the per-degree
    contraction rate.

    The steps from the first J at which all windows' maps agree bit for bit
    are solved once, as one chain of a forest, with each window's own bits.
    """
    jets = np.array(jets, dtype=float)
    m = space.dim
    if jets.ndim != 4 or not len(jets) or jets.shape[2] != m:
        raise ValueError(f"a window is a (W, P, {m}, width) jet stack with W >= 1")
    moved = jets[..., 0].any(axis=(1, 2))
    if moved.any():
        raise ValueError(f"window map {np.argmax(moved)} does not fix the origin")
    linears = _linear_parts(jets, m)
    below = np.subtract.outer(space.block_of_coord, space.block_of_coord) > 0
    scale = np.maximum(1.0, np.abs(linears).max(axis=(-2, -1)))
    flagged = (np.abs(linears[..., below]) > 1e-10 * scale[..., None]).any(axis=(1, 2))
    if flagged.any():
        raise ValueError(
            f"window map {np.argmax(flagged)} has a below-flag linear entry; the "
            "projected sweep is only valid for flag-preserving cocycles"
        )
    # the scan relies on exact zeros below the flag; linears is a view, so
    # the jets lose those entries too
    linears[..., below] = 0.0

    # row k P + p is step k < J of window p, row J P + k - J step k >= J
    W, P = jets.shape[:2]
    split = np.flatnonzero(jets.view(np.uint64) != jets[:, :1].view(np.uint64))
    J = split[-1] // jets[0].size + 1 if split.size else 0
    rows = np.empty((W + 1, P), dtype=np.intp)
    rows[:J] = np.arange(J * P).reshape(J, P)
    rows[J:] = J * P + np.arange(W + 1 - J)[:, None]
    fibers = np.concatenate([jets[:J].reshape(-1, m, jets.shape[-1]), jets[J:, 0]])
    nxt = np.empty(len(fibers), dtype=np.intp)
    nxt[rows[:-1]] = rows[1:]

    table, linears = composition_table(fibers, m, order), _linear_parts(fibers, m).copy()
    ainvs = np.linalg.inv(linears)
    (conj,), (nf,), (per_degree,) = _degree_loop(
        fibers, nxt, lambda n: _DegreeOperator(space, structure, n, table, linears, ainvs),
        order, [(_window_sweep(rows), None)])
    return conj.take(rows, 0), nf.take(rows[:-1], 0), {"window": W, "per_degree": per_degree}
