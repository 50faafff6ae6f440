"""Independent checks of a computed normal form.

Every check here avoids the transported-series solver or attacks the result
from a different direction:

* ``conjugacy_residual`` composes both sides of the conjugacy to one degree
  above the solve order and bounds the coefficients of their difference
  degree by degree.
* ``direct_solve_oracle`` solves each degree type by type, one dense linear
  system over all orbit points per type, no series, no contraction argument.
* ``gauge_compare`` measures whether two solutions differ by a sub-resonance
  coordinate change only, which is the uniqueness statement.
* ``centralizer_check`` conjugates a commuting family and tests that it lands
  in the sub-resonance group.
* ``flag_invariance`` reads the below-flag derivative coefficients of the
  normal form.
* ``chart_transitions`` rebuilds the normal form in charts centered at
  nearby non-periodic points, all in one window solve, and tests that each
  transition to the periodic chart is a sub-resonance map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .normalform import (NormalFormResult, SolverContext, _DegreeOperator, _orbit_loop,
                         solve_window)
from .polymap import (PolyMap, _linear_jets, _mono_table, compose_jets, compose_truncated,
                      invert_truncated, jet_width, project_subresonance, stack_jets)


# field metadata of the polynomial maps a report keeps but does not serialize
_MAPS = {"serialized": False}


class _Report:
    """The ``to_dict`` of the check reports: every field but the maps, and ``passed``."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.metadata.get("serialized", True):
                value = getattr(self, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
        out["passed"] = self.passed
        return out


def _coeff_diff(a: PolyMap, b: PolyMap) -> float:
    """Largest coefficient mismatch, constants included."""
    return float(np.max(np.abs((a - b).jet)))


def _npart_split(pmap: PolyMap, structure) -> tuple[float, float]:
    """(non-admissible max up to the degree bound, anything above it)."""
    width = jet_width(pmap.source.dim, structure.degree_bound)
    _, n_part = project_subresonance(pmap, structure)
    return (float(np.max(np.abs(n_part.jet[:, :width]))),
            float(np.max(np.abs(pmap.jet[:, width:]), initial=0.0)))


@dataclass
class ResidualReport(_Report):
    """Conjugacy defect H_{k+1} o F_k - P_k o H_k, read degree by degree.

    max_residuals[n] and bounds[n] are the largest coefficient of degree n
    over the orbit and its bound, for n = 0..order; leading_term is the
    largest coefficient of degree order + 1, the truncation's own term.
    """

    order: int
    series_tol: float
    max_residuals: tuple[float, ...]
    bounds: tuple[float, ...]
    leading_term: float

    @property
    def passed(self) -> bool:
        return all(r <= b for r, b in zip(self.max_residuals, self.bounds))


def _majorant(pm: PolyMap, top: int) -> np.ndarray:
    """Per degree 0..top, the largest l1 norm of a component's coefficients."""
    return np.array([np.abs(pm.part(n)).sum(axis=1).max() for n in range(top + 1)])


def _compose_majorants(outer: PolyMap, inner: PolyMap, top: int) -> np.ndarray:
    """Majorant of outer o inner through top: the two majorants composed as
    scalar series, which bounds each degree's l1 norms."""
    g = _majorant(inner, top)
    out, power = np.zeros(top + 1), np.eye(1, top + 1)[0]
    for c in _majorant(outer, top):
        out += c * power
        power = np.convolve(power, g)[:top + 1]
    return out


def conjugacy_residual(cocycle, result: NormalFormResult,
                       series_tol: float = 1e-13) -> ResidualReport:
    """Largest coefficient of H_{k+1} o F_k - P_k o H_k at each degree 0..M+1.

    The identity holds as polynomials through the solve order M, so both
    sides are composed to degree M+1 only, and every degree n <= M must stay
    within

        series_tol sqrt(N_n) (a + a^n) max(1, h_n) + (n + 1) w_n eps c_n:

    the defect that a series tail of Frobenius norm series_tol max(1, h_n)
    leaves through A_k and its degree-n substitution (N_n degree-n
    monomials, a the largest row l1 norm of A_k, h_n the largest Frobenius
    norm of a degree-n part of H), plus rounding along chains of n + 1
    products of w_n = jet_width(m, n) terms, relative to the majorant c_n of
    both sides.  NaN never passes.
    """
    if result.period != cocycle.period:
        raise ValueError("result and cocycle have different periods")
    K, m, M = cocycle.period, cocycle.dim, result.order
    n = np.arange(M + 1)
    monos = np.array([math.comb(m + d - 1, d) for d in n])
    chains = (n + 1) * np.array([jet_width(m, d) for d in n]) * np.finfo(float).eps
    h_norm = np.max([[np.linalg.norm(h.part(d)) for d in n] for h in result.conjugator], axis=0)
    residuals, bounds = np.zeros(M + 2), np.zeros(M + 1)
    for k in range(K):
        h_next, f = result.conjugator[(k + 1) % K], cocycle.map_at(k)
        p, h = result.normal_form[k], result.conjugator[k]
        defect = compose_truncated(h_next, f, M + 1) - compose_truncated(p, h, M + 1)
        residuals = np.maximum(residuals, [np.abs(defect.part(d)).max() for d in range(M + 2)])
        a = _majorant(f, 1)[1]
        sides = _compose_majorants(h_next, f, M) + _compose_majorants(p, h, M)
        bounds = np.maximum(bounds, series_tol * np.sqrt(monos) * (a + a ** n)
                            * np.maximum(1.0, h_norm) + chains * sides)
    return ResidualReport(M, float(series_tol), tuple(map(float, residuals[:-1])),
                          tuple(map(float, bounds)), float(residuals[-1]))


def direct_solve_oracle(op: _DegreeOperator, q_vecs: np.ndarray
                        ) -> tuple[list[np.ndarray], dict]:
    """Degree-n conjugator via dense solves coupling all orbit points.

    A transfer for the shared degree loop: takes the degree operator and the
    twisted sources Q(k), returns their stack of coefficient arrays and no
    diagnostics.  Each non-admissible type (i, s) is one dense solve of
    the K-cyclic system X_k - Ainv_k[i] X_{k+1} subst_k[s] = Q_k[i, s].  The
    singularity test takes the extreme singular values over all types, which
    are those of the full system: it is block diagonal in the types up to a
    permutation.  Shares with the series only the loop around the transfer
    (source assembly, lift, finishing), so agreement is evidence for both.
    """
    K = len(q_vecs)
    systems = []
    for rows, cols in op.types:
        nn = (rows.stop - rows.start) * len(cols)
        L = np.eye(K * nn)
        for k in range(K):
            nxt = (k + 1) % K
            L[k * nn:(k + 1) * nn, nxt * nn:(nxt + 1) * nn] -= np.kron(
                op.ainvs[k][rows, rows], op.substs[k][np.ix_(cols, cols)].T)
        rhs = np.asarray(q_vecs)[:, rows, cols].ravel()
        systems.append((rows, cols, L, rhs, np.linalg.svd(L, compute_uv=False)))

    sv_min = min((float(sv[-1]) for *_, sv in systems), default=1.0)
    sv_max = max((float(sv[0]) for *_, sv in systems), default=1.0)
    if sv_min < 1e-12 * max(1.0, sv_max):
        raise ValueError(
            f"the degree-{op.n} transfer system is numerically singular; a "
            "resonant type appears to be classified as non-resonant (widen "
            "resonance_tol or shrink epsilon)"
        )

    out = np.zeros_like(q_vecs)
    for rows, cols, L, rhs, _ in systems:
        out[:, rows, cols] = np.linalg.solve(L, rhs).reshape(K, rows.stop - rows.start, -1)
    return out, {}


def direct_normal_form(ctx: SolverContext) -> tuple[list[PolyMap], list[PolyMap]]:
    """Full degree loop with the dense oracle in place of the series."""
    h_maps, p_maps, _ = _orbit_loop(ctx, direct_solve_oracle)
    return h_maps, p_maps


def series_vs_direct(ctx: SolverContext, result: NormalFormResult) -> float:
    """Largest coefficient gap between the series and dense-solve pipelines."""
    if result.period != ctx.cocycle.period or result.order != ctx.order:
        raise ValueError("result does not match the solver context")
    h_direct, p_direct = direct_normal_form(ctx)
    worst = 0.0
    for k in range(ctx.cocycle.period):
        worst = max(worst, _coeff_diff(result.conjugator[k], h_direct[k]))
        worst = max(worst, _coeff_diff(result.normal_form[k], p_direct[k]))
    return worst


@dataclass
class GaugeReport(_Report):
    """Transition G with H = G o H_alt, tested against the sub-resonance group."""

    transition: tuple[PolyMap, ...] = field(metadata=_MAPS)
    npart_max: float
    beyond_degree_max: float
    alignment_max: float
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return (self.npart_max <= self.tol
                and self.beyond_degree_max <= self.tol)


def gauge_compare(result: NormalFormResult, result_alt: NormalFormResult,
                  tol: float = 1e-9) -> GaugeReport:
    """Uniqueness up to gauge: two solutions must differ inside the group.

    Computes G_k = H_k o H_alt_k^{-1} at every orbit point.  If both are
    valid normal form conjugators, every G_k is a sub-resonance map: no
    non-admissible coefficients, nothing above the degree bound.
    ``alignment_max`` is the round-trip error of recomposing G with H_alt.
    """
    if result.period != result_alt.period or result.order != result_alt.order:
        raise ValueError("results differ in period or order")
    order = result.order
    structure = result.structure
    transition = []
    npart = beyond = align = 0.0
    for k in range(result.period):
        g = compose_truncated(result.conjugator[k],
                              invert_truncated(result_alt.conjugator[k], order),
                              order)
        back = compose_truncated(g, result_alt.conjugator[k], order)
        align = max(align, _coeff_diff(back, result.conjugator[k]))
        low, high = _npart_split(g, structure)
        npart = max(npart, low)
        beyond = max(beyond, high)
        transition.append(g)
    return GaugeReport(tuple(transition), npart, beyond, align, tol)


@dataclass(eq=False)
class CommutingExtension:
    """Family G_k of fiber maps sending the fiber at point k to point k+shift."""

    shift: int
    maps: tuple[PolyMap, ...]

    def __post_init__(self):
        if not self.maps:
            raise ValueError("extension needs at least one map")
        space = self.maps[0].source
        for pm in self.maps:
            if pm.source != space or pm.target != space:
                raise ValueError("extension maps are not over a common space")

    def then(self, maps, order: int) -> "CommutingExtension":
        """The family one step further along the orbit: maps[k+shift] o G_k."""
        K = len(self.maps)
        return CommutingExtension(self.shift + 1, tuple(
            compose_truncated(maps[(k + self.shift) % K], g, order)
            for k, g in enumerate(self.maps)))


def iterate_extension(cocycle, power: int, order: int) -> CommutingExtension:
    """The cocycle composed with itself ``power`` times, truncated at order."""
    if power < 1:
        raise ValueError("power must be at least 1")
    ext = CommutingExtension(1, tuple(pm.truncated(order) for pm in cocycle.fiber_maps))
    for _ in range(1, power):
        ext = ext.then(cocycle.fiber_maps, order)
    return ext


@dataclass
class CentralizerReport(_Report):
    """Conjugated commuting family, tested against the sub-resonance group."""

    maps: tuple[PolyMap, ...] = field(metadata=_MAPS)
    shift: int
    commutation_residual: float
    npart_max: float
    beyond_degree_max: float
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return (self.npart_max <= self.tol
                and self.beyond_degree_max <= self.tol)


def centralizer_check(cocycle, result: NormalFormResult,
                      extension: CommutingExtension,
                      commute_tol: float = 1e-10,
                      tol: float = 1e-9, inverses=None) -> CentralizerReport:
    """Conjugate a commuting family by H and test group membership.

    First verifies the commutation relation G_{k+1} o F_k = F_{k+shift} o G_k
    degreewise up to the solve order, then checks that every conjugated map
    C_k = H_{k+shift} o G_k o H_k^{-1} has admissible coefficients only and
    nothing above the degree bound.  ``inverses`` holds the H_k^{-1} at the
    result order when a caller checks several families; they are inverted
    here otherwise.
    """
    K = cocycle.period
    if result.period != K or len(extension.maps) != K:
        raise ValueError("extension, result and cocycle must share the period")
    order = result.order
    shift = extension.shift % K

    scale = max(1.0, max(pm.coeff_max() for pm in extension.maps))
    comm = 0.0
    for k in range(K):
        lhs = compose_truncated(extension.maps[(k + 1) % K],
                                cocycle.map_at(k), order)
        rhs = compose_truncated(cocycle.map_at((k + extension.shift) % K),
                                extension.maps[k], order)
        comm = max(comm, _coeff_diff(lhs, rhs))
    if comm > commute_tol * scale:
        raise ValueError(
            f"the family does not commute with the cocycle up to degree "
            f"{order}: residual {comm:.3e}"
        )

    if inverses is None:
        inverses = [invert_truncated(h, order) for h in result.conjugator]
    conjugated = []
    npart = beyond = 0.0
    for k in range(K):
        inner = compose_truncated(extension.maps[k], inverses[k], order)
        c = compose_truncated(result.conjugator[(k + shift) % K], inner, order)
        low, high = _npart_split(c, result.structure)
        npart = max(npart, low)
        beyond = max(beyond, high)
        conjugated.append(c)
    return CentralizerReport(tuple(conjugated), extension.shift, comm,
                             npart, beyond, tol)


@dataclass
class FlagReport(_Report):
    """Largest below-flag derivative coefficient of the checked maps."""

    max_below_flag: float
    tol: float = 1e-12

    @property
    def passed(self) -> bool:
        return self.max_below_flag <= self.tol


def flag_invariance(maps, tol: float = 1e-12) -> FlagReport:
    """Check that the Jacobian of each map is block triangular everywhere.

    Sub-resonance coefficients never depend on strictly slower variables, so
    each partial derivative of a faster component with respect to a slower
    variable must vanish identically: the derivative of c t^alpha in t_j has
    the one coefficient c alpha_j, and the report holds the largest
    |c| alpha_j with block[j] < block[i] over the components i.
    """
    if isinstance(maps, PolyMap):
        maps = [maps]
    maps = list(maps)
    if not maps:
        raise ValueError("no maps to check")
    space = maps[0].source
    block = np.array(space.block_of_coord)
    below = block[None, :] < block[:, None]

    worst = 0.0
    for pm in maps:
        if pm.source != space:
            raise ValueError("maps are not over a common space")
        for n in range(1, pm.degree + 1):
            exps = np.array(_mono_table(space.dim, n)[0])
            derivs = np.abs(pm.part(n))[:, :, None] * exps * below[:, None, :]
            worst = max(worst, float(derivs.max(initial=0.0)))
    return FlagReport(worst, tol)


@dataclass
class ChartReport(_Report):
    """Transition between normal form charts at a periodic and a nearby point."""

    transition: PolyMap = field(metadata=_MAPS)
    offset: tuple[float, ...]
    window: int
    npart_max: float
    deviation_max: float
    eval_radius: float
    samples: int
    tol: float = 1e-7

    @property
    def passed(self) -> bool:
        return (self.npart_max <= self.tol
                and self.deviation_max <= self.tol)


def default_chart_window(ctx: SolverContext) -> int:
    """Window length making the terminal truncation negligible at every degree."""
    rate = ctx.structure.spectral_gap + (ctx.order + 1) * ctx.spectrum.epsilon
    if rate >= 0.0:
        raise ValueError("no contraction at this order, cannot size a window")
    K = ctx.cocycle.period
    t_base = math.ceil(math.log(ctx.series_tol * 1e-2) / rate) + 2 * K
    return (ctx.order - 1) * t_base + K + 2


def chart_transitions(ctx: SolverContext, result: NormalFormResult,
                      offsets, *, base: int = 0, window: int | None = None,
                      eval_radius: float | None = None, samples: int = 64,
                      seed: int = 0, tol: float = 1e-7) -> list[ChartReport]:
    """Normal form charts at nearby points versus the periodic chart.

    offsets has shape (P, m).  Recenter the cocycle along the forward orbit
    of every offset point, run the window solver on all P windows at once
    with zero terminal data, and form each transition

        G = H_window(0) o (H_base^{-1} - offset).

    G carries one chart of normal form coordinates to the other, so apart
    from its constant it must be a sub-resonance map.  The non-admissible
    coefficients up to the degree bound are checked directly.  The rest is
    checked by evaluation on a sphere of radius ``eval_radius`` (the offset
    size by default): composing order-M truncations around a shifted center
    contaminates the top coefficients of G at size |h_{M+1}| * |offset|
    regardless of how far the solves converged, while the function values of
    the mismatch stay at size |h_{M+1}| * (2 |offset|)^{M+1}, so only the
    sampled deviation from G's own sub-resonance projection is meaningful.
    Requires the recentered linear parts to be flag preserving, which holds
    whenever the cocycle maps themselves have admissible coefficients only.
    """
    cocycle = ctx.cocycle
    space, m, K = cocycle.space, cocycle.dim, cocycle.period
    order = result.order
    ys = np.asarray(offsets, dtype=float).reshape(-1, m)
    P = len(ys)
    if not P:
        return []
    if window is None:
        window = default_chart_window(ctx)

    # the orbits c_j of the offset points, one evaluation per step for all
    steps = (base + np.arange(window)) % K
    centers = np.empty((window, P, m))
    centers[0] = ys
    for j in range(1, window):
        centers[j] = cocycle.fiber_maps[steps[j - 1]].evaluate_batch(centers[j - 1])
    # every map recentred on its point, t -> f_j(c_j + t) - c_{j+1}, in one composition
    shifts = np.repeat(_linear_jets(np.eye(m))[None], window * P, axis=0)
    shifts[:, :, 0] = centers.reshape(-1, m)
    outer = np.repeat(stack_jets(cocycle.fiber_maps, cocycle.degree)[steps], P, axis=0)
    jets = compose_jets(outer, shifts, m, cocycle.degree).reshape(window, P, m, -1)
    jets[..., 0] = 0.0

    h_win, _, _ = solve_window(jets, space, ctx.structure, order)
    to_local = np.repeat(invert_truncated(result.conjugator[base % K], order).jet[None],
                         P, axis=0)
    to_local[:, :, 0] = -ys
    g_jets = compose_jets(h_win[0], to_local, m, order)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    reports = []
    for y, g_jet in zip(ys, g_jets):
        g = PolyMap.from_jet(space, space, order, g_jet)
        low, _ = _npart_split(g.with_constant(np.zeros(m)), ctx.structure)
        g_sub, _ = project_subresonance(g, ctx.structure)
        radius = max(float(np.linalg.norm(y)), 1e-2) if eval_radius is None else eval_radius
        pts = radius * dirs
        deviation = float(np.max(np.abs(g.evaluate_batch(pts) - g_sub.evaluate_batch(pts))))
        reports.append(ChartReport(g, tuple(float(v) for v in y), window, low, deviation,
                                   radius, samples, tol))
    return reports


def chart_consistency(ctx: SolverContext, result: NormalFormResult, offset,
                      **kwargs) -> ChartReport:
    """``chart_transitions`` at one offset point."""
    return chart_transitions(ctx, result, np.reshape(offset, (1, ctx.cocycle.dim)),
                             **kwargs)[0]
