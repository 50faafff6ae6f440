"""Independent checks of a computed normal form.

Every check here avoids the transported-series solver or attacks the result
from a different direction:

* ``conjugacy_residual`` evaluates both sides of the conjugacy on sampled
  points and fits the decay order of the mismatch.
* ``direct_solve_oracle`` solves each degree type by type, one dense linear
  system over all orbit points per type, no series, no contraction argument.
* ``gauge_compare`` measures whether two solutions differ by a sub-resonance
  coordinate change only, which is the uniqueness statement.
* ``centralizer_check`` conjugates a commuting family and tests that it lands
  in the sub-resonance group.
* ``flag_invariance`` differentiates the normal form exactly and looks for
  below-flag Jacobian entries.
* ``chart_consistency`` rebuilds the normal form in a chart centered at a
  nearby non-periodic point and tests that the transition between the two
  charts is a sub-resonance map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .normalform import (
    NormalFormResult,
    SolverContext,
    _degree_loop,
    _DegreeOperator,
    solve_window,
)
from .polymap import (
    PolyMap,
    compose_truncated,
    invert_truncated,
    project_subresonance,
)


def _coeff_diff(a: PolyMap, b: PolyMap) -> float:
    """Largest coefficient mismatch, constants included."""
    worst = float(np.max(np.abs(a.constant - b.constant)))
    for key in set(a.coeffs) | set(b.coeffs):
        worst = max(worst, abs(a.coeffs.get(key, 0.0) - b.coeffs.get(key, 0.0)))
    return worst


def _beyond_degree_max(pmap: PolyMap, degree: int) -> float:
    return max((abs(v) for (_, alpha), v in pmap.coeffs.items()
                if sum(alpha) > degree), default=0.0)


def _npart_split(pmap: PolyMap, structure) -> tuple[float, float]:
    """(non-admissible max up to the degree bound, anything above it)."""
    d = structure.degree_bound
    _, n_part = project_subresonance(pmap, structure)
    low = max((abs(v) for (_, alpha), v in n_part.coeffs.items()
               if sum(alpha) <= d), default=0.0)
    return low, _beyond_degree_max(pmap, d)


@dataclass
class ResidualReport:
    """Sampled conjugacy defect H_{k+1} o F_k - P_k o H_k at several radii."""

    radii: tuple[float, ...]
    max_residuals: tuple[float, ...]
    slope: float | None
    order: int
    exact: bool
    samples: int
    exact_tol: float = 1e-12

    @property
    def passed(self) -> bool:
        if self.exact:
            return True
        return self.slope is not None and self.slope >= self.order + 0.9

    def to_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "max_residuals": list(self.max_residuals),
            "slope": self.slope,
            "order": self.order,
            "exact": self.exact,
            "samples": self.samples,
            "exact_tol": self.exact_tol,
            "passed": self.passed,
        }


def conjugacy_residual(cocycle, result: NormalFormResult,
                       radii: Sequence[float] = (1e-1, 3e-2, 1e-2),
                       samples: int = 200, seed: int = 0,
                       exact_tol: float = 1e-12) -> ResidualReport:
    """Evaluate the conjugacy identity on spheres and fit its decay order.

    A degree-M solve leaves a residual of order M+1 in the radius, so the
    fitted log-log slope should exceed M + 0.9.  Cocycles that are already
    in normal form give a residual at rounding level instead; that case is
    reported with ``exact=True`` and no slope.

    Both sides of the identity are polynomials, so the residual is formed
    once as a polynomial and then sampled.  Subtracting evaluations instead
    would difference two nearly equal numbers and bottom out near 1e-18 at
    small radii, masking a genuine residual of order M+1.
    """
    if result.period != cocycle.period:
        raise ValueError("result and cocycle have different periods")
    K = cocycle.period
    residual_polys = []
    for k in range(K):
        h_next = result.conjugator[(k + 1) % K]
        f = cocycle.map_at(k)
        lhs = compose_truncated(h_next, f, h_next.degree * f.degree)
        rhs = compose_truncated(
            result.normal_form[k], result.conjugator[k],
            max(result.normal_form[k].degree, 1) * result.conjugator[k].degree)
        residual_polys.append(lhs - rhs)

    dim = cocycle.dim
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    maxima = []
    for r in radii:
        pts = r * dirs
        worst = max(float(np.max(np.abs(rp.evaluate_batch(pts))))
                    for rp in residual_polys)
        maxima.append(worst)

    exact = all(m <= exact_tol for m in maxima)
    slope = None
    if not exact and all(m > 0.0 for m in maxima):
        slope = float(np.polyfit(np.log(radii), np.log(maxima), 1)[0])
    return ResidualReport(tuple(float(r) for r in radii), tuple(maxima), slope,
                          result.order, exact, samples, exact_tol)


def direct_solve_oracle(op: _DegreeOperator, q_vecs: list[np.ndarray]
                        ) -> tuple[list[np.ndarray], dict]:
    """Degree-n conjugator via dense solves coupling all orbit points.

    A transfer for the shared degree loop: takes the degree operator and the
    twisted sources Q(k), returns one coefficient array per orbit point and
    no diagnostics.  Each non-admissible type (i, s) is one dense solve of
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
            ainv, subst = op.type_blocks(k, rows, cols)
            nxt = (k + 1) % K
            L[k * nn:(k + 1) * nn, nxt * nn:(nxt + 1) * nn] -= np.kron(ainv, subst.T)
        rhs = np.concatenate([q[rows, cols].ravel() for q in q_vecs])
        systems.append((rows, cols, L, rhs, np.linalg.svd(L, compute_uv=False)))

    sv_min = min((float(sv[-1]) for *_, sv in systems), default=1.0)
    sv_max = max((float(sv[0]) for *_, sv in systems), default=1.0)
    if sv_min < 1e-12 * max(1.0, sv_max):
        raise ValueError(
            f"the degree-{op.n} transfer system is numerically singular; a "
            "resonant type appears to be classified as non-resonant (widen "
            "resonance_tol or shrink epsilon)"
        )

    out = [np.zeros_like(q) for q in q_vecs]
    for rows, cols, L, rhs, _ in systems:
        x = np.linalg.solve(L, rhs).reshape(K, rows.stop - rows.start, len(cols))
        for k in range(K):
            out[k][rows, cols] = x[k]
    return out, {}


def direct_normal_form(ctx: SolverContext) -> tuple[list[PolyMap], list[PolyMap]]:
    """Full degree loop with the dense oracle in place of the series."""
    K = ctx.cocycle.period
    h_maps, p_maps, _ = _degree_loop(
        [ctx.cocycle.map_at(k) for k in range(K)], K, ctx.operator, ctx.order,
        direct_solve_oracle, ctx.lift_policy)
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
class GaugeReport:
    """Transition G with H = G o H_alt, tested against the sub-resonance group."""

    transition: tuple[PolyMap, ...]
    npart_max: float
    beyond_degree_max: float
    alignment_max: float
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return (self.npart_max <= self.tol
                and self.beyond_degree_max <= self.tol)

    def to_dict(self) -> dict:
        return {
            "npart_max": self.npart_max,
            "beyond_degree_max": self.beyond_degree_max,
            "alignment_max": self.alignment_max,
            "tol": self.tol,
            "passed": self.passed,
        }


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


def iterate_extension(cocycle, power: int, order: int) -> CommutingExtension:
    """The cocycle composed with itself ``power`` times, truncated at order."""
    if power < 1:
        raise ValueError("power must be at least 1")
    K = cocycle.period
    maps = []
    for k in range(K):
        g = cocycle.map_at(k).truncated(order)
        for j in range(1, power):
            g = compose_truncated(cocycle.map_at((k + j) % K), g, order)
        maps.append(g)
    return CommutingExtension(power, tuple(maps))


@dataclass
class CentralizerReport:
    """Conjugated commuting family, tested against the sub-resonance group."""

    maps: tuple[PolyMap, ...]
    shift: int
    commutation_residual: float
    npart_max: float
    beyond_degree_max: float
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return (self.npart_max <= self.tol
                and self.beyond_degree_max <= self.tol)

    def to_dict(self) -> dict:
        return {
            "shift": self.shift,
            "commutation_residual": self.commutation_residual,
            "npart_max": self.npart_max,
            "beyond_degree_max": self.beyond_degree_max,
            "tol": self.tol,
            "passed": self.passed,
        }


def centralizer_check(cocycle, result: NormalFormResult,
                      extension: CommutingExtension,
                      commute_tol: float = 1e-10,
                      tol: float = 1e-9) -> CentralizerReport:
    """Conjugate a commuting family by H and test group membership.

    First verifies the commutation relation G_{k+1} o F_k = F_{k+shift} o G_k
    degreewise up to the solve order, then checks that every conjugated map
    C_k = H_{k+shift} o G_k o H_k^{-1} has admissible coefficients only and
    nothing above the degree bound.
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

    conjugated = []
    npart = beyond = 0.0
    for k in range(K):
        inner = compose_truncated(extension.maps[k],
                                  invert_truncated(result.conjugator[k], order),
                                  order)
        c = compose_truncated(result.conjugator[(k + shift) % K], inner, order)
        low, high = _npart_split(c, result.structure)
        npart = max(npart, low)
        beyond = max(beyond, high)
        conjugated.append(c)
    return CentralizerReport(tuple(conjugated), extension.shift, comm,
                             npart, beyond, tol)


@dataclass
class FlagReport:
    """Largest below-flag Jacobian entry found on sampled points."""

    max_below_flag: float
    samples: int
    radius: float
    tol: float = 1e-12

    @property
    def passed(self) -> bool:
        return self.max_below_flag <= self.tol

    def to_dict(self) -> dict:
        return {
            "max_below_flag": self.max_below_flag,
            "samples": self.samples,
            "radius": self.radius,
            "tol": self.tol,
            "passed": self.passed,
        }


def flag_invariance(maps, samples: int = 100, seed: int = 0,
                    radius: float = 0.5, tol: float = 1e-12) -> FlagReport:
    """Check that the Jacobian of each map is block triangular everywhere.

    Sub-resonance coefficients never depend on strictly slower variables, so
    each partial derivative of a faster component with respect to a slower
    variable must vanish identically.  The derivative is formed exactly from
    the coefficients and evaluated on uniform samples; a genuine violation
    shows up at the size of the offending coefficient times the radius.
    """
    if isinstance(maps, PolyMap):
        maps = [maps]
    maps = list(maps)
    if not maps:
        raise ValueError("no maps to check")
    space = maps[0].source
    block = space.block_of_coord
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, size=(samples, space.dim))

    worst = 0.0
    for pm in maps:
        if pm.source != space:
            raise ValueError("maps are not over a common space")
        for (i, alpha), c in pm.coeffs.items():
            bi = block[i]
            for j, a_j in enumerate(alpha):
                if a_j == 0 or block[j] >= bi:
                    continue
                down = list(alpha)
                down[j] -= 1
                vals = c * a_j * np.prod(pts ** np.asarray(down), axis=1)
                worst = max(worst, float(np.max(np.abs(vals))))
    return FlagReport(worst, samples, radius, tol)


@dataclass
class ChartReport:
    """Transition between normal form charts at a periodic and a nearby point."""

    transition: PolyMap
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

    def to_dict(self) -> dict:
        return {
            "offset": list(self.offset),
            "window": self.window,
            "npart_max": self.npart_max,
            "deviation_max": self.deviation_max,
            "eval_radius": self.eval_radius,
            "samples": self.samples,
            "tol": self.tol,
            "passed": self.passed,
        }


def default_chart_window(ctx: SolverContext) -> int:
    """Window length making the terminal truncation negligible at every degree."""
    rate = ctx.structure.spectral_gap + (ctx.order + 1) * ctx.spectrum.epsilon
    if rate >= 0.0:
        raise ValueError("no contraction at this order, cannot size a window")
    K = ctx.cocycle.period
    t_base = math.ceil(math.log(ctx.series_tol * 1e-2) / rate) + 2 * K
    return (ctx.order - 1) * t_base + K + 2


def chart_consistency(ctx: SolverContext, result: NormalFormResult,
                      offset, *, base: int = 0, window: int | None = None,
                      eval_radius: float | None = None, samples: int = 64,
                      seed: int = 0, tol: float = 1e-7) -> ChartReport:
    """Normal form chart at a nearby point versus the periodic chart.

    Recenter the cocycle along the forward orbit of the offset point, run the
    window solver with zero terminal data, and form the transition

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
    space = cocycle.space
    order = result.order
    y = np.asarray(offset, dtype=float).reshape(space.dim)
    if window is None:
        window = default_chart_window(ctx)

    recentered = []
    cur = y.copy()
    for j in range(window):
        f = cocycle.map_at(base + j)
        shifted = compose_truncated(
            f, PolyMap.identity(space, 1).with_constant(cur), f.degree)
        cur = shifted.constant.copy()
        recentered.append(shifted.with_constant(np.zeros(space.dim)))

    h_win, _, _ = solve_window(recentered, ctx.structure, order)
    to_local = invert_truncated(result.conjugator[base % cocycle.period],
                                order).with_constant(-y)
    g = compose_truncated(h_win[0], to_local, order)

    low, _ = _npart_split(g.with_constant(np.zeros(space.dim)), ctx.structure)

    d = ctx.structure.degree_bound
    admissible = {key: v for key, v in g.coeffs.items()
                  if sum(key[1]) <= d
                  and ctx.structure.is_admissible(
                      space.block_of_coord[key[0]], space.block_degrees(key[1]))}
    g_sub = PolyMap(space, space, max(d, 1), g.constant.copy(), admissible)

    if eval_radius is None:
        eval_radius = max(float(np.linalg.norm(y)), 1e-2)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, space.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = eval_radius * dirs
    deviation = float(np.max(np.abs(g.evaluate_batch(pts)
                                    - g_sub.evaluate_batch(pts))))

    return ChartReport(g, tuple(float(v) for v in y), window, low, deviation,
                       eval_radius, samples, tol)
