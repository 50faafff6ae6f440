"""Independent checks of a computed normal form.

Every check here avoids the transported-series solver or attacks the result
from a different direction:

* ``conjugacy_residual`` composes both sides of the conjugacy to one degree
  above the solve order and bounds the coefficients of their difference
  degree by degree.
* ``direct_solve_oracle`` solves each degree type by type, the dense linear
  system over all orbit points of each type by block-cyclic elimination, no
  series, no contraction argument.
* ``gauge_compare`` measures whether two solutions differ by a sub-resonance
  coordinate change only, which is the uniqueness statement.
* ``centralizer_check`` conjugates a commuting family and tests that it lands
  in the sub-resonance group.
* ``flag_invariance`` reads the below-flag derivative coefficients of the
  normal form.
* ``chart_transitions`` rebuilds the normal form in charts centered at
  nearby non-periodic points, all in one window solve, and bounds the
  non-admissible part of each transition to the periodic chart by its
  coefficients.  It recentres the maps only through the transient, until
  they equal the base maps to the bit.

Every check reads coefficients; none samples points or takes a seed.  The
checks read the (K, m, w) jet stacks of the result
(``NormalFormResult.conjugator_jets``, ``normal_form_jets``) and of the
cocycle (``OrbitCocycle.jets``) and build no PolyMap: a commuting family
is a (shift, stack) pair, and the transitions and conjugated families the
reports keep are jets.  The checks hold at every orbit point, and each
check step is one stacked kernel call whatever the period K: one
``compose_jets`` call per side of an identity on K maps (K per family for
all centralizer families at once), one ``divide_jets`` call where a check
composes with an inverse, and one elimination, SVD and solve per stack of
types in the oracle.  Read-outs are numpy maxima: NaN fails.

Each report lists its bounded quantities once, in ``limits()`` (the
``_Report`` of ``cocycle``): its ``passed``, the verdicts of the command
line and the stderr lines of a failing check all read that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import _limit, _Report
from .normalform import (NormalFormResult, SolverContext, _DegreeOperator, _gather_types,
                         solve_cycles, solve_window)
from .polymap import (PolyMap, _evaluate, _fit, _linear_jets, _mono_table, _monomials,
                      compose_jets, degree_cols, divide_jets, jet_width, top_degree)


# field metadata of the jets a report keeps but does not serialize
_JETS = {"serialized": False}
# a family commutes with the cocycle when its residual is within this
# fraction of its largest coefficient
_COMMUTE_TOL = 1e-10
# the oracle stacks the types of at most this many slots (rows x cols) in one
# zero-padded stack per degree, and larger ones by exact shape; padding pays
# up to about 32 slots and costs from about 48 on (below)
ORACLE_PAD_SLOTS = 32


def _npart_max(jets: np.ndarray, degree: int, structure) -> tuple[float, float]:
    """(largest non-admissible coefficient up to the degree bound, largest
    coefficient above it) of a stack of jets through `degree`; NaN propagates."""
    n_part = jets - np.where(structure.keep(degree), jets, 0.0)
    width = jet_width(jets.shape[-2], structure.degree_bound)
    return (float(np.max(np.abs(n_part[..., :width]))),
            float(np.max(np.abs(jets[..., width:]), initial=0.0)))


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

    def limits(self) -> list[tuple[str, bool]]:
        return [_limit(f"degree {n} max", r, "bound", b)
                for n, (r, b) in enumerate(zip(self.max_residuals, self.bounds))]


def _majorants(jets: np.ndarray, dim: int, top: int) -> np.ndarray:
    """(S, top + 1): per map and degree, the largest l1 norm of a component's coefficients."""
    return np.stack([np.abs(jets[..., degree_cols(dim, n)]).sum(-1).max(-1)
                     for n in range(top + 1)], axis=-1)


def _compose_majorants(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Majorant of outer o inner from their majorants through one top degree:
    the two composed as scalar series, which bounds each degree's l1 norms."""
    top = len(outer) - 1
    out, power = np.zeros(top + 1), np.eye(1, top + 1)[0]
    for c in outer:
        out += c * power
        power = np.convolve(power, inner)[:top + 1]
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
    both sides.  Each side is one stacked composition of K entries over the
    orbit.  NaN never passes.
    """
    if result.period != cocycle.period:
        raise ValueError("result and cocycle have different periods")
    K, m, M = cocycle.period, cocycle.dim, result.order
    h, p, f = result.conjugator_jets, result.normal_form_jets, cocycle.jets
    # each side its own call: P has a lower top degree than H, and a stacked
    # call would form the powers of H through the largest outer degree
    defect = (compose_jets(h[(np.arange(K) + 1) % K], f, m, M + 1)
              - compose_jets(p, h, m, M + 1))
    residuals = [np.abs(defect[..., degree_cols(m, d)]).max() for d in range(M + 2)]

    n = np.arange(M + 1)
    monos = np.array([math.comb(m + d - 1, d) for d in n])
    chains = (n + 1) * np.array([jet_width(m, d) for d in n]) * np.finfo(float).eps
    h_norm = np.max([[np.linalg.norm(hk[:, degree_cols(m, d)]) for d in n] for hk in h],
                    axis=0)
    h_maj, f_maj, p_maj = (_majorants(x, m, M) for x in (h, f, p))
    bounds = np.zeros(M + 1)
    for k in range(K):
        a = f_maj[k, 1]
        majorants = (_compose_majorants(h_maj[(k + 1) % K], f_maj[k])
                     + _compose_majorants(p_maj[k], h_maj[k]))
        bounds = np.maximum(bounds, series_tol * np.sqrt(monos) * (a + a ** n)
                            * np.maximum(1.0, h_norm) + chains * majorants)
    return ResidualReport(M, float(series_tol), tuple(map(float, residuals[:-1])),
                          tuple(map(float, bounds)), float(residuals[-1]))


def direct_solve_oracle(op: _DegreeOperator, q_vecs: np.ndarray
                        ) -> tuple[np.ndarray, list[dict]]:
    """Degree-n conjugator via dense solves coupling all orbit points.

    A transfer for the shared degree loop: takes the degree operator and the
    twisted sources Q(k) of its cycles, returns their coefficient arrays and
    no diagnostics.  Each non-admissible type (i, s) is one dense K-cyclic
    system X_k - T_k X_{k+1} = Q_k in its block X_k, a vector of rows x cols
    slots, with T_k = Ainv_k[i] kron subst_k[s]^T.  Block-cyclic elimination
    folds it to phase 0, R <- Q_k + T_k R and M <- T_k M for k = K-1..0,
    solves the reduced system (I - M) X_0 = R and back-substitutes X_k =
    Q_k + T_k X_{k+1} for k = K-1..1: stacked products on rows*cols square
    blocks, linear in K.  The types of at most ORACLE_PAD_SLOTS slots share
    one stack zero-padded to their largest (rows, cols), gathered through
    ``op.type_index``; on the padding I - M is the identity and X zero.
    Larger types go by exact shape, one stack per (rows, cols): with one
    BLAS thread, the oracle of the (2,3) K=2 M=5 ladder row took 8.0 ms at
    a bound of 32 slots, 9.2 at 48 and 10.6 at 64, and padding every type
    of dims (4,4) K=1 M=5 doubled its time.  A reduced block I - M is
    singular exactly when the one-period transfer of its type has
    eigenvalue 1, a resonance: the least singular value over all types must
    reach 1e-12 max(1, largest), or the error names the type.  The oracle
    stays independent of the series: it shares only the loop around the
    transfer (source assembly, lift, finishing), so agreement is evidence
    for both.
    """
    K = q_vecs.shape[1]
    rows, cols, rows_pad, cols_pad, (t, i, j, hr, hc) = op.type_index
    shapes = [(r.stop - r.start, len(c)) for r, c in op.types]
    # the key of a type's stack: (0, 0) for the padded one, else its shape
    groups = [(0, 0) if r * c <= ORACLE_PAD_SLOTS else (r, c) for r, c in shapes]
    systems, least, largest = [], np.empty(len(shapes)), 1.0
    for group in dict.fromkeys(groups):
        g = [n for n, other in enumerate(groups) if other == group]
        r, c = (max(shapes[n][a] for n in g) for a in (0, 1))
        R, C = (rows[g, :r], rows_pad[g, :r]), (cols[g, :c], cols_pad[g, :c])
        T = np.einsum("tkij,tkba->tkiajb", _gather_types(op.ainvs, R, R),
                      _gather_types(op.substs, C, C)).reshape(len(g), K, r * c, r * c)
        Q = _gather_types(q_vecs, R, C).transpose(1, 2, 3, 4, 0).reshape(len(g), K, r * c, -1)
        rhs, M = Q[:, -1], T[:, -1]
        for k in range(K - 2, -1, -1):
            rhs, M = Q[:, k] + T[:, k] @ rhs, T[:, k] @ M
        # at K = 1, M is T[:, 0], which the back-substitution never reads
        L = np.subtract(np.eye(r * c), M, out=M)
        sv = np.linalg.svd(L, compute_uv=False)
        least[g], largest = sv[:, -1], max(largest, float(sv[:, 0].max()))
        systems.append((g, r, c, T, Q, rhs, L))

    worst = int(np.argmin(least))
    bound = 1e-12 * largest
    if least[worst] < bound:
        rows_w, cols_w = op.types[worst]
        s = op.space.block_degrees(_mono_table(op.space.dim, op.n)[0][cols_w[0]])
        raise ValueError(
            f"the degree-{op.n} transfer system is numerically singular at type (i, s) = "
            f"({op.space.block_of_coord[rows_w.start]}, {s}): least singular value "
            f"{least[worst]:.3g} < bound {bound:.3g}; a resonant type appears to be "
            "classified as non-resonant (widen resonance_tol or shrink epsilon)"
        )

    G = np.zeros((len(q_vecs), len(shapes), K) + rows.shape[1:] + cols.shape[1:])
    for g, r, c, T, Q, rhs, L in systems:
        X = np.empty_like(Q)
        X[:, 0] = np.linalg.solve(L, rhs)
        for k in range(K - 1, 0, -1):
            X[:, k] = Q[:, k] + T[:, k] @ X[:, (k + 1) % K]
        G[:, g, :, :r, :c] = X.reshape(len(g), K, r, c, -1).transpose(4, 0, 1, 2, 3)
    out = np.zeros_like(q_vecs)
    out[..., hr, hc] = G.swapaxes(1, 2)[..., t, i, j]
    return out, [{} for _ in q_vecs]


def direct_normal_form(ctx: SolverContext, lift: PolyMap | None = None) -> NormalFormResult:
    """The dense oracle in place of the series, under the gauge of `lift` as
    in ``solve_normal_form``: one cycle of ``solve_cycles``."""
    return solve_cycles(ctx, [(direct_solve_oracle, lift)])[0]


def series_vs_direct(ctx: SolverContext, result: NormalFormResult,
                     direct: NormalFormResult | None = None) -> float:
    """Largest coefficient gap between the series and dense-solve pipelines
    (``direct_normal_form``, solved unless handed in); NaN propagates."""
    if result.period != ctx.cocycle.period or result.order != ctx.order:
        raise ValueError("result does not match the solver context")
    if direct is None:
        direct = direct_normal_form(ctx)
    return float(np.max(np.abs(np.stack([result.conjugator_jets - direct.conjugator_jets,
                                          result.normal_form_jets - direct.normal_form_jets]))))


@dataclass
class GaugeReport(_Report):
    """Transition G with H = G o H_alt, tested against the sub-resonance group;
    ``transition`` is the (K, m, w) jet stack of the G_k."""

    transition: np.ndarray = field(metadata=_JETS)
    npart_max: float
    beyond_degree_max: float
    alignment_max: float
    tol: float
    _bounded = ("npart_max", "beyond_degree_max")


def gauge_compare(result: NormalFormResult, result_alt: NormalFormResult,
                  tol: float = 1e-9) -> GaugeReport:
    """Uniqueness up to gauge: two solutions must differ inside the group.

    Computes G_k = H_k o H_alt_k^{-1} at every orbit point, one stacked
    division over the orbit.  If both are valid normal form conjugators,
    every G_k is a sub-resonance map: no non-admissible coefficients,
    nothing above the degree bound.  ``alignment_max`` is the round-trip
    error of recomposing G with H_alt, one stacked composition.
    """
    if result.period != result_alt.period or result.order != result_alt.order:
        raise ValueError("results differ in period or order")
    order, space = result.order, result.space
    h, h_alt = result.conjugator_jets, result_alt.conjugator_jets
    g = divide_jets(h, h_alt, space.dim, order)
    align = float(np.max(np.abs(compose_jets(g, h_alt, space.dim, order) - h)))
    return GaugeReport(g, *_npart_max(g, order, result.structure), align, tol)


def iterates(jets: np.ndarray, powers, order: int) -> list[np.ndarray]:
    """The p-fold iterates F_{k+p-1} o ... o F_k of a (K, m, w) stack of maps
    around the orbit, through `order`, one (K, m, jet_width(m, order)) stack
    per entry of `powers`.  Each power is the one below composed once more,
    F^{p+1}_k = F_{k+p} o F^p_k, one stacked composition per step."""
    if min(powers, default=1) < 1:
        raise ValueError("power must be at least 1")
    K, m = len(jets), jets.shape[-2]
    chain = [_fit(jets, jet_width(m, order))]
    while len(chain) < max(powers, default=0):
        chain.append(compose_jets(jets[(np.arange(K) + len(chain)) % K], chain[-1], m, order))
    return [chain[p - 1] for p in powers]


@dataclass
class CentralizerReport(_Report):
    """Conjugated commuting family, tested against the sub-resonance group;
    ``maps`` is the (K, m, w) jet stack of the C_k."""

    maps: np.ndarray = field(metadata=_JETS)
    shift: int
    commutation_residual: float
    npart_max: float
    beyond_degree_max: float
    tol: float
    _bounded = ("npart_max", "beyond_degree_max")


def centralizer_check(cocycle, result: NormalFormResult, families,
                      tol: float = 1e-9) -> list[CentralizerReport]:
    """Conjugate commuting families by H and test group membership.

    A family is a (shift, stack) pair: the (K, m, w) jet stack of maps G_k
    sending the fiber at point k to point k + shift, as ``iterates`` makes
    them.  Verifies the commutation G_{k+1} o F_k = F_{k+shift} o G_k of
    every family degreewise up to the solve order, raising on the first
    whose residual exceeds _COMMUTE_TOL = 1e-10 times its largest
    coefficient, then checks that every C_k = H_{k+shift} o G_k o H_k^{-1}
    has admissible coefficients only and nothing above the degree bound.  All
    families form one stack of K maps each: each side of the commutation
    and H_{k+shift} o G_k are one composition each, and the division by
    H_k is one ``divide_jets`` call, the table of the K conjugators shared
    by every family.  Returns one report per family.
    """
    K = cocycle.period
    if result.period != K or any(len(jets) != K for _, jets in families):
        raise ValueError("family, result and cocycle must share the period")
    if not families:
        return []
    order, m, n_fam = result.order, cocycle.dim, len(families)
    # entry K j + k of a stack is family j at orbit point k
    point = np.tile(np.arange(K), n_fam)
    family = np.repeat(K * np.arange(n_fam), K)
    shifted = (point + np.repeat([shift for shift, _ in families], K)) % K

    g = np.concatenate([_fit(jets, jet_width(m, order)) for _, jets in families])
    f = cocycle.jets
    comm = np.abs(compose_jets(g[family + (point + 1) % K], f[point], m, order)
                  - compose_jets(f[shifted], g, m, order)).reshape(n_fam, -1).max(axis=1)
    for (_, jets), residual in zip(families, comm):
        if not residual <= _COMMUTE_TOL * max(1.0, float(np.max(np.abs(jets[..., 1:])))):
            raise ValueError(f"the family does not commute with the cocycle up to "
                             f"degree {order}: residual {residual:.3e}")

    h = result.conjugator_jets
    conjugated = divide_jets(compose_jets(h[shifted], g, m, order).reshape(n_fam, K, m, -1),
                             h, m, order)
    return [CentralizerReport(c, shift, float(residual),
                              *_npart_max(c, order, result.structure), tol)
            for (shift, _), residual, c in zip(families, comm, conjugated)]


@dataclass
class FlagReport(_Report):
    """Largest below-flag derivative coefficient of the checked maps."""

    max_below_flag: float
    tol: float
    _bounded = ("max_below_flag",)


def flag_invariance(jets: np.ndarray, space, tol: float = 1e-12) -> FlagReport:
    """Check that the Jacobian of each map is block triangular everywhere.

    jets is a jet or a stack of jets over `space`.  Sub-resonance
    coefficients never depend on strictly slower variables, so each partial
    derivative of a faster component with respect to a slower variable must
    vanish identically: the derivative of c t^alpha in t_j has the one
    coefficient c alpha_j, and the report holds the largest |c| alpha_j with
    block[j] < block[i] over the components i.
    """
    jets, m = np.asarray(jets), space.dim
    if jets.ndim < 2 or jets.shape[-2] != m or not jets.size:
        raise ValueError(f"no jets over {m} coordinates to check")
    block = np.array(space.block_of_coord)
    below = block[None, :] < block[:, None]
    top = top_degree(jets, m)
    width = jet_width(m, top)
    worst = (np.abs(jets[..., 1:width, None]) * _monomials(m, top).exps[1:width]
             * below[:, None, :]).max(initial=0.0)
    return FlagReport(float(worst), tol)


@dataclass
class ChartReport(_Report):
    """Transition between normal form charts at a periodic and a nearby point;
    ``transition`` is the jet of G."""

    transition: np.ndarray = field(metadata=_JETS)
    offset: tuple[float, ...]
    window: int
    npart_max: float
    deviation_max: float
    eval_radius: float
    tol: float
    _bounded = ("npart_max", "deviation_max")


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
                      tol: float = 1e-7) -> list[ChartReport]:
    """Normal form charts at nearby points versus the periodic chart.

    offsets has shape (P, m).  Recenter the cocycle along the forward orbit
    of every offset point, run the window solver on all P windows at once
    with zero terminal data, and form each transition

        G = H_window(0) o (H_base^{-1} - offset),

    as the quotient of H_window(0) o (t - offset) by H_base.

    G carries one chart of normal form coordinates to the other, so apart
    from its constant it must be a sub-resonance map.  One projection splits
    off its non-admissible part N.  ``npart_max`` is the largest coefficient
    of N up to the degree bound.  ``deviation_max`` is the majorant

        max_i sum_alpha |N_{i,alpha}| r^{|alpha|},  r = max(|offset|, 1e-2),

    an upper bound of |G - proj G| on the whole cube |t_j| <= r, which
    contains the sphere of radius r (``eval_radius``).  Composing order-M
    truncations around a shifted center contaminates the top coefficients
    of G at size |h_{M+1}| * |offset| regardless of how far the solves
    converged; the weight r^{|alpha|} keeps them at the size of the function
    values of the mismatch, |h_{M+1}| * (2 |offset|)^{M+1}.  Requires the
    recentered linear parts to be flag preserving, which holds whenever the
    cocycle maps themselves have admissible coefficients only.

    The maps are recentred in blocks of steps 0-32, 32-64, 64-128, ..., the
    orbits evaluated as far as the blocks reach, up to the first block whose
    last period of K maps equals the base maps ``cocycle.jets`` bit for bit
    in every window (one equal map proves nothing: 0.4 t is its own
    recentring); the base maps fill the rest of the window.  No magnitude
    decides, and the reports equal those of recentring every step as long as
    the maps after the stop stay equal, which the tests check against a
    full-window reference: rounding is not monotone along a rotating orbit.
    A zero slot of the base maps that picked up a c-term stays nonzero until
    c underflows, so the stop cannot come and the rest is recentred at once.
    """
    cocycle = ctx.cocycle
    space, m, K = cocycle.space, cocycle.dim, cocycle.period
    order = result.order
    ys = np.asarray(offsets, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != m:
        raise ValueError(f"offsets must have shape (P, {m}), got {ys.shape}")
    P = len(ys)
    if not P:
        return []
    if window is None:
        window = default_chart_window(ctx)
    if window < 1:
        raise ValueError(f"window must be at least 1 step, got {window}")

    # the shifts t -> c_j + t along the orbits c_j of the offset points, one
    # evaluation per step for all, and the maps recentred on them, one
    # composition per block of steps, up to the stop
    plans = [(pm._eval_plan, pm.constant) for pm in cocycle.fiber_maps]
    steps = (base + np.arange(window)) % K
    maps = cocycle.jets[steps]
    shifts = np.repeat(_linear_jets(np.eye(m))[None], window * P, axis=0).reshape(
        window, P, m, m + 1)
    shifts[0, ..., 0] = ys
    jets = np.empty((window, P) + maps.shape[1:])
    start, end = 0, min(32, window)
    while start < window:
        for j in range(max(start, 1), end):
            shifts[j, ..., 0] = _evaluate(*plans[steps[j - 1]], shifts[j - 1, ..., 0])
        jets[start:end] = compose_jets(np.repeat(maps[start:end], P, axis=0),
                                       shifts[start:end].reshape(-1, m, m + 1), m,
                                       cocycle.degree).reshape(end - start, P, m, -1)
        jets[start:end, ..., 0] = 0.0
        if end >= K and (jets[end - K:end].view(np.uint64)
                         == maps[end - K:end, None].view(np.uint64)).all():
            jets[end:] = maps[end:, None]
            break
        grown = ((maps[start:end, None] == 0.0) & (jets[start:end] != 0.0)).any()
        start, end = end, window if grown else min(2 * end, window)

    h_win, _, _ = solve_window(jets, space, ctx.structure, order)
    to_local = np.repeat(_linear_jets(np.eye(m))[None], P, axis=0)
    to_local[:, :, 0] = -ys
    g_jets = divide_jets(compose_jets(h_win[0], to_local, m, order),
                         result.conjugator_jets[base % K], m, order)

    width = jet_width(m, ctx.structure.degree_bound)
    degrees = np.repeat(np.arange(order + 1), [math.comb(m + d - 1, d) for d in range(order + 1)])
    keep = ctx.structure.keep(order)
    reports = []
    for y, g_jet in zip(ys, g_jets):
        n_part = np.abs(g_jet - np.where(keep, g_jet, 0.0))
        radius = max(float(np.linalg.norm(y)), 1e-2)
        reports.append(ChartReport(g_jet, tuple(float(v) for v in y), window,
                                   float(np.max(n_part[:, :width])),
                                   float(np.max(n_part @ radius ** degrees)), radius, tol))
    return reports
