"""Reference chart check over the full window.

This is ``orbitnf.verify.chart_transitions`` as the package ran it before
the recentring stopped at the transient: the offset orbits are evaluated at
every step of the window, and every map of every window is recentred, in one
composition over all W * P rows.  Each window is solved alone, as its own
chain, so no step is shared between windows.  It returns the package's own
report type, so the tests can require the chart check to equal it bit for
bit.
"""

import math

import numpy as np

from orbitnf.normalform import solve_window
from orbitnf.polymap import _linear_jets, compose_jets, divide_jets, jet_width
from orbitnf.verify import ChartReport, default_chart_window


def recentred_windows(cocycle, ys: np.ndarray, base: int, window: int) -> np.ndarray:
    """(W, P, m, w) stack of the maps t -> f_j(c_j + t) - c_{j+1} along the
    orbits c_j of the points ys, constants zeroed."""
    m, K = cocycle.dim, cocycle.period
    P = len(ys)
    steps = (base + np.arange(window)) % K
    centers = np.empty((window, P, m))
    centers[0] = ys
    for j in range(1, window):
        centers[j] = cocycle.fiber_maps[steps[j - 1]].evaluate_batch(centers[j - 1])
    shifts = np.repeat(_linear_jets(np.eye(m))[None], window * P, axis=0)
    shifts[:, :, 0] = centers.reshape(-1, m)
    outer = np.repeat(cocycle.jets[steps], P, axis=0)
    jets = compose_jets(outer, shifts, m, cocycle.degree).reshape(window, P, m, -1)
    jets[..., 0] = 0.0
    return jets


def chart_reference(ctx, result, offsets, *, base: int = 0, window: int | None = None,
                    tol: float = 1e-7) -> list[ChartReport]:
    """The chart reports of the offsets, every step of the window recentred."""
    cocycle = ctx.cocycle
    m, K, order = cocycle.dim, cocycle.period, result.order
    ys = np.asarray(offsets, dtype=float).reshape(-1, m)
    if window is None:
        window = default_chart_window(ctx)
    jets = recentred_windows(cocycle, ys, base, window)

    h_start = np.concatenate([
        solve_window(jets[:, [p]], cocycle.space, ctx.structure, order)[0][0]
        for p in range(len(ys))])
    to_local = np.repeat(_linear_jets(np.eye(m))[None], len(ys), axis=0)
    to_local[:, :, 0] = -ys
    g_jets = divide_jets(compose_jets(h_start, to_local, m, order),
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
