"""Reference checks, one orbit point at a time.

These are the loop bodies of ``orbitnf.verify`` as the package ran them
before every check step became one stacked kernel call over the orbit: one
``compose_truncated`` or ``divide_jets`` call per orbit point, and one
``np.kron`` block per point in the oracles.  They return the package's own
report types, so the tests can require the batched checks to equal them
bit for bit.  The oracle has two references: its block-cyclic elimination
one type at a time, and the dense cyclic system it eliminates, an
independent cross-check.
"""

import math

import numpy as np

from orbitnf.polymap import (PolyMap, _fit, compose_truncated, degree_cols, divide_jets,
                             jet_width)
from orbitnf.verify import CentralizerReport, GaugeReport, ResidualReport, _compose_majorants


def coeff_diff(a, b) -> float:
    """Largest coefficient mismatch of two maps, jets or stacks of jets,
    constants included, the narrower padded with zeros; NaN propagates."""
    a, b = (np.asarray(getattr(x, "jet", x)) for x in (a, b))
    width = max(a.shape[-1], b.shape[-1])
    return float(np.max(np.abs(_fit(a, width) - _fit(b, width))))


def divide(outer, inner, order: int) -> PolyMap:
    """outer o inner^-1 through `order`, ``divide_jets`` of one pair of maps."""
    jet = divide_jets(outer.jet, inner.jet, inner.source.dim, order)
    return PolyMap.from_jet(inner.source, outer.target, order, jet)


def subresonance_split(pmap, structure) -> tuple[PolyMap, PolyMap]:
    """(sub-resonance part, non-resonance part) of a map, slot by slot: the
    first keeps the constant and the slots of ``structure.keep``."""
    s_jet = np.where(structure.keep(pmap.degree), pmap.jet, 0.0)
    return (PolyMap.from_jet(pmap.source, pmap.target, pmap.degree, s_jet),
            PolyMap.from_jet(pmap.source, pmap.target, pmap.degree, pmap.jet - s_jet))


def npart_split(pmap, structure) -> tuple[float, float]:
    """(non-admissible max up to the degree bound, anything above it)."""
    width = jet_width(pmap.source.dim, structure.degree_bound)
    _, n_part = subresonance_split(pmap, structure)
    return (float(np.max(np.abs(n_part.jet[:, :width]))),
            float(np.max(np.abs(pmap.jet[:, width:]), initial=0.0)))


def gauge_lift(ctx, delta: float) -> PolyMap:
    """The gauge check's lift, delta t_j^2 into coordinate 0 with t_j the
    first coordinate of the slowest block, on a context where it is admissible."""
    space = ctx.cocycle.space
    assert (1, (0,) * (space.n_blocks - 1) + (2,)) in ctx.structure.admissible(2)
    alpha = [0] * space.dim
    alpha[space.block_slice(space.n_blocks).start] = 2
    return PolyMap(space, space, 2, np.zeros(space.dim), {(0, tuple(alpha)): delta})


def majorant(pm, top: int) -> np.ndarray:
    """Per degree 0..top, the largest l1 norm of a component's coefficients."""
    return np.array([np.abs(pm.part(n)).sum(axis=1).max() for n in range(top + 1)])


def residual_reference(cocycle, result, series_tol: float = 1e-13) -> ResidualReport:
    """``verify.conjugacy_residual`` with two compositions per orbit point."""
    K, m, M = cocycle.period, cocycle.dim, result.order
    n = np.arange(M + 1)
    monos = np.array([math.comb(m + d - 1, d) for d in n])
    chains = (n + 1) * np.array([jet_width(m, d) for d in n]) * np.finfo(float).eps
    h_norm = np.max([[np.linalg.norm(h.part(d)) for d in n] for h in result.conjugator], axis=0)
    residuals, bounds = np.zeros(M + 2), np.zeros(M + 1)
    for k in range(K):
        h_next, f = result.conjugator[(k + 1) % K], cocycle.map_at(k)
        p, h = result.normal_form[k], result.conjugator[k]
        defect = compose_truncated(h_next, f, M + 1).jet - compose_truncated(p, h, M + 1).jet
        residuals = np.maximum(residuals, [np.abs(defect[:, degree_cols(m, d)]).max()
                                           for d in range(M + 2)])
        a = majorant(f, 1)[1]
        sides = (_compose_majorants(majorant(h_next, M), majorant(f, M))
                 + _compose_majorants(majorant(p, M), majorant(h, M)))
        bounds = np.maximum(bounds, series_tol * np.sqrt(monos) * (a + a ** n)
                            * np.maximum(1.0, h_norm) + chains * sides)
    return ResidualReport(M, float(series_tol), tuple(map(float, residuals[:-1])),
                          tuple(map(float, bounds)), float(residuals[-1]))


def _singular_test(op, svs) -> None:
    """The oracle's rule on the singular values of every type's system."""
    sv_min = min((float(sv[-1]) for sv in svs), default=1.0)
    sv_max = max((float(sv[0]) for sv in svs), default=1.0)
    if sv_min < 1e-12 * max(1.0, sv_max):
        raise ValueError(f"the degree-{op.n} transfer system is numerically singular")


def cyclic_oracle_reference(op, q_vecs: np.ndarray) -> tuple[np.ndarray, dict]:
    """``verify.direct_solve_oracle`` one type at a time: one kron block per
    orbit point, the fold to phase 0 and the back-substitution one point at
    a time, and one SVD and solve per type."""
    K, q_vecs = len(q_vecs), np.asarray(q_vecs)
    systems = []
    for rows, cols in op.types:
        T = [np.kron(op.ainvs[k][rows, rows], op.substs[k][np.ix_(cols, cols)].T)
             for k in range(K)]
        Q = [q[rows, cols].ravel() for q in q_vecs]
        rhs, M = Q[-1], T[-1]
        for k in reversed(range(K - 1)):
            rhs, M = Q[k] + T[k] @ rhs, T[k] @ M
        L = np.eye(len(rhs)) - M
        systems.append((rows, cols, T, Q, rhs, L, np.linalg.svd(L, compute_uv=False)))
    _singular_test(op, [sv for *_, sv in systems])

    out = np.zeros_like(q_vecs)
    for rows, cols, T, Q, rhs, L, _ in systems:
        X = [np.linalg.solve(L, rhs)] + [None] * (K - 1)
        for k in reversed(range(1, K)):
            X[k] = Q[k] + T[k] @ X[(k + 1) % K]
        out[:, rows, cols] = np.reshape(X, (K, rows.stop - rows.start, -1))
    return out, {}


def oracle_reference(op, q_vecs: np.ndarray) -> tuple[np.ndarray, dict]:
    """The dense K-cyclic system of every type that ``verify.direct_solve_oracle``
    eliminates, with one kron block per orbit point and one SVD and solve per
    type."""
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
    _singular_test(op, [sv for *_, sv in systems])

    out = np.zeros_like(q_vecs)
    for rows, cols, L, rhs, _ in systems:
        out[:, rows, cols] = np.linalg.solve(L, rhs).reshape(K, rows.stop - rows.start, -1)
    return out, {}


def gauge_reference(result, result_alt, tol: float = 1e-9) -> GaugeReport:
    """``verify.gauge_compare`` with one division and one composition per orbit point."""
    order = result.order
    transition = []
    npart = beyond = align = 0.0
    for k in range(result.period):
        g = divide(result.conjugator[k], result_alt.conjugator[k], order)
        back = compose_truncated(g, result_alt.conjugator[k], order)
        align = max(align, coeff_diff(back, result.conjugator[k]))
        low, high = npart_split(g, result.structure)
        npart = max(npart, low)
        beyond = max(beyond, high)
        transition.append(g.jet)
    return GaugeReport(np.stack(transition), npart, beyond, align, tol)


def iterate_reference(maps, power: int, order: int) -> list[PolyMap]:
    """The power-fold iterates of maps around the orbit, ``verify.iterates``
    with one composition per orbit point."""
    K = len(maps)
    family = [pm.truncated(order) for pm in maps]
    for shift in range(1, power):
        family = [compose_truncated(maps[(k + shift) % K], g, order)
                  for k, g in enumerate(family)]
    return family


def centralizer_reference(cocycle, result, shift: int, family,
                          tol: float = 1e-9) -> CentralizerReport:
    """``verify.centralizer_check`` of one family of maps with per-point
    commutation and conjugations, each a composition and a division."""
    K = cocycle.period
    order = result.order
    comm = 0.0
    for k in range(K):
        lhs = compose_truncated(family[(k + 1) % K], cocycle.map_at(k), order)
        rhs = compose_truncated(cocycle.map_at((k + shift) % K), family[k], order)
        comm = max(comm, coeff_diff(lhs, rhs))
    conjugated = []
    npart = beyond = 0.0
    for k in range(K):
        outer = compose_truncated(result.conjugator[(k + shift) % K], family[k], order)
        c = divide(outer, result.conjugator[k], order)
        low, high = npart_split(c, result.structure)
        npart = max(npart, low)
        beyond = max(beyond, high)
        conjugated.append(c.jet)
    return CentralizerReport(np.stack(conjugated), shift, comm, npart, beyond, tol)
