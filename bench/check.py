"""Independent output check for a solved normal form.

The check uses only polynomial evaluation (``PolyMap.evaluate_batch``) and
the exponents of the spectrum; it never calls ``compose_truncated``, which is
the kernel under test and, on the larger ladder rows, costs twice the solve.

For every orbit point k it asserts

* ``P_k`` has no coefficient of a non-admissible type,
* ``H_k`` has identity linear part and nothing in admissible slots of degree
  two or more (the lift policy is zero),
* ``H_{k+1} o F_k = P_k o H_k`` through degree M: along random lines
  ``t -> t u`` the residual is a univariate polynomial of known degree, so it
  is interpolated exactly at Chebyshev nodes and its Taylor coefficients of
  degree <= M are read off.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev

# At seed 1 correct solutions give at most ~3e-13 on every workload item;
# dropping the top degree of H gives ~1e-3.
CONJUGACY_TOL = 1e-8
# admissible slots of H and non-admissible slots of P are set by exact
# projections, so only rounding-level noise is tolerated
SLOT_TOL = 1e-14
LINES = 6


def _admissible(exponents, tol, i, s) -> bool:
    return exponents[i - 1] <= sum(sj * cj for sj, cj in zip(s, exponents)) + tol


def slot_violations(conjugator, normal_form, exponents, resonance_tol):
    """(largest non-admissible P coefficient, largest admissible H coefficient
    of degree >= 2, largest deviation of H's linear part from the identity),
    each relative to the largest coefficient of the map it comes from."""
    space = conjugator[0].source

    def admissible(i, alpha):
        return _admissible(exponents, resonance_tol, space.block_of_coord[i],
                           space.block_degrees(alpha))

    p_bad = h_adm = h_lin = 0.0
    for p in normal_form:
        scale = max(1.0, max((abs(c) for c in p.coeffs.values()), default=0.0))
        for (i, alpha), c in p.coeffs.items():
            if not admissible(i, alpha):
                p_bad = max(p_bad, abs(c) / scale)
    for h in conjugator:
        scale = max(1.0, max((abs(c) for c in h.coeffs.values()), default=0.0))
        h_lin = max(h_lin, float(np.max(np.abs(h.linear_matrix()
                                               - np.eye(space.dim)))))
        for (i, alpha), c in h.coeffs.items():
            if sum(alpha) >= 2 and admissible(i, alpha):
                h_adm = max(h_adm, abs(c) / scale)
    return p_bad, h_adm, h_lin


def _cheb_to_power(n: int) -> np.ndarray:
    """Matrix taking Chebyshev coefficients of degree < n to power ones."""
    out = np.zeros((n, n))
    for k in range(n):
        power = chebyshev.cheb2poly(np.eye(n)[k])
        out[: power.size, k] = power
    return out


def conjugacy_defect(cocycle, conjugator, normal_form, order: int) -> float:
    """Largest Taylor coefficient of degree <= order of the conjugacy residual
    H_{k+1}(F_k(t u)) - P_k(H_k(t u)) over random unit directions u."""
    K = cocycle.period
    dim = cocycle.dim
    u = np.random.default_rng(0).standard_normal((LINES, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    worst = 0.0
    for k in range(K):
        f = cocycle.map_at(k)
        h_next, h, p = conjugator[(k + 1) % K], conjugator[k], normal_form[k]
        degree = max(h_next.max_degree_present() * f.max_degree_present(),
                     p.max_degree_present() * h.max_degree_present(), order)
        n = degree + 1
        nodes = np.cos(math.pi * (np.arange(n) + 0.5) / n)
        pts = (nodes[None, :, None] * u[:, None, :]).reshape(-1, dim)
        g = (h_next.evaluate_batch(f.evaluate_batch(pts))
             - p.evaluate_batch(h.evaluate_batch(pts)))
        values = g.reshape(LINES, n, dim).transpose(1, 0, 2).reshape(n, -1)
        cheb = np.linalg.solve(chebyshev.chebvander(nodes, degree), values)
        taylor = _cheb_to_power(n) @ cheb
        worst = max(worst, float(np.max(np.abs(taylor[: order + 1]))))
    return worst


def check_solution(cocycle, conjugator, normal_form, order: int, exponents,
                   resonance_tol: float) -> tuple[bool, str]:
    """Run every check; returns (passed, one-line detail)."""
    p_bad, h_adm, h_lin = slot_violations(conjugator, normal_form, exponents,
                                          resonance_tol)
    defect = conjugacy_defect(cocycle, conjugator, normal_form, order)
    failures = []
    if p_bad > SLOT_TOL:
        failures.append(f"P non-admissible coefficient {p_bad:.3g} > {SLOT_TOL:g}")
    if h_adm > SLOT_TOL:
        failures.append(f"H admissible coefficient {h_adm:.3g} > {SLOT_TOL:g}")
    if h_lin > SLOT_TOL:
        failures.append(f"H linear part off identity by {h_lin:.3g} > {SLOT_TOL:g}")
    if not defect <= CONJUGACY_TOL:
        failures.append(f"conjugacy defect {defect:.3g} > {CONJUGACY_TOL:g}")
    if failures:
        return False, "; ".join(failures)
    return True, f"conjugacy defect {defect:.3g}"
