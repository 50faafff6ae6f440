"""Builtin and seeded random scenarios for the CLI and the oracle suite.

A scenario bundles a cocycle with the full run configuration (tolerances,
truncation order, enabled checks).  Random scenarios draw block-orthogonal
linear parts e^{chi_i + delta_k} Q_k with the per-period wobble delta summing
to zero, so the monodromy eigenvalue moduli are exactly e^{K chi_i} and the
computed spectrum matches the design spectrum to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import OrbitCocycle
from .grading import Spectrum, SubResStructure
from .polymap import GradedSpace, PolyMap, degree_cols

BUILTIN_DESCRIPTIONS = {
    "koenigs": "scalar contraction 0.5 t + 0.1 t^2, order-6 linearization",
    "koenigs_period2": "period-2 scalar orbit alternating 0.5 t + 0.1 t^2 and 0.4 t",
    "resonant2": "resonant two-block quadratic already in normal form",
    "nonresonant2": "two-block map with one removable quadratic term",
    "random_subres": "seeded random cocycle with admissible terms only",
    "random_full": "seeded random polynomial cocycle, full quadratic part",
}


def builtin_names() -> list[str]:
    return list(BUILTIN_DESCRIPTIONS)


@dataclass(eq=False)
class Scenario:
    name: str
    cocycle: OrbitCocycle
    config: dict


def default_checks(chart_points=()) -> dict:
    return {
        "residual": {"enabled": True},
        "oracle": {"enabled": True, "tol": 1e-10},
        "sandwich": {"enabled": True, "tol": 1e-6},
        "gauge": {"enabled": True, "tol": 1e-9, "delta": 0.05},
        "centralizer": {"enabled": True, "tol": 1e-9, "powers": [2, 3]},
        "flag": {"enabled": True, "tol": 1e-12},
        "chart": {"enabled": bool(chart_points),
                  "points": [list(map(float, p)) for p in chart_points],
                  "tol": 1e-7},
    }


def _base_config(name: str, epsilon: float, order: int, *,
                 series_tol: float = 1e-13, seed: int = 0,
                 chart_points=()) -> dict:
    return {
        "scenario": name,
        "epsilon": epsilon,
        "order": order,
        "resonance_tol": 1e-9,
        "cluster_tol": 1e-6,
        "tail_tol": 1e-12,
        "series_tol": series_tol,
        "rng_seed": seed,
        "checks": default_checks(chart_points),
    }


def _scalar_cocycle(coeff_lists) -> OrbitCocycle:
    space = GradedSpace((1,))
    maps = []
    for by_degree in coeff_lists:
        coeffs = {(0, (n,)): c for n, c in by_degree.items() if c != 0.0}
        maps.append(PolyMap(space, space, max(by_degree), np.zeros(1), coeffs))
    return OrbitCocycle(space, tuple(maps))


def _two_block_cocycle(coeffs, degree) -> OrbitCocycle:
    space = GradedSpace((1, 1))
    return OrbitCocycle(space, (PolyMap(space, space, degree,
                                        np.zeros(2), coeffs),))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 1:
        return np.ones((1, 1))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_cocycle(rng: np.random.Generator, exponents, dims, period: int, *,
                   amp: float = 0.05, degree: int = 2,
                   structure: SubResStructure | None = None,
                   wobble: float = 0.05) -> OrbitCocycle:
    """Random periodic cocycle with exactly the requested Lyapunov spectrum.

    Linear parts are block diagonal, each block a random orthogonal matrix
    scaled by e^{chi_i + delta_k}; the wobbles delta_k sum to zero over the
    period so the monodromy moduli stay exact.  Nonlinear coefficients of
    degrees 2..degree are uniform draws of size amp, restricted to the
    admissible slots of `structure` when one is given.
    """
    space = GradedSpace(tuple(dims))
    dim = space.dim

    deltas = rng.uniform(-wobble, wobble, size=(period, len(dims)))
    deltas -= deltas.mean(axis=0, keepdims=True)

    maps = []
    for k in range(period):
        A = np.zeros((dim, dim))
        for i, chi in enumerate(exponents):
            sl = space.block_slice(i + 1)
            A[sl, sl] = math.exp(chi + deltas[k, i]) * random_orthogonal(
                rng, dims[i])
        jet = PolyMap.from_linear(A, space, space, degree).jet.copy()
        for n in range(2, degree + 1):
            cols = degree_cols(dim, n)
            keep = (np.ones((dim, cols.stop - cols.start), dtype=bool) if structure is None
                    else structure.mask(n))
            # one draw per kept slot, monomial-major, which fixes every scenario
            drawn = np.zeros(keep.T.shape)
            drawn[keep.T] = amp * rng.uniform(-1.0, 1.0, size=int(keep.sum()))
            jet[:, cols] = drawn.T
        maps.append(PolyMap.from_jet(space, space, degree, jet))
    return OrbitCocycle(space, tuple(maps))


def build_builtin(name: str, seed: int = 0) -> Scenario:
    if name == "koenigs":
        cocycle = _scalar_cocycle([{1: 0.5, 2: 0.1}])
        config = _base_config(name, 0.05, 6, seed=seed,
                              chart_points=([0.05], [-0.05], [0.02], [-0.02]))
    elif name == "koenigs_period2":
        cocycle = _scalar_cocycle([{1: 0.5, 2: 0.1}, {1: 0.4}])
        config = _base_config(name, 0.05, 5, seed=seed,
                              chart_points=([0.03], [-0.03]))
    elif name == "resonant2":
        cocycle = _two_block_cocycle({
            (0, (1, 0)): math.exp(-2.0),
            (0, (0, 2)): 0.3,
            (1, (0, 1)): math.exp(-1.0),
        }, 2)
        config = _base_config(name, 0.05, 4, seed=seed,
                              chart_points=([0.05, 0.05],))
    elif name == "nonresonant2":
        cocycle = _two_block_cocycle({
            (0, (1, 0)): math.exp(-1.0),
            (1, (0, 1)): math.exp(-0.4),
            (1, (2, 0)): 0.2,
        }, 2)
        # recentering puts the removable term's derivative below the flag,
        # so the window-based chart check does not apply
        config = _base_config(name, 0.02, 3, seed=seed)
    elif name == "random_subres":
        exponents, dims = (-2.0, -1.0), (2, 1)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        cocycle = random_cocycle(rng, exponents, dims, 2, amp=0.1,
                                 structure=Spectrum(exponents, dims, epsilon=0.05).structure)
        config = _base_config(name, 0.05, 4, seed=seed)
    elif name == "random_full":
        exponents, dims = (-2.0, -0.9), (1, 2)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        cocycle = random_cocycle(rng, exponents, dims, 3, amp=0.08)
        config = _base_config(name, 0.05, 4, seed=seed)
    else:
        raise ValueError(f"unknown builtin scenario {name!r}; "
                         f"choices: {', '.join(builtin_names())}")
    return Scenario(name, cocycle, config)


# menu of (exponents, dims, epsilon) with comfortable spectral margins;
# degree bounds d = floor(chi_1 / chi_last) stay <= 3 so order <= 4 works
_RANDOM_MENU = (
    ((-1.8, -0.75), (1, 1), 0.04),
    ((-2.0, -1.1), (2, 1), 0.025),
    ((-1.2, -0.8, -0.4), (1, 1, 1), 0.02),
    ((-1.0,), (2,), 0.05),
    ((-2.0, -0.8), (2, 2), 0.04),
    ((-1.4, -0.55), (1, 2), 0.03),
)


def random_scenario(index: int) -> Scenario:
    """Deterministic random scenario family for the oracle cross-check suite."""
    exponents, dims, epsilon = _RANDOM_MENU[index % len(_RANDOM_MENU)]
    period = 1 + index % 4
    d = math.floor(exponents[0] / exponents[-1] + 1e-9)
    order = max(d, 2 + index % 3)
    rng = np.random.default_rng(np.random.SeedSequence(1000 + index))
    cocycle = random_cocycle(rng, exponents, dims, period, amp=0.05)
    config = _base_config(f"random_{index}", epsilon, order, seed=1000 + index)
    return Scenario(f"random_{index}", cocycle, config)
