"""Lyapunov spectra and the combinatorics of sub-resonance types.

A spectrum is a finite list of negative exponents chi_1 < ... < chi_ell with
multiplicities.  A homogeneous polynomial term that sends block-j coordinates
into block i with per-block degrees s = (s_1, ..., s_ell) has *type* (i, s);
the type is admissible (a sub-resonance) when

    chi_i <= s_1 chi_1 + ... + s_ell chi_ell   (up to resonance_tol).

Admissible types are the ones a normal form is allowed to keep; everything
else can be removed degree by degree.  This module owns the enumeration of
admissible types, the degree bound d = floor(chi_1 / chi_ell), the spectral
gap lambda = max over non-admissible types of (-chi_i + sum_j s_j chi_j) < 0,
and the per-degree contraction factor exp(lambda + (n+1) eps) that drives the
series solver.
"""

import math
from dataclasses import dataclass
from functools import cached_property

# (target block, per-block source degrees), blocks 1-based to match the
# ordering of the exponents.
Type = tuple[int, tuple[int, ...]]


class ContractionBudgetError(ValueError):
    """epsilon is too large for the spectral gap: exp(lambda + (n+1) eps) >= 1."""


def _compositions(total: int, parts: int):
    """Yield all tuples of `parts` nonnegative ints summing to `total`, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _weight(chi: tuple[float, ...], s: tuple[int, ...]) -> float:
    return sum(sj * cj for sj, cj in zip(s, chi))


def _degree_bound(chi: tuple[float, ...], tol: float) -> int:
    # chi_i <= |s| chi_ell + tol for any admissible type, so |s| is capped by
    # chi_1/chi_ell + tol/|chi_ell|; using the same tol keeps the bound
    # consistent with admissibility at exact integer ratios.
    return int(math.floor(chi[0] / chi[-1] + tol / abs(chi[-1])))


def _spectral_gap(chi: tuple[float, ...], tol: float) -> float:
    ell = len(chi)
    best = None
    n = 1
    while True:
        for s in _compositions(n, ell):
            w = _weight(chi, s)
            for i in range(1, ell + 1):
                if not (chi[i - 1] <= w + tol):
                    v = -chi[i - 1] + w
                    if best is None or v > best:
                        best = v
        # every type of degree m has value <= -chi_1 + m*chi_ell, decreasing in m
        if best is not None and -chi[0] + (n + 1) * chi[-1] < best:
            return best
        n += 1
        if n > 10_000:  # unreachable for valid spectra; guards infinite loops
            raise RuntimeError("spectral gap enumeration failed to terminate")


@dataclass(frozen=True)
class Spectrum:
    """Negative Lyapunov exponents with multiplicities and the norm parameter eps.

    Parameters
    ----------
    exponents : tuple of float
        Strictly increasing, all negative: chi_1 < ... < chi_ell < 0.
    multiplicities : tuple of int
        Block dimensions, one per exponent, each >= 1.
    epsilon : float
        Slack parameter of the eps-Lyapunov norms.  Must satisfy
        lambda + (d+1) eps < 0 so every degree up to d+1 contracts.
    resonance_tol : float
        Admissibility of a type is decided up to this tolerance.  Must be
        smaller than the least nonzero gap between the resonance expressions
        chi_i - sum_j s_j chi_j over degrees <= d+1.
    """

    exponents: tuple[float, ...]
    multiplicities: tuple[int, ...]
    epsilon: float
    resonance_tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(c) for c in self.exponents))
        object.__setattr__(self, "multiplicities", tuple(int(m) for m in self.multiplicities))
        chi = self.exponents
        if not chi:
            raise ValueError("spectrum needs at least one exponent")
        if len(chi) != len(self.multiplicities):
            raise ValueError("exponents and multiplicities must have equal length")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if any(b <= a for a, b in zip(chi, chi[1:])):
            raise ValueError("exponents must be strictly increasing")
        if chi[-1] >= 0.0:
            raise ValueError("all exponents must be negative (contracting)")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        if self.resonance_tol < 0.0:
            raise ValueError("resonance_tol must be nonnegative")
        self._check_resonance_tol()
        lam = self.spectral_gap
        if lam + (self.degree_bound + 1) * self.epsilon >= 0.0:
            raise ContractionBudgetError(
                "epsilon=%g exceeds the contraction budget: lambda=%g, d=%d, "
                "lambda + (d+1) eps = %g >= 0"
                % (self.epsilon, lam, self.degree_bound,
                   lam + (self.degree_bound + 1) * self.epsilon)
            )

    def _check_resonance_tol(self):
        chi = self.exponents
        d = _degree_bound(chi, self.resonance_tol)
        values = []
        for n in range(1, d + 2):
            for s in _compositions(n, len(chi)):
                w = _weight(chi, s)
                for c in chi:
                    values.append(c - w)
        values.sort()
        scale = max(1.0, max(abs(v) for v in values))
        float_noise = 64 * 2.2e-16 * scale
        min_gap = None
        for a, b in zip(values, values[1:]):
            gap = b - a
            if gap <= float_noise:
                continue  # same resonance value up to float noise
            if min_gap is None or gap < min_gap:
                min_gap = gap
        if min_gap is not None and self.resonance_tol >= min_gap:
            raise ValueError(
                "resonance_tol=%g does not separate distinct resonance values "
                "(least gap %g over degrees <= d+1)" % (self.resonance_tol, min_gap)
            )

    @cached_property
    def degree_bound(self) -> int:
        return _degree_bound(self.exponents, self.resonance_tol)

    @cached_property
    def spectral_gap(self) -> float:
        return _spectral_gap(self.exponents, self.resonance_tol)

    @property
    def dim(self) -> int:
        return sum(self.multiplicities)

    @property
    def n_blocks(self) -> int:
        return len(self.exponents)

    def to_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "multiplicities": list(self.multiplicities),
            "epsilon": self.epsilon,
            "resonance_tol": self.resonance_tol,
            "degree_bound": self.degree_bound,
            "spectral_gap": self.spectral_gap,
        }


def enumerate_types(spectrum: Spectrum, n: int) -> frozenset[Type]:
    """All admissible types (i, s) of homogeneous degree |s| = n.

    Empty for every n > spectrum.degree_bound.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    chi = spectrum.exponents
    tol = spectrum.resonance_tol
    out = set()
    for s in _compositions(n, len(chi)):
        w = _weight(chi, s)
        for i in range(1, len(chi) + 1):
            if chi[i - 1] <= w + tol:
                out.add((i, s))
    return frozenset(out)


def contraction_factor(spectrum: Spectrum, n: int) -> float:
    """Per-step contraction rate exp(lambda + (n+1) eps) of the degree-n transfer.

    Raises ContractionBudgetError when the factor is >= 1 (epsilon too large
    for this degree); values < 1 are guaranteed by the Spectrum invariant only
    for n <= degree_bound + 1.
    """
    if n < 2:
        raise ValueError("contraction factor is defined for degrees n >= 2")
    value = math.exp(spectrum.spectral_gap + (n + 1) * spectrum.epsilon)
    if value >= 1.0:
        raise ContractionBudgetError(
            "degree %d does not contract: exp(lambda + (n+1) eps) = %g >= 1"
            % (n, value)
        )
    return value


@dataclass(frozen=True)
class SubResStructure:
    """Admissible types of every degree 1..degree_bound for a fixed spectrum."""

    degree_bound: int
    n_blocks: int
    types_by_degree: dict[int, frozenset[Type]]
    spectral_gap: float

    @classmethod
    def from_spectrum(cls, spectrum: Spectrum) -> "SubResStructure":
        d = spectrum.degree_bound
        by_degree = {n: enumerate_types(spectrum, n) for n in range(1, d + 1)}
        for n, types in by_degree.items():
            for i, s in types:
                # admissible implies the target block sees no faster block
                assert all(s[j] == 0 for j in range(i - 1)), (n, i, s)
        return cls(
            degree_bound=d,
            n_blocks=spectrum.n_blocks,
            types_by_degree=by_degree,
            spectral_gap=spectrum.spectral_gap,
        )

    def admissible(self, n: int) -> frozenset[Type]:
        """Admissible types of degree n (empty above the degree bound)."""
        return self.types_by_degree.get(n, frozenset())

    def is_admissible(self, i: int, s: tuple[int, ...]) -> bool:
        return (i, s) in self.types_by_degree.get(sum(s), frozenset())

    def to_dict(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "n_blocks": self.n_blocks,
            "spectral_gap": self.spectral_gap,
            "types_by_degree": {
                str(n): sorted([i, list(s)] for i, s in types)
                for n, types in self.types_by_degree.items()
            },
        }
