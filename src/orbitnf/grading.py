"""Lyapunov spectra and the combinatorics of sub-resonance types.

A spectrum is a finite list of negative exponents chi_1 < ... < chi_ell with
multiplicities.  A homogeneous polynomial term that sends block-j coordinates
into block i with per-block degrees s = (s_1, ..., s_ell) has *type* (i, s);
the type is admissible (a sub-resonance) when

    chi_i <= s_1 chi_1 + ... + s_ell chi_ell   (up to resonance_tol).

Admissible types are the ones a normal form is allowed to keep; everything
else can be removed degree by degree.  This module owns the degree bound
d = floor(chi_1 / chi_ell), the admissible types, the spectral gap
lambda = max over non-admissible types of (-chi_i + sum_j s_j chi_j) < 0,
and the per-degree contraction factor exp(lambda + (n+1) eps) that drives the
series solver.  ``Spectrum.structure`` is the one owner of admissibility:
every stage asks it for the admissible types or slots of a degree or a jet.
The admissible types, the spectral gap and the check of resonance_tol read
one table per spectrum, ``Spectrum.resonance_table``: for each degree
n = 1..d+1, degree after degree, the block degrees s (the exponent rows of
the monomial index ``polymap._monomials(ell, d + 1)``, which also orders the
monomials of a jet), their weights s.chi and the admissible mask.  Degree
d+1 is the last one needed: no type of degree n >= d+1 is admissible, and
the value -chi_i + s.chi of a type of degree n is at most -chi_1 + n chi_ell,
which falls as n grows, so the gap is attained at a degree <= d+1.  The
monomials of a grading, grouped by their block degrees s in the order of
those rows, are its type table (``_type_table``), one per grading grown to
the largest degree asked for; the slot masks and the degree operators read
it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .polymap import _grown, _monomials, degree_cols, jet_width

# (target block, per-block source degrees), blocks 1-based to match the
# ordering of the exponents.
Type = tuple[int, tuple[int, ...]]


class ContractionBudgetError(ValueError):
    """epsilon is too large for the spectral gap: exp(lambda + (n+1) eps) >= 1."""


class ResonanceTable(NamedTuple):
    """The types (i, s) of degrees 1..d+1, degree after degree: ``degrees[a]``
    is s, ``weights[a]`` is s.chi and ``admissible[a, i - 1]`` is
    chi_i <= s.chi + resonance_tol."""

    degrees: np.ndarray
    weights: np.ndarray
    admissible: np.ndarray


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
        table = self.resonance_table
        # sorted, not np.sort: the first np.sort call of a process maps in
        # about 0.25 MB of numpy's sort kernels, which nothing else here needs
        values = np.array(sorted((np.array(self.exponents) - table.weights[:, None])
                                 .ravel().tolist()))
        float_noise = 64 * 2.2e-16 * max(1.0, float(np.abs(values).max()))
        gaps = np.diff(values)
        gaps = gaps[gaps > float_noise]  # a gap within float noise joins equal values
        if gaps.size and self.resonance_tol >= gaps.min():
            raise ValueError(
                "resonance_tol=%g does not separate distinct resonance values "
                "(least gap %g over degrees <= d+1)" % (self.resonance_tol, gaps.min())
            )
        if table.admissible[table.degrees.sum(axis=1) > self.degree_bound].any():
            # chi_1 = (d+1) chi_ell up to rounding, which the floor of the
            # degree bound read as a smaller ratio
            raise ValueError(
                "resonance_tol=%g is below the rounding of chi_1/chi_ell: a type of "
                "degree d+1 = %d is admissible" % (self.resonance_tol, self.degree_bound + 1)
            )

    @cached_property
    def degree_bound(self) -> int:
        # chi_i <= |s| chi_ell + tol for any admissible type, so |s| is capped by
        # chi_1/chi_ell + tol/|chi_ell|; using the same tol keeps the bound
        # consistent with admissibility at exact integer ratios.
        chi = self.exponents
        return int(math.floor(chi[0] / chi[-1] + self.resonance_tol / abs(chi[-1])))

    @cached_property
    def resonance_table(self) -> ResonanceTable:
        chi, top = np.array(self.exponents), self.degree_bound + 1
        degrees = _monomials(len(chi), top).exps[1:jet_width(len(chi), top)]
        # s_j chi_j added in block order, as a scalar loop would (np.cumsum
        # would too, but maps in its accumulate kernels on first use)
        weights = sum(degrees[:, j] * c for j, c in enumerate(self.exponents))
        return ResonanceTable(degrees, weights, chi <= weights[:, None] + self.resonance_tol)

    @cached_property
    def spectral_gap(self) -> float:
        table = self.resonance_table
        margins = table.weights[:, None] - np.array(self.exponents)
        return float(margins[~table.admissible].max())

    @property
    def n_blocks(self) -> int:
        return len(self.exponents)

    @cached_property
    def structure(self) -> "SubResStructure":
        """The sub-resonance structure, the one owner of admissibility."""
        return SubResStructure(self)

    def to_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "multiplicities": list(self.multiplicities),
            "epsilon": self.epsilon,
            "resonance_tol": self.resonance_tol,
            "degree_bound": self.degree_bound,
            "spectral_gap": self.spectral_gap,
        }


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


class _TypeTable(NamedTuple):
    """The monomials of a grading grouped by block degrees (``_type_table``)."""

    group: np.ndarray  # per jet column, the column of its block degrees s in ell variables
    columns: tuple  # columns[n]: per s of degree n, in order, its degree-n monomials


@_grown
def _type_table(block_dims: tuple[int, ...], degree: int, held) -> _TypeTable:
    """The type table of a grading through at least `degree`, read-only.

    The block degrees s of the monomials in sum(block_dims) variables are
    the exponent rows of the monomials in ell = len(block_dims) variables,
    and group[c] is the jet column of the s of jet column c among those,
    which for a degree n >= 1 is the resonance table's row group[c] - 1.
    columns[n] holds, for every s of degree n in the order of those rows,
    the columns of its degree-n monomials among them, in sorted order.
    Every block holds a coordinate, so every s has a group.
    """
    index, ell = _monomials(sum(block_dims), degree), len(block_dims)
    starts = index.starts[:degree + 2]
    s = np.add.reduceat(index.exps[:starts[-1]], list(accumulate(block_dims[:-1], initial=0)),
                        axis=1)
    # |s| and then s read as digits base degree + 1 order the groups as the columns s
    key = s @ ((degree + 1) ** ell + (degree + 1) ** np.arange(ell - 1, -1, -1))
    order = key.argsort(kind="stable")
    key = key[order]
    bounds = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(), len(order)]
    group = np.empty_like(order)
    group[order] = np.arange(len(bounds) - 1).repeat([b - a for a, b in zip(bounds, bounds[1:])])
    # the columns of one degree sit at the same places in the order
    local = order - np.array(starts[:-1]).repeat([b - a for a, b in zip(starts, starts[1:])])
    group.setflags(write=False)
    local.setflags(write=False)
    groups = [local[a:b] for a, b in zip(bounds, bounds[1:])]
    return _TypeTable(group, tuple(tuple(groups[degree_cols(ell, n)]) for n in range(degree + 1)))


@dataclass(frozen=True)
class SubResStructure:
    """The sub-resonance decision of a spectrum, ``Spectrum.structure``.

    Everything it answers is read off the spectrum's resonance table: the
    admissible types of every degree 1..degree_bound as sets (``admissible``,
    ``types_by_degree``) and as slot masks over the m coordinates of the
    multiplicities, per degree (``mask``) and jet-wide (``keep``).
    """

    spectrum: Spectrum
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def degree_bound(self) -> int:
        return self.spectrum.degree_bound

    @property
    def n_blocks(self) -> int:
        return self.spectrum.n_blocks

    @property
    def spectral_gap(self) -> float:
        return self.spectrum.spectral_gap

    @cached_property
    def types_by_degree(self) -> dict[int, frozenset[Type]]:
        """The admissible types of every degree 1..degree_bound."""
        table = self.spectrum.resonance_table
        by_degree = {n: set() for n in range(1, self.degree_bound + 1)}
        rows, blocks = np.nonzero(table.admissible)
        degrees = table.degrees.tolist()
        for a, i in zip(rows.tolist(), blocks.tolist()):
            s = tuple(degrees[a])
            # admissible implies the target block sees no faster block
            assert not any(s[:i]), (i + 1, s)
            by_degree[sum(s)].add((i + 1, s))
        return {n: frozenset(types) for n, types in by_degree.items()}

    def admissible(self, n: int) -> frozenset[Type]:
        """Admissible types of degree n (empty above the degree bound)."""
        return self.types_by_degree.get(n, frozenset())

    def mask(self, n: int) -> np.ndarray:
        """True on the admissible degree-n slots: read-only, shape (m, number
        of degree-n monomials in m variables), built once per n."""
        if n not in self._masks:
            dims, m = self.spectrum.multiplicities, sum(self.spectrum.multiplicities)
            if 0 < n <= self.degree_bound:
                group = _type_table(dims, self.degree_bound).group[degree_cols(m, n)]
                mask = self.spectrum.resonance_table.admissible[
                    group - 1, np.arange(self.n_blocks).repeat(dims)[:, None]]
            else:
                mask = np.zeros((m, math.comb(m + n - 1, n)), dtype=bool)
            mask.setflags(write=False)
            self._masks[n] = mask
        return self._masks[n]

    def keep(self, degree: int) -> np.ndarray:
        """True on the slots of the sub-resonance part of a jet through
        `degree`, shape (m, jet_width(m, degree)): the constant and the
        admissible slots up to the degree bound."""
        m = sum(self.spectrum.multiplicities)
        keep = np.zeros((m, math.comb(m + degree, m)), dtype=bool)
        keep[:, 0] = True
        for n in range(1, min(degree, self.degree_bound) + 1):
            keep[:, math.comb(m + n - 1, m):math.comb(m + n, m)] = self.mask(n)
        return keep

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
