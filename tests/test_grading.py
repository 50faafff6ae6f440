import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitnf.grading import (
    ContractionBudgetError,
    Spectrum,
    SubResStructure,
    contraction_factor,
)


def spec(chi, mults=None, eps=0.01, tol=1e-9):
    if mults is None:
        mults = (1,) * len(chi)
    return Spectrum(tuple(chi), tuple(mults), eps, tol)


def brute_degrees(n, ell):
    return [s for s in itertools.product(range(n + 1), repeat=ell) if sum(s) == n]


# brute-force admissibility, written independently of the library helpers
def brute_types(chi, n, tol):
    ell = len(chi)
    out = set()
    for s in itertools.product(range(n + 1), repeat=ell):
        if sum(s) != n:
            continue
        w = sum(a * b for a, b in zip(s, chi))
        for i in range(1, ell + 1):
            if chi[i - 1] <= w + tol:
                out.add((i, s))
    return out


def brute_separates(chi, tol):
    """Whether tol stays below every distinct gap between the resonance values
    chi_i - s.chi of degrees <= d+1, equal values counted up to float noise."""
    ell = len(chi)
    d = math.floor(chi[0] / chi[-1] + tol / abs(chi[-1]))
    values = sorted(c - sum(a * b for a, b in zip(s, chi))
                    for n in range(1, d + 2)
                    for s in brute_degrees(n, ell) for c in chi)
    noise = 64 * 2.2e-16 * max(1.0, max(abs(v) for v in values))
    gaps = [b - a for a, b in zip(values, values[1:]) if b - a > noise]
    return not gaps or tol < min(gaps)


def brute_lambda(chi, tol, max_degree):
    best = -math.inf
    ell = len(chi)
    for n in range(1, max_degree + 1):
        for s in itertools.product(range(n + 1), repeat=ell):
            if sum(s) != n:
                continue
            w = sum(a * b for a, b in zip(s, chi))
            for i in range(1, ell + 1):
                if not (chi[i - 1] <= w + tol):
                    best = max(best, -chi[i - 1] + w)
    return best


class TestDegreeBound:
    def test_two_to_one(self):
        assert spec((-2.0, -1.0)).degree_bound == 2

    def test_scalar(self):
        assert spec((-1.0,)).degree_bound == 1

    def test_three_blocks(self):
        assert spec((-3.5, -1.2, -1.0)).degree_bound == 3

    def test_float_ratio_at_exact_resonance(self):
        # ratio representable only approximately; tolerance keeps the floor stable
        s = spec((-0.3, -0.1))
        assert s.degree_bound == 3


class TestEnumerateTypes:
    def test_linear_types_two_blocks(self):
        s = spec((-2.0, -1.0))
        assert s.structure.admissible(1) == {(1, (1, 0)), (1, (0, 1)), (2, (0, 1))}

    def test_resonant_quadratic(self):
        s = spec((-2.0, -1.0))
        assert s.structure.admissible(2) == {(1, (0, 2))}

    def test_scalar_no_quadratic(self):
        assert spec((-1.0,)).structure.admissible(2) == frozenset()

    @pytest.mark.parametrize(
        "chi",
        [(-2.0, -1.0), (-1.0, -0.4), (-1.0,), (-3.5, -1.2, -1.0), (-2.5, -1.1, -0.7)],
    )
    def test_matches_bruteforce(self, chi):
        s = spec(chi)
        for n in range(1, 7):
            assert s.structure.admissible(n) == brute_types(chi, n, s.resonance_tol)

    @pytest.mark.parametrize("chi", [(-2.0, -1.0), (-1.0, -0.4), (-3.5, -1.2, -1.0)])
    def test_empty_above_degree_bound(self, chi):
        s = spec(chi)
        d = s.degree_bound
        for n in range(d + 1, d + 4):
            assert s.structure.admissible(n) == frozenset()

    def test_no_dependence_on_faster_blocks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ell = int(rng.integers(1, 4))
            chi = tuple(sorted(-rng.uniform(0.3, 3.0, size=ell)))
            if any(b - a < 0.05 for a, b in zip(chi, chi[1:])):
                continue
            s = spec(chi, eps=0.0)
            for n in range(1, s.degree_bound + 1):
                for i, stype in s.structure.admissible(n):
                    assert all(stype[j] == 0 for j in range(i - 1))

    def test_scaling_invariance(self):
        base = (-2.0, -1.0, -0.75)
        s0 = spec(base)
        d0 = s0.degree_bound
        sets0 = {n: s0.structure.admissible(n) for n in range(1, d0 + 2)}
        for c in (0.5, 2.0, 7.3):
            sc = spec(tuple(c * x for x in base))
            assert sc.degree_bound == d0
            for n, types in sets0.items():
                assert sc.structure.admissible(n) == types


class TestSpectralGap:
    def test_examples(self):
        assert spec((-2.0, -1.0)).spectral_gap == pytest.approx(-1.0, abs=1e-12)
        assert spec((-1.0,)).spectral_gap == pytest.approx(-1.0, abs=1e-12)
        assert spec((-1.0, -0.4)).spectral_gap == pytest.approx(-0.2, abs=1e-12)

    def test_attained_at_expected_type(self):
        # for (-1, -0.4) the max sits at the non-admissible type (1, (0, 3))
        chi = (-1.0, -0.4)
        assert -chi[0] + 3 * chi[1] == pytest.approx(
            spec(chi).spectral_gap, abs=1e-12
        )

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 20:
            ell = int(rng.integers(1, 4))
            chi = tuple(sorted(-rng.uniform(0.3, 3.0, size=ell)))
            if any(b - a < 0.05 for a, b in zip(chi, chi[1:])):
                continue
            count += 1
            s = spec(chi, eps=0.0)
            lam = s.spectral_gap
            # enumerating far past where -chi_1 + n*chi_ell < lam is enough
            max_deg = int(math.ceil((abs(lam) - chi[0]) / abs(chi[-1]))) + 2
            assert lam == pytest.approx(
                brute_lambda(chi, s.resonance_tol, max_deg), abs=1e-12
            )
            assert lam < 0


class TestContractionFactor:
    def test_example(self):
        s = spec((-2.0, -1.0), eps=0.05)
        assert contraction_factor(s, 2) == pytest.approx(math.exp(-0.85), rel=1e-12)
        assert contraction_factor(s, 2) == pytest.approx(0.4274149319487267, rel=1e-10)

    def test_eps_zero_limit(self):
        s = spec((-1.0,), eps=0.0)
        assert contraction_factor(s, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_non_contraction_signal(self):
        # lambda = -0.2, eps = 0.06 passes the (d+1) budget at d = 2 but fails n = 3
        s = spec((-1.0, -0.4), eps=0.06)
        assert contraction_factor(s, 2) < 1
        with pytest.raises(ContractionBudgetError):
            contraction_factor(s, 3)


class TestSpectrumValidation:
    def test_rejects_epsilon_over_budget(self):
        with pytest.raises(ContractionBudgetError):
            spec((-1.0, -0.4), eps=0.1)

    def test_rejects_nonnegative_exponent(self):
        with pytest.raises(ValueError):
            spec((-1.0, 0.1))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            spec((-1.0, -2.0))

    def test_rejects_coarse_resonance_tol(self):
        # resonance values of (-2, -1) are integer spaced; 1.5 straddles a gap
        with pytest.raises(ValueError):
            spec((-2.0, -1.0), tol=1.5)

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            Spectrum((-1.0,), (0,), 0.01)


class TestSubResStructure:
    def test_structure_contents(self):
        s = spec((-2.0, -1.0), eps=0.05)
        st = s.structure
        assert st.degree_bound == 2
        assert st.admissible(1) == {(1, (1, 0)), (1, (0, 1)), (2, (0, 1))}
        assert st.admissible(2) == {(1, (0, 2))}
        assert st.admissible(3) == frozenset()
        assert (1, (0, 2)) in st.admissible(sum((0, 2)))
        assert (2, (1, 0)) not in st.admissible(sum((1, 0)))
        assert st.spectral_gap == pytest.approx(-1.0, abs=1e-12)

    def test_one_structure_per_spectrum(self):
        s = spec((-2.0, -1.0), mults=(2, 1), eps=0.05)
        assert s.structure is s.structure
        assert s.structure == SubResStructure(s)
        assert s.structure.mask(2) is s.structure.mask(2)

    def test_keep_joins_the_masks(self):
        # the constant, the admissible slots of degrees 1..d and nothing above
        st = spec((-2.0, -1.0), mults=(2, 1), eps=0.05).structure
        keep = st.keep(4)
        assert keep.shape == (3, math.comb(3 + 4, 3))
        assert keep[:, 0].all()
        for n in range(1, 5):
            part = keep[:, math.comb(3 + n - 1, 3):math.comb(3 + n, 3)]
            np.testing.assert_array_equal(part, st.mask(n))
            assert part.any() == (n <= st.degree_bound)
        np.testing.assert_array_equal(st.keep(1), keep[:, :4])


@st.composite
def spectra(draw):
    """1-4 increasing negative exponents with chi_1/chi_ell at most 4, half of
    them an exact integer ratio chi_1 = k chi_ell, and a resonance_tol that
    some of them reject."""
    ell = draw(st.integers(1, 4))
    slow = -draw(st.floats(0.2, 2.0))
    if ell == 1:
        chi = (slow,)
    else:
        ratio = draw(st.integers(2, 4) | st.floats(1.1, 4.0))
        fastest = ratio * slow
        inner = draw(st.lists(st.floats(0.05, 0.95), min_size=ell - 2, max_size=ell - 2,
                              unique=True))
        chi = tuple(sorted([fastest, slow] + [fastest + t * (slow - fastest) for t in inner]))
        assume(all(b - a > 1e-3 for a, b in zip(chi, chi[1:])))
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.05]))
    return chi, tol


class TestResonanceTable:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(spectra())
    def test_matches_bruteforce(self, case):
        # the table stops at degree d+1; the references read two degrees more
        chi, tol = case
        separates = brute_separates(chi, tol)
        if not separates:
            with pytest.raises(ValueError, match="does not separate"):
                spec(chi, eps=0.0, tol=tol)
            return
        s = spec(chi, eps=0.0, tol=tol)
        d = s.degree_bound
        assert d == math.floor(chi[0] / chi[-1] + tol / abs(chi[-1]))
        assert s.spectral_gap == brute_lambda(chi, tol, d + 3)
        for n in range(1, d + 4):
            assert s.structure.admissible(n) == brute_types(chi, n, tol)

    def test_one_table_per_spectrum(self):
        s = spec((-3.5, -1.2, -1.0))
        table = s.resonance_table
        assert s.resonance_table is table
        # the block degrees of degrees 1..d+1, degree after degree
        assert table.degrees.tolist() == [list(t) for n in range(1, s.degree_bound + 2)
                                          for t in sorted(brute_degrees(n, 3))]
        assert table.weights.tolist() == [sum(a * b for a, b in zip(t, s.exponents))
                                          for t in table.degrees.tolist()]
        assert table.admissible.tolist() == [[c <= w + s.resonance_tol for c in s.exponents]
                                             for w in table.weights.tolist()]
        assert not table.admissible[table.degrees.sum(axis=1) == s.degree_bound + 1].any()

    def test_rounded_integer_ratio_needs_a_tolerance(self):
        # chi_1 = 3 chi_2 in floats, but the quotient rounds below 3: with no
        # tolerance the degree bound reads 2 while a degree-3 type is admissible
        chi = (-5.219785163879111, -1.7399283879597038)
        assert chi[0] == 3 * chi[1] and chi[0] / chi[1] < 3
        with pytest.raises(ValueError, match="degree d\\+1 = 3 is admissible"):
            spec(chi, eps=0.0, tol=0.0)
        assert spec(chi, eps=0.0).degree_bound == 3
