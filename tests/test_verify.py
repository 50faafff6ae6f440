import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from chart_reference import chart_reference, recentred_windows
from check_reference import (centralizer_reference, coeff_diff, cyclic_oracle_reference,
                             gauge_lift, gauge_reference, iterate_reference, oracle_reference,
                             residual_reference, subresonance_split)
from dict_reference import reference_compose
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orbitnf import normalform, polymap, verify
from orbitnf.cli import _check_centralizer
from orbitnf.cocycle import OrbitCocycle, SandwichReport
from orbitnf.grading import Spectrum
from orbitnf.normalform import (NormalFormResult, SolverContext, _source_vecs, solve_cycles,
                                solve_normal_form, solve_window)
from orbitnf.polymap import (GradedSpace, PolyMap, _mono_table, compose_truncated,
                             degree_cols, invert_jets, stack_jets)
from orbitnf.scenarios import build_builtin, random_cocycle
from orbitnf.verify import (
    CentralizerReport,
    ChartReport,
    FlagReport,
    GaugeReport,
    ResidualReport,
    centralizer_check,
    chart_transitions,
    conjugacy_residual,
    default_chart_window,
    direct_normal_form,
    direct_solve_oracle,
    flag_invariance,
    gauge_compare,
    iterates,
    series_vs_direct,
)

S1 = GradedSpace((1,))
S11 = GradedSpace((1, 1))


def scalar_cocycle(coeff_lists):
    maps = []
    for coeffs_by_degree in coeff_lists:
        coeffs = {(0, (n,)): c for n, c in coeffs_by_degree.items() if c != 0.0}
        deg = max(coeffs_by_degree)
        maps.append(PolyMap(S1, S1, deg, np.zeros(1), coeffs))
    return OrbitCocycle(S1, tuple(maps))


def koenigs_cocycle(quad=0.1):
    return scalar_cocycle([{1: 0.5, 2: quad}])


def period2_cocycle():
    return scalar_cocycle([{1: 0.5, 2: 0.1}, {1: 0.4}])


def resonant2_cocycle():
    coeffs = {
        (0, (1, 0)): math.exp(-2.0),
        (0, (0, 2)): 0.3,
        (1, (0, 1)): math.exp(-1.0),
    }
    return OrbitCocycle(S11, (PolyMap(S11, S11, 2, np.zeros(2), coeffs),))


def nonresonant2_cocycle():
    coeffs = {
        (0, (1, 0)): math.exp(-1.0),
        (1, (0, 1)): math.exp(-0.4),
        (1, (2, 0)): 0.2,
    }
    return OrbitCocycle(S11, (PolyMap(S11, S11, 2, np.zeros(2), coeffs),))


@pytest.fixture(scope="module")
def koenigs():
    c = koenigs_cocycle()
    ctx = SolverContext.prepare(c, 0.05, 6)
    return c, ctx, solve_normal_form(ctx)


@pytest.fixture(scope="module")
def period2():
    c = period2_cocycle()
    ctx = SolverContext.prepare(c, 0.05, 5)
    return c, ctx, solve_normal_form(ctx)


@pytest.fixture(scope="module")
def resonant2():
    c = resonant2_cocycle()
    ctx = SolverContext.prepare(c, 0.05, 4)
    return c, ctx, solve_normal_form(ctx)


@pytest.fixture(scope="module")
def within_block2():
    # resonant2 with non-admissible squares inside each block, at order 6
    coeffs = {
        (0, (1, 0)): math.exp(-2.0),
        (0, (0, 2)): 0.3,
        (0, (2, 0)): 0.1,
        (1, (0, 1)): math.exp(-1.0),
        (1, (0, 2)): 0.1,
    }
    c = OrbitCocycle(S11, (PolyMap(S11, S11, 2, np.zeros(2), coeffs),))
    ctx = SolverContext.prepare(c, 0.05, 6)
    return c, ctx, solve_normal_form(ctx)


@pytest.fixture(scope="module")
def nonresonant2():
    c = nonresonant2_cocycle()
    ctx = SolverContext.prepare(c, 0.02, 3)
    return c, ctx, solve_normal_form(ctx)


# the benchmark ladder's cocycles (seed 1): exponents (-2.0, -0.8) on two
# blocks, (-1.2, -0.8, -0.4) on three
LADDER_EXPONENTS = {2: (-2.0, -0.8), 3: (-1.2, -0.8, -0.4)}


def ladder_solve(dims, period, order, epsilon, amp=0.05):
    c = random_cocycle(np.random.default_rng(1), LADDER_EXPONENTS[len(dims)], dims,
                       period, amp=amp)
    return c, solve_normal_form(SolverContext.prepare(c, epsilon, order))


def with_conjugators(res, conjugators):
    return NormalFormResult.from_maps(list(conjugators), res.normal_form, res.spectrum,
                                      res.order, res.diagnostics)


def assert_order_profile(rep):
    """Every degree through the order within its bound, a genuine degree
    order + 1 term above them: the defect decays at exactly that order."""
    assert rep.passed
    assert len(rep.max_residuals) == len(rep.bounds) == rep.order + 1
    assert rep.leading_term > 1e3 * max(rep.bounds)


class TestConjugacyResidual:
    def test_koenigs_degree_profile(self, koenigs):
        c, _, res = koenigs
        rep = conjugacy_residual(c, res)
        assert_order_profile(rep)
        assert max(rep.max_residuals) <= 1e-14

    def test_period2_degree_profile(self, period2):
        c, _, res = period2
        assert_order_profile(conjugacy_residual(c, res))

    def test_ladder_order6_passes(self):
        # the (2,2), K=2, M=6 ladder cocycle at the default series tolerance
        c, res = ladder_solve((2, 2), 2, 6, 0.04)
        assert_order_profile(conjugacy_residual(c, res))

    def test_resonant2_exact(self, resonant2):
        c, _, res = resonant2
        rep = conjugacy_residual(c, res)
        assert rep.passed
        assert max(rep.max_residuals) <= 1e-13
        assert rep.leading_term <= 1e-13

    def test_nonresonant2_exact(self, nonresonant2):
        # the degree-2 conjugator solves the equation as full polynomials
        c, _, res = nonresonant2
        rep = conjugacy_residual(c, res)
        assert rep.passed
        assert rep.leading_term <= 1e-13

    def test_linear_cocycle_residual_vanishes(self):
        c = scalar_cocycle([{1: 0.4}])
        ctx = SolverContext.prepare(c, 0.05, 3)
        res = solve_normal_form(ctx)
        rep = conjugacy_residual(c, res)
        assert max(rep.max_residuals) <= 1e-14
        assert rep.leading_term <= 1e-14
        assert rep.passed

    def test_period_mismatch_rejected(self, koenigs, period2):
        _, _, res_p2 = period2
        c1, _, _ = koenigs
        with pytest.raises(ValueError):
            conjugacy_residual(c1, res_p2)

    def test_report_serializes(self, koenigs):
        c, _, res = koenigs
        rep = conjugacy_residual(c, res)
        assert set(rep.to_dict()) == {"order", "series_tol", "max_residuals", "bounds",
                                      "leading_term", "passed"}
        json.dumps(rep.to_dict())

    @pytest.mark.parametrize("order", [4, 5, 6, 7])
    @pytest.mark.parametrize("amp", [0.03, 0.04, 0.05])
    def test_conjugator_truncated_one_degree_fails(self, order, amp):
        # the whole degree-M part of every H_k missing; at M = 7 its defect
        # is below 1e-12 on the sphere of radius 0.1
        c, res = ladder_solve((2, 2), 2, order, 0.04, amp=amp)
        cut = with_conjugators(res, (h.truncated(order - 1).truncated(order)
                                     for h in res.conjugator))
        rep = conjugacy_residual(c, cut)
        assert not rep.passed
        assert rep.max_residuals[order] > 1e3 * rep.bounds[order]

    @pytest.mark.parametrize("degree", [2, 4, 6])
    def test_under_solved_degree_fails(self, degree):
        # every non-admissible slot of one degree of every H_k off by 1e-9
        c, res = ladder_solve((2, 2), 2, 6, 0.04)
        space = c.space
        mask = ~res.structure.mask(degree)
        cols = degree_cols(space.dim, degree)
        bad = []
        for h in res.conjugator:
            jet = h.jet.copy()
            jet[:, cols] += 1e-9 * mask
            bad.append(PolyMap.from_jet(space, space, h.degree, jet))
        rep = conjugacy_residual(c, with_conjugators(res, bad))
        assert not rep.passed
        assert all(r <= b for r, b in zip(rep.max_residuals[:degree], rep.bounds))
        assert rep.max_residuals[degree] > 10 * rep.bounds[degree]

    @pytest.mark.parametrize("order", [5, 6, 7])
    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_random_cocycles_pass(self, order, period):
        exponents, dims, epsilon = ((-2.0, -0.9), (1, 2), 0.04) if period % 2 else \
            ((-1.2, -0.8, -0.4), (1, 1, 1), 0.02)
        rng = np.random.default_rng(100 * order + period)
        c = random_cocycle(rng, exponents, dims, period, amp=0.05)
        res = solve_normal_form(SolverContext.prepare(c, epsilon, order))
        assert_order_profile(conjugacy_residual(c, res))

    @pytest.mark.parametrize("series_tol", [1e-11, 1e-9, 1e-7])
    def test_bound_follows_series_tol(self, series_tol):
        # a looser series leaves a larger defect, which its bound admits and
        # the default series_tol's does not
        c = koenigs_cocycle()
        res = solve_normal_form(SolverContext.prepare(c, 0.05, 6, series_tol=series_tol))
        rep = conjugacy_residual(c, res, series_tol=series_tol)
        assert rep.passed
        assert max(rep.max_residuals) > 1e-2 * series_tol
        assert not conjugacy_residual(c, res).passed

    def test_profile_matches_dict_reference(self):
        # the two compositions through the independent dict algebra
        c, res = ladder_solve((2, 2), 2, 4, 0.04)
        M, K = res.order, c.period
        rep = conjugacy_residual(c, res)
        want = np.zeros(M + 2)
        for k in range(K):
            defect = (reference_compose(res.conjugator[(k + 1) % K], c.map_at(k), M + 1).jet
                      - reference_compose(res.normal_form[k], res.conjugator[k], M + 1).jet)
            want = np.maximum(want, [np.abs(defect[:, degree_cols(c.dim, n)]).max()
                                     for n in range(M + 2)])
        got = np.array(rep.max_residuals + (rep.leading_term,))
        assert np.max(np.abs(got - want)) <= 1e-13 * rep.leading_term + 1e-16

    def test_memory_on_ladder_33_order6(self):
        # H o F composed to deg H * deg F = 12 would take over 1 GB; to
        # M + 1 = 7 both compositions stay within the power kernel's chunks
        c, res = ladder_solve((3, 3), 1, 6, 0.03)
        tracemalloc.start()
        try:
            rep = conjugacy_residual(c, res)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 40_000_000


def degree_inputs(ctx, n, h_maps, p_maps):
    """Degree-n operator and twisted sources Q(k), the oracle's arguments."""
    op = ctx.operator(n)
    stacks = [stack_jets(group, ctx.order)[None] for group in (h_maps, p_maps)]
    return op, op.source(_source_vecs(op, *stacks, (np.arange(len(p_maps)) + 1) % len(h_maps)))


class TestDirectOracle:
    def test_degree2_koenigs_value(self, koenigs):
        _, ctx, _ = koenigs
        h0 = [PolyMap.identity(S1, ctx.order)]
        p0 = [PolyMap.from_linear(np.array([[0.5]]), S1, S1, 1)]
        (Hn,), _ = direct_solve_oracle(*degree_inputs(ctx, 2, h0, p0))
        assert abs(Hn[0][0, _mono_table(1, 2)[1][(2,)]] - 0.4) <= 1e-12

    def test_series_matches_direct_koenigs(self, koenigs):
        _, ctx, res = koenigs
        assert series_vs_direct(ctx, res) <= 1e-10

    def test_series_matches_direct_period2(self, period2):
        _, ctx, res = period2
        assert series_vs_direct(ctx, res) <= 1e-10

    def test_series_matches_direct_nonresonant2(self, nonresonant2):
        _, ctx, res = nonresonant2
        assert series_vs_direct(ctx, res) <= 1e-10

    def test_series_matches_direct_lifted(self):
        c = resonant2_cocycle()
        lift = PolyMap(S11, S11, 2, np.zeros(2), {(0, (0, 2)): 0.3})
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx, lift)
        assert res.conjugator[0].coeffs[(0, (0, 2))] == pytest.approx(0.3, abs=1e-14)
        direct = direct_normal_form(ctx, lift)
        assert coeff_diff(res.conjugator_jets, direct.conjugator_jets) <= 1e-10
        assert coeff_diff(res.normal_form_jets, direct.normal_form_jets) <= 1e-10

    @staticmethod
    def near_resonant_inputs(wobbles):
        """Degree-2 oracle inputs at exponents a hair off the 2:1 resonance,
        one orbit point per wobble w: A_k = diag(e^(-2 + w), e^(chi_2 - w)).
        With a resonance tolerance far below that hair, the resonant slot
        (1, (0, 2)) is kept in the equation, and its transfer system is
        singular to working precision."""
        delta = 5e-14
        chi2 = -1.0 - delta
        linears = [np.diag([math.exp(-2.0 + w), math.exp(chi2 - w)]) for w in wobbles]
        c = OrbitCocycle(S11, tuple(PolyMap.from_linear(A, S11, S11, 1) for A in linears))
        spec = Spectrum((-2.0, chi2), (1, 1), epsilon=1e-14,
                        resonance_tol=1e-15)
        assert spec.structure.degree_bound == 1
        ctx = SolverContext(c, spec, order=2)
        h0 = [PolyMap.identity(S11, 2)] * len(linears)
        p0 = [PolyMap.from_linear(A, S11, S11, 1) for A in linears]
        return degree_inputs(ctx, 2, h0, p0)

    @staticmethod
    def least_singular_value(err) -> float:
        return float(str(err.value).split("least singular value ")[1].split()[0])

    def test_misclassified_resonance_detected(self):
        # all six degree-2 types are 1 x 1 systems, so the singular one is
        # found inside one stacked SVD of six, and named
        op, q_vecs = self.near_resonant_inputs([0.0])
        assert [(r.stop - r.start) * len(cols) for r, cols in op.types] == [1] * 6
        with pytest.raises(ValueError, match=r"numerically singular at type \(i, s\) = "
                           r"\(1, \(0, 2\)\): least singular value \S+ < bound 1e-12; a "
                           r"resonant type appears to be classified as non-resonant "
                           r"\(widen resonance_tol") as err:
            direct_solve_oracle(op, q_vecs)
        # the slot's one-step transfer is e^(-2 delta), 1e-13 away from 1
        assert self.least_singular_value(err) == pytest.approx(1e-13, rel=0.01)

    def test_misclassified_resonance_detected_period2(self):
        # the slot's one-step transfers are e^(-+3/2) away from 1, and only
        # their one-period product sits a hair off it: the reduced block
        # I - M of phase 0, the system tested at K > 1, catches it
        op, q_vecs = self.near_resonant_inputs([0.5, -0.5])
        with pytest.raises(ValueError, match=r"degree-2 transfer system is numerically "
                           r"singular at type \(i, s\) = \(1, \(0, 2\)\): least singular "
                           r"value \S+ < bound 1e-12") as err:
            direct_solve_oracle(op, q_vecs)
        # the one-period product e^(-4 delta) of phase 0
        assert self.least_singular_value(err) == pytest.approx(2e-13, rel=0.01)

    @staticmethod
    def long_period_agreement(period, wobble):
        """Largest gap between the oracle's and the series' jets relative to
        max(1, max|H|), on the seed-1 (2,2) cocycle of exponents (-2, -0.8)."""
        c = random_cocycle(np.random.default_rng(1), (-2.0, -0.8), (2, 2), period,
                           amp=0.05, degree=4, wobble=wobble)
        ctx = SolverContext.prepare(c, 0.04, 4)
        res, direct = solve_normal_form(ctx), direct_normal_form(ctx)
        scale = max(1.0, float(np.max(np.abs(res.conjugator_jets))))
        return series_vs_direct(ctx, res, direct) / scale

    def test_long_period_oracle_blames_no_resonance(self):
        # a wobble of 2 grows the steps' transfers far along the orbit,
        # which left the dense K-cyclic system of 64 points singular to
        # working precision; no type is near resonance, and the reduced
        # block that the singularity test reads is well conditioned
        assert self.long_period_agreement(64, 2.0) <= 1e-12

    @pytest.mark.parametrize("wobble", [0.05, 2.0])
    @pytest.mark.parametrize("period", [16, 64, 256])
    def test_long_periods_agree_with_the_series(self, period, wobble):
        # Tier-1 budget: 4 s for the six cases together (about 2.3 s on a
        # 2-core machine, most of it the series at K = 256; the oracle's
        # elimination is linear in K, 0.03 s there)
        assert self.long_period_agreement(period, wobble) <= 1e-12


class TestGauge:
    def test_lift_recovered_in_transition(self, resonant2):
        c, _, res_plain = resonant2

        lift = PolyMap(S11, S11, 2, np.zeros(2), {(0, (0, 2)): 0.3})
        res_alt = solve_normal_form(SolverContext.prepare(c, 0.05, 4), lift)
        assert conjugacy_residual(c, res_alt).passed

        rep = gauge_compare(res_plain, res_alt)
        assert rep.passed
        assert rep.alignment_max <= 1e-12
        # H = G o H_alt, so the transition absorbs the lifted term with a sign
        got = rep.transition[0, 0, degree_cols(2, 2).start + _mono_table(2, 2)[1][(0, 2)]]
        assert abs(got + 0.3) <= 1e-9

    def test_degree_bound_one_has_unique_solution(self, koenigs):
        c, _, res = koenigs

        lift = PolyMap(S1, S1, 2, np.zeros(1), {(0, (2,)): -0.7})
        res_alt = solve_normal_form(SolverContext.prepare(c, 0.05, 6), lift)
        # no admissible slot above degree one, so the lift is ignored
        rep = gauge_compare(res, res_alt)
        assert rep.passed
        assert coeff_diff(rep.transition[0], [[0.0, 1.0]]) <= 1e-10
        assert abs(rep.transition[0, 0, 1] - 1.0) <= 1e-12

    def test_shape_mismatch_rejected(self, koenigs, period2):
        _, _, res1 = koenigs
        _, _, res2 = period2
        with pytest.raises(ValueError):
            gauge_compare(res1, res2)


def nan_at_second_point(res, degree=3):
    """The result with the degree-3 coefficients of H_1 set to NaN."""
    h = res.conjugator[1]
    jet = h.jet.copy()
    jet[:, degree_cols(h.source.dim, degree)] = np.nan
    return with_conjugators(res, (res.conjugator[0], PolyMap.from_jet(h.source, h.target,
                                                                      h.degree, jet)))


def square(c, order):
    """The family F^2 of the cocycle c around its orbit, shift 2."""
    return 2, iterates(c.jets, [2], order)[0]


class TestNaNFails:
    """A NaN at one orbit point fails the check; a running Python max
    starting from 0.0 dropped it whenever an earlier point was finite."""

    def test_oracle(self, period2):
        _, ctx, res = period2
        assert math.isnan(series_vs_direct(ctx, nan_at_second_point(res)))

    def test_gauge(self, period2):
        _, _, res = period2
        rep = gauge_compare(nan_at_second_point(res), res)
        assert math.isnan(rep.beyond_degree_max)
        assert not rep.passed

    def test_centralizer(self, period2):
        c, _, res = period2
        (rep,) = centralizer_check(c, nan_at_second_point(res), [square(c, res.order)])
        assert math.isnan(rep.beyond_degree_max)
        assert not rep.passed

    def test_commutation(self, period2):
        c, _, res = period2
        family = square(c, res.order)
        jets = family[1].copy()
        jets[1, :, -1] = np.nan
        bad = (2, jets)
        with pytest.raises(ValueError, match="commute"):
            centralizer_check(c, res, [bad])
        # the first family that fails is named by its own residual
        with pytest.raises(ValueError, match="residual nan"):
            centralizer_check(c, res, [family, bad])


def nan_in_normal_form(res, k):
    """The result with the linear coefficients of P_k set to NaN."""
    p = res.normal_form[k]
    jet = p.jet.copy()
    jet[:, degree_cols(p.source.dim, 1)] = np.nan
    forms = list(res.normal_form)
    forms[k] = PolyMap.from_jet(p.source, p.target, p.degree, jet)
    return NormalFormResult.from_maps(res.conjugator, forms, res.spectrum, res.order,
                                      res.diagnostics)


class TestNaNInNormalForm:
    """A NaN in a later P_k fails the flag check and the centralizer entry
    that reads it, though the maps at earlier points are finite."""

    @pytest.fixture(scope="class")
    def period3(self):
        return random_case(3, 0)

    def test_flag(self, period3):
        _, _, res = period3
        rep = flag_invariance(nan_in_normal_form(res, 2).normal_form_jets, res.space)
        assert math.isnan(rep.max_below_flag)
        assert not rep.passed

    def test_centralizer_power(self, period3):
        # P^2 at point 0 is P_1 o P_0, finite; points 1 and 2 read P_2
        _, ctx, res = period3
        details, limits = _check_centralizer(ctx, nan_in_normal_form(res, 2),
                                             {"tol": 1e-9, "powers": [2]})
        (entry,) = details["powers"]
        assert math.isnan(entry["vs_normal_form_power"])
        assert not entry["passed"] and not all(ok for _, ok in limits)
        assert [line for line, ok in limits if not ok] == [
            "power 2 vs_normal_form_power nan > tol 1e-09"]


class TestCentralizer:
    def test_square_iterate_period2(self, period2):
        c, _, res = period2
        (rep,) = centralizer_check(c, res, [square(c, res.order)])
        assert rep.passed
        assert rep.commutation_residual <= 1e-12
        # conjugated square equals the squared normal form
        for k in range(c.period):
            p2 = compose_truncated(res.normal_form[(k + 1) % c.period],
                                   res.normal_form[k], res.order)
            assert coeff_diff(rep.maps[k], p2) <= 1e-9

    def test_cube_iterate_period2(self, period2):
        c, _, res = period2
        (rep,) = centralizer_check(c, res, [(3, iterates(c.jets, [3], res.order)[0])])
        assert rep.passed
        assert rep.shift == 3

    def test_square_iterate_koenigs(self, koenigs):
        c, _, res = koenigs
        (rep,) = centralizer_check(c, res, [square(c, res.order)])
        assert rep.passed
        json.dumps(rep.to_dict())

    def test_noncommuting_family_rejected(self, period2):
        c, _, res = period2
        f0 = c.map_at(0).truncated(res.order).jet
        bogus = (1, np.stack([f0, f0]))
        with pytest.raises(ValueError, match="commute"):
            centralizer_check(c, res, [bogus])


# random cocycles at periods 3 and 4, where a shift k -> k + s and its
# reverse k -> k - s differ for s = 1, 2, 3 (at K <= 2 they never do)
BATCH_CASES = [((-2.0, -0.9), (1, 2), 0.04), ((-1.2, -0.8, -0.4), (1, 1, 1), 0.02)]


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def lifted_result(ctx, delta=0.05):
    """The result under the gauge check's lift."""
    return solve_normal_form(ctx, gauge_lift(ctx, delta))


def random_case(period, case, order=4):
    exponents, dims, epsilon = BATCH_CASES[case]
    c = random_cocycle(np.random.default_rng(40 + 10 * case + period), exponents, dims,
                       period, amp=0.05)
    ctx = SolverContext.prepare(c, epsilon, order)
    return c, ctx, solve_normal_form(ctx)


@pytest.fixture(scope="module", params=[(3, 0), (3, 1), (4, 0), (4, 1), (1, 0), (2, 1)],
                ids=["K3-dims12", "K3-dims111", "K4-dims12", "K4-dims111", "K1-dims12",
                     "K2-dims111"])
def batched(request):
    return random_case(*request.param)


class TestBatchedChecks:
    """The stacked checks equal their one-point-at-a-time references bit for bit."""

    def test_residual(self, batched):
        c, _, res = batched
        rep = conjugacy_residual(c, res)
        assert rep.passed
        assert json.dumps(rep.to_dict()) == json.dumps(residual_reference(c, res).to_dict())

    def test_oracle(self, batched):
        """On the sources the degree loop hands it, the stacked oracle equals
        its elimination one type at a time within rounding, not to the bit:
        padding and stacking change the shapes, and with them the order of
        the BLAS sums.  The dense cyclic system it eliminates agrees within
        1e-13."""
        _, ctx, _ = batched
        sizes = [(r.stop - r.start) * len(cols) for r, cols in ctx.operator(2).types]
        assert len(set(sizes)) < len(sizes)  # some systems share a size
        calls = []

        def recorded(op, q_vecs):
            calls.append((op, q_vecs))
            return direct_solve_oracle(op, q_vecs)

        solve_cycles(ctx, [(recorded, None)])
        assert len(calls) == ctx.order - 1
        for op, q_vecs in calls:
            (got,), _ = direct_solve_oracle(op, q_vecs)
            for reference, tol in ((cyclic_oracle_reference, 1e-15), (oracle_reference, 1e-13)):
                want, _ = reference(op, q_vecs[0])
                assert coeff_diff(got, want) <= tol * max(1.0, float(np.max(np.abs(want))))

    def test_gauge(self, batched):
        _, ctx, res = batched
        res_alt = lifted_result(ctx)
        rep, ref = gauge_compare(res, res_alt), gauge_reference(res, res_alt)
        assert rep.passed
        assert json.dumps(rep.to_dict()) == json.dumps(ref.to_dict())
        assert same_bits(rep.transition, ref.transition)

    @pytest.mark.parametrize("powers", [[2], [3], [2, 3]], ids=["2", "3", "2-3"])
    def test_centralizer(self, batched, powers):
        """All families in one stack equal the per-family reference."""
        c, _, res = batched
        order, K = res.order, c.period
        families = iterates(c.jets, powers, order)
        reports = centralizer_check(c, res, list(zip(powers, families)))
        assert len(reports) == len(powers)
        for power, family, rep in zip(powers, families, reports):
            ref_family = iterate_reference(c.fiber_maps, power, order)
            assert rep.shift == power
            assert same_bits(family, np.stack([pm.jet for pm in ref_family]))
            ref = centralizer_reference(c, res, power, ref_family)
            assert rep.passed
            assert json.dumps(rep.to_dict()) == json.dumps(ref.to_dict())
            assert same_bits(rep.maps, ref.maps)
            # C_k = H_{k+s} o G_k o H_k^-1 is the normal form's own iterate
            # P_{k+s-1} o ... o P_k
            p_power = np.stack([pm.jet for pm in iterate_reference(res.normal_form, power, order)])
            assert coeff_diff(rep.maps, p_power) <= 1e-9
            assert same_bits(iterates(res.normal_form_jets, [power], order)[0], p_power)


class TestKernelCalls:
    def test_calls_do_not_grow_with_the_period(self, monkeypatch):
        calls, tables = [], []

        def counted(outer, *args, _fn=polymap.compose_jets):
            calls.append(len(outer))
            return _fn(outer, *args)

        def counted_table(jets, *args, _fn=polymap.composition_table):
            tables.append(len(jets))
            return _fn(jets, *args)

        counts = {}
        for K in (1, 4):
            c, ctx, res = random_case(K, 0)
            res_alt = lifted_result(ctx)
            monkeypatch.setattr(polymap, "compose_jets", counted)
            monkeypatch.setattr(verify, "compose_jets", counted)
            monkeypatch.setattr(polymap, "composition_table", counted_table)
            runs = {"residual": lambda: conjugacy_residual(c, res),
                    "gauge": lambda: gauge_compare(res, res_alt),
                    "centralizer": lambda: centralizer_check(
                        c, res, [(3, iterates(c.jets, [3], res.order)[0])])[0]}
            for name, run in runs.items():
                calls.clear()
                tables.clear()
                assert run().passed
                counts[K, name] = (len(calls), len(tables))
                assert max(calls) <= K  # stacks of at most K entries
                assert all(n == K for n in tables)  # one table of the K conjugators
            monkeypatch.undo()
        # residual: one per side; gauge: the round trip, the transition is a
        # division through one table; centralizer: two for F^3, one per side
        # of the commutation, one for H o G before the division by H
        assert counts == {(K, name): n for K in (1, 4)
                          for name, n in (("residual", (2, 0)), ("gauge", (1, 1)),
                                          ("centralizer", (5, 1)))}

    def test_centralizer_calls_follow_the_largest_power(self, monkeypatch):
        """Every listed power shares each step of the check, so the number of
        kernel calls depends on the largest power only."""
        calls = []

        def counted(outer, *args, _fn=polymap.compose_jets):
            calls.append(len(outer))
            return _fn(outer, *args)

        c, ctx, res = random_case(3, 0)
        monkeypatch.setattr(polymap, "compose_jets", counted)
        monkeypatch.setattr(verify, "compose_jets", counted)
        counts = set()
        for powers in ([3], [2, 3], [1, 2, 3], [3, 2, 3]):
            calls.clear()
            _, limits = _check_centralizer(ctx, res, {"tol": 1e-9, "powers": powers})
            assert all(ok for _, ok in limits)
            counts.add(len(calls))
            assert max(calls) == len(powers) * c.period  # all powers in one stack
        # two each for F^3 and P^3, one per side of the commutation, one for
        # H o G before the division by H
        assert counts == {7}


class TestCheckMemory:
    def test_divisions_peak_below_the_residual(self):
        """On the (3,3) K=1 M=6 ladder row the composition table that a
        division keeps of H takes less memory than the residual check's
        composition H o F one degree above the solve."""
        coc = random_cocycle(np.random.default_rng(1), (-2.0, -0.8), (3, 3), 1, amp=0.05)
        ctx = SolverContext.prepare(coc, 0.03, 6)
        res, res_alt = solve_normal_form(ctx), lifted_result(ctx)
        family = square(coc, res.order)
        peaks = {}
        for name, run in (("residual", lambda: conjugacy_residual(coc, res)),
                          ("gauge", lambda: gauge_compare(res, res_alt)),
                          ("centralizer", lambda: centralizer_check(coc, res, [family])[0])):
            tracemalloc.start()
            try:
                assert run().passed
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["gauge"] <= peaks["residual"]
        assert peaks["centralizer"] <= peaks["residual"]


class TestFlagInvariance:
    def test_normal_form_is_exactly_triangular(self, resonant2):
        _, _, res = resonant2
        rep = flag_invariance(res.normal_form_jets, res.space)
        assert rep.max_below_flag == 0.0
        assert rep.passed

    def test_conjugator_of_nonresonant2_is_not(self, nonresonant2):
        # the conjugator carries the fast variable into the slow block,
        # so its Jacobian has a genuine below-flag entry
        _, _, res = nonresonant2
        rep = flag_invariance(res.conjugator_jets, res.space)
        h = 0.2 / (math.exp(-0.4) - math.exp(-2.0))
        assert rep.max_below_flag == pytest.approx(2 * h, rel=1e-12)
        assert not rep.passed

    def test_injected_violation_detected(self, resonant2):
        _, _, res = resonant2
        bad = res.normal_form_jets[0].copy()
        bad[1, degree_cols(2, 2).start + _mono_table(2, 2)[1][(2, 0)]] += 0.1
        rep = flag_invariance(bad, S11)
        # d/dt_0 of 0.1 t_0^2 in the block-2 component: 0.1 * 2
        assert rep.max_below_flag == pytest.approx(0.2, abs=1e-15)
        assert not rep.passed

    def test_report_serializes(self, resonant2):
        _, _, res = resonant2
        json.dumps(flag_invariance(res.normal_form_jets, res.space).to_dict())


class TestChartConsistency:
    @pytest.mark.parametrize("y", [0.05, -0.05, 0.02, -0.02])
    def test_koenigs_offsets(self, koenigs, y):
        _, ctx, res = koenigs
        rep = chart_transitions(ctx, res, [[y]])[0]
        assert rep.passed
        assert rep.deviation_max <= 1e-9

    def test_zero_offset_gives_identity(self, koenigs):
        _, ctx, res = koenigs
        rep = chart_transitions(ctx, res, [[0.0]])[0]
        g = rep.transition
        assert abs(float(g[0, 0])) <= 1e-9
        assert abs(g[0, 1] - 1.0) <= 1e-8
        assert np.max(np.abs(g[:, 2:])) <= 1e-8  # the nonlinear part
        assert rep.passed

    def test_resonant2_offset(self, resonant2):
        _, ctx, res = resonant2
        rep = chart_transitions(ctx, res, [[0.05, 0.05]])[0]
        assert rep.passed
        json.dumps(rep.to_dict())

    def test_period2_offset_off_base(self, period2):
        _, ctx, res = period2
        rep = chart_transitions(ctx, res, [[0.03]], base=1)[0]
        assert rep.passed

    def test_below_flag_recentering_rejected(self, nonresonant2):
        _, ctx, res = nonresonant2
        with pytest.raises(ValueError, match="below-flag"):
            chart_transitions(ctx, res, [[0.05, 0.05]])

    def test_window_scales_with_order(self, koenigs):
        _, ctx, _ = koenigs
        w = default_chart_window(ctx)
        assert w > 2 * ctx.cocycle.period
        assert isinstance(w, int)

    @pytest.mark.parametrize("case,offsets,base", [
        ("koenigs", [[0.05], [-0.05], [0.02], [-0.02]], 0),
        ("period2", [[0.03], [-0.03], [0.01]], 1),
        ("resonant2", [[0.05, 0.05], [-0.02, 0.03]], 0),
    ])
    def test_stacked_points_equal_one_point_calls(self, request, case, offsets, base):
        _, ctx, res = request.getfixturevalue(case)
        stacked = chart_transitions(ctx, res, np.array(offsets), base=base)
        assert len(stacked) == len(offsets)
        for y, rep in zip(offsets, stacked):
            one = chart_transitions(ctx, res, [y], base=base)[0]
            assert rep.offset == one.offset == tuple(y)
            assert rep.window == one.window
            assert rep.passed and one.passed
            assert coeff_diff(rep.transition, one.transition) <= 1e-15
            assert abs(rep.npart_max - one.npart_max) <= 1e-15
            assert abs(rep.deviation_max - one.deviation_max) <= 1e-15
            assert rep.eval_radius == one.eval_radius

    @pytest.mark.parametrize("case,offsets", [
        ("koenigs", [[0.05], [-0.05], [0.02], [-0.02]]),
        ("resonant2", [[0.05, 0.05], [-0.02, 0.03]]),
        ("within_block2", [[0.05, 0.05], [0.02, -0.02], [-0.01, 0.01]]),
    ])
    def test_deviation_bounds_the_sphere(self, request, case, offsets):
        # the majorant bounds |G - proj G| on the cube |t_j| <= r, so on the
        # sphere of radius r; G - proj G is evaluated as the polynomial N,
        # whose rounding is the only slack
        _, ctx, res = request.getfixturevalue(case)
        rng = np.random.default_rng(0)
        reports = chart_transitions(ctx, res, offsets)
        for rep in reports:
            dirs = rng.standard_normal((4096, ctx.cocycle.dim))
            pts = rep.eval_radius * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            space = ctx.cocycle.space
            transition = PolyMap.from_jet(space, space, res.order, rep.transition)
            n_part = subresonance_split(transition, ctx.structure)[1]
            sampled = float(np.max(np.abs(n_part.evaluate_batch(pts))))
            assert sampled <= rep.deviation_max * (1 + 1e-12)
        if case == "within_block2":
            assert min(rep.deviation_max for rep in reports) > 0.0

    def test_short_window_fails_honestly(self, koenigs):
        # an absurdly short window leaves the terminal truncation visible
        _, ctx, res = koenigs
        rep = chart_transitions(ctx, res, [[0.05]], window=4)[0]
        assert not rep.passed

    @pytest.mark.parametrize("offsets", [[[0.03, 0.1]], [0.03], [[[0.03]]], 0.03])
    def test_offsets_not_shaped_p_by_m_rejected(self, period2, offsets):
        # [[0.03, 0.1]] on the 1-d cocycle used to be read as two points
        _, ctx, res = period2
        with pytest.raises(ValueError, match=r"offsets must have shape \(P, 1\)"):
            chart_transitions(ctx, res, offsets)

    @pytest.mark.parametrize("window", [0, -3])
    def test_empty_window_rejected(self, koenigs, window):
        _, ctx, res = koenigs
        with pytest.raises(ValueError, match="window must be at least 1 step"):
            chart_transitions(ctx, res, [[0.05]], window=window)


def assert_equals_reference(ctx, res, offsets, base=0, stack=True, window=None):
    """The chart reports, and with `stack` the window stack they solve, equal
    those of the full recentring of every step to the bit."""
    stacks = []

    def capture(jets, *args):
        stacks.append(jets.copy())
        return solve_window(jets, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "solve_window", capture)
        reports = chart_transitions(ctx, res, offsets, base=base, window=window)
    if stack:
        full = recentred_windows(ctx.cocycle, np.asarray(offsets, dtype=float), base,
                                 reports[0].window)
        assert stacks[0].tobytes() == full.tobytes()
    reference = chart_reference(ctx, res, offsets, base=base, window=window)
    assert len(reports) == len(reference)
    for rep, ref in zip(reports, reference):
        assert rep.transition.tobytes() == ref.transition.tobytes()
        assert rep.npart_max.hex() == ref.npart_max.hex()
        assert rep.deviation_max.hex() == ref.deviation_max.hex()
        assert (rep.offset, rep.window, rep.eval_radius) == (ref.offset, ref.window,
                                                              ref.eval_radius)


def chart_work(monkeypatch):
    """Record the orbit steps (evaluations of the offset points under one
    fiber map), the reads of the fiber maps' evaluation plans and the rows of
    each recentring composition (compose_jets calls before the window solve)
    of the chart checks run after it."""
    work = {"evaluations": 0, "plans": 0, "compositions": [], "solved": False}
    evaluate, compose, solve = verify._evaluate, verify.compose_jets, verify.solve_window
    eval_plan = polymap.PolyMap.__dict__["_eval_plan"]

    def counted_evaluate(plan, constant, points):
        work["evaluations"] += 1
        return evaluate(plan, constant, points)

    def counted_plan(self):
        work["plans"] += 1
        return eval_plan.func(self)

    def counted_compose(outer, inner, dim, degree):
        if not work["solved"]:
            work["compositions"].append(len(inner))
        return compose(outer, inner, dim, degree)

    def counted_solve(*args):
        work["solved"] = True
        return solve(*args)

    monkeypatch.setattr(verify, "_evaluate", counted_evaluate)
    monkeypatch.setattr(polymap.PolyMap, "_eval_plan", property(counted_plan))
    monkeypatch.setattr(verify, "compose_jets", counted_compose)
    monkeypatch.setattr(verify, "solve_window", counted_solve)
    return work


def builtin_chart(name, seed):
    scenario = build_builtin(name, seed)
    config = scenario.config
    ctx = SolverContext.prepare(scenario.cocycle, config["epsilon"], config["order"])
    return ctx, solve_normal_form(ctx), config["checks"]["chart"]["points"]


class TestChartTransient:
    """The chart check recentres the maps only until they equal the base maps
    to the bit, and gives the full-window reference to the bit."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", ["koenigs", "koenigs_period2", "resonant2"])
    def test_builtins_equal_full_window(self, name, seed):
        assert_equals_reference(*builtin_chart(name, seed))

    @pytest.mark.parametrize("base", [0, 1])
    def test_zero_offset_beside_a_moving_point(self, period2, base):
        # the zero offset's maps are the base maps from step 0, the other
        # window's only after its transient
        _, ctx, res = period2
        offsets = [[0.03], [0.0]]
        assert_equals_reference(ctx, res, offsets, base)

    def test_koenigs_stops_after_the_transient(self, monkeypatch):
        ctx, res, points = builtin_chart("koenigs", 1)
        window = default_chart_window(ctx)
        work = chart_work(monkeypatch)
        reports = chart_transitions(ctx, res, points)
        assert window == 518
        assert work["evaluations"] <= 63  # the full window takes 517
        assert work["plans"] == ctx.cocycle.period
        assert sum(work["compositions"]) <= 64 * len(points)
        assert all(rep.window == window for rep in reports)

    def test_resonant2_recentres_the_whole_window(self, monkeypatch):
        # the recentred entry (0, 1) of the linear part is 0.6 c_1, which
        # does not underflow in the window: no stop, every step recentred,
        # steps 32 to 150 in one composition once that zero slot has grown
        ctx, res, points = builtin_chart("resonant2", 1)
        window = default_chart_window(ctx)
        work = chart_work(monkeypatch)
        reports = chart_transitions(ctx, res, points)
        assert window == 150
        assert work["evaluations"] == window - 1
        assert work["plans"] == ctx.cocycle.period
        assert sum(work["compositions"]) == window * len(points)
        assert len(work["compositions"]) == 2
        assert all(rep.window == window for rep in reports)
        monkeypatch.undo()
        assert_equals_reference(ctx, res, points)

    @pytest.mark.parametrize("name,rows", [("koenigs", 665), ("koenigs_period2", 337),
                                           ("resonant2", 150)])
    def test_shared_steps_solved_once(self, monkeypatch, name, rows):
        # after the stop the windows' maps agree to the bit, and the window
        # solve runs those steps once: koenigs's 4 windows of 518 steps agree
        # from step 49 (665 rows of 2072), koenigs_period2's 2 windows of 296
        # from step 41 (337 of 592); resonant2 has one window of 150
        ctx, res, points = builtin_chart(name, 1)
        solved = []
        loop = normalform._degree_loop

        def counted(fibers, *args):
            solved.append(len(fibers))
            return loop(fibers, *args)

        monkeypatch.setattr(normalform, "_degree_loop", counted)
        chart_transitions(ctx, res, points)
        assert solved == [rows]

    def test_koenigs_chart_memory(self):
        # the window solve's composition table spans the 665 distinct rows,
        # not the 2072 of the (518, 4) stack, whose table took the peak of
        # the check to 1.12 MB
        ctx, res, points = builtin_chart("koenigs", 1)
        chart_transitions(ctx, res, points)
        tracemalloc.start()
        try:
            chart_transitions(ctx, res, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 800_000

    @pytest.mark.parametrize("order", [3, 4])
    def test_stop_before_the_last_bit_settles(self, order):
        # a random one-block cocycle whose stop fires at step 128 of a
        # 700-step window while the recentred map there still differs from
        # its base map by 4.3e-19 in one degree-2 slot: the stack moves,
        # the reports must not
        rng = np.random.default_rng(1567833589)
        amp, degree = rng.uniform(0.01, 0.5), int(rng.integers(2, 4))
        cocycle = random_cocycle(rng, (-0.3,), (3,), 1, amp=amp, degree=degree, wobble=0.3)
        offsets = rng.uniform(-0.05, 0.05, (3, 3))
        ctx = SolverContext.prepare(cocycle, 0.05, order)
        assert_equals_reference(ctx, solve_normal_form(ctx), offsets, stack=False, window=700)


# (exponents, dims, epsilon) of one to three blocks with comfortable margins
CHART_SPECTRA = (
    ((-1.0,), (1,), 0.05),
    ((-1.0,), (2,), 0.05),
    ((-1.8, -0.75), (1, 1), 0.04),
    ((-2.0, -1.1), (2, 1), 0.025),
    ((-1.2, -0.8, -0.4), (1, 1, 1), 0.02),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data(), st.sampled_from(CHART_SPECTRA), st.integers(1, 3),
       st.floats(0.0, 0.3), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_chart_equals_full_window_on_random_cocycles(data, spectrum, period, wobble, seed,
                                                     every_slot):
    # admissible-only maps either stop at once (one block: the maps are
    # linear) or never (several blocks: a slot held at zero grows); one block
    # with every slot drawn stops after a transient, as koenigs does.  The
    # reports are compared, not the stack: rounding is not monotone along a
    # rotating orbit, so a map after the stop can differ from its base map in
    # the last bit, far too deep in the window to reach a report
    exponents, dims, epsilon = spectrum
    every_slot = every_slot and len(dims) == 1
    structure = None if every_slot else Spectrum(exponents, dims, epsilon=epsilon).structure
    cocycle = random_cocycle(np.random.default_rng(seed), exponents, dims, period,
                             amp=0.1, structure=structure, wobble=wobble)
    order = max(3, math.floor(exponents[0] / exponents[-1] + 1e-9))
    ctx = SolverContext.prepare(cocycle, epsilon, order)
    res = solve_normal_form(ctx)
    # offsets of size 0.005 to 0.05: a zero offset stops at once
    offsets = data.draw(arrays(np.float64, (3, sum(dims)), elements=st.one_of(
        st.floats(-0.05, -0.005), st.floats(0.005, 0.05))))
    base = data.draw(st.integers(0, period - 1))
    assert_equals_reference(ctx, res, offsets, base, stack=False)


# one passing report of each class; every bound below is positive
PASSING_REPORTS = {
    "residual": ResidualReport(2, 1e-13, (0.0, 1e-16, 2e-16), (1e-15, 2e-15, 3e-15), 1e-3),
    "gauge": GaugeReport(np.zeros((1, 1, 3)), 0.0, 1e-12, 0.0, 1e-9),
    "centralizer": CentralizerReport(np.zeros((1, 1, 3)), 1, 0.0, 1e-12, 0.0, 1e-9),
    "flag": FlagReport(0.0, 1e-12),
    "chart": ChartReport(np.zeros((1, 3)), (0.01,), 100, 1e-12, 0.0, 0.01, 1e-7),
    "sandwich": SandwichReport(0.0, True, 1.0, 12, 24, 1e-6),
}


def broken_limits(rep):
    return [line for line, ok in rep.limits() if not ok]


class TestLimits:
    """Each report states its bounded quantities once: a quantity at NaN or
    at twice its bound fails the report and is the one broken limit, named
    with its value and bound."""

    @pytest.mark.parametrize("name, quantity", [
        ("residual", 0), ("residual", 1), ("residual", 2),
        ("gauge", "npart_max"), ("gauge", "beyond_degree_max"),
        ("centralizer", "npart_max"), ("centralizer", "beyond_degree_max"),
        ("flag", "max_below_flag"),
        ("chart", "npart_max"), ("chart", "deviation_max"),
        ("sandwich", "max_violation"),
    ])
    @pytest.mark.parametrize("twice", [False, True], ids=["nan", "twice_bound"])
    def test_quantity_beyond_its_bound_fails(self, name, quantity, twice):
        rep = PASSING_REPORTS[name]
        assert rep.passed and rep.to_dict()["passed"] is True
        assert broken_limits(rep) == []
        bound = rep.bounds[quantity] if name == "residual" else rep.tol
        value = 2 * bound if twice else math.nan
        shown = f"{value:.3g}" if twice else "nan"
        if name == "residual":
            values = list(rep.max_residuals)
            values[quantity] = value
            bad = dataclasses.replace(rep, max_residuals=tuple(values))
            line = f"degree {quantity} max {shown} > bound {bound:.3g}"
        else:
            bad = dataclasses.replace(rep, **{quantity: value})
            line = f"{quantity} {shown} > tol {bound:.3g}"
        assert bad.passed is False and bad.to_dict()["passed"] is False
        assert broken_limits(bad) == [line]

    def test_every_bounded_quantity_is_a_limit(self):
        counts = {name: len(rep.limits()) for name, rep in PASSING_REPORTS.items()}
        assert counts == {"residual": 3, "gauge": 2, "centralizer": 2, "flag": 1,
                          "chart": 2, "sandwich": 2}

    def test_keps_ok_false_fails(self):
        bad = dataclasses.replace(PASSING_REPORTS["sandwich"], keps_ok=False)
        assert bad.passed is False and bad.to_dict()["passed"] is False
        assert broken_limits(bad) == ["keps_ok false"]

    def test_unbounded_fields_do_not_decide(self):
        # the alignment, commutation residual and evaluation radius are reported only
        for name, field_name in (("gauge", "alignment_max"),
                                 ("centralizer", "commutation_residual"),
                                 ("chart", "eval_radius"),
                                 ("sandwich", "lambda_min_gram"),
                                 ("residual", "leading_term")):
            rep = dataclasses.replace(PASSING_REPORTS[name], **{field_name: math.nan})
            assert rep.passed, name
