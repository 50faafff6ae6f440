import math

import numpy as np
import pytest

from orbitnf.cocycle import OrbitCocycle
from orbitnf.grading import Spectrum, SubResStructure, contraction_factor
from orbitnf.normalform import (
    NormalFormResult,
    SolverContext,
    _DegreeOperator,
    _run_series,
    _source_vecs,
    solve_homogeneous_degree,
    solve_normal_form,
    solve_window,
)
from orbitnf.polymap import GradedSpace, PolyMap, compose_truncated, project_subresonance

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


def twisted_reference(pmap, linear, max_degree=None):
    """Phi(R) = A^{-1} o R o A by dict composition, independent of the operator."""
    A = np.asarray(linear, dtype=float)
    deg = pmap.degree if max_degree is None else max_degree
    outer = PolyMap.from_linear(np.linalg.inv(A), pmap.target, pmap.target, 1)
    inner = PolyMap.from_linear(A, pmap.source, pmap.source, 1)
    return compose_truncated(outer, compose_truncated(pmap, inner, deg), deg)


def koenigs_start(ctx):
    """Operator inputs before degree 2: identity conjugator, linear normal form."""
    h = [PolyMap.identity(S1, ctx.order)]
    p = [PolyMap.from_linear(np.array([[0.5]]), S1, S1, 1)]
    return [ctx.cocycle.map_at(0)], h, p


class TestTwistedTransfer:
    def test_scalar_quadratic(self):
        a = math.exp(-0.7)
        R = PolyMap(S1, S1, 2, np.zeros(1), {(0, (2,)): 1.0})
        out = twisted_reference(R, np.array([[a]]))
        # Ainv R(At) = a^{-1} a^2 t^2 = a t^2
        assert out.coeffs[(0, (2,))] == pytest.approx(a, rel=1e-14)
        structure = SubResStructure.from_spectrum(Spectrum((-0.7,), (1,), 0.05))
        op = _DegreeOperator(S1, structure, 2, [np.array([[a]])])
        assert op.apply(0, op.vec(R))[0, 0] == pytest.approx(a, rel=1e-14)

    def test_cross_block_linear_scale(self):
        A = np.diag([math.exp(-2.0), math.exp(-1.0)])
        R = PolyMap(S11, S11, 1, np.zeros(2), {(1, (1, 0)): 1.0})
        out = twisted_reference(R, A)
        # target block 2, source block 1: factor exp(chi_1 - chi_2) = e^{-1}
        assert out.coeffs[(1, (1, 0))] == pytest.approx(math.exp(-1.0), rel=1e-14)
        structure = SubResStructure.from_spectrum(Spectrum((-2.0, -1.0), (1, 1), 0.05))
        op = _DegreeOperator(S11, structure, 1, [A])
        via_matrix = op.apply(0, op.vec(R))
        assert via_matrix[1, op.mono_index[(1, 0)]] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_matches_matrix_operator(self):
        rng = np.random.default_rng(17)
        space = GradedSpace((2, 1))
        spec = Spectrum((-2.0, -1.0), (2, 1), 0.05)
        structure = SubResStructure.from_spectrum(spec)
        theta = 0.4
        blockA = 0.1 * np.array([[math.cos(theta), -math.sin(theta)],
                                 [math.sin(theta), math.cos(theta)]])
        A = np.zeros((3, 3))
        A[:2, :2] = blockA
        A[2, 2] = math.exp(-1.0)
        for n in (2, 3):
            op = _DegreeOperator(space, structure, n, [A])
            coeffs = {}
            for i in range(3):
                for alpha in op.monos:
                    coeffs[(i, alpha)] = float(rng.uniform(-1, 1))
            R = PolyMap(space, space, n, np.zeros(3), coeffs)
            via_matrix = op.apply(0, op.vec(R))
            full = twisted_reference(R, A, max_degree=n)
            _, n_part = project_subresonance(full, structure)
            assert np.max(np.abs(via_matrix - op.vec(n_part))) <= 1e-13


class TestSources:
    def test_koenigs_q2(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        maps, h, p = koenigs_start(ctx)
        op = ctx.operator(2)
        s_vecs = _source_vecs(op, maps, h, p)
        assert op.polymap(s_vecs[0]).coeffs == {(0, (2,)): 0.1}
        q = op.source(0, s_vecs[0])
        assert q[0, op.mono_index[(2,)]] == pytest.approx(0.2, abs=1e-15)

    def test_koenigs_q3_after_degree2(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        maps, h, p = koenigs_start(ctx)
        op2 = ctx.operator(2)
        series = lambda op, q: _run_series(op, q, ctx.series_tol, ctx.max_series_terms, 1)
        H2, P2, _ = solve_homogeneous_degree(op2, maps, h, p, series)
        h[0] = h[0] + op2.polymap(H2[0])
        op3 = ctx.operator(3)
        q = op3.source(0, _source_vecs(op3, maps, h, p)[0])
        assert q[0, op3.mono_index[(3,)]] == pytest.approx(0.08, abs=1e-12)


def window_case(seed):
    """Two flag-preserving maps over dims (2, 1) and conjugators with degree-2 terms."""
    rng = np.random.default_rng(seed)
    space = GradedSpace((2, 1))
    structure = SubResStructure.from_spectrum(Spectrum((-2.0, -1.0), (2, 1), 0.05))
    quad = _DegreeOperator(space, structure, 2, [np.eye(3)]).monos

    def random_quadratic():
        return PolyMap(space, space, 2, np.zeros(3),
                       {(i, a): float(rng.uniform(-1, 1)) for i in range(3) for a in quad})

    linears, maps = [], []
    for _ in range(2):
        # block upper triangular with a full fast block: flag preserving, not adapted
        A = np.triu(rng.uniform(-0.3, 0.3, (3, 3)), 1) + np.diag([0.14, 0.13, 0.37])
        A[1, 0] = rng.uniform(-0.1, 0.1)
        linears.append(A)
        maps.append(PolyMap.from_linear(A, space, space, 2) + random_quadratic())
    h_maps = [PolyMap.identity(space, 3) + random_quadratic() for _ in range(3)]
    p_maps = [PolyMap.from_linear(A, space, space, 1) for A in linears]
    return space, structure, maps, linears, h_maps, p_maps, rng


class TestFinishDegree:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_compose_reference(self, n):
        space, structure, maps, linears, h_maps, p_maps, rng = window_case(5 + n)
        op = _DegreeOperator(space, structure, n, linears)
        h_vecs = [rng.uniform(-1, 1, op.mask.shape) for _ in range(3)]

        def given(op_, q_vecs):
            return [h.copy() for h in h_vecs], {}

        _, p_vecs, diag = solve_homogeneous_degree(op, maps, h_maps, p_maps, given)
        residue = 0.0
        for k in range(2):
            A_map = PolyMap.from_linear(linears[k], space, space, 1)
            Hk, Hnext = op.polymap(h_vecs[k]), op.polymap(h_vecs[k + 1])
            source = (compose_truncated(h_maps[k + 1], maps[k], n).homogeneous_part(n)
                      - compose_truncated(p_maps[k], h_maps[k], n).homogeneous_part(n))
            term = source + compose_truncated(Hnext, A_map, n) \
                - compose_truncated(A_map, Hk, n)
            s_part, n_part = project_subresonance(term, structure)
            assert np.max(np.abs(p_vecs[k] - op.vec(s_part))) <= 1e-13
            residue = max(residue, n_part.coeff_max())
        if n <= structure.degree_bound:
            assert p_vecs[0].any()
            assert diag["defect"] is None
            assert abs(diag["admissible_violation"] - residue) <= 1e-13
        else:
            assert diag["admissible_violation"] is None
            assert abs(diag["defect"] - residue) <= 1e-13


class TestScalarSolves:
    def test_koenigs_closed_form(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        assert h.coeffs[(0, (2,))] == pytest.approx(0.4, abs=1e-12)
        assert h.coeffs[(0, (3,))] == pytest.approx(8.0 / 75.0, abs=1e-12)
        p = res.normal_form[0]
        assert p.coeffs == {(0, (1,)): 0.5}
        assert res.structure.degree_bound == 1

    def test_koenigs_conjugacy_identity(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        p = res.normal_form[0]
        lhs = compose_truncated(h, c.map_at(0), 6)
        rhs = compose_truncated(p, h, 6)
        assert (lhs - rhs).coeff_max() <= 1e-13

    def test_quadratic_scaling_linearity(self):
        for eta in (0.5, 2.0):
            c = koenigs_cocycle(quad=0.1 * eta)
            ctx = SolverContext.prepare(c, 0.05, 3)
            res = solve_normal_form(ctx)
            h2 = res.conjugator[0].coeffs[(0, (2,))]
            assert h2 == pytest.approx(0.4 * eta, abs=1e-12)

    def test_period2_closed_form(self):
        c = scalar_cocycle([{1: 0.5, 2: 0.1}, {1: 0.4}])
        ctx = SolverContext.prepare(c, 0.05, 5)
        res = solve_normal_form(ctx)
        assert res.conjugator[0].coeffs[(0, (2,))] == pytest.approx(0.25, abs=1e-12)
        assert res.conjugator[1].coeffs[(0, (2,))] == pytest.approx(0.1, abs=1e-12)
        for k in range(2):
            assert res.normal_form[k].nonlinear_coeff_max() == 0.0

    def test_series_diagnostics(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 3)
        res = solve_normal_form(ctx)
        d2 = res.diagnostics["degrees"][0]
        assert d2["degree"] == 2
        assert d2["certificate_rho"] < 1.0
        assert d2["tail_bound"] <= 1e-13 * max(1.0, d2["solution_norm"])
        factor = contraction_factor(ctx.spectrum, 2)
        assert d2["measured_period_ratio"] <= factor * 1.05
        # the defect is the series truncation residue, bounded by series_tol
        assert d2["defect"] <= 10.0 * ctx.series_tol


class TestPlanarSolves:
    def test_resonant_pair_exact(self):
        c = resonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        assert h.coeffs == {(0, (1, 0)): 1.0, (1, (0, 1)): 1.0}
        assert res.normal_form[0].coeffs == c.map_at(0).coeffs
        d2 = res.diagnostics["degrees"][0]
        assert d2["short_circuit"] is True

    def test_nonresonant_pair_closed_form(self):
        c = nonresonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.02, 3)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        expected = 0.2 / (math.exp(-0.4) - math.exp(-2.0))
        assert h.coeffs[(1, (2, 0))] == pytest.approx(expected, abs=1e-10)
        assert res.normal_form[0].nonlinear_coeff_max() <= 1e-15

    def test_admissible_violation_small(self):
        c = resonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        for diag in res.diagnostics["degrees"]:
            if diag["admissible_violation"] is not None:
                assert diag["admissible_violation"] <= 1e-14
            if diag["defect"] is not None:
                assert diag["defect"] <= 1e-14


class TestLift:
    def test_lift_changes_gauge_only(self):
        c = resonant2_cocycle()
        delta = 0.3

        def lift(k, n):
            if n == 2:
                return PolyMap(S11, S11, 2, np.zeros(2), {(0, (0, 2)): delta})
            return None

        ctx = SolverContext.prepare(c, 0.05, 4, lift_policy=lift)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        assert h.coeffs[(0, (0, 2))] == pytest.approx(delta, abs=1e-14)
        # conjugacy identity still holds
        lhs = compose_truncated(h, c.map_at(0), 4)
        rhs = compose_truncated(res.normal_form[0], h, 4)
        assert (lhs - rhs).coeff_max() <= 1e-12

    def test_non_admissible_lift_ignored(self):
        c = resonant2_cocycle()

        def lift(k, n):
            if n == 2:
                # below-flag quadratic is not admissible: must be dropped
                return PolyMap(S11, S11, 2, np.zeros(2), {(1, (2, 0)): 0.5})
            return None

        ctx = SolverContext.prepare(c, 0.05, 4, lift_policy=lift)
        res = solve_normal_form(ctx)
        assert res.conjugator[0].coeffs == {(0, (1, 0)): 1.0, (1, (0, 1)): 1.0}


class TestValidation:
    def test_order_below_degree_bound(self):
        c = resonant2_cocycle()
        with pytest.raises(ValueError):
            SolverContext.prepare(c, 0.05, 1)

    def test_non_adapted_rejected(self):
        theta = 0.3
        A = np.array([[0.2 * math.cos(theta), -0.2 * math.sin(theta)],
                      [0.2 * math.sin(theta), 0.2 * math.cos(theta)]])
        # declared grading (1, 1) but the linear part mixes the blocks
        pm = PolyMap.from_linear(A, S11, S11, 1)
        c = OrbitCocycle(S11, (pm,))
        spec = Spectrum((-2.0, -1.0), (1, 1), 0.05)
        structure = SubResStructure.from_spectrum(spec)
        from orbitnf.cocycle import LyapunovFrame
        frames = (LyapunovFrame.euclidean(2),)
        with pytest.raises(ValueError):
            SolverContext(c, spec, structure, frames, 4)

    def test_grading_mismatch_rejected(self):
        c = resonant2_cocycle()
        spec = Spectrum((-1.5,), (2,), 0.05)
        structure = SubResStructure.from_spectrum(spec)
        from orbitnf.cocycle import LyapunovFrame
        frames = (LyapunovFrame.euclidean(2),)
        with pytest.raises(ValueError):
            SolverContext(c, spec, structure, frames, 4)


class TestWindow:
    def test_matches_periodic_solution(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        window = [c.map_at(0)] * 80
        h, p, diag = solve_window(window, ctx.structure, 4)
        href = res.conjugator[0]
        diff = h[0] - href
        assert diff.coeff_max() <= 1e-10
        assert p[0].nonlinear_coeff_max() <= 1e-12

    def test_below_flag_window_rejected(self):
        c = nonresonant2_cocycle()
        spec = Spectrum((-1.0, -0.4), (1, 1), 0.02)
        structure = SubResStructure.from_spectrum(spec)
        # recenter at a nonzero point: the linearization gains a below-flag entry
        F = c.map_at(0)
        y = np.array([0.1, 0.0])
        shifted = compose_truncated(F, PolyMap.identity(S11, 2).with_constant(y), 2)
        recentered = shifted.with_constant(np.zeros(2))
        with pytest.raises(ValueError):
            solve_window([recentered], structure, 3)

    def test_terminal_zero_decays(self):
        c = scalar_cocycle([{1: 0.5, 2: 0.1}, {1: 0.4}])
        ctx = SolverContext.prepare(c, 0.05, 3)
        res = solve_normal_form(ctx)
        window = [c.map_at(k) for k in range(60)]
        h, _, _ = solve_window(window, ctx.structure, 3)
        assert (h[0] - res.conjugator[0]).coeff_max() <= 1e-10
        assert (h[1] - res.conjugator[1]).coeff_max() <= 1e-10


class TestResultShape:
    def test_to_dict_roundtrip_fields(self):
        c = resonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        data = res.to_dict()
        assert data["order"] == 4
        assert len(data["conjugator"]) == 1
        assert len(data["normal_form"]) == 1
        assert data["structure"]["degree_bound"] == 2
        rebuilt = PolyMap.from_dict(data["normal_form"][0])
        assert rebuilt.coeffs == res.normal_form[0].coeffs
