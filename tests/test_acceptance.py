"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts the same condition, so the suite doubles as a human-readable
scorecard and a hard gate.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from check_reference import coeff_diff

from orbitnf.cli import main
from orbitnf.cocycle import (
    OrbitCocycle,
    lyapunov_frames,
    monodromy_spectrum,
    sandwich_check,
)
from orbitnf.normalform import SolverContext, solve_normal_form
from orbitnf.polymap import GradedSpace, PolyMap, _mono_table, compose_truncated, degree_cols
from orbitnf.scenarios import build_builtin, builtin_names, random_scenario
from orbitnf.verify import (
    centralizer_check,
    chart_transitions,
    conjugacy_residual,
    flag_invariance,
    gauge_compare,
    iterates,
    series_vs_direct,
)


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def prepare(cocycle, config) -> SolverContext:
    return SolverContext.prepare(
        cocycle, config["epsilon"], config["order"],
        resonance_tol=config["resonance_tol"],
        cluster_tol=config["cluster_tol"],
        tail_tol=config["tail_tol"],
        series_tol=config["series_tol"])


@pytest.fixture(scope="module")
def solved():
    out = {}
    for name in builtin_names():
        scenario = build_builtin(name)
        ctx = prepare(scenario.cocycle, scenario.config)
        out[name] = SimpleNamespace(
            cocycle=scenario.cocycle, config=scenario.config,
            ctx=ctx, result=solve_normal_form(ctx))
    return out


def test_01_scalar_linearization_coefficients():
    scenario = build_builtin("koenigs")
    t0 = time.perf_counter()
    ctx = prepare(scenario.cocycle, scenario.config)
    result = solve_normal_form(ctx)
    elapsed = time.perf_counter() - t0
    h = result.conjugator[0]
    err2 = abs(h.coeffs.get((0, (2,)), 0.0) - 0.4)
    err3 = abs(h.coeffs.get((0, (3,)), 0.0) - 8.0 / 75.0)
    ok = err2 <= 1e-12 and err3 <= 1e-12 and elapsed < 1.0
    verdict(1, f"koenigs conjugator 0.4 and 8/75 within 1e-12 "
               f"(errors {err2:.1e}, {err3:.1e}; {elapsed:.2f}s)", ok)


def test_02_resonant_map_left_unchanged(solved):
    s = solved["resonant2"]
    ident = PolyMap.identity(s.cocycle.space, s.result.order)
    h_gap = max(coeff_diff(h, ident) for h in s.result.conjugator)
    p = s.result.normal_form[0]
    p_exact = (p.coeffs == s.cocycle.fiber_maps[0].coeffs
               and not p.constant.any())
    admissible = s.ctx.structure.admissible(2) == frozenset({(1, (0, 2))})
    ok = h_gap <= 1e-12 and p_exact and admissible
    verdict(2, f"resonant2 conjugator identity (gap {h_gap:.1e}), "
               f"normal form bit-equal to input, degree-2 set exact", ok)


def test_03_nonresonant_term_removed(solved):
    s = solved["nonresonant2"]
    p_nonlinear = max(coeff_diff(p, p.truncated(1)) for p in s.result.normal_form)
    got = s.result.conjugator[0].coeffs.get((1, (2, 0)), 0.0)
    expected = 0.2 / (math.exp(-0.4) - math.exp(-2.0))
    err = abs(got - expected)
    ok = p_nonlinear <= 1e-15 and err <= 1e-10
    verdict(3, f"nonresonant2 normal form linear ({p_nonlinear:.1e}), "
               f"conjugator coefficient {expected:.6f} (error {err:.1e})", ok)


def test_04_series_agrees_with_dense_solve(solved):
    t0 = time.perf_counter()
    worst = 0.0
    for s in solved.values():
        worst = max(worst, series_vs_direct(s.ctx, s.result))
    for index in range(20):
        scenario = random_scenario(index)
        ctx = prepare(scenario.cocycle, scenario.config)
        result = solve_normal_form(ctx)
        worst = max(worst, series_vs_direct(ctx, result))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    verdict(4, f"series vs dense solve on 6 builtins + 20 random: "
               f"gap {worst:.1e} <= 1e-10 in {elapsed:.1f}s", ok)


def test_05_residual_decay_order(solved):
    # the conjugacy defect vanishes through the order, to within its bound at
    # every degree; at degree order + 1 it is the truncation's own term, or
    # nothing where the scenario is conjugated exactly
    exact_names = ("resonant2", "nonresonant2", "random_subres")
    ok = True
    notes = []
    for name, s in solved.items():
        rep = conjugacy_residual(s.cocycle, s.result, series_tol=s.ctx.series_tol)
        ok = ok and rep.passed
        if name in exact_names:
            ok = ok and rep.leading_term <= 1e-12
            notes.append(f"{name} exact {rep.leading_term:.0e}")
        else:
            ok = ok and rep.leading_term > 1e3 * max(rep.bounds)
            notes.append(f"{name} order {rep.order + 1} term {rep.leading_term:.0e}")
    verdict(5, "conjugacy residual orders: " + ", ".join(notes), ok)


def test_06_gauge_freedom_recovered(solved):
    s = solved["resonant2"]
    space = s.cocycle.space
    bump = PolyMap(space, space, 2, np.zeros(2), {(0, (0, 2)): 0.3})
    res_alt = solve_normal_form(prepare(s.cocycle, s.config), bump)
    rep = gauge_compare(s.result, res_alt)
    got = rep.transition[0, 0, degree_cols(2, 2).start + _mono_table(2, 2)[1][(0, 2)]]
    recover_err = abs(got + 0.3)
    recover_ok = rep.passed and recover_err <= 1e-9

    unique_gap = 0.0
    for name in ("koenigs", "koenigs_period2"):
        base = solved[name]
        s1 = base.cocycle.space
        res_a, res_b = (
            solve_normal_form(prepare(base.cocycle, base.config),
                              PolyMap(s1, s1, 2, np.zeros(1), {(0, (2,)): delta}))
            for delta in (0.3, -0.7))
        unique_gap = max(unique_gap, coeff_diff(res_a.conjugator_jets,
                                                res_b.conjugator_jets))
    ok = recover_ok and unique_gap <= 1e-12
    verdict(6, f"gauge: lifted delta recovered (error {recover_err:.1e}), "
               f"degree-bound-1 solutions identical (gap {unique_gap:.1e})", ok)


def test_07_second_iterate_conjugation(solved):
    worst = 0.0
    all_in_group = True
    for s in solved.values():
        K = s.cocycle.period
        family = iterates(s.cocycle.jets, [2], s.result.order)[0]
        (rep,) = centralizer_check(s.cocycle, s.result, [(2, family)])
        all_in_group = all_in_group and rep.passed
        for k in range(K):
            expected = compose_truncated(
                s.result.normal_form[(k + 1) % K],
                s.result.normal_form[k], s.result.order)
            worst = max(worst, coeff_diff(rep.maps[k], expected))
    ok = worst <= 1e-9 and all_in_group
    verdict(7, f"second iterate conjugates to the squared normal form "
               f"on all builtins (gap {worst:.1e})", ok)


def test_08_lyapunov_machinery(solved):
    space2 = GradedSpace((1, 1))
    maps = (PolyMap.from_linear(np.diag([0.2, 0.5]), space2, space2, 1),
            PolyMap.from_linear(np.diag([0.3, 0.6]), space2, space2, 1))
    spec2 = monodromy_spectrum(OrbitCocycle(space2, maps), epsilon=0.05)
    closed = (math.log(0.06) / 2.0, math.log(0.30) / 2.0)
    mono_err = max(abs(a - b) for a, b in zip(spec2.exponents, closed))

    space1 = GradedSpace((1,))
    scalar = OrbitCocycle(space1, (PolyMap.from_linear(
        np.array([[math.exp(-1.0)]]), space1, space1, 1),))
    spec1 = monodromy_spectrum(scalar, epsilon=0.1)
    frames1 = lyapunov_frames(scalar, spec1)
    keps_err = abs(frames1.k_eps[0]
                   - math.sqrt(2.0 / (1.0 - math.exp(-0.1)) - 1.0))

    sandwich_worst = 0.0
    sandwich_ok = True
    for s in solved.values():
        rep = sandwich_check(s.cocycle, s.ctx.spectrum, s.ctx.frames)
        sandwich_worst = max(sandwich_worst, rep.max_violation)
        sandwich_ok = sandwich_ok and rep.keps_ok
    ok = (mono_err <= 1e-8 and keps_err <= 1e-6
          and sandwich_ok and sandwich_worst <= 1e-6)
    verdict(8, f"monodromy exponents (error {mono_err:.1e}), scalar "
               f"comparison factor (error {keps_err:.1e}), norm sandwich "
               f"(violation {sandwich_worst:.1e})", ok)


def test_09_flag_invariance(solved):
    worst = 0.0
    for s in solved.values():
        rep = flag_invariance(s.result.normal_form_jets, s.cocycle.space)
        worst = max(worst, rep.max_below_flag)
    s = solved["resonant2"]
    injected = s.result.normal_form_jets[0].copy()
    injected[1, degree_cols(2, 2).start + _mono_table(2, 2)[1][(2, 0)]] += 0.1
    detected = flag_invariance(injected, s.cocycle.space).max_below_flag
    ok = worst <= 1e-12 and detected > 1e-3
    verdict(9, f"flag-invariant Jacobians on all builtins ({worst:.1e}); "
               f"injected cross term detected ({detected:.1e})", ok)


def test_10_chart_transitions(solved):
    s = solved["koenigs"]
    affine_ok = True
    worst_dev = 0.0
    for y in (0.05, -0.05, 0.02, -0.02):
        rep = chart_transitions(s.ctx, s.result, np.array([[y]]), tol=1e-7)[0]
        affine_ok = affine_ok and rep.passed
        worst_dev = max(worst_dev, rep.deviation_max, rep.npart_max)

    r = solved["resonant2"]
    rep2 = chart_transitions(r.ctx, r.result, np.array([[0.05, 0.05]]),
                             tol=1e-7)[0]
    d = r.ctx.structure.degree_bound
    beyond = float(np.max(np.abs(rep2.transition[:, degree_cols(2, d).stop:]), initial=0.0))
    two_block_ok = beyond <= 1e-7 and rep2.npart_max <= 1e-7
    ok = affine_ok and two_block_ok
    verdict(10, f"chart transitions: koenigs affine at 4 offsets "
                f"(worst {worst_dev:.1e}), resonant2 sub-resonance "
                f"(beyond-degree {beyond:.1e})", ok)


def test_11_deterministic_reports(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", "koenigs_period2", "--seed", "7",
                   "--out-dir", str(dir_a)])
    code_b = main(["run", "koenigs_period2", "--seed", "7",
                   "--out-dir", str(dir_b)])
    bytes_a = (dir_a / "report.json").read_bytes()
    bytes_b = (dir_b / "report.json").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    verdict(11, f"fixed-seed reruns byte-identical "
                f"({len(bytes_a)} bytes)", ok)
