"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest bench/test_bench.py

The traced-pass tests run every workload twice in fresh interpreters and
take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = run.WORKLOADS
EXACT = ("grading.slots", "grading.admissible_slots",
         "normalform.transfer_bytes", "normalform.series_terms",
         "verify.window_steps", "verify.window_compose_calls",
         "polymap.compose_calls", "polymap.invert_calls",
         "polymap.evaluate_batch_calls")


def test_speed_factor_is_reference_over_mean_kernel_time():
    ref = calib.REFERENCE_CALIB_S
    assert calib.speed_factor([ref, ref, ref]) == pytest.approx(1.0)
    # a pass that ran the kernel at half speed on average counts half
    assert calib.speed_factor([ref, 3 * ref, 2 * ref]) == pytest.approx(0.5)


def test_sampler_interleaves_the_kernel_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = calib.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5 * calib.SAMPLE_INTERVAL_S:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    sampler.top_up()
    assert len(sampler.samples) >= calib.MIN_SAMPLES


@pytest.fixture(scope="module")
def ladder_solution():
    item = workloads.build("ladder", 1, os.path.join(ROOT, ".bench_out"))[0]
    return item, item.run()


def test_output_check_passes_a_correct_solution(ladder_solution):
    item, out = ladder_solution
    ok, detail = item.check(out)
    assert ok, detail


def test_output_check_fails_a_conjugator_truncated_one_degree(ladder_solution):
    _, (ctx, result) = ladder_solution
    order = result.order
    truncated = [h.truncated(order - 1) for h in result.conjugator]
    ok, detail = check.check_solution(
        ctx.cocycle, truncated, result.normal_form, order,
        result.spectrum.exponents, result.spectrum.resonance_tol)
    assert not ok and "conjugacy defect" in detail
    assert check.conjugacy_defect(ctx.cocycle, truncated, result.normal_form,
                                  order) > 1e3 * check.CONJUGACY_TOL


def test_output_check_fails_wrong_slots(ladder_solution):
    from orbitnf.polymap import PolyMap

    _, (ctx, result) = ladder_solution
    exps, tol = result.spectrum.exponents, result.spectrum.resonance_tol
    space = ctx.cocycle.space
    order = result.order

    def bump(key):
        return PolyMap(space, space, order, [0.0] * space.dim, {key: 1e-3})

    # exponents (-2.0, -0.8): x_0^2 into block 1 is not admissible, so a
    # normal form may not carry it; y_0^2 into block 1 is admissible, so the
    # zero lift leaves it empty in H
    x0_sq = (0, (2,) + (0,) * (space.dim - 1))
    y0 = space.block_slice(2).start
    y0_sq = (0, tuple(2 if j == y0 else 0 for j in range(space.dim)))
    assert not check._admissible(exps, tol, 1, (2, 0))
    assert check._admissible(exps, tol, 1, (0, 2))
    p_bad = [p + bump(x0_sq) for p in result.normal_form]
    h_bad = [h + bump(y0_sq) for h in result.conjugator]
    assert check.slot_violations(result.conjugator, p_bad, exps, tol)[0] > 0
    assert check.slot_violations(h_bad, result.normal_form, exps, tol)[1] > 0


def test_tracer_restores_every_binding():
    import orbitnf.cli as cli
    import orbitnf.normalform as normalform
    import orbitnf.polymap as polymap

    before = (polymap.compose_truncated, dict(cli._CHECK_RUNNERS),
              normalform.SolverContext.__dict__["prepare"],
              polymap.PolyMap.__dict__["evaluate_batch"])
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.missing == []
    assert polymap.compose_truncated is not before[0]
    tracer.uninstall()
    after = (polymap.compose_truncated, dict(cli._CHECK_RUNNERS),
             normalform.SolverContext.__dict__["prepare"],
             polymap.PolyMap.__dict__["evaluate_batch"])
    assert after == before


def test_self_time_subtracts_children():
    recs = [["normalform.degree", 0.0, 10.0, -1, "a"],
            ["polymap.compose", 1.0, 4.0, 0, "a"],
            ["polymap.compose", 5.0, 6.0, 0, "a"]]
    out = spans.summarize(recs, {}, 10.0)
    assert out["normalform.degree_self_s"] == 6.0
    assert out["normalform.source_compose_s"] == 4.0
    assert out["polymap.compose_calls"] == 2
    assert out["bench.top_span_coverage"] == 1.0


def _traced_pass(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "pass",
         "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT, env=run._env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_twice(request):
    first = _traced_pass(request.param)
    with open(os.path.join(ROOT, first["trace_file"]), encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    second = _traced_pass(request.param)
    return request.param, first, second, recs


def test_exact_counters_repeat(traced_twice):
    _, first, second, _ = traced_twice
    for p in (first, second):
        assert all(item["ok"] for item in p["items"]), p["items"]
    a = {**first["counts"], **first["layers"]}
    b = {**second["counts"], **second["layers"]}
    for name in EXACT:
        assert a[name] == b[name], name


def test_trace_explains_the_pass(traced_twice):
    workload, first, _, recs = traced_twice
    layers = first["layers"]
    pass_s = first["elapsed_s"]
    assert first["trace_missing"] == []
    assert layers["bench.top_span_coverage"] >= 0.9
    if workload == "ladder":
        assert layers["normalform.share"] >= 0.8
        assert not any(r[0].startswith("verify.") for r in recs)
    else:
        assert layers["normalform.solve_s"] < 0.15 * pass_s
    if workload == "builtins":
        assert layers["verify.chart_s"] >= 0.5 * pass_s
    if workload == "random_suite":
        assert spans.covered_share(recs, ("verify", "cocycle"), pass_s) >= 0.7


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
