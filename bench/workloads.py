"""The benchmark's three workloads, each a list of items built from a seed.

An item has a timed ``run`` and an untimed ``check`` of what ``run``
returned; ``counts`` gives the item's exact size counters.  Every call into
orbitnf goes through a module or class attribute (``normalform.solve_normal_form``,
``normalform.SolverContext.prepare``) so the span tracer sees it.

* builtins: ``cli.run_scenario`` on the six builtins, reports written to disk.
* ladder: ``SolverContext.prepare`` plus ``solve_normal_form`` on the ROADMAP
  scaling ladder, no checks.
* random_suite: prepare, solve and ``cli.run_checks`` on
  ``random_scenario(12 * seed + i)``, i = 0..11.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from orbitnf import cli, normalform, scenarios
from orbitnf.cocycle import OrbitCocycle
from orbitnf.polymap import PolyMap

# (dims, period K, order M, epsilon); exponents (-2.0, -0.8) for two blocks,
# (-1.2, -0.8, -0.4) for three.  The ROADMAP's (3,3) K=1 M=5 row is left out:
# its 13 s solve alone would exceed the whole workload.
LADDER_ROWS = (
    ((2, 2), 2, 4, 0.04),
    ((1, 1, 1), 3, 5, 0.02),
    ((2, 2), 2, 6, 0.04),
    ((2, 3), 2, 5, 0.03),
    ((3, 3), 1, 4, 0.03),
)
LADDER_EXPONENTS = {2: (-2.0, -0.8), 3: (-1.2, -0.8, -0.4)}
SUITE_SIZE = 12


@dataclass
class Item:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, str]]
    counts: Callable[[Any], dict]


def size_counts(block_dims, period: int, order: int, admissible_by_degree,
                series_terms: int) -> dict:
    """Coefficient slots, admissible slots and computed dense-transfer bytes
    over degrees 2..order: sum_n K (m n_mono)^2 8 bytes."""
    m = sum(block_dims)
    slots = admissible = transfer = 0
    for n in range(2, order + 1):
        per_degree = m * math.comb(m + n - 1, n)
        slots += per_degree
        transfer += period * per_degree ** 2 * 8
        for i, s in admissible_by_degree.get(n, ()):
            admissible += block_dims[i - 1] * math.prod(
                math.comb(block_dims[j] + s[j] - 1, s[j])
                for j in range(len(block_dims)))
    return {"grading.slots": slots, "grading.admissible_slots": admissible,
            "normalform.transfer_bytes": transfer,
            "normalform.series_terms": series_terms}


def _series_terms(diagnostics: dict) -> int:
    return sum(int(d["series_terms"]) for d in diagnostics["degrees"])


def _solved_counts(ctx, result) -> dict:
    structure = ctx.structure
    by_degree = {n: structure.admissible(n)
                 for n in range(2, structure.degree_bound + 1)}
    return size_counts(ctx.cocycle.space.block_dims, ctx.cocycle.period,
                       ctx.order, by_degree, _series_terms(result.diagnostics))


def _check_solved(ctx, result) -> tuple[bool, str]:
    from check import check_solution  # untimed: only checks need it

    spectrum = result.spectrum
    return check_solution(ctx.cocycle, result.conjugator, result.normal_form,
                          result.order, spectrum.exponents,
                          spectrum.resonance_tol)


def _failed_checks(entries) -> list[str]:
    return [e["name"] for e in entries if e["enabled"] and not e["passed"]]


# -- builtins ------------------------------------------------------------------

def _builtin_item(name: str, seed: int, out_dir: str) -> Item:
    directory = os.path.join(out_dir, name)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_scenario(name, out_dir=directory, seed=seed)

    def report():
        with open(os.path.join(directory, "report.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def check(status):
        from check import check_solution

        if status != 0:
            return False, f"run_scenario exit status {status}"
        rep = report()
        failed = _failed_checks(rep["checks"])
        if failed or rep["passed"] is not True:
            return False, "failed checks: " + ", ".join(failed)
        res = rep["result"]
        spectrum = res["spectrum"]
        return check_solution(
            OrbitCocycle.from_dict(rep["cocycle"]),
            [PolyMap.from_dict(d) for d in res["conjugator"]],
            [PolyMap.from_dict(d) for d in res["normal_form"]],
            int(res["order"]), tuple(spectrum["exponents"]),
            float(spectrum["resonance_tol"]))

    def counts(status):
        res = report()["result"]
        by_degree = {int(n): [(i, tuple(s)) for i, s in types]
                     for n, types in res["structure"]["types_by_degree"].items()}
        return size_counts(tuple(res["spectrum"]["multiplicities"]),
                           len(res["conjugator"]), int(res["order"]),
                           by_degree, _series_terms(res["diagnostics"]))

    return Item(name, run, check, counts)


def _builtins(seed: int, out_dir: str) -> list[Item]:
    return [_builtin_item(name, seed, out_dir)
            for name in scenarios.builtin_names()]


# -- ladder --------------------------------------------------------------------

def _ladder_item(dims, period, order, epsilon, seed) -> Item:
    exponents = LADDER_EXPONENTS[len(dims)]
    cocycle = scenarios.random_cocycle(np.random.default_rng(seed), exponents,
                                       dims, period, amp=0.05)

    def run():
        ctx = normalform.SolverContext.prepare(cocycle, epsilon, order)
        return ctx, normalform.solve_normal_form(ctx)

    def check(out):
        ctx, result = out
        gap = max(abs(a - b) for a, b in
                  zip(result.spectrum.exponents, exponents))
        if len(result.spectrum.exponents) != len(exponents) or gap > 1e-9:
            return False, f"spectrum {result.spectrum.exponents} != {exponents}"
        return _check_solved(ctx, result)

    label = "x".join(map(str, dims))
    return Item(f"dims={label},K={period},M={order}", run, check,
                lambda out: _solved_counts(*out))


def _ladder(seed: int, out_dir: str) -> list[Item]:
    return [_ladder_item(*row, seed) for row in LADDER_ROWS]


# -- random_suite --------------------------------------------------------------

def _suite_item(index: int) -> Item:
    scenario = scenarios.random_scenario(index)
    cocycle, config = scenario.cocycle, scenario.config

    def run():
        ctx = normalform.SolverContext.prepare(
            cocycle, float(config["epsilon"]), int(config["order"]),
            resonance_tol=float(config["resonance_tol"]),
            cluster_tol=float(config["cluster_tol"]),
            tail_tol=float(config["tail_tol"]),
            series_tol=float(config["series_tol"]))
        result = normalform.solve_normal_form(ctx)
        entries, _ = cli.run_checks(ctx, result, cocycle, config)
        return ctx, result, entries

    def check(out):
        ctx, result, entries = out
        failed = _failed_checks(entries)
        if failed:
            return False, "failed checks: " + ", ".join(failed)
        return _check_solved(ctx, result)

    return Item(scenario.name, run, check, lambda out: _solved_counts(*out[:2]))


def _random_suite(seed: int, out_dir: str) -> list[Item]:
    return [_suite_item(SUITE_SIZE * seed + i) for i in range(SUITE_SIZE)]


def build(workload: str, seed: int, out_dir: str) -> list[Item]:
    """Items of a workload; out_dir receives any files the items write."""
    builders = {"builtins": _builtins, "ladder": _ladder,
                "random_suite": _random_suite}
    return builders[workload](seed, out_dir)
