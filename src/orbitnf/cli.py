"""Scenario runner: config parsing, pipeline stages, machine-readable reports.

Subcommands:

  run <config>       solve the scenario, run its enabled checks, write
                     report.json and residuals.csv into the output directory
  list               builtin scenario names with one-line descriptions
  spectrum <config>  stop after the Lyapunov stage, print spectrum, structure,
                     comparison factors and the norm sandwich check as JSON
  verify <config>    re-run the checks against a cached report.json

<config> is either a builtin scenario name or a path to a JSON file.  A file
holds an object whose "scenario" entry is a builtin name or an inline cocycle
object (the serialization format produced in reports); remaining entries
override the scenario defaults.  Exit status: 0 when every enabled check
passes, 1 when a check fails (named on stderr), 2 on configuration errors.

Reports are deterministic: a fixed config and seed reproduce report.json byte
for byte.  Numbers are printed with 17 significant digits, object keys sorted,
and files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from .cocycle import OrbitCocycle, sandwich_check
from .normalform import NormalFormResult, SolverContext, solve_normal_form
from .polymap import PolyMap
from .scenarios import BUILTIN_DESCRIPTIONS, build_builtin, default_checks
from .verify import (
    _coeff_diff,
    centralizer_check,
    chart_consistency,
    conjugacy_residual,
    flag_invariance,
    gauge_compare,
    iterate_extension,
    series_vs_direct,
)

CHECK_ORDER = ("residual", "oracle", "sandwich", "gauge",
               "centralizer", "flag", "chart")


class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


# -- canonical JSON -------------------------------------------------------------
#
# json.dumps cannot pin float formatting, so determinism gets its own writer:
# 17 significant digits, -0.0 normalized, non-finite values rejected, keys
# sorted, two-space indent.

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report payload")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def _canon(obj, pad: str) -> str:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    inner_pad = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner_pad + _canon(v, inner_pad) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in obj:
            if not isinstance(key, (str, int)):
                raise ValueError(f"cannot use {type(key).__name__} as object key")
            items.append((str(key), obj[key]))
        items.sort(key=lambda kv: kv[0])
        body = ",\n".join(
            f"{inner_pad}{json.dumps(k)}: " + _canon(v, inner_pad)
            for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__} in report payload")


def canonical_json(obj) -> str:
    return _canon(obj, "")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- config handling ------------------------------------------------------------

def _merge(base, override):
    """Recursive dict merge; override wins, non-dict values replace."""
    if isinstance(base, dict) and isinstance(override, dict):
        out = dict(base)
        for key, value in override.items():
            out[key] = _merge(base.get(key), value) if key in base else value
        return out
    return override


def _inline_defaults(raw: dict) -> dict:
    return {
        "scenario": raw["scenario"],
        "resonance_tol": 1e-9,
        "cluster_tol": 1e-6,
        "tail_tol": 1e-12,
        "series_tol": 1e-13,
        "rng_seed": 0,
        "checks": default_checks(),
    }


def load_raw_config(arg: str) -> dict:
    if arg in BUILTIN_DESCRIPTIONS:
        return {"scenario": arg}
    if not os.path.exists(arg):
        raise ConfigError(
            f"{arg!r} is neither a builtin scenario nor a config file")
    try:
        with open(arg, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {arg}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def apply_overrides(config: dict, overrides) -> None:
    """Apply --tol-override entries key.path=value in place."""
    for item in overrides:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--tol-override needs key=value, got {item!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ConfigError(f"unknown config path {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {key!r}")
        node[parts[-1]] = value


def resolve_config(arg: str, *, seed: int | None = None,
                   overrides=()) -> tuple[str, OrbitCocycle, dict]:
    """Load, merge, override and validate; returns (name, cocycle, config)."""
    raw = load_raw_config(arg)
    scenario = raw.get("scenario")
    if isinstance(scenario, str):
        build_seed = seed if seed is not None else int(raw.get("rng_seed", 0))
        try:
            built = build_builtin(scenario, seed=build_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        name, cocycle = scenario, built.cocycle
        config = _merge(built.config, raw)
        config["rng_seed"] = build_seed
    elif isinstance(scenario, dict):
        try:
            cocycle = OrbitCocycle.from_dict(scenario)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad inline cocycle: {exc}") from None
        name = str(raw.get("name", "inline"))
        config = _merge(_inline_defaults(raw), raw)
        if seed is not None:
            config["rng_seed"] = seed
    else:
        raise ConfigError(
            "scenario must be a builtin name or an inline cocycle object")

    apply_overrides(config, overrides)
    if isinstance(scenario, str) and int(config["rng_seed"]) != build_seed:
        # an override changed the seed after the cocycle was built
        built = build_builtin(scenario, seed=int(config["rng_seed"]))
        cocycle = built.cocycle
    validate_config(config, cocycle)
    return name, cocycle, config


def validate_config(config: dict, cocycle: OrbitCocycle) -> None:
    order = config.get("order")
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ConfigError("order must be an integer >= 1")
    for key in ("epsilon", "resonance_tol", "cluster_tol",
                "tail_tol", "series_tol"):
        value = config.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not value > 0.0:
            raise ConfigError(f"{key} must be a positive number")
    if isinstance(config.get("rng_seed"), bool) \
            or not isinstance(config.get("rng_seed"), int):
        raise ConfigError("rng_seed must be an integer")
    terms = config.get("max_series_terms", 10_000)
    if isinstance(terms, bool) or not isinstance(terms, int) or terms < 1:
        raise ConfigError("max_series_terms must be an integer >= 1")
    checks = config.get("checks")
    if not isinstance(checks, dict):
        raise ConfigError("checks must be an object")
    unknown = sorted(set(checks) - set(CHECK_ORDER))
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    for check_name, entry in checks.items():
        if not isinstance(entry, dict) or not isinstance(
                entry.get("enabled", False), bool):
            raise ConfigError(f"check {check_name!r} needs an 'enabled' flag")
    points = checks.get("chart", {}).get("points", [])
    for point in points:
        if len(point) != cocycle.dim:
            raise ConfigError(
                f"chart point {point!r} does not match dimension {cocycle.dim}")


def _prepare_context(cocycle: OrbitCocycle, config: dict) -> SolverContext:
    return SolverContext.prepare(
        cocycle, float(config["epsilon"]), int(config["order"]),
        resonance_tol=float(config["resonance_tol"]),
        cluster_tol=float(config["cluster_tol"]),
        tail_tol=float(config["tail_tol"]),
        series_tol=float(config["series_tol"]),
        max_series_terms=int(config.get("max_series_terms", 10_000)))


# -- checks ---------------------------------------------------------------------

def _check_residual(ctx, result, cocycle, config, cfg, seed):
    rep = conjugacy_residual(
        cocycle, result, radii=tuple(float(r) for r in cfg["radii"]),
        samples=int(cfg["samples"]), seed=seed,
        exact_tol=float(cfg["exact_tol"]))
    return rep.to_dict(), rep.passed


def _check_oracle(ctx, result, cocycle, config, cfg, seed):
    gap = series_vs_direct(ctx, result)
    tol = float(cfg["tol"])
    return {"max_coefficient_gap": gap, "tol": tol}, gap <= tol


def _check_sandwich(ctx, result, cocycle, config, cfg, seed):
    rep = sandwich_check(cocycle, ctx.spectrum, ctx.frames, seed=seed + 3)
    tol = float(cfg["tol"])
    passed = rep.keps_ok and rep.max_violation <= tol
    details = {
        "max_violation": rep.max_violation,
        "keps_ok": rep.keps_ok,
        "lambda_min_gram": rep.lambda_min_gram,
        "n_max": rep.n_max,
        "n_samples": rep.n_samples,
        "tol": tol,
    }
    return details, passed


def _first_admissible_slot(structure, space):
    """Lowest-degree admissible nonlinear coefficient slot, or None for d=1."""
    for n in range(2, structure.degree_bound + 1):
        types = sorted(structure.admissible(n))
        if not types:
            continue
        i, s = types[0]
        coord = space.block_slice(i).start
        alpha = [0] * space.dim
        for j, sj in enumerate(s, start=1):
            if sj:
                alpha[space.block_slice(j).start] = sj
        return n, coord, tuple(alpha)
    return None


def _check_gauge(ctx, result, cocycle, config, cfg, seed):
    """Solve again under a lifted gauge and test the transition map.

    With admissible slots (degree bound >= 2) the lift adds a known delta,
    and the transition between the two conjugators must recover it exactly.
    With degree bound 1 the solution is unique, so the lift is ignored and
    both conjugators must come out identical.
    """
    tol = float(cfg["tol"])
    delta = float(cfg.get("delta", 0.05))
    space = cocycle.space
    slot = _first_admissible_slot(ctx.structure, space)
    if slot is None:
        degree, coord, alpha = 2, 0, tuple(
            2 if i == 0 else 0 for i in range(space.dim))
    else:
        degree, coord, alpha = slot
    bump = PolyMap(space, space, degree, np.zeros(space.dim),
                   {(coord, alpha): delta})

    def lift(k, n):
        return bump if n == degree else None

    # spectrum, structure and frames depend only on the cocycle and config
    result_alt = solve_normal_form(dataclasses.replace(ctx, lift_policy=lift))
    rep = gauge_compare(result, result_alt, tol=tol)
    details = rep.to_dict()
    details["delta"] = delta
    details["slot"] = [degree, coord, list(alpha)]
    if slot is None:
        diff = max(_coeff_diff(h, h_alt) for h, h_alt in
                   zip(result.conjugator, result_alt.conjugator))
        details["mode"] = "unique"
        details["conjugator_gap"] = diff
        passed = rep.passed and diff <= 1e-12
    else:
        # H = G o H_alt, so G carries the lifted coefficient negated
        err = max(abs(g.coeffs.get((coord, alpha), 0.0) + delta)
                  for g in rep.transition)
        details["mode"] = "recover"
        details["recovery_error"] = err
        passed = rep.passed and err <= tol
    details["passed"] = passed
    return details, passed


def _check_centralizer(ctx, result, cocycle, config, cfg, seed):
    from .polymap import compose_truncated

    tol = float(cfg["tol"])
    K = cocycle.period
    runs = []
    all_ok = True
    for power in cfg.get("powers", [2, 3]):
        power = int(power)
        ext = iterate_extension(cocycle, power, result.order)
        rep = centralizer_check(cocycle, result, ext, tol=tol)
        gap = 0.0
        for k in range(K):
            expected = result.normal_form[k]
            for j in range(1, power):
                expected = compose_truncated(
                    result.normal_form[(k + j) % K], expected, result.order)
            gap = max(gap, _coeff_diff(rep.maps[k], expected))
        entry = rep.to_dict()
        entry["power"] = power
        entry["vs_normal_form_power"] = gap
        entry["passed"] = rep.passed and gap <= tol
        all_ok = all_ok and entry["passed"]
        runs.append(entry)
    return {"powers": runs, "tol": tol}, all_ok


def _check_flag(ctx, result, cocycle, config, cfg, seed):
    rep = flag_invariance(
        result.normal_form, samples=int(cfg["samples"]), seed=seed + 1,
        radius=float(cfg["radius"]), tol=float(cfg["tol"]))
    return rep.to_dict(), rep.passed


def _check_chart(ctx, result, cocycle, config, cfg, seed):
    tol = float(cfg["tol"])
    reports = []
    all_ok = True
    for point in cfg.get("points", []):
        rep = chart_consistency(ctx, result, np.asarray(point, dtype=float),
                                seed=seed + 2, tol=tol)
        reports.append(rep.to_dict())
        all_ok = all_ok and rep.passed
    return {"points": reports, "tol": tol}, all_ok


_CHECK_RUNNERS = {
    "residual": _check_residual,
    "oracle": _check_oracle,
    "sandwich": _check_sandwich,
    "gauge": _check_gauge,
    "centralizer": _check_centralizer,
    "flag": _check_flag,
    "chart": _check_chart,
}


def run_checks(ctx, result, cocycle, config):
    """Run the enabled checks in fixed order; returns (entries, residual details)."""
    seed = int(config["rng_seed"])
    entries = []
    residual_details = None
    for name in CHECK_ORDER:
        cfg = config["checks"].get(name)
        if not cfg or not cfg.get("enabled", False):
            entries.append({"name": name, "enabled": False, "passed": None})
            continue
        details, passed = _CHECK_RUNNERS[name](
            ctx, result, cocycle, config, cfg, seed)
        if name == "residual":
            residual_details = details
        entries.append({"name": name, "enabled": True, "passed": passed,
                        "details": details})
    return entries, residual_details


# -- report files ---------------------------------------------------------------

def _format_residuals_csv(details: dict | None) -> str:
    lines = ["radius,max_residual,slope_cumulative"]
    if details is not None:
        radii = [float(r) for r in details["radii"]]
        values = [float(v) for v in details["max_residuals"]]
        for i in range(len(radii)):
            if i >= 1 and all(v > 0.0 for v in values[: i + 1]):
                slope = float(np.polyfit(np.log(radii[: i + 1]),
                                         np.log(values[: i + 1]), 1)[0])
                text = _fmt_float(slope)
            else:
                text = "nan"
            lines.append(
                f"{_fmt_float(radii[i])},{_fmt_float(values[i])},{text}")
    return "\n".join(lines) + "\n"


def _assemble_report(name, config, cocycle, ctx, result, checks, passed):
    echo = {k: v for k, v in config.items() if k != "out_dir"}
    return {
        "name": name,
        "config": echo,
        "cocycle": cocycle.to_dict(),
        "k_eps": [frame.k_eps for frame in ctx.frames],
        "result": result.to_dict(),
        "checks": checks,
        "passed": passed,
    }


def _default_out_dir(name: str) -> str:
    return os.path.join("orbitnf_out", name)


def _resolve_out_dir(args, config, name: str) -> str:
    if getattr(args, "out_dir", None):
        return args.out_dir
    if config.get("out_dir"):
        return str(config["out_dir"])
    return _default_out_dir(name)


def _report_failures(checks) -> list[str]:
    return [c["name"] for c in checks
            if c["enabled"] and not c["passed"]]


def run_scenario(config_arg: str, *, out_dir: str | None = None,
                 seed: int | None = None, overrides=()) -> int:
    """Full pipeline for one scenario; writes report files, returns exit status."""
    name, cocycle, config = resolve_config(config_arg, seed=seed,
                                           overrides=overrides)
    ctx = _prepare_context(cocycle, config)
    result = solve_normal_form(ctx)
    checks, residual_details = run_checks(ctx, result, cocycle, config)
    passed = all(c["passed"] for c in checks if c["enabled"])

    directory = out_dir or config.get("out_dir") or _default_out_dir(name)
    os.makedirs(directory, exist_ok=True)
    report = _assemble_report(name, config, cocycle, ctx, result,
                              checks, passed)
    _atomic_write(os.path.join(directory, "report.json"),
                  canonical_json(report) + "\n")
    _atomic_write(os.path.join(directory, "residuals.csv"),
                  _format_residuals_csv(residual_details))

    if not passed:
        print(f"{name}: failed checks: " + ", ".join(_report_failures(checks)),
              file=sys.stderr)
        return 1
    print(f"{name}: all enabled checks passed; report in {directory}")
    return 0


def list_builtins() -> dict[str, str]:
    """Builtin scenario names with their one-line descriptions."""
    return dict(BUILTIN_DESCRIPTIONS)


# -- subcommands ------------------------------------------------------------------

def _cmd_run(args) -> int:
    out_dir = getattr(args, "out_dir", None)
    return run_scenario(args.config, out_dir=out_dir, seed=args.seed,
                        overrides=args.tol_override)


def _cmd_list(args) -> int:
    width = max(len(name) for name in BUILTIN_DESCRIPTIONS)
    for name, description in BUILTIN_DESCRIPTIONS.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_spectrum(args) -> int:
    name, cocycle, config = resolve_config(args.config, seed=args.seed,
                                           overrides=args.tol_override)
    ctx = _prepare_context(cocycle, config)
    rep = sandwich_check(cocycle, ctx.spectrum, ctx.frames,
                         seed=int(config["rng_seed"]) + 3)
    payload = {
        "name": name,
        "spectrum": ctx.spectrum.to_dict(),
        "structure": ctx.structure.to_dict(),
        "k_eps": [frame.k_eps for frame in ctx.frames],
        "sandwich": {
            "max_violation": rep.max_violation,
            "keps_ok": rep.keps_ok,
            "lambda_min_gram": rep.lambda_min_gram,
            "n_max": rep.n_max,
            "n_samples": rep.n_samples,
            "passed": rep.passed,
        },
    }
    print(canonical_json(payload))
    return 0


def _cmd_verify(args) -> int:
    name, cocycle, config = resolve_config(args.config, seed=args.seed,
                                           overrides=args.tol_override)
    directory = _resolve_out_dir(args, config, name)
    report_path = os.path.join(directory, "report.json")
    if not os.path.exists(report_path):
        raise ConfigError(f"no cached report at {report_path}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)

    # the cached run is self-contained: take its cocycle and config echo,
    # then let command line overrides adjust tolerances on top
    cocycle = OrbitCocycle.from_dict(report["cocycle"])
    config = _merge(report["config"], {})
    apply_overrides(config, args.tol_override)
    if args.seed is not None:
        config["rng_seed"] = args.seed
    validate_config(config, cocycle)

    ctx = _prepare_context(cocycle, config)
    stored = report["result"]
    result = NormalFormResult(
        conjugator=tuple(PolyMap.from_dict(d) for d in stored["conjugator"]),
        normal_form=tuple(PolyMap.from_dict(d) for d in stored["normal_form"]),
        spectrum=ctx.spectrum,
        structure=ctx.structure,
        order=int(stored["order"]),
        diagnostics=stored.get("diagnostics", {}),
    )
    checks, _ = run_checks(ctx, result, cocycle, config)
    for entry in checks:
        if not entry["enabled"]:
            print(f"{entry['name']}: skipped")
        else:
            print(f"{entry['name']}: {'pass' if entry['passed'] else 'FAIL'}")
    failures = _report_failures(checks)
    if failures:
        print(f"{name}: failed checks: " + ", ".join(failures),
              file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitnf",
        description="Polynomial normal forms along contracting periodic "
                    "orbits: scenario runner and verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="builtin scenario name or JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured rng seed")
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry by dotted path, "
                            "e.g. checks.residual.exact_tol=1e-11")

    p_run = sub.add_parser("run", help="solve a scenario and write reports")
    add_common(p_run)
    p_run.add_argument("--out-dir", default=None,
                       help="directory for report.json and residuals.csv")

    sub.add_parser("list", help="list builtin scenarios")

    p_spectrum = sub.add_parser(
        "spectrum", help="run the Lyapunov stage only and print it as JSON")
    add_common(p_spectrum)

    p_verify = sub.add_parser(
        "verify", help="re-run checks against a cached report.json")
    add_common(p_verify)
    p_verify.add_argument("--out-dir", default=None,
                          help="directory holding the cached report.json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "list": _cmd_list,
               "spectrum": _cmd_spectrum, "verify": _cmd_verify}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
