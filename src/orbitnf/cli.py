"""Scenario runner: config parsing, pipeline stages, machine-readable reports.

Subcommands:

  run <config>       solve the scenario, run its enabled checks, write
                     report.json and residuals.csv (the largest coefficient
                     of the conjugacy defect at each degree) into the output
                     directory
  list               builtin scenario names with one-line descriptions
  spectrum <config>  stop after the Lyapunov stage, print spectrum, structure,
                     comparison factors and the norm sandwich check as JSON
  verify <config>    re-run the checks against a cached report.json

<config> is either a builtin scenario name or a path to a JSON file.  A file
holds an object whose "scenario" entry is a builtin name or an inline cocycle
object (the serialization format produced in reports); remaining entries
override the scenario defaults.  A config file, a --tol-override and the
config echo of a cached report obey one rule: the config holds exactly the keys
of ``_SCHEMA``, bar the optional name, out_dir and max_series_terms, and each
passes its test.  Each check states its bounded quantities once, as the limits
of ``cocycle._limit``: it passes exactly when all of them hold, and the broken
ones, each a quantity with its value and bound, are its stderr lines.  Exit
status: 0 when every enabled check passes, 1 when a check fails (named on
stderr, followed by its broken limits), 2 on configuration errors, a cached
report.json that lacks a key verify reads or breaks the rule among them.

Reports are deterministic: a fixed config and seed reproduce report.json byte
for byte.  Numbers are printed with 17 significant digits, object keys sorted,
and files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .cocycle import OrbitCocycle, _limit, sandwich_check
# solve_normal_form: no call here, the binding where bench/spans.py traces a solve
from .normalform import NormalFormResult, SolverContext, solve_cycles, solve_normal_form
from .polymap import PolyMap, _mono_table, degree_cols
from .scenarios import BUILTIN_DESCRIPTIONS, _base_config, build_builtin, default_checks
from .verify import (
    centralizer_check,
    chart_transitions,
    conjugacy_residual,
    direct_solve_oracle,
    flag_invariance,
    gauge_compare,
    iterates,
    series_vs_direct,
)

# the gauge check's bound on the gap between two conjugators that the
# degree bound 1 makes unique
_UNIQUE_GAP_TOL = 1e-12


class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


# -- canonical JSON -------------------------------------------------------------
#
# json.dumps cannot pin float formatting, so determinism gets its own writer:
# 17 significant digits, -0.0 normalized, non-finite values rejected, keys
# sorted, two-space indent, each value written by the writer of its type.

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report payload")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


_quoted = lru_cache(maxsize=4096)(json.dumps)


def _canon_list(obj, pad: str) -> str:
    inner = pad + "  "
    body = ",\n".join(inner + _canon(v, inner) for v in obj)
    return f"[\n{body}\n{pad}]" if obj else "[]"


def _canon_dict(obj, pad: str) -> str:
    for key in obj:
        if not isinstance(key, (str, int)):
            raise ValueError(f"cannot use {type(key).__name__} as object key")
    inner = pad + "  "
    body = ",\n".join(f"{inner}{_quoted(k)}: {_canon(v, inner)}" for k, v in
                      sorted(((str(k), v) for k, v in obj.items()), key=itemgetter(0)))
    return f"{{\n{body}\n{pad}}}" if obj else "{}"


# numpy values are converted, and subclasses matched in isinstance order: bool before int
_WRITERS = {
    type(None): lambda obj, pad: "null",
    bool: lambda obj, pad: "true" if obj else "false",
    int: lambda obj, pad: str(obj),
    float: lambda obj, pad: _fmt_float(obj),
    str: lambda obj, pad: _quoted(obj),
    list: _canon_list,
    tuple: _canon_list,
    dict: _canon_dict,
}


def _canon(obj, pad: str) -> str:
    write = _WRITERS.get(type(obj))
    if write is None:
        if isinstance(obj, (np.generic, np.ndarray)):
            obj = obj.tolist()
        write = next((w for kind, w in _WRITERS.items() if isinstance(obj, kind)), None)
        if write is None:
            raise ValueError(f"cannot serialize {type(obj).__name__} in report payload")
    return write(obj, pad)


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


def apply_overrides(config: dict, overrides) -> dict:
    """The config with --tol-override entries key.path=value merged in as the
    entries of a config file are: any key of the table may be set."""
    for item in overrides:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--tol-override needs key=value, got {item!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        for part in reversed(key.split(".")):
            value = {part: value}
        config = _merge(config, value)
    return config


def resolve_config(arg: str, *, seed: int | None = None,
                   overrides=()) -> tuple[str, OrbitCocycle, dict]:
    """Load, merge, override and validate; returns (name, cocycle, config)."""
    raw = load_raw_config(arg)
    if seed is not None:
        raw["rng_seed"] = seed
    raw = apply_overrides(raw, overrides)  # before the seed draws a cocycle
    seed = _valid("rng_seed", raw.get("rng_seed", 0))
    scenario = _valid("scenario", raw.get("scenario"))
    if isinstance(scenario, str):
        try:
            built = build_builtin(scenario, seed=seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        name, cocycle = scenario, built.cocycle
        config = _merge(built.config, raw)
    else:
        try:
            cocycle = OrbitCocycle.from_dict(scenario)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad inline cocycle: {exc}") from None
        name = str(raw.get("name", "inline"))
        # no default epsilon or order: validation names the one a file leaves out
        config = _merge(_base_config(scenario, None, None), raw)
    validate_config(config, cocycle)
    return name, cocycle, config


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_number(value) -> bool:
    """A float or int within the float range: not NaN, not infinite, and no
    integer too large to convert."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _schema() -> dict:
    """Every key a run config may hold, by dotted path, an object before its keys:
    (test, error).  A check entry holds the keys of its ``default_checks`` entry."""
    top = {
        "scenario": (lambda v: isinstance(v, (str, dict)),
                     "a builtin name or an inline cocycle object"),
        "name": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
        "out_dir": (lambda v: isinstance(v, str), "a string"),
        "order": (lambda v: _is_int(v, 1), "an integer >= 1"),
        **dict.fromkeys(("epsilon", "resonance_tol", "cluster_tol", "tail_tol", "series_tol"),
                        (lambda v: _is_number(v) and v > 0.0, "a finite positive number")),
        "rng_seed": (lambda v: _is_int(v, 0), "an integer >= 0"),
        "max_series_terms": (lambda v: _is_int(v, 1), "an integer >= 1"),
        "checks": (lambda v: isinstance(v, dict), "an object"),
    }
    entry_keys = {
        "tol": (_is_number, "a finite number"),
        "delta": (lambda v: _is_number(v) and v != 0.0, "a finite nonzero number"),
        "powers": (lambda v: isinstance(v, list) and all(_is_int(p, 1) for p in v),
                   "a list of integers >= 1"),
        "points": (lambda v: isinstance(v, list) and all(
            isinstance(p, list) and all(map(_is_number, p)) for p in v),
                   "a list of points, each a list of numbers"),
    }
    schema = {path: (test, f"{path} must be {rule}") for path, (test, rule) in top.items()}
    for name, entry in default_checks().items():
        needs = f"check {name!r} needs an 'enabled' flag"
        schema[f"checks.{name}"] = (lambda v: isinstance(v, dict), needs)
        schema[f"checks.{name}.enabled"] = (lambda v: isinstance(v, bool), needs)
        schema.update({f"checks.{name}.{key}": (test, f"checks.{name}.{key} must be {rule}")
                       for key, (test, rule) in entry_keys.items() if key in entry})
    return schema


_SCHEMA = _schema()
_OPTIONAL = ("name", "out_dir", "max_series_terms")


def _valid(path: str, value):
    """``value``, when it passes the test of its key; else the key's ConfigError."""
    test, error = _SCHEMA[path]
    if not test(value):
        raise ConfigError(error)
    return value


def _entry(root, path: str, where: str):
    """The entry of ``root`` at a dotted path, ``root`` itself at ""; a missing
    one, or one under a non-object, is a ConfigError naming it and ``where``."""
    node, keys = root, path.split(".") if path else []
    for depth, key in enumerate(keys):
        if not isinstance(node, dict):
            raise ConfigError(f"{where}: {path!r} is not in an object")
        if key not in node:
            parent = f": {'.'.join(keys[:depth])!r}" if depth else ""
            raise ConfigError(f"{where}{parent} has no key {key!r}")
        node = node[key]
    return node


def validate_config(config: dict, cocycle: OrbitCocycle, where: str = "config") -> None:
    """Check that ``config`` holds the table's keys, bar optional ones, and no other,
    each passing its test, and that every enabled check has something to test."""
    for path in _SCHEMA:
        if path not in _OPTIONAL or path in config:
            _valid(path, _entry(config, path, where))
    for prefix in dict.fromkeys(path[:path.rfind(".") + 1] for path in _SCHEMA):
        unknown = sorted(key for key in _entry(config, prefix[:-1], where)
                         if prefix + key not in _SCHEMA)
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}" if prefix == "checks."
                              else f"unknown config key {prefix + unknown[0]!r}")
    centralizer, chart, gauge = map(config["checks"].get, ("centralizer", "chart", "gauge"))
    if any(len(p) != cocycle.dim for p in chart["points"]):
        raise ConfigError(
            f"checks.chart.points must be a list of points, each a list of "
            f"{cocycle.dim} numbers")
    # an enabled check must have something to test: a power, a point, and a
    # lifted coefficient that a solve ignoring the lift cannot recover within tol
    if centralizer["enabled"] and not centralizer["powers"]:
        raise ConfigError("checks.centralizer.powers must not be empty while the check is enabled")
    if chart["enabled"] and not chart["points"]:
        raise ConfigError("checks.chart.points must not be empty while the check is enabled")
    if gauge["enabled"] and not abs(gauge["delta"]) > gauge["tol"]:
        raise ConfigError(
            "checks.gauge.delta must exceed checks.gauge.tol in magnitude while the "
            "check is enabled: a solve that ignores the lift misses it by |delta|")


def _prepare_context(cocycle: OrbitCocycle, config: dict) -> SolverContext:
    """The solver context of a validated config; max_series_terms is optional."""
    return SolverContext.prepare(cocycle, config["epsilon"], config["order"], **{
        key: config[key] for key in ("resonance_tol", "cluster_tol", "tail_tol",
                                     "series_tol", "max_series_terms") if key in config})


# -- checks ---------------------------------------------------------------------
#
# A runner returns (details, limits): the details its report entry holds, and
# its bounded quantities as the (line, ok) pairs of ``_limit``.  The check
# passes exactly when every limit holds, and the broken ones are its stderr
# lines; a nested ``passed`` reads the limits of its own part.

def _check_residual(ctx, result, cfg):
    rep = conjugacy_residual(ctx.cocycle, result, series_tol=ctx.series_tol)
    return rep.to_dict(), rep.limits()


def _check_oracle(ctx, result, cfg, direct):
    gap = series_vs_direct(ctx, result, direct)
    tol = float(cfg["tol"])
    return ({"max_coefficient_gap": gap, "tol": tol},
            [_limit("max_coefficient_gap", gap, "tol", tol)])


def _check_sandwich(ctx, result, cfg):
    rep = sandwich_check(ctx.cocycle, ctx.spectrum, ctx.frames, tol=float(cfg["tol"]))
    return rep.to_dict(), rep.limits()


def _gauge_lift(ctx, cfg) -> tuple[PolyMap, list[int], bool]:
    """The gauge lift delta t^alpha into coordinate 0, alpha, and whether it is admissible."""
    space = ctx.cocycle.space
    # t_j^2 into coordinate 0, t_j the first coordinate of the slowest block: the
    # smallest type of degree 2, admissible when any type of degree >= 2 is, as
    # s.chi <= 2 chi_ell for |s| >= 2 and chi_i > chi_1 for i >= 2 (else t_0^2)
    recover = (1, (0,) * (space.n_blocks - 1) + (2,)) in ctx.structure.admissible(2)
    alpha = [0] * space.dim
    alpha[space.block_slice(space.n_blocks).start if recover else 0] = 2
    lift = {(0, tuple(alpha)): float(cfg["delta"])}
    return PolyMap(space, space, 2, np.zeros(space.dim), lift), alpha, recover


def _check_gauge(ctx, result, cfg, result_alt):
    """Test the transition to ``result_alt``, the solve under the lift of ``_gauge_lift``.

    With admissible slots (degree bound >= 2) the lift adds a known delta,
    and the transition between the two conjugators must recover it exactly.
    With degree bound 1 the solution is unique, so the lift is ignored and
    both conjugators must come out identical.
    """
    tol, delta, m = float(cfg["tol"]), float(cfg["delta"]), ctx.cocycle.dim
    _, alpha, recover = _gauge_lift(ctx, cfg)
    rep = gauge_compare(result, result_alt, tol=tol)
    details, limits = rep.to_dict(), rep.limits()
    details.update(delta=delta, slot=[2, 0, alpha])
    if not recover:
        diff = float(np.max(np.abs(result.conjugator_jets - result_alt.conjugator_jets)))
        details.update(mode="unique", conjugator_gap=diff)
        limits.append(_limit("conjugator_gap", diff, "tol", _UNIQUE_GAP_TOL))
    else:
        # H = G o H_alt, so G carries the lifted coefficient negated
        col = degree_cols(m, 2).start + _mono_table(m, 2)[1][tuple(alpha)]
        err = float(np.max(np.abs(rep.transition[:, 0, col] + delta)))
        details.update(mode="recover", recovery_error=err)
        limits.append(_limit("recovery_error", err, "tol", tol))
    details["passed"] = all(ok for _, ok in limits)
    return details, limits


def _check_centralizer(ctx, result, cfg):
    tol = float(cfg["tol"])
    cocycle, order = ctx.cocycle, result.order
    powers = cfg["powers"]
    reports = centralizer_check(cocycle, result,
                                list(zip(powers, iterates(cocycle.jets, powers, order))), tol=tol)
    runs, limits = [], []
    for power, rep, nf_power in zip(powers, reports,
                                    iterates(result.normal_form_jets, powers, order)):
        gap = float(np.max(np.abs(rep.maps - nf_power)))
        own = rep.limits() + [_limit("vs_normal_form_power", gap, "tol", tol)]
        runs.append(dict(rep.to_dict(), power=power, vs_normal_form_power=gap,
                         passed=all(ok for _, ok in own)))
        limits += [(f"power {power} {line}", ok) for line, ok in own]
    return {"powers": runs, "tol": tol}, limits


def _check_flag(ctx, result, cfg):
    rep = flag_invariance(result.normal_form_jets, result.space, tol=float(cfg["tol"]))
    return rep.to_dict(), rep.limits()


def _check_chart(ctx, result, cfg):
    tol = float(cfg["tol"])
    reports = chart_transitions(ctx, result, cfg["points"], tol=tol)
    return ({"points": [rep.to_dict() for rep in reports], "tol": tol},
            [(f"point {i} {line}", ok) for i, rep in enumerate(reports)
             for line, ok in rep.limits()])


_CHECK_RUNNERS = {
    "residual": _check_residual,
    "oracle": _check_oracle,
    "sandwich": _check_sandwich,
    "gauge": _check_gauge,
    "centralizer": _check_centralizer,
    "flag": _check_flag,
    "chart": _check_chart,
}
CHECK_ORDER = tuple(_CHECK_RUNNERS)


def _solve(ctx, config, result=None):
    """The main solve, unless ``result`` is handed in, and the enabled gauge and
    oracle re-solves as cycles of one loop: the result, and by check name the
    runner arguments that a re-solve adds."""
    re_solves = {"gauge": lambda: (ctx.series, _gauge_lift(ctx, config["checks"]["gauge"])[0]),
                 "oracle": lambda: (direct_solve_oracle, None)}
    names = [name for name in re_solves if config["checks"][name]["enabled"]]
    cycles = [(ctx.series, None)] * (result is None) + [re_solves[name]() for name in names]
    solved = solve_cycles(ctx, cycles) if cycles else []
    return (solved.pop(0) if result is None else result), {n: (r,) for n, r in zip(names, solved)}


def run_checks(ctx, result, cocycle, config):
    """Run the enabled checks in fixed order; returns (entries, failures):
    one report entry per check, and the line ``"{check}: {limit}"`` of every
    limit an enabled check broke, in check order; the re-solves run as one
    degree loop.  The checks read the cocycle from ``ctx``: ``cocycle`` is ``ctx.cocycle``."""
    return _run_checks(ctx, *_solve(ctx, config, result), config)


def _run_checks(ctx, result, solved, config):
    """``run_checks`` with the re-solves of ``_solve``."""
    entries, failures = [], []
    for name in CHECK_ORDER:
        cfg = config["checks"][name]
        if not cfg["enabled"]:
            entries.append({"name": name, "enabled": False, "passed": None})
            continue
        details, limits = _CHECK_RUNNERS[name](ctx, result, cfg, *solved.get(name, ()))
        entries.append({"name": name, "enabled": True,
                        "passed": all(ok for _, ok in limits), "details": details})
        failures += [f"{name}: {line}" for line, ok in limits if not ok]
    return entries, failures


# -- report files ---------------------------------------------------------------

def _format_residuals_csv(checks) -> str:
    """The residual check's largest defect coefficient per degree, or the header alone."""
    lines = ["degree,max_residual"]
    details = checks[CHECK_ORDER.index("residual")].get("details")
    if details is not None:
        values = details["max_residuals"] + [details["leading_term"]]
        lines += [f"{n},{_fmt_float(float(v))}" for n, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def _assemble_report(name, config, cocycle, ctx, result, checks, passed):
    echo = {k: v for k, v in config.items() if k != "out_dir"}
    solved = result.to_dict()
    # the frames are no solver input, so their truncation records join here
    frames = ctx.frames
    solved["diagnostics"] = dict(solved["diagnostics"], frames=[
        {"horizon": h, "tail_bound": t}
        for h, t in zip(frames.horizon.tolist(), frames.tail_bound.tolist())])
    return {
        "name": name,
        "config": echo,
        "cocycle": cocycle.to_dict(),
        "k_eps": frames.k_eps.tolist(),
        "result": solved,
        "checks": checks,
        "passed": passed,
    }


def _resolve_out_dir(out_dir: str | None, config: dict, name: str) -> str:
    """The --out-dir argument, else the config's out_dir, else orbitnf_out/<name>."""
    return out_dir or config.get("out_dir") or os.path.join("orbitnf_out", name)


def _report_failures(name: str, checks, failures) -> bool:
    """Name the failed checks and then the broken limits of ``run_checks``
    on stderr; True when a check failed."""
    failed = [c["name"] for c in checks if c["enabled"] and not c["passed"]]
    if failed:
        print(f"{name}: failed checks: " + ", ".join(failed), file=sys.stderr)
        for line in failures:
            print(line, file=sys.stderr)
    return bool(failed)


def run_scenario(config_arg: str, *, out_dir: str | None = None,
                 seed: int | None = None, overrides=()) -> int:
    """Full pipeline for one scenario; writes report files, returns exit status."""
    name, cocycle, config = resolve_config(config_arg, seed=seed,
                                           overrides=overrides)
    ctx = _prepare_context(cocycle, config)
    result, solved = _solve(ctx, config)
    checks, failures = _run_checks(ctx, result, solved, config)

    directory = _resolve_out_dir(out_dir, config, name)
    os.makedirs(directory, exist_ok=True)
    report = _assemble_report(name, config, cocycle, ctx, result,
                              checks, not failures)
    _atomic_write(os.path.join(directory, "report.json"),
                  canonical_json(report) + "\n")
    _atomic_write(os.path.join(directory, "residuals.csv"),
                  _format_residuals_csv(checks))

    if _report_failures(name, checks, failures):
        return 1
    print(f"{name}: all enabled checks passed; report in {directory}")
    return 0


# -- subcommands ------------------------------------------------------------------

def _cmd_run(args) -> int:
    return run_scenario(args.config, out_dir=args.out_dir, seed=args.seed,
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
                         tol=float(config["checks"]["sandwich"]["tol"]))
    payload = {
        "name": name,
        "spectrum": ctx.spectrum.to_dict(),
        "structure": ctx.structure.to_dict(),
        "k_eps": ctx.frames.k_eps.tolist(),
        "sandwich": rep.to_dict(),
    }
    print(canonical_json(payload))
    return 0


def _cached_maps(maps: list) -> list:
    if not maps:
        raise ValueError("no maps")
    return [PolyMap.from_dict(d) for d in maps]


def _cmd_verify(args) -> int:
    name, cocycle, config = resolve_config(args.config, seed=args.seed,
                                           overrides=args.tol_override)
    directory = _resolve_out_dir(args.out_dir, config, name)
    report_path = os.path.join(directory, "report.json")
    if not os.path.exists(report_path):
        raise ConfigError(f"no cached report at {report_path}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)

    # the cached run is self-contained: take its cocycle and config echo,
    # which obeys the rule of a config file, and let overrides adjust it
    where = f"cached report {report_path}"

    def read(path, kind, parse=None):
        """parse(entry) for the entry of the report at a dotted path; one that
        is missing, not of `kind` or unreadable is a ConfigError naming it."""
        node = _entry(report, path, where)
        try:
            if not isinstance(node, kind) or isinstance(node, bool):
                raise TypeError(f"{type(node).__name__} is not {kind.__name__}")
            return node if parse is None else parse(node)
        except KeyError as exc:
            raise ConfigError(f"{where} has no key {exc} in {path!r}") from None
        except (TypeError, AttributeError, IndexError, ValueError) as exc:
            raise ConfigError(f"{where} has a malformed {path!r}: {exc}") from None

    cocycle = read("cocycle", dict, OrbitCocycle.from_dict)
    config = apply_overrides(read("config", dict), args.tol_override)
    maps = [read(f"result.{part}", list, _cached_maps) for part in ("conjugator", "normal_form")]
    order = read("result.order", int)
    diagnostics = read("result.diagnostics", dict) if "diagnostics" in read("result", dict) else {}
    validate_config(config, cocycle, f"{where} config")

    ctx = _prepare_context(cocycle, config)
    result = NormalFormResult.from_maps(*maps, ctx.spectrum, order, diagnostics)
    checks, failures = run_checks(ctx, result, cocycle, config)
    for entry in checks:
        if not entry["enabled"]:
            print(f"{entry['name']}: skipped")
        else:
            print(f"{entry['name']}: {'pass' if entry['passed'] else 'FAIL'}")
    return 1 if _report_failures(name, checks, failures) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitnf",
        description="Polynomial normal forms along contracting periodic "
                    "orbits: scenario runner and verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="builtin scenario name or JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override rng_seed, which only reseeds the cocycle "
                            "draw of the random_* builtins")
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry by dotted path, "
                            "e.g. checks.oracle.tol=1e-11")

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
