"""orbitnf benchmark: one command prints every metric of one workload.

    python3 bench/run.py --workload {builtins,ladder,random_suite} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is used from ``src``
after compiling it to bytecode.  Every pass runs in a fresh interpreter with
BLAS pinned to one thread, one process at a time.

``--trace 0`` times passes until ``--seconds`` have elapsed (at least one)
and reports the end-to-end metrics: the median normalised pass time, the
median normalised set-up time over several fresh interpreters, the median
peak RSS of a pass and the share of items whose output passed the check.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
The last stdout line is the JSON result; the line before it holds the
machine record and the per-pass details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
RUN_BUDGET_S = 170.0

# workload names and every metric's name and unit come from BENCHMARK.json
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _worker(mode: str, args, deadline: float, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _build() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "orbitnf", "__init__.py")):
        raise BenchError(f"no orbitnf sources under {os.path.join(ROOT, 'src')}")
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                           os.path.relpath(HERE, ROOT)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError("compiling the sources failed:\n" + proc.stdout[-2000:])


def _failures(passes) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for item in p["items"]:
            attempted += 1
            if not item["ok"]:
                failed += 1
                print(f"FAILED {item['id']}: {item['detail']}", file=sys.stderr)
    return attempted, failed


def _summary(p: dict) -> dict:
    keep = ("setup_s", "raw_wall_s", "elapsed_s", "wall_s", "peak_rss_mb",
            "calib_s", "calib_samples", "speed_factor", "counts",
            "trace_file", "trace_missing")
    out = {k: p[k] for k in keep if k in p}
    out["items"] = [{k: it[k] for k in ("id", "raw_s", "norm_s", "ok")}
                    for it in p["items"]]
    return out


def timed_run(args, deadline) -> tuple[dict, list, list]:
    setups = [_worker("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(_worker("pass", args, deadline))
    setups += [p["setup_s"] for p in passes]
    attempted, failed = _failures(passes)
    # set-up is too short to sample the speed inside it, so it is scaled by
    # the mean speed the run's passes measured in the seconds after it
    speed = statistics.fmean(p["speed_factor"] for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "passed_frac": 1.0 - failed / attempted,
    }
    return metrics, passes, [attempted, failed]


def traced_run(args, deadline) -> tuple[dict, list, list]:
    plain = _worker("pass", args, deadline)
    traced = _worker("pass", args, deadline, trace=1)
    attempted, failed = _failures([plain, traced])
    values = dict(traced["layers"])
    values.update(traced["counts"])
    values["bench.raw_wall_s"] = plain["raw_wall_s"]
    values["bench.calib_s"] = plain["calib_s"]
    values["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {m["name"]: values.get(m["name"], 0) for m in SPEC["per_layer"]}
    return metrics, [plain, traced], [attempted, failed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 1 reproduces the ROADMAP ladder")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent on timed passes (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        _build()
        run = traced_run if args.trace else timed_run
        metrics, passes, (attempted, failed) = run(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": passes[0]["machine"],
                      "passes": [_summary(p) for p in passes]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
