"""One fresh interpreter of the benchmark: set-up only, or set-up plus a pass.

    python bench/worker.py {setup,pass} --workload W --seed N --trace {0,1}

Prints one JSON object on its last stdout line.  ``setup_s`` covers importing
orbitnf and building the workload's inputs.  A pass runs every item once
while the calibration sampler interleaves its kernel; each item's output
check and size counters run right after it, untimed and untraced.
Expects BLAS pinned to one thread and ``src`` on PYTHONPATH (run.py sets
both).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = os.path.join(os.path.dirname(HERE), ".bench_out")


class _Raised:
    def __init__(self, error: Exception):
        self.error = error


def _check(item, out) -> tuple[bool, str, dict]:
    if isinstance(out, _Raised):
        return False, f"run raised {out.error!r}", {}
    try:
        ok, detail = item.check(out)
    except Exception as exc:  # a crashing check fails the item
        return False, f"check raised {exc!r}", {}
    return ok, detail, item.counts(out)


def _run_pass(items, tracer) -> dict:
    """Time every item with the calibration sampler running; check each one
    right after, untimed and untraced, and drop its output so later items
    do not inherit a larger heap."""
    import calib

    sampler = calib.Sampler()
    results, counts = [], {}
    elapsed_total = 0.0
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        spent = sampler.spent
        sampler.start()
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a failing item is counted, the pass goes on
            out = _Raised(exc)
        elapsed = time.perf_counter() - t0
        sampler.stop()
        elapsed_total += elapsed
        if tracer is not None:
            tracer.item = None
            tracer.active = False
        ok, detail, item_counts = _check(item, out)
        if tracer is not None:
            tracer.active = True
        del out
        for key, value in item_counts.items():
            counts[key] = counts.get(key, 0) + value
        results.append({"id": item.id, "raw_s": elapsed - (sampler.spent - spent),
                        "ok": ok, "detail": detail})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sampler.top_up()
    factor = calib.speed_factor(sampler.samples)
    for result in results:
        result["norm_s"] = result["raw_s"] * factor
    return {
        "items": results,
        "calib_s": statistics.fmean(sampler.samples),
        "speed_factor": factor,
        "calib_samples": len(sampler.samples),
        "raw_wall_s": sum(r["raw_s"] for r in results),
        "elapsed_s": elapsed_total,
        "wall_s": sum(r["norm_s"] for r in results),
        "peak_rss_mb": peak_kb / 1024.0,
        "counts": counts,
        "machine": calib.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")

    t0 = time.perf_counter()
    import workloads
    items = workloads.build(args.workload, args.seed, out_dir)
    setup_s = time.perf_counter() - t0

    payload = {"setup_s": setup_s}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        try:
            payload.update(_run_pass(items, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            # spans include the sampler's time, so shares are taken of the
            # items' elapsed time, sampler included
            payload["layers"] = spans.summarize(tracer.spans, tracer.sizes,
                                                payload["elapsed_s"])
            payload["trace_missing"] = tracer.missing
            os.makedirs(OUT_ROOT, exist_ok=True)
            path = os.path.join(
                OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(path)
            payload["trace_file"] = os.path.relpath(path, os.path.dirname(HERE))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
