"""Outside-in span tracer for the orbitnf benchmark.

Spans are recorded by wrapping public functions at the module bindings their
callers look up at call time (``normalform.compose_truncated``,
``cli._CHECK_RUNNERS["gauge"]``, ...).  Nothing in the package is edited; an
untraced run installs no wrapper at all.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of
the enclosing span or -1, ``item`` the workload item being run.  Spans are
kept in memory and written out when the pass ends.  Self time is a span's
duration minus the time its direct children cover (the program is single
threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, owner, attribute).  owner is "module", "module:Class" or
# "module:DICT"; a dict owner is patched by key.  One span name may sit at
# several bindings when several modules import the same function.
BINDINGS = (
    ("polymap.compose", "orbitnf.polymap", "compose_truncated"),
    ("polymap.compose", "orbitnf.normalform", "compose_truncated"),
    ("polymap.compose", "orbitnf.verify", "compose_truncated"),
    ("polymap.invert", "orbitnf.polymap", "invert_truncated"),
    ("polymap.invert", "orbitnf.verify", "invert_truncated"),
    ("polymap.evaluate_batch", "orbitnf.polymap:PolyMap", "evaluate_batch"),
    ("normalform.prepare", "orbitnf.normalform:SolverContext", "prepare"),
    ("normalform.solve", "orbitnf.normalform", "solve_normal_form"),
    ("normalform.solve", "orbitnf.cli", "solve_normal_form"),
    ("normalform.degree", "orbitnf.normalform", "solve_homogeneous_degree"),
    ("normalform.opnorm", "orbitnf.normalform", "lyapunov_opnorm"),
    ("cocycle.spectrum", "orbitnf.normalform", "monodromy_spectrum"),
    ("cocycle.frames", "orbitnf.normalform", "lyapunov_frames"),
    ("verify.window", "orbitnf.verify", "solve_window"),
    ("cli.report", "orbitnf.cli", "canonical_json"),
    ("verify.residual", "orbitnf.cli:_CHECK_RUNNERS", "residual"),
    ("verify.oracle", "orbitnf.cli:_CHECK_RUNNERS", "oracle"),
    ("cocycle.sandwich", "orbitnf.cli:_CHECK_RUNNERS", "sandwich"),
    ("verify.gauge", "orbitnf.cli:_CHECK_RUNNERS", "gauge"),
    ("verify.centralizer", "orbitnf.cli:_CHECK_RUNNERS", "centralizer"),
    ("verify.flag", "orbitnf.cli:_CHECK_RUNNERS", "flag"),
    ("verify.chart", "orbitnf.cli:_CHECK_RUNNERS", "chart"),
)

# spans that carry a size measured at the boundary
_SIZES = {
    "cli.report": lambda args, out: len(out),
    "verify.window": lambda args, out: len(args[0]),
}

LAYERS = ("normalform", "verify", "cocycle")


def _owner(spec: str):
    module_name, _, attr = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def _get(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records spans while installed and active; `uninstall` restores every
    binding."""

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[int, int] = {}
        self.item = None
        self.active = True
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size_of = _SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(args, out)
            return out

        return traced

    def install(self) -> None:
        for name, spec, key in BINDINGS:
            try:
                owner = _owner(spec)
                original = _get(owner, key)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{spec}.{key}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._patches.append((owner, key, original))
            _set(owner, key, wrapped)
        if self.missing:
            print("trace: bindings not found, their spans stay empty: "
                  + ", ".join(self.missing), file=sys.stderr)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            _set(owner, key, original)

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, item, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([name, start, end, parent, item,
                                     self.sizes.get(idx)]) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered_share(spans, prefixes, pass_s: float) -> float:
    """Share of the pass covered by the union of spans whose layer is listed."""
    layers = tuple(p + "." for p in prefixes)
    return _union_length((s[1], s[2]) for s in spans
                         if s[0].startswith(layers)) / pass_s


def summarize(spans, sizes, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in raw seconds)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for idx, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[idx]
    # (name, parent name or None) -> [calls, inclusive s, self s, size]
    by_key: dict[tuple, list] = {}
    for idx, s in enumerate(spans):
        parent = spans[s[3]][0] if s[3] >= 0 else None
        acc = by_key.setdefault((s[0], parent), [0, 0.0, 0.0, 0])
        acc[0] += 1
        acc[1] += dur[idx]
        acc[2] += dur[idx] - child[idx]
        acc[3] += sizes.get(idx, 0)

    def pick(name, field, parent=None):
        return sum(v[field] for (n, p), v in by_key.items()
                   if n == name and (parent is None or p == parent))

    calls, incl, self_s, size = 0, 1, 2, 3
    top = sum(v[incl] for (_, p), v in by_key.items() if p is None)
    out = {
        "normalform.prepare_s": pick("normalform.prepare", incl),
        "normalform.solve_s": pick("normalform.solve", incl),
        "normalform.source_compose_s": pick("polymap.compose", incl,
                                            "normalform.degree"),
        "normalform.degree_self_s": pick("normalform.degree", self_s),
        "normalform.opnorm_s": pick("normalform.opnorm", incl),
        "cocycle.spectrum_s": pick("cocycle.spectrum", incl),
        "cocycle.frames_s": pick("cocycle.frames", incl),
        "cocycle.sandwich_s": pick("cocycle.sandwich", incl),
        "verify.residual_s": pick("verify.residual", incl),
        "verify.oracle_s": pick("verify.oracle", incl),
        "verify.gauge_s": pick("verify.gauge", incl),
        "verify.centralizer_s": pick("verify.centralizer", incl),
        "verify.flag_s": pick("verify.flag", incl),
        "verify.chart_s": pick("verify.chart", incl),
        "verify.window_s": pick("verify.window", incl),
        "verify.window_compose_calls": pick("polymap.compose", calls,
                                            "verify.window"),
        "verify.window_steps": pick("verify.window", size),
        "polymap.compose_calls": pick("polymap.compose", calls),
        "polymap.compose_s": pick("polymap.compose", self_s),
        "polymap.invert_calls": pick("polymap.invert", calls),
        "polymap.invert_s": pick("polymap.invert", incl),
        "polymap.evaluate_batch_calls": pick("polymap.evaluate_batch", calls),
        "polymap.evaluate_batch_s": pick("polymap.evaluate_batch", incl),
        "cli.report_s": pick("cli.report", incl),
        "cli.report_bytes": pick("cli.report", size),
        "bench.top_span_coverage": top / pass_s,
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = covered_share(spans, (layer,), pass_s)
    return out
