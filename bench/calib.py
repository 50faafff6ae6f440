"""Machine-speed calibration and the machine record.

The calibration kernel is fixed work shaped like the program's: sparse
polynomial products over dicts of exponent tuples in pure Python (the
pattern of the ``PolyMap`` kernels, frozen here so that a faster package
does not speed up its own yardstick) and a few small dense solves and
products through BLAS, about 3 ms in all.  A ``Sampler`` runs it every
0.1 s while items run; a pass's time is scaled by ``speed_factor``, which
gives seconds at the speed of the reference machine (2-core Intel Xeon,
Python 3.11, numpy 2.4 with scipy-openblas 0.3.31 pinned to one thread).
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import signal
import time

import numpy as np

# mean kernel time on the reference machine
REFERENCE_CALIB_S = 0.0030
SAMPLE_INTERVAL_S = 0.1
MIN_SAMPLES = 20


def _poly_mul(a: dict, b: dict, max_degree: int) -> dict:
    out = {}
    for ka in sorted(a):
        ca = a[ka]
        da = sum(ka)
        for kb in sorted(b):
            if da + sum(kb) > max_degree:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + ca * b[kb]
    return out


_FACTOR = {(1, 0, 0, 0): 0.5, (0, 1, 0, 0): 0.25, (0, 0, 1, 0): 0.125,
           (0, 0, 0, 1): 1.0, (1, 1, 0, 0): 0.1, (0, 0, 1, 1): 0.2,
           (2, 0, 0, 0): 0.3}


def _python_part() -> float:
    """Powers of a sparse 4-variable polynomial, truncated at degree 5."""
    acc = {(0, 0, 0, 0): 1.0}
    for _ in range(20):
        acc = _poly_mul(acc, _FACTOR, 5)
    return sum(acc.values())


_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((24, 24)) + 24.0 * np.eye(24)
_B = _RNG.standard_normal((24, 24))


def _blas_part() -> float:
    x = _B
    for _ in range(15):
        x = np.linalg.solve(_A, x @ _B) / 4.0
    return float(np.linalg.norm(x, 2))


def kernel() -> float:
    return _python_part() + _blas_part()


class Sampler:
    """Runs the kernel every SAMPLE_INTERVAL_S of wall time while started.

    The kernel runs from a SIGALRM handler, so it interleaves with the item
    being timed, between two bytecodes of the item's own code.  On a shared
    host the speed flips between two modes (kernel times near 1.6 and 2.9 ms)
    within tens of milliseconds to seconds, so calibrations between items
    miss what a long item saw; samples inside it do not.  ``spent`` is the
    time the handler took, which the caller subtracts from the item's time.
    The collector is off during a sample: a collection would scan whatever
    heap the item holds, and the kernel measures speed, not heap size.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - k0)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def top_up(self) -> None:
        """Run the kernel until there are MIN_SAMPLES samples (short passes)."""
        while len(self.samples) < MIN_SAMPLES:
            self._handler(None, None)


def speed_factor(samples: list[float]) -> float:
    """REFERENCE_CALIB_S over the mean kernel time of the samples."""
    return REFERENCE_CALIB_S * len(samples) / sum(samples)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """OpenBLAS thread count read from the library numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }
