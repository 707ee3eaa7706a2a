"""Shared pieces of the hoq benchmark: timed and checked operations,
statistics and the environment block."""
from __future__ import annotations

import json
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Optional

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``run`` does the work that is timed; ``verify`` gets its result and
    returns an error message, or ``None`` when the output is correct.
    ``key`` names the work itself: two operations with one key do the same
    work on the same input, so their times are samples of one quantity.
    It defaults to ``kind``.  ``prepare`` runs just before the timing
    starts, to put the program in the state the work starts from.
    """

    kind: str
    run: Callable[[], Any]
    verify: Callable[[Any], Optional[str]]
    key: Optional[str] = None
    prepare: Optional[Callable[[], None]] = None

    @property
    def ident(self) -> str:
        return self.key or self.kind


@dataclass(frozen=True)
class Record:
    kind: str
    seconds: float
    error: Optional[str]
    peak_bytes: int = 0
    key: str = ""


def execute(op: Op, wrap=None, peak: bool = False) -> Record:
    """Run one operation, time it, then check its output outside the timing.

    ``wrap`` is a context-manager factory placed around the timed call (the
    tracer's root span); ``peak`` records the tracemalloc peak above the
    memory already traced when the call starts.
    """
    if peak:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
    error = None
    result = None
    if op.prepare is not None:
        op.prepare()
    t0 = time.perf_counter()
    try:
        if wrap is None:
            result = op.run()
        else:
            with wrap(op.kind):
                result = op.run()
    except Exception as exc:  # a raising operation is a counted failure
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    peak_bytes = tracemalloc.get_traced_memory()[1] - base if peak else 0
    if error is None:
        try:
            error = op.verify(result)
        except Exception as exc:
            error = f"verification raised {type(exc).__name__}: {exc}"
    return Record(op.kind, seconds, error, peak_bytes, op.ident)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile at or above the median has ten
    samples beyond it; the median is then the tail that can be resolved.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if round(n * (100.0 - p), 6) >= MIN_BEYOND * 100:
            best = p
    return best


def median(values) -> float:
    return statistics.median(values)


def best_times(records) -> dict[str, float]:
    """Shortest time of each key among the records."""
    best: dict[str, float] = {}
    for r in records:
        if r.key not in best or r.seconds < best[r.key]:
            best[r.key] = r.seconds
    return best


def summarize(records, mix) -> dict:
    """Throughput and latency of one pass over ``mix``, a list of keys.

    Each operation of the pass counts at the best time the records hold for
    its key, the rule of ``timeit``: on a shared machine the slower samples
    of one piece of work measure the neighbours, not the work.
    """
    best = best_times(records)
    times = [best[k] for k in mix]
    p_tail = tail_percentile(len(times))
    return {
        "n": len(records),
        "keys": len(best),
        "mix": len(times),
        "busy_s": sum(r.seconds for r in records),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": percentile(times, 50.0),
        "op_tail_s": percentile(times, p_tail),
        "tail_pct": p_tail,
    }


def kind_median(records, prefix: str) -> Optional[float]:
    times = [r.seconds for r in records if r.kind.startswith(prefix)]
    return median(times) if times else None


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Limit BLAS threads to the usable cores; call before numpy is imported."""
    cap = nproc()
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _blas_threads_reported() -> Optional[int]:
    """Thread count as the loaded OpenBLAS reports it, when it can be found."""
    import ctypes
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
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": _blas_threads_reported(),
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "measured": "this process and its children only; no cache dropping, "
                    "no system-wide tracing",
    }


def emit(line: dict) -> None:
    print(json.dumps(line), flush=True)
