#!/usr/bin/env python3
"""hoq benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
replays the workload with spans around the calls into each hoq module and
reports per-layer numbers.  ``--workload all`` runs every workload in this
one process.  Human-readable lines come first; the last line of standard
output is the JSON result.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
import tracemalloc

# common loads no numpy at import, so the thread cap in main() still applies
from common import (cap_blas_threads, emit, environment, execute, median, percentile,
                    summarize)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("verify-large", "small-ops", "cli-files")
# Input construction is repeated and its median kept; imports and the
# warm-up pass happen once.
SETUP_REPEATS = 3
CLI_IMPORT_RUNS = 15
IMPORT_PAUSE_S = 0.25
# A traced run's untraced loop lasts at most this long; the traced replay of
# the same cycles and the large operations follow it.
TRACED_SECONDS = 10
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_mb": "MB", "cli_import_s": "s"}


def _module(name: str):
    # the workload modules import hoq, which is importable only once main()
    # has put src/ on the path
    import wl_cli
    import wl_small
    import wl_verify
    return {"verify-large": wl_verify, "small-ops": wl_small, "cli-files": wl_cli}[name]


def _workload(name: str, seed: int):
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    return _module(name).Workload(seed, workdir), workdir


def run_cycles(wl, inputs, seconds: float, records: list, wrap=None,
               between=None, every: float = 0.0) -> int:
    """Closed loop: whole cycles until ``seconds`` have passed; returns cycles run.

    ``between`` runs after an operation once ``every`` seconds of the loop
    have passed since its last call; its own time is not loop time.
    """
    start = last = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        for op in wl.cycle(inputs, index):
            records.append(execute(op, wrap=wrap))
            if between is not None and time.perf_counter() - last - paused >= every:
                t0 = time.perf_counter()
                between()
                paused += time.perf_counter() - t0
                last = time.perf_counter() - paused
        index += 1
        if time.perf_counter() - start - paused >= seconds:
            return index


def cli_import_once() -> float:
    """One cold ``import hoq.cli`` in a fresh interpreter, timed inside it.

    It starts after a pause: OpenBLAS worker threads spin for about 0.1 s
    after a BLAS call, and would share the cores with the child.
    """
    time.sleep(IMPORT_PAUSE_S)
    code = "import time; t = time.perf_counter(); import hoq.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def _lines(title: str, values: dict) -> None:
    for key, (value, unit) in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{title} {key} = {shown} {unit}")


def timed(name: str, seed: int, seconds: int, import_s: float) -> tuple[dict, list]:
    wl, workdir = _workload(name, seed)
    try:
        build_s = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            inputs = None  # free the previous inputs before building again
            t0 = time.perf_counter()
            inputs = wl.build()
            build_s.append(time.perf_counter() - t0)

        tracemalloc.start()
        t0 = time.perf_counter()
        warm = [execute(op, peak=True) for op in wl.warmup(inputs)]
        warm_s = time.perf_counter() - t0
        tracemalloc.stop()
        t0 = time.perf_counter()
        heavy = [execute(op) for op in wl.once(inputs)]
        heavy_s = time.perf_counter() - t0

        # import samples are spread over the timed loop, between operations,
        # so that they see the same machine as the operations do
        cli_import_once()  # may compile the byte code; not counted
        imports: list = []
        records: list = []
        cycles = run_cycles(wl, inputs, seconds, records,
                            between=lambda: imports.append(cli_import_once()),
                            every=seconds / CLI_IMPORT_RUNS)
        while len(imports) < CLI_IMPORT_RUNS:
            imports.append(cli_import_once())
        # the metrics count one cycle's operations, each at its best time
        mix = [op.ident for op in wl.cycle(inputs, 0)]
        extra = wl.report(heavy + records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(records, mix)
    metrics = {
        "setup_s": import_s + median(build_s) + warm_s + heavy_s,
        "ops_per_s": summary["ops_per_s"],
        "op_p50_s": summary["op_p50_s"],
        "op_tail_s": summary["op_tail_s"],
        "peak_mb": max(r.peak_bytes for r in warm) / 1e6,
        "cli_import_s": percentile(imports, 25.0),
    }
    print(f"{name}: {summary['n']} timed ops of {summary['keys']} distinct keys in "
          f"{cycles} cycles, {summary['busy_s']:.3f} s busy; the metrics take one "
          f"cycle of {summary['mix']} ops at each key's best time; op_tail_s is "
          f"p{summary['tail_pct']:g} of those {summary['mix']}")
    print(f"{name}: setup = import {import_s:.3f} s + median build "
          f"{median(build_s):.3f} s of {SETUP_REPEATS} + warm-up {warm_s:.3f} s "
          f"({len(warm)} ops under tracemalloc, which gives peak_mb) + "
          f"{len(heavy)} ops run once {heavy_s:.3f} s")
    found = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
    _lines(name, found)
    _lines(name, extra)
    return found, warm + heavy + records


def traced(name: str, seed: int, seconds: int) -> tuple[dict, list]:
    from tracing import (OWN, PER_LAYER, Tracer, clear_sector_caches, dump,
                         layer_numbers, sector_cache_counts)
    passes = {}
    records: list = []
    wl, workdir = _workload(name, seed)
    try:
        inputs = wl.build()
        records += [execute(op) for op in wl.warmup(inputs)]
        clear_sector_caches()
        plain: list = []
        cycles = run_cycles(wl, inputs, min(seconds, TRACED_SECONDS), plain)
        records += plain
        untraced_s = sum(r.seconds for r in plain)

        inputs = None
        tracer = Tracer()
        with tracer.installed():
            wl.span = tracer.span
            clear_sector_caches()
            with tracer.op("setup"):
                inputs = wl.build()
            large = [execute(op, wrap=tracer.op) for op in wl.once(inputs) + wl.large(inputs)]
            records += large
            spans_at = len(tracer.spans)
            traced_ops = [execute(op, wrap=tracer.op)
                          for i in range(cycles) for op in wl.cycle(inputs, i)]
            passes[name] = (tracer.spans, sector_cache_counts())
        records += traced_ops
        traced_s = sum(s.seconds for s in tracer.spans[spans_at:] if s.name == "op")
        inputs = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the other workloads' home layers, from a short traced pass of each
    for other in WORKLOADS:
        if other == name:
            continue
        wl2, workdir2 = _workload(other, seed)
        tracer2 = Tracer()
        try:
            with tracer2.installed():
                wl2.span = tracer2.span
                clear_sector_caches()
                with tracer2.op("setup"):
                    inputs2 = wl2.build(full=False)
                records += [execute(op, wrap=tracer2.op) for op in wl2.mini(inputs2)]
                passes[other] = (tracer2.spans, sector_cache_counts())
            inputs2 = None
        finally:
            shutil.rmtree(workdir2, ignore_errors=True)

    numbers = {}
    for wname, (spans, (hits, lookups)) in passes.items():
        wall = sum(s.seconds for s in spans if s.name == "op")
        numbers[wname] = layer_numbers(spans, wall, hits, lookups)
        shares = "  ".join(f"{m}={numbers[wname][f'{m}.share']:.3f}"
                           for m in ("typesys", "sectors", "linalg", "membership",
                                     "processes", "network", "serialize", "cli"))
        kind = "full" if wname == name else "short"
        print(f"trace {wname} ({kind} pass, {wall:.3f} s traced): self-time share {shares}")
    metrics = {m: numbers[home][m] for m, (_, home) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    print(f"trace {name}: {len(traced_ops)} ops in {cycles} cycles, untraced "
          f"{untraced_s:.3f} s, traced {traced_s:.3f} s")
    _lines(f"trace {name}", wl.report(large + traced_ops))
    units = {m: u for m, (u, _) in PER_LAYER.items()} | OWN
    _lines("trace", {m: (v, units[m]) for m, v in metrics.items()})

    os.makedirs(OUT, exist_ok=True)
    dump(passes[name][0], os.path.join(OUT, f"trace-{name}-seed{seed}.json"),
         {"workload": name, "seed": seed, "cycles": cycles})
    return {m: (v, units[m]) for m, v in metrics.items()}, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hoq", "__init__.py")):
        print(f"error: no hoq sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import hoq.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    emit({"environment": environment(args.workload, args.seed, args.seconds, args.trace)})
    metrics = {}
    records = []
    for name in names:
        if args.trace:
            found, recs = traced(name, args.seed, args.seconds)
        else:
            found, recs = timed(name, args.seed, args.seconds, import_s)
        prefix = f"{name}:" if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
        records += recs
    failed = [r for r in records if r.error]
    for r in failed[:20]:
        print(f"FAILED {r.kind}: {r.error}")
    print(f"fail_ratio = {len(failed)}/{len(records)} = {len(failed) / len(records):.4g}")
    emit({"correct": not failed, "attempted": len(records), "failed": len(failed),
          "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
