"""Spans around calls into each hoq module, recorded from the benchmark.

The tracer replaces a public hoq function by a wrapper in every hoq module
whose namespace holds it, because that is where the calling module looks the
name up; ``LabeledOperator.herm_defect`` is wrapped on its class.  Nothing
inside the program changes, and :meth:`Tracer.uninstall` puts every original
back.  A wrapper records a span only while an operation is open, so the
benchmark's own output checks stay untraced.
"""
from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Optional

HOQ_MODULES = ("hoq", "hoq.typesys", "hoq.linalg", "hoq.sectors", "hoq.membership",
               "hoq.processes", "hoq.network", "hoq.serialize", "hoq.cli")

# span name -> (defining module, function names)
LAYERS = {
    "typesys.parse": ("hoq.typesys", ("parse_type",)),
    "sectors.characterize": ("hoq.sectors", ("identity_coeff", "deviation_sectors",
                                             "network_characterization")),
    "sectors.project": ("hoq.sectors", ("outside_component", "sector_project")),
    "sectors.pattern_norms": ("hoq.sectors", ("pattern_norms",)),
    "linalg.permute": ("hoq.linalg", ("permute_systems",)),
    "linalg.link": ("hoq.linalg", ("link_product", "link_all")),
    "linalg.partial_trace": ("hoq.linalg", ("partial_trace",)),
    "membership.check": ("hoq.membership", ("check_operator",)),
    "membership.admissible": ("hoq.membership", ("is_admissible",)),
    "membership.sample": ("hoq.membership", ("sample_deterministic",)),
    "processes.build": ("hoq.processes", ("time_flip_choi", "time_flip_merged",
                                          "n_time_flip_choi", "flippable_switch_choi",
                                          "lc_23_process", "lc_22_process",
                                          "random_bistochastic_channel", "merge_ports")),
    "network.compose": ("hoq.network", ("compose_network",)),
    "network.check": ("hoq.network", ("check_network", "check_bislot", "check_bsp",
                                      "check_bitooth")),
    "network.decompose": ("hoq.network", ("decompose_network",)),
    "serialize.write": ("hoq.serialize", ("write_operator", "write_bundle")),
    "serialize.read": ("hoq.serialize", ("read_operator", "read_bundle")),
}
# ``characterization_of`` lives in membership but runs the exact recursion.
EXTRA = {"sectors.characterize": (("hoq.membership", "characterization_of"),)}
METHOD_LAYERS = {"linalg.herm_defect": ("hoq.linalg", "LabeledOperator", "herm_defect")}
ROOT = "op"
CLI_SPAN = "cli.invoke"
# Checks from this size up run under tracemalloc to count operator copies;
# there numpy's few large allocations dominate, so tracemalloc adds little.
PEAK_MIN_DIM = 1024


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op_id: int = -1
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; install/uninstall swap the wrappers in."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._next_op = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(m) for m in HOQ_MODULES]
        targets = []
        for name, (home, funcs) in LAYERS.items():
            module = importlib.import_module(home)
            targets += [(name, getattr(module, f)) for f in funcs]
        for name, pairs in EXTRA.items():
            targets += [(name, getattr(importlib.import_module(m), f)) for m, f in pairs]
        for name, original in targets:
            wrapper = self._wrap(name, original)
            for module in mods:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for name, (home, cls_name, meth) in METHOD_LAYERS.items():
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op_id=self._op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    @contextmanager
    def op(self, kind: str):
        """Root span of one operation; wrapped calls record only inside one."""
        self._op_id = self._next_op
        self._next_op += 1
        index = self._open(ROOT)
        self.spans[index].info["kind"] = kind
        try:
            yield
        finally:
            self._close(index)
            self._op_id = -1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a CLI call."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        tracer = self
        info_of = _INFO.get(name)

        def wrapper(*args, **kwargs):
            if tracer._op_id < 0:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            span = tracer.spans[index]
            started_peak = name == "membership.check" and _big(args) \
                and not tracemalloc.is_tracing()
            if started_peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                if started_peak:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(index)
            if info_of is not None:
                info_of(span.info, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _big(args) -> bool:
    return bool(args) and getattr(args[0], "dim", 0) >= PEAK_MIN_DIM


def _check_info(info, args, kwargs, report):
    from hoq.linalg import TOL_PSD
    info["dim"] = args[0].dim
    psd_tol = kwargs.get("psd_tol", args[4] if len(args) > 4 else TOL_PSD)
    # the Cholesky path reports the tolerance itself as the "eigenvalue"
    info["certified"] = report.min_eigenvalue == -psd_tol


def _admissible_info(info, args, kwargs, result):
    info["status"] = result.status
    info["iterations"] = result.iterations


def _file_info(path_index, entries_of):
    def record(info, args, kwargs, result):
        info["bytes"] = os.path.getsize(args[path_index])
        info["entries"] = entries_of(args, result)
    return record


def _entries(ops) -> int:
    return sum(op.dim * op.dim for op in ops)


_INFO = {
    "membership.check": _check_info,
    "membership.admissible": _admissible_info,
    # write_operator(op, path) / write_bundle(blocks, spec, path)
    "serialize.write": _file_info(-1, lambda a, r: _entries(a[0] if isinstance(a[0], list)
                                                            else [a[0]])),
    # read_operator(path) / read_bundle(path, reg) -> (blocks, spec, reg)
    "serialize.read": _file_info(0, lambda a, r: _entries(r[0] if isinstance(r, tuple)
                                                          else [r])),
}


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer numbers
# ---------------------------------------------------------------------------

MODULES = ("typesys", "sectors", "linalg", "membership", "processes", "network",
           "serialize", "cli")


def _self_times(spans) -> list[float]:
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def _outermost(spans, name) -> list[int]:
    """Spans of ``name`` with no ancestor of the same name."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def layer_numbers(spans, wall: float, cache_hits: int, cache_lookups: int) -> dict:
    """Every per-layer number one traced pass gives, by metric name."""
    own = _self_times(spans)
    out: dict[str, float] = {}
    names = set(LAYERS) | set(METHOD_LAYERS) | {CLI_SPAN}
    for name in names:
        idx = _outermost(spans, name)
        out[f"{name}.s"] = sum(spans[i].seconds for i in idx)
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.self_s"] = sum(own[i] for i, s in enumerate(spans) if s.name == name)
    for module in MODULES:
        mod_self = sum(own[i] for i, s in enumerate(spans)
                       if s.name != ROOT and s.name.split(".")[0] == module)
        out[f"{module}.self_s"] = mod_self
        out[f"{module}.share"] = mod_self / wall if wall > 0 else 0.0

    checks = [s for s in spans if s.name == "membership.check"]
    out["membership.psd.certified_ratio"] = (
        sum(s.info.get("certified", False) for s in checks) / len(checks) if checks else 0.0)
    sized = [s for s in checks if "peak_bytes" in s.info]
    if sized:
        top = max(s.info["dim"] for s in sized)
        out["membership.check.peak_copies"] = max(
            s.info["peak_bytes"] / (16.0 * s.info["dim"] ** 2)
            for s in sized if s.info["dim"] == top)
    else:
        out["membership.check.peak_copies"] = 0.0

    adm = [s for s in spans if s.name == "membership.admissible" and "status" in s.info]
    out["membership.admissible.iterations"] = (
        sum(s.info["iterations"] for s in adm) / len(adm) if adm else 0.0)
    out["membership.admissible.undecided_ratio"] = (
        sum(s.info["status"] == "UNDECIDED" for s in adm) / len(adm) if adm else 0.0)

    dec = [spans[i] for i in _outermost(spans, "network.decompose")]
    out["network.rank_instability_ratio"] = (
        sum(s.info.get("raised") == "RankInstability" for s in dec) / len(dec) if dec else 0.0)

    io = [s for s in spans if s.name in ("serialize.write", "serialize.read") and "bytes" in s.info]
    total_bytes = sum(s.info["bytes"] for s in io)
    entries = sum(s.info["entries"] for s in io)
    out["serialize.bytes"] = float(total_bytes)
    out["serialize.bytes_per_entry"] = total_bytes / entries if entries else 0.0

    out["sectors.cache_hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
    return out


# metric -> (unit, home workload the metric is read from)
PER_LAYER = {
    "typesys.parse.s": ("s", "small-ops"),
    "typesys.parse.calls": ("count", "small-ops"),
    "sectors.characterize.s": ("s", "small-ops"),
    "sectors.characterize.calls": ("count", "small-ops"),
    "sectors.cache_hit_ratio": ("ratio", "small-ops"),
    "sectors.project.s": ("s", "verify-large"),
    "sectors.project.calls": ("count", "verify-large"),
    "sectors.pattern_norms.s": ("s", "verify-large"),
    "sectors.pattern_norms.calls": ("count", "verify-large"),
    "linalg.herm_defect.s": ("s", "verify-large"),
    "linalg.herm_defect.calls": ("count", "verify-large"),
    "linalg.permute.s": ("s", "verify-large"),
    "linalg.permute.calls": ("count", "verify-large"),
    "linalg.link.s": ("s", "small-ops"),
    "linalg.partial_trace.s": ("s", "small-ops"),
    "membership.check.s": ("s", "verify-large"),
    "membership.check.self_s": ("s", "verify-large"),
    "membership.check.peak_copies": ("count", "verify-large"),
    "membership.psd.certified_ratio": ("ratio", "verify-large"),
    "membership.admissible.s": ("s", "small-ops"),
    "membership.admissible.iterations": ("count", "small-ops"),
    "membership.admissible.undecided_ratio": ("ratio", "small-ops"),
    "membership.sample.s": ("s", "small-ops"),
    "processes.build.s": ("s", "cli-files"),
    "network.compose.s": ("s", "small-ops"),
    "network.check.s": ("s", "small-ops"),
    "network.decompose.s": ("s", "small-ops"),
    "network.decompose.self_s": ("s", "small-ops"),
    "network.rank_instability_ratio": ("ratio", "small-ops"),
    "serialize.write.s": ("s", "cli-files"),
    "serialize.read.s": ("s", "cli-files"),
    "serialize.bytes": ("bytes", "cli-files"),
    "serialize.bytes_per_entry": ("bytes/entry", "cli-files"),
    "cli.invoke.s": ("s", "cli-files"),
    "cli.self_s": ("s", "cli-files"),
    "typesys.self_s": ("s", "small-ops"),
    "typesys.share": ("ratio", "small-ops"),
    "sectors.self_s": ("s", "verify-large"),
    "sectors.share": ("ratio", "verify-large"),
    "linalg.self_s": ("s", "verify-large"),
    "linalg.share": ("ratio", "verify-large"),
    "membership.self_s": ("s", "verify-large"),
    "membership.share": ("ratio", "verify-large"),
    "processes.self_s": ("s", "cli-files"),
    "processes.share": ("ratio", "cli-files"),
    "network.self_s": ("s", "small-ops"),
    "network.share": ("ratio", "small-ops"),
    "serialize.self_s": ("s", "cli-files"),
    "serialize.share": ("ratio", "cli-files"),
    "cli.share": ("ratio", "cli-files"),
}
# Read from the run's own workload rather than a home workload.
OWN = {
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


# (hits, lookups) the caches had counted when they were last emptied with
# keep_counts: lru_cache resets its counters when it is cleared
_counted_before = [0, 0]


def sector_cache_counts() -> tuple[int, int]:
    """(hits, lookups) summed over the two exact-recursion lru caches."""
    from hoq import sectors
    hits, lookups = _counted_before
    for cached in (sectors._coeff_cached, sectors._deviation_cached):
        info = cached.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits, lookups


def clear_sector_caches(keep_counts: bool = False) -> None:
    """Empty both caches; the counts restart from zero unless ``keep_counts``."""
    from hoq import sectors
    _counted_before[:] = sector_cache_counts() if keep_counts else (0, 0)
    sectors._coeff_cached.cache_clear()
    sectors._deviation_cached.cache_clear()


def dump(spans, path: str, extra: Optional[dict] = None) -> None:
    import json
    rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op_id, **s.info} for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rows, **(extra or {})}, fh)
