"""cli-files: the ``hoq make -> file -> hoq check`` shell path, driven in-process
through click's runner on ``hoq.cli.main``.

JSON encoding and decoding and the CLI's own overhead dominate; compute stays
small except for the D = 1024 check.  ``make`` writes while ``check`` reads,
so a gain on one side that costs the other shows up.  Every written file is
read back and compared with the operator built in memory.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random

import numpy as np
from click.testing import CliRunner

from hoq import cli, linalg, membership, network, processes, sectors, serialize, typesys

from common import Op, kind_median
from wl_small import SHAPES, network_of

NAME = "cli-files"
FLIP = "((^A -> ^B) -> (P -> F))"
BSP = "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))"
LC = "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> I)"
CHANNEL = "(^A U -> ^B)"
REG_FLIP = "A=2,B=2,P=4,F=4"
REG_SLOT4 = "A1=2,B1=2,A2=2,B2=2,P=4,F=4"
REG_SLOT8 = "A1=2,B1=2,A2=2,B2=2,P=8,F=8"
REG_LC = "A1=3,B1=3,A2=3,B2=3"
REG_CHANNEL = "A=2,B=2,U=2"
# networks composed and decomposed through files: one two-slot, one three-slot
BUNDLE_SHAPES = (SHAPES[4], SHAPES[7])
# an iteration budget for the one admissibility call that cannot settle
CONFIG = "limits.max_iter = 500\n"
# Chains of calls of 0.1 s and more run once a cycle, every other chain
# REPEATS times: the short calls are the typical shell call, and their best
# times need many samples in a run.
LONG_CHAINS = ("fs", "net1")
REPEATS = 8
# random channels per repeat: their small make/check calls are the typical
# shell call and hold the median
CHANNELS = 4


def _canonical(op, order):
    merged = processes.merge_ports(op, {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    return linalg.permute_systems(merged, order)


def _registry_text(reg) -> str:
    return ",".join(f"{lab}={d}" for lab, d in reg.entries if lab != "I")


def _bsp_patterns() -> list[str]:
    reg = typesys.SystemRegistry.from_dict(serialize.parse_inline_registry(REG_SLOT8))
    return sectors.deviation_sectors(typesys.parse_type(BSP, reg), reg).texts()


def _printed(expected):
    """Check an exit code of 0 and the printed lines against the library's."""
    def verify(res):
        if res.exit_code != 0:
            return f"exit {res.exit_code}: {res.output.strip()[:200]}"
        lines = res.stdout.strip().splitlines()
        return None if lines == expected() else f"printed {lines[:3]}..., expected otherwise"
    return verify


class Inputs:
    """Set-up files in the work directory and the operators they should hold."""

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.expected = {
            "tf": _canonical(processes.time_flip_choi(2), ["A", "B", "P", "F"]),
            "fs": _canonical(processes.flippable_switch_choi(2),
                             ["A1", "B1", "A2", "B2", "P", "F"]),
            "nf": _canonical(processes.n_time_flip_choi(2, 2),
                             ["A1", "B1", "A2", "B2", "P", "F"]),
            "lc": processes.lc_23_process(3),
        }
        with open(self.path("cfg.txt"), "w", encoding="utf-8") as fh:
            fh.write(CONFIG)
        with open(self.path("comb.json"), "w", encoding="utf-8") as fh:
            json.dump({"slot_types": ["((^A1 -> ^B1) -> I)", "((^A2 -> ^B2) -> I)"],
                       "memories": ["P", "I", "F"]}, fh)
        # 2 % above a deterministic event: admissibility cannot settle
        reg = typesys.SystemRegistry.of(A=2, B=2)
        event = membership.sample_deterministic(typesys.parse_type("(^A -> ^B)", reg), reg,
                                                seed=seed)
        serialize.write_operator(linalg.LabeledOperator(event.factors, 1.02 * event.data),
                                 self.path("outside.json"))
        self.nets = []
        for k, shape in enumerate(BUNDLE_SHAPES):
            net = network_of(shape, seed * 100 + k)
            serialize.write_bundle(list(net.blocks), net.spec, self.path(f"bundle{k}.json"))
            with open(self.path(f"spec{k}.json"), "w", encoding="utf-8") as fh:
                json.dump(serialize.bundle_to_dict([], net.spec)["spec"], fh)
            composed = network.compose_network(list(net.blocks), net.spec, net.reg)
            self.nets.append((net, composed))

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.runner = CliRunner(env={"HOQ_CONFIG": None})
        self.span = contextlib.nullcontext

    def build(self, full: bool = True) -> Inputs:
        return Inputs(self.seed, self.workdir)

    # -- operations ----------------------------------------------------------

    def _invoke(self, kind: str, args, verify) -> Op:
        def run():
            with self.span("cli.invoke"):
                return self.runner.invoke(cli.main, args)
        return Op(kind, run, verify)

    def _make(self, x: Inputs, kind: str, args, path: str, expected) -> Op:
        def verify(res):
            if res.exit_code != 0:
                return f"exit {res.exit_code}: {res.output.strip()[:200]}"
            want = expected()
            got = serialize.read_operator(path)
            if got.factors != want.factors:
                return f"read back factors {got.factors}, expected {want.factors}"
            err = float(np.abs(got.data - want.data).max())
            return None if err <= 1e-12 else f"read back differs by {err:.3e}"
        return self._invoke(kind, ["make", *args, "-o", path], verify)

    def _check(self, kind: str, args, code: int, verdict: str, lam: str) -> Op:
        def verify(res):
            if res.exit_code != code:
                return f"exit {res.exit_code}, expected {code}: {res.output.strip()[:200]}"
            rep = json.loads(res.stdout)
            if "bistoch" in rep:  # classify
                got, got_lam = rep["verdict"], rep["bistoch"]["lambda_expected"]
            elif "status" in rep:  # admissibility
                got, got_lam = rep["status"], lam
            else:
                got, got_lam = rep["verdict"], rep["lambda_expected"]
            if got != verdict or got_lam != lam:
                return f"{got} lambda {got_lam}, expected {verdict} lambda {lam}"
            return None
        return self._invoke(kind, [*args, "--json"], verify)

    def _chains(self, x: Inputs) -> dict[str, list[Op]]:
        p = x.path
        tf, fs, nf, lc = p("tf.json.gz"), p("fs.json"), p("nf.json"), p("lc.json")
        outside = p("outside.json")
        chains = {
            "tf": [
                self._make(x, "make.d64", ["time-flip", "--d", "2"], tf,
                           lambda: x.expected["tf"]),
                self._check("check.pass", ["check", FLIP, "-f", tf, "--registry", REG_FLIP],
                            0, "PASS", "1/8"),
                self._check("check.fail", ["check", FLIP, "-f", tf, "--registry", REG_FLIP,
                                           "--hierarchy", "standard"], 1, "FAIL", "1/8"),
            ],
            "fs": [
                self._make(x, "make.d256", ["flip-switch", "--d", "2"], fs,
                           lambda: x.expected["fs"]),
                self._check("check.pass", ["check", BSP, "-f", fs, "--registry", REG_SLOT4],
                            0, "PASS", "1/16"),
                self._check("classify", ["classify", BSP, "-f", fs, "--registry", REG_SLOT4],
                            0, "BISTOCH_ONLY", "1/16"),
                # the switch has no causal order, so it is not a two-slot comb
                self._check("check.fail", ["check", "--network-spec", p("comb.json"), "-f", fs,
                                           "--registry", REG_SLOT4], 1, "FAIL", "1/16"),
            ],
            "nf": [
                self._make(x, "make.d1024", ["n-time-flip", "--n", "2", "--d", "2"], nf,
                           lambda: x.expected["nf"]),
                self._check("check.d1024", ["check", "--network-spec", p("comb.json"),
                                            "-f", nf, "--registry", REG_SLOT8],
                            0, "PASS", "1/32"),
            ],
            "lc": [
                self._make(x, "make.d81", ["lc23", "--n", "3"], lc, lambda: x.expected["lc"]),
                self._check("classify", ["classify", LC, "-f", lc, "--registry", REG_LC],
                            0, "BISTOCH_ONLY", "1/9"),
            ],
            "undecided": [
                self._check("admissible", ["check", "(^A -> ^B)", "-f", outside, "--registry",
                                           "A=2,B=2", "--config", p("cfg.txt"), "--admissible"],
                            3, "UNDECIDED", "1/2"),
            ],
            "usage": [
                self._invoke("usage", ["check", "((^A -> ^B)", "-f", outside,
                                       "--registry", "A=2,B=2"],
                             lambda res: None if res.exit_code == 2
                             else f"exit {res.exit_code}, expected 2 for a malformed type"),
            ],
            "exact": [
                self._invoke("lambda", ["lambda", BSP, "--registry", REG_SLOT8],
                             _printed(lambda: ["1/32"])),
                self._invoke("delta", ["delta", BSP, "--registry", REG_SLOT8],
                             _printed(_bsp_patterns)),
            ],
        }
        for j in range(CHANNELS):
            chains[f"rb{j}"] = self._channel_chain(x, j, self.seed * CHANNELS + j)
        for k, (net, composed) in enumerate(x.nets):
            chains[f"net{k}"] = self._network_chain(x, k, net, composed)
        # every repeat of a chain does the same work on the same input
        return {name: [dataclasses.replace(op, key=f"{name}:{op.kind}") for op in chain]
                for name, chain in chains.items()}

    def _channel_chain(self, x: Inputs, j: int, seed: int) -> list[Op]:
        rb = x.path(f"rb{j}.json.gz")
        return [
            self._make(x, "make.d8", ["random-bistoch", "--d", "2", "--tail-in", "2",
                                      "--seed", str(seed)], rb,
                       lambda: processes.random_bistochastic_channel(2, 2, 1, seed=seed)),
            self._check("admissible", ["check", CHANNEL, "-f", rb, "--registry", REG_CHANNEL,
                                       "--admissible"], 0, "FEASIBLE", "1/2"),
            self._check("check.pass", ["check", CHANNEL, "-f", rb, "--registry", REG_CHANNEL],
                        0, "PASS", "1/2"),
        ]

    def _network_chain(self, x: Inputs, k: int, net, composed) -> list[Op]:
        reg = _registry_text(net.reg)
        out, back = x.path(f"net{k}.json"), x.path(f"back{k}.json")

        def composed_ok(res):
            if res.exit_code != 0:
                return f"exit {res.exit_code}: {res.output.strip()[:200]}"
            got = serialize.read_operator(out)
            want = linalg.permute_systems(composed, got.labels)
            err = float(np.abs(got.data - want.data).max())
            return None if err <= 1e-10 else f"composed file differs by {err:.3e}"

        def recomposed_ok(res):
            if res.exit_code != 0:
                return f"exit {res.exit_code}: {res.output.strip()[:200]}"
            blocks, spec2, reg2 = serialize.read_bundle(back, net.reg)
            again = network.compose_network(blocks, spec2, reg2, validate=False)
            err = float(np.linalg.norm(
                again.data - linalg.permute_systems(composed, again.labels).data))
            return None if err < 1e-8 else f"recompose error {err:.3e}"

        return [self._invoke("compose", ["compose", x.path(f"bundle{k}.json"), "-o", out,
                                         "--registry", reg], composed_ok),
                self._invoke("decompose", ["decompose", "--spec", x.path(f"spec{k}.json"),
                                           "-f", out, "-o", back, "--registry", reg],
                             recomposed_ok)]

    def cycle(self, x: Inputs, index: int) -> list[Op]:
        every = self._chains(x)
        del every["nf"]
        chains = [every.pop(name) for name in LONG_CHAINS] + list(every.values()) * REPEATS
        random.Random(f"{self.seed}/{index}").shuffle(chains)
        return [op for chain in chains for op in chain]

    def warmup(self, x: Inputs) -> list[Op]:
        # every command once, on files of D <= 81 and the smaller bundle:
        # JSON under tracemalloc is several times slower
        chains = self._chains(x)
        return [op for name, chain in chains.items()
                if name not in ("fs", "nf", "net1") and name[:2] != "rb" or name == "rb0"
                for op in chain]

    def once(self, x: Inputs) -> list[Op]:
        # make and check at D = 1024 take seconds each, too long to time
        # steadily within a run: they run once, after the warm-up, and count
        # in setup_s
        return self._chains(x)["nf"]

    def large(self, x: Inputs) -> list[Op]:
        return []

    def mini(self, x: Inputs) -> list[Op]:
        return self.warmup(x)

    def report(self, records) -> dict:
        return {"make_s.d1024": (kind_median(records, "make.d1024"), "s"),
                "check_s.d1024": (kind_median(records, "check.d1024"), "s")}
