"""verify-large: in-process checks of the paper's canonical processes at
D = 256, 1024, 2916 and 4096.

The dense kernels (hermiticity, Cholesky/eigvalsh, sector projection, pattern
norms) do nearly all the work.  Each size runs in the bidirectional hierarchy,
where the process passes, and in the ordinary one, where it fails with a
sector breakdown, so the sector layer is used both for projection alone and
for projection plus breakdown.  The seed sets the order of the cycle and the
direction of the one non-PSD input.
"""
from __future__ import annotations

import random

import numpy as np

from hoq import linalg, membership, network, processes, typesys
from hoq.linalg import LabeledOperator
from hoq.sectors import Hierarchy

from common import Op, kind_median

NAME = "verify-large"
ORDER = ["P", "A1", "B1", "A2", "B2", "F"]
BSP_TEXT = "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))"
# Size of the negative direction added to the D = 2916 switch.
NON_PSD_SHIFT = 0.05
SMALL_REPEATS = 12


def _fused(op: LabeledOperator) -> LabeledOperator:
    merged = processes.merge_ports(op, {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    return linalg.permute_systems(merged, ORDER)


def two_flip_comb() -> LabeledOperator:
    """Two parallel direction flips fused into one two-slot comb (D = 4096)."""
    flips = []
    for i in (1, 2):
        names = {"Pt": f"Pt{i}", "Pc": f"Pc{i}", "A": f"A{i}", "B": f"B{i}",
                 "Ft": f"Ft{i}", "Fc": f"Fc{i}"}
        flips.append(linalg.relabel(processes.time_flip_choi(2), names))
    both = linalg.permute_systems(linalg.tensor_op(*flips),
                                  ["Pt1", "Pc1", "Pt2", "Pc2", "A1", "B1", "A2", "B2",
                                   "Ft1", "Fc1", "Ft2", "Fc2"])
    both = linalg.merge_factors(both, ("Pt1", "Pc1", "Pt2", "Pc2"), "P")
    both = linalg.merge_factors(both, ("Ft1", "Fc1", "Ft2", "Fc2"), "F")
    return linalg.permute_systems(both, ORDER)


def non_psd_direction(seed: int, dim: int) -> np.ndarray:
    """Seeded unit vector whose projector is subtracted to break positivity."""
    rng = np.random.default_rng([seed, dim])
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def slot_lambda(d_in: int, d_f: int) -> str:
    """Identity coefficient of a two-slot comb or process: 1 / (d_F d_in^2)."""
    return f"1/{d_f * d_in * d_in}"


class Inputs:
    def __init__(self, seed: int, full: bool):
        self.sw2 = _fused(processes.flippable_switch_choi(2))
        self.nf = _fused(processes.n_time_flip_choi(2, 2))
        if not full:
            return
        self.sw3 = _fused(processes.flippable_switch_choi(3))
        v = non_psd_direction(seed, self.sw3.dim)
        self.bad3 = LabeledOperator(self.sw3.factors,
                                    self.sw3.data - NON_PSD_SHIFT * np.outer(v, v.conj()))
        self.comb = two_flip_comb()


def _report_check(verdict: str, lam: str, breakdown: bool = False, psd: bool = True):
    def verify(rep):
        if rep.verdict != verdict:
            return f"verdict {rep.verdict}, expected {verdict}"
        if str(rep.lambda_expected) != lam:
            return f"lambda {rep.lambda_expected}, expected {lam}"
        if rep.psd_ok != psd:
            return f"psd_ok {rep.psd_ok}, expected {psd}"
        if verdict == "PASS" and not rep.lambda_ok:
            return "lambda mismatch on a passing process"
        if breakdown and not rep.forbidden_components:
            return "FAIL without a sector breakdown"
        return None
    return verify


def _classified(rep):
    if rep.verdict != "BISTOCH_ONLY":
        return f"classification {rep.verdict}, expected BISTOCH_ONLY"
    if not rep.forbidden:
        return "BISTOCH_ONLY without forbidden patterns"
    return None


def _bsp_type(d: int):
    reg = typesys.SystemRegistry.of(A1=d, B1=d, A2=d, B2=d, P=2 * d, F=2 * d)
    return typesys.parse_type(BSP_TEXT, reg), reg


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def build(self, full: bool = True) -> Inputs:
        return Inputs(self.seed, full)

    def _ops(self, x: Inputs, sizes) -> list[Op]:
        std = Hierarchy.STANDARD
        two = [(2, 2), (2, 2)]
        three = [(3, 3), (3, 3)]
        ops = []
        if 256 in sizes:
            lam = slot_lambda(2, 4)
            reg2 = typesys.SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
            ops += [
                Op("check.d256.bsp", lambda: network.check_bsp(x.sw2, two, 4, 4),
                   _report_check("PASS", lam)),
                Op("check.d256.bsp_std",
                   lambda: network.check_bsp(x.sw2, two, 4, 4, hierarchy=std),
                   _report_check("FAIL", lam, breakdown=True)),
                # the switch has no causal order, so it is not a two-slot comb
                Op("check.d256.bislot", lambda: network.check_bislot(x.sw2, two, 4, 4),
                   _report_check("FAIL", lam, breakdown=True)),
                Op("check.d256.parsed",
                   lambda: membership.is_deterministic(
                       x.sw2, typesys.parse_type(BSP_TEXT, reg2), reg2),
                   _report_check("PASS", lam)),
                Op("classify.d256", lambda: membership.classify(x.sw2, *_bsp_type(2)),
                   _classified),
            ]
        if 1024 in sizes:
            lam = slot_lambda(2, 8)
            reg8 = typesys.SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=8, F=8)
            ops += [
                Op("check.d1024.bislot", lambda: network.check_bislot(x.nf, two, 8, 8),
                   _report_check("PASS", lam)),
                Op("check.d1024.bsp_std",
                   lambda: network.check_bsp(x.nf, two, 8, 8, hierarchy=std),
                   _report_check("FAIL", lam, breakdown=True)),
                Op("classify.d1024",
                   lambda: membership.classify(x.nf, typesys.parse_type(BSP_TEXT, reg8), reg8),
                   _classified),
            ]
        if 2916 in sizes:
            lam = slot_lambda(3, 6)
            ops += [
                Op("check.d2916.bsp", lambda: network.check_bsp(x.sw3, three, 6, 6),
                   _report_check("PASS", lam)),
                Op("check.d2916.bsp_std",
                   lambda: network.check_bsp(x.sw3, three, 6, 6, hierarchy=std),
                   _report_check("FAIL", lam, breakdown=True)),
                # Cholesky fails, the eigvalsh fallback finds the negative eigenvalue
                Op("reject.d2916", lambda: network.check_bsp(x.bad3, three, 6, 6),
                   _report_check("FAIL", lam, psd=False)),
            ]
        if 4096 in sizes:
            lam = slot_lambda(2, 16)
            ops += [
                Op("check.d4096.bislot", lambda: network.check_bislot(x.comb, two, 16, 16),
                   _report_check("PASS", lam)),
                Op("check.d4096.bsp_std",
                   lambda: network.check_bsp(x.comb, two, 16, 16, hierarchy=std),
                   _report_check("FAIL", lam, breakdown=True)),
            ]
        return ops

    def cycle(self, x: Inputs, index: int) -> list[Op]:
        # the operations of under a second, so that each has many samples;
        # those at D = 256 take about 30 ms and run SMALL_REPEATS times
        ops = self._ops(x, (256,)) * SMALL_REPEATS + self._ops(x, (1024,))
        random.Random(f"{self.seed}/{index}").shuffle(ops)
        return ops

    def once(self, x: Inputs) -> list[Op]:
        return []

    def large(self, x: Inputs) -> list[Op]:
        # the D = 2916 and 4096 operations take 3 to 11 s each, too long to
        # time steadily within a run: only a traced run runs them, for the
        # layers; a timed run checks D = 4096 once, in its warm-up
        ops = self._ops(x, (2916, 4096))
        random.Random(f"{self.seed}/large").shuffle(ops)
        return ops

    def warmup(self, x: Inputs) -> list[Op]:
        # every kind once at D = 256, plus the first D = 4096 check, which
        # costs about a fifth more than the ones after it
        big = [op for op in self._ops(x, (4096,)) if op.kind.endswith("bislot")]
        return self._ops(x, (256,)) + big

    def mini(self, x: Inputs) -> list[Op]:
        return self._ops(x, (256, 1024))

    def report(self, records) -> dict:
        out = {}
        for d in (256, 1024, 4096):
            out[f"check_s.d{d}"] = (kind_median(records, f"check.d{d}."), "s")
        out["reject_s.d2916"] = (kind_median(records, "reject.d2916"), "s")
        out["check_s.d2916"] = (kind_median(records, "check.d2916."), "s")
        return out
