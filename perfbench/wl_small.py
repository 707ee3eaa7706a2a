"""small-ops: a seeded mix of small network, admissibility and exact-type calls.

No operator exceeds D = 1024, so the large-D kernels barely register.  Per-call
Python overhead, the exact recursion and its lru_cache, link_product and
partial_trace, the eigh calls in decompose and the Dykstra iterations
dominate.  Network shapes and admissibility types are the same for every
seed, so seeds differ in content, not in cost.  The random types are drawn
per seed and round variant, and each is characterized from empty caches.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hoq import linalg, membership, network, sectors, typesys
from hoq.linalg import LabeledOperator
from hoq.typesys import BistochElem, SystemString

from common import Op, kind_median
from tracing import clear_sector_caches

NAME = "small-ops"

# (slot kinds, memory dims E0..En); "bi" is a slot that accepts a
# bidirectional channel, an integer is a plain state slot of that dimension.
# A small global input keeps every peeled block at a checkable size.
SHAPES = (
    (("bi",), (1, 1)),
    (("bi",), (2, 3)),
    ((3,), (1, 2)),
    (("bi", "bi"), (1, 2, 1)),
    (("bi", 2), (2, 3, 1)),
    ((3, "bi"), (1, 4, 2)),
    (("bi", "bi"), (2, 2, 2)),
    (("bi", "bi", "bi"), (1, 2, 2, 1)),
    (("bi", 3, "bi"), (1, 3, 2, 2)),
    ((2, "bi", "bi"), (2, 2, 1, 3)),
    (("bi", "bi", "bi"), (1, 1, 1, 1)),
    (("bi", "bi", 2), (1, 4, 2, 1)),
    (("bi", "bi"), (2, 4, 4)),
    (("bi", "bi", "bi"), (1, 4, 4, 4)),
)
VARIANTS = 2

# Admissibility: (type, registry, expected status, scale of a sampled event).
# Scaling a deterministic event up by 2 % puts it just outside the feasible
# set: no deterministic event has a larger trace, yet alternating projections
# cannot certify that, so they run to the iteration limit.
ADMISSIBLE = (
    ("(^A -> ^B)", {"A": 2, "B": 2}, "UNDECIDED", 1.02),
    ("(^A U -> ^B)", {"A": 2, "B": 2, "U": 2}, "UNDECIDED", 1.02),
    ("((^A -> ^B) -> (P -> F))", {"A": 2, "B": 2, "P": 2, "F": 2}, "UNDECIDED", 1.02),
    ("((^A -> ^B) -> I)", {"A": 2, "B": 2}, "FEASIBLE", 0.9),
    ("((A -> B) -> C)", {"A": 2, "B": 2, "C": 2}, "FEASIBLE", 0.9),
    ("(^A U -> ^B)", {"A": 2, "B": 2, "U": 2}, "NOT_ADMISSIBLE", None),
)
# A user-chosen iteration budget, so an undecided call stays a small operation.
MAX_ITER = 200
TYPES_PER_ROUND = 160
# rounds of the mix above per cycle
ROUNDS = 6
MAX_DEPTH = 5
MAX_SYSTEMS = 7


@dataclass(frozen=True)
class Net:
    spec: network.NetworkSpec
    reg: typesys.SystemRegistry
    blocks: tuple
    lam: str


def network_of(shape, seed: int) -> Net:
    kinds, mems = shape
    dims: dict[str, int] = {}
    slots = []
    lam = Fraction(1)
    for i, kind in enumerate(kinds, start=1):
        if kind == "bi":
            dims[f"A{i}"] = dims[f"B{i}"] = 2
            slots.append(typesys.dual(BistochElem(f"A{i}", (), f"B{i}", ())))
            lam /= dims[f"A{i}"]
        else:
            dims[f"C{i}"] = kind
            slots.append(SystemString((f"C{i}",)))
            lam /= kind
    memories = []
    for j, d in enumerate(mems):
        if d == 1:
            memories.append("I")
        else:
            dims[f"E{j}"] = d
            memories.append(f"E{j}")
    lam /= mems[-1]
    reg = typesys.SystemRegistry.from_dict(dims)
    spec = network.NetworkSpec(tuple(slots), tuple(memories))
    blocks = tuple(membership.sample_deterministic(spec.block_type(i), reg, eps=0.5,
                                                   seed=seed * 1000 + i)
                   for i in range(spec.n))
    return Net(spec, reg, blocks, str(lam))


def random_type(rng: random.Random) -> tuple[str, dict[str, int]]:
    """A random type over fresh labels, as text, with its registry entries."""
    dims: dict[str, int] = {}

    def fresh(d: int) -> str:
        label = f"S{len(dims) + 1}"
        dims[label] = d
        return label

    def build(depth: int) -> str:
        budget = MAX_SYSTEMS - len(dims)
        if budget < 1:
            return "I"
        if depth >= MAX_DEPTH or budget <= 2 or rng.random() < 0.35:
            if budget < 2 or rng.random() < 0.5:
                n = 2 if budget >= 2 and rng.random() < 0.3 else 1
                return " ".join(fresh(rng.choice((2, 3))) for _ in range(n))
            d = rng.choice((2, 3))
            hat_in = fresh(d)
            in_tail = [fresh(rng.choice((2, 3)))] if budget >= 4 and rng.random() < 0.3 else []
            hat_out = fresh(d)
            out_tail = [fresh(rng.choice((2, 3)))] \
                if MAX_SYSTEMS - len(dims) >= 2 and rng.random() < 0.3 else []
            left = " ".join([f"^{hat_in}", *in_tail])
            right = " ".join([f"^{hat_out}", *out_tail])
            return f"({left} -> {right})"
        return f"({build(depth + 1)} -> {build(depth + 1)})"

    return build(0), dims


class Inputs:
    def __init__(self, seed: int):
        self.nets = [[network_of(shape, seed * 100 + 10 * k + v)
                      for k, shape in enumerate(SHAPES)] for v in range(VARIANTS)]
        self.admissible = []
        for v in range(VARIANTS):
            row = []
            for k, (text, dims, status, scale) in enumerate(ADMISSIBLE):
                reg = typesys.SystemRegistry.from_dict(dims)
                t = typesys.parse_type(text, reg)
                event = membership.sample_deterministic(t, reg, seed=seed * 100 + 10 * k + v)
                if scale is None:  # push one eigenvalue below zero
                    data = event.data - 0.5 * np.eye(event.dim)
                else:
                    data = scale * event.data
                row.append((t, reg, status, LabeledOperator(event.factors, data)))
            self.admissible.append(row)


def _roundtrip(net: Net):
    r = network.compose_network(list(net.blocks), net.spec, net.reg)
    rep = network.check_network(r, net.spec, net.reg)
    parts, spec2, reg2 = network.decompose_network(r, net.spec, net.reg, tol=1e-8)
    back = network.compose_network(parts, spec2, reg2, validate=False)
    return rep, r, back


def _verify_roundtrip(lam: str):
    def verify(out):
        rep, r, back = out
        if not rep.passed:
            return f"network check {rep.verdict}"
        if str(rep.lambda_expected) != lam:
            return f"lambda {rep.lambda_expected}, expected {lam}"
        err = float(np.linalg.norm(back.data - linalg.permute_systems(r, back.labels).data))
        if not err < 1e-8:
            return f"recompose error {err:.3e}"
        return None
    return verify


def _characterize(text: str, dims: dict[str, int]):
    reg = typesys.SystemRegistry.from_dict(dims)
    t = typesys.parse_type(text, reg)
    dual = typesys.dual(t)
    return (t, reg, sectors.identity_coeff(t, reg), sectors.deviation_sectors(t, reg),
            sectors.identity_coeff(dual, reg), sectors.deviation_sectors(dual, reg))


def _verify_characterize(out):
    # the functional type's data by the direct formulas, against the recursion
    t, reg, coeff, dev, dual_coeff, dual_dev = out
    if coeff <= 0 or 0 in dev.masks:
        return "coefficient or sector set malformed"
    if sectors.dual_coeff_direct(t, reg) != dual_coeff:
        return f"dual coefficient {dual_coeff} disagrees with the direct formula"
    if not sectors.dual_deviation_direct(t, reg).same_subspace(dual_dev):
        return "dual sector set disagrees with the direct formula"
    return None


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def build(self, full: bool = True) -> Inputs:
        return Inputs(self.seed)

    def _admissible_op(self, entry, key: str) -> Op:
        t, reg, status, op = entry
        return Op(f"admissible.{status.lower()}",
                  lambda: membership.is_admissible(op, t, reg, max_iter=MAX_ITER),
                  lambda res: None if res.status == status
                  else f"admissibility {res.status}, expected {status}", key)

    def types(self, index: int) -> list[tuple[str, dict[str, int]]]:
        """The random types of round variant ``index`` (drawn outside the timing)."""
        rng = random.Random(f"types/{self.seed}/{index}")
        return [random_type(rng) for _ in range(TYPES_PER_ROUND)]

    @staticmethod
    def _type_op(text: str, dims: dict[str, int], key: str) -> Op:
        # each type starts from empty caches, as a fresh type would: its
        # repeats then do the same work, and the order of a round does not
        # matter
        return Op("types", lambda: _characterize(text, dims), _verify_characterize, key,
                  prepare=lambda: clear_sector_caches(keep_counts=True))

    def _round(self, x: Inputs, index: int) -> list[Op]:
        # the whole round recurs, in another order, every VARIANTS rounds
        v = index % VARIANTS
        ops = [Op("roundtrip", lambda n=n: _roundtrip(n), _verify_roundtrip(n.lam),
                  f"roundtrip.{v}.{k}")
               for k, n in enumerate(x.nets[v])]
        ops += [self._admissible_op(e, f"admissible.{v}.{k}")
                for k, e in enumerate(x.admissible[v])]
        ops += [self._type_op(text, dims, f"types.{v}.{j}")
                for j, (text, dims) in enumerate(self.types(v))]
        random.Random(f"{self.seed}/{index}").shuffle(ops)
        return ops

    def cycle(self, x: Inputs, index: int) -> list[Op]:
        # each round variant recurs ROUNDS / VARIANTS times per cycle
        return [op for r in range(ROUNDS) for op in self._round(x, index * ROUNDS + r)]

    def warmup(self, x: Inputs) -> list[Op]:
        # one of each kind, on inputs the timed cycles reach last
        net = x.nets[1][-1]
        return [Op("roundtrip", lambda: _roundtrip(net), _verify_roundtrip(net.lam)),
                *(self._admissible_op(e, "warmup") for e in x.admissible[1][2:]),
                self._type_op(*self.types(-1)[0], "warmup")]

    def once(self, x: Inputs) -> list[Op]:
        return []

    def large(self, x: Inputs) -> list[Op]:
        return []

    def mini(self, x: Inputs) -> list[Op]:
        return self.warmup(x)

    def report(self, records) -> dict:
        return {"roundtrip_s": (kind_median(records, "roundtrip"), "s"),
                "admissible_s": (kind_median(records, "admissible."), "s"),
                "types_s": (kind_median(records, "types"), "s")}
