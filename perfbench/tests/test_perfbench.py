"""Tests of the benchmark itself (not of hoq).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
import importlib

import numpy as np
import pytest

import common
import tracing
import wl_cli
import wl_small
import wl_verify


# -- workload generators are deterministic given a seed -----------------------

def test_small_ops_inputs_repeat_for_a_seed():
    a, b = wl_small.Inputs(5), wl_small.Inputs(5)
    for row_a, row_b in zip(a.nets, b.nets):
        for na, nb in zip(row_a, row_b):
            assert na.spec == nb.spec and na.lam == nb.lam
            for xa, xb in zip(na.blocks, nb.blocks):
                assert np.array_equal(xa.data, xb.data)
    for row_a, row_b in zip(a.admissible, b.admissible):
        for ea, eb in zip(row_a, row_b):
            assert ea[2] == eb[2] and np.array_equal(ea[3].data, eb[3].data)


def test_small_ops_random_types_repeat_for_a_seed():
    types = [wl_small.Workload(seed, "").types(3) for seed in (5, 5, 6)]
    assert types[0] == types[1] != types[2]
    assert wl_small.Workload(5, "").types(4) != types[0]  # fresh every cycle


def test_small_ops_cycle_order_repeats_for_a_seed():
    x = wl_small.Inputs(1)
    kinds = [[op.kind for op in wl_small.Workload(seed, "")._round(x, 2)] for seed in (3, 3, 4)]
    assert kinds[0] == kinds[1]
    assert kinds[0] != kinds[2]
    assert sorted(kinds[0]) == sorted(kinds[2])  # same mix, other order
    cycle = wl_small.Workload(3, "").cycle(x, 0)
    assert len(cycle) == wl_small.ROUNDS * len(kinds[0])


def test_verify_large_plan_repeats_for_a_seed():
    x = wl_verify.Inputs(1, full=False)  # ops hold the large inputs lazily
    order = [[op.kind for op in wl_verify.Workload(seed, "").cycle(x, 0)] for seed in (7, 7, 8)]
    assert order[0] == order[1] and order[0] != order[2]
    assert len(order[0]) == 5 * wl_verify.SMALL_REPEATS + 3
    once = [[op.kind for op in wl_verify.Workload(seed, "").large(x)] for seed in (7, 7, 8)]
    assert once[0] == once[1] and sorted(once[0]) == sorted(once[2])
    assert len(once[0]) == 5
    v1, v2 = wl_verify.non_psd_direction(7, 2916), wl_verify.non_psd_direction(7, 2916)
    assert np.array_equal(v1, v2)
    assert not np.allclose(v1, wl_verify.non_psd_direction(8, 2916))


def test_cli_files_plan_repeats_for_a_seed(tmp_path):
    runs = []
    for seed in (2, 2):
        wl = wl_cli.Workload(seed, str(tmp_path / f"w{len(runs)}"))
        x = wl.build()
        runs.append(([op.kind for op in wl.cycle(x, 1)],
                     open(x.path("bundle0.json")).read()))
    assert runs[0] == runs[1]


# -- the tail-percentile rule ---------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (13, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = common.tail_percentile(n)
    assert p == expected
    if n >= 20:
        assert n * (100 - p) / 100 >= 10 - 1e-9


def test_summary_counts_each_operation_of_the_mix_at_its_best_time():
    R = common.Record
    records = [R("a", 0.3, None, key="a"), R("a", 0.1, None, key="a"),
               R("b", 2.0, None, key="b"), R("b", 1.0, None, key="b")]
    assert common.best_times(records) == {"a": 0.1, "b": 1.0}
    summary = common.summarize(records, ["a", "a", "b"])
    assert summary["ops_per_s"] == pytest.approx(3 / 1.2)
    assert summary["op_p50_s"] == pytest.approx(0.1)
    assert summary["n"] == 4 and summary["mix"] == 3


def test_percentile_matches_numpy():
    xs = list(np.random.default_rng(0).exponential(size=57))
    for p in (50, 75, 90, 95, 99, 99.9):
        assert common.percentile(xs, p) == pytest.approx(float(np.percentile(xs, p)))


# -- trace wrappers -------------------------------------------------------------

def _snapshot():
    mods = [importlib.import_module(m) for m in tracing.HOQ_MODULES]
    from hoq.linalg import LabeledOperator
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()} | \
        {("LabeledOperator", "herm_defect"): LabeledOperator.__dict__["herm_defect"]}


def test_trace_wrappers_restore_the_originals():
    from hoq import membership, network
    before = _snapshot()
    original = membership.check_operator
    tracer = tracing.Tracer()
    with tracer.installed():
        assert membership.check_operator is not original
        # one wrapper, found wherever a module looks the name up
        assert network.check_operator is membership.check_operator
        assert membership.check_operator.__wrapped__ is original
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_spans_are_recorded_only_inside_an_operation():
    from hoq import membership, processes, typesys
    reg = typesys.SystemRegistry.of(A=2, B=2, P=4, F=4)
    t = typesys.parse_type("((^A -> ^B) -> (P -> F))", reg)
    flip = processes.time_flip_merged(2)
    tracer = tracing.Tracer()
    with tracer.installed():
        membership.is_deterministic(flip, t, reg)
        assert tracer.spans == []
        with tracer.op("check"):
            rep = membership.is_deterministic(flip, t, reg)
    assert rep.passed
    names = [s.name for s in tracer.spans]
    assert names[0] == tracing.ROOT and "membership.check" in names
    check = names.index("membership.check")
    assert tracer.spans[check].parent >= 0
    assert "linalg.herm_defect" in names and "sectors.project" in names


def test_self_time_subtracts_children():
    S = tracing.Span
    spans = [S("op", 0.0, 10.0), S("membership.check", 1.0, 9.0, parent=0),
             S("sectors.project", 2.0, 5.0, parent=1), S("linalg.herm_defect", 5.0, 6.0, parent=1)]
    nums = tracing.layer_numbers(spans, wall=10.0, cache_hits=3, cache_lookups=4)
    assert nums["membership.check.s"] == pytest.approx(8.0)
    assert nums["membership.check.self_s"] == pytest.approx(4.0)
    assert nums["sectors.share"] == pytest.approx(0.3)
    assert nums["sectors.cache_hit_ratio"] == pytest.approx(0.75)
