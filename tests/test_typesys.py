import numpy as np
import pytest

from hoq import (
    Arrow,
    BistochElem,
    NetworkSpec,
    SystemRegistry,
    SystemString,
    dehat,
    dual,
    extend,
    parse_type,
    precedes,
    print_type,
    systems_of,
    tensor,
)
from hoq.errors import (
    DuplicateSystem,
    HatDimMismatch,
    TypeSyntaxError,
    UnknownSystem,
)
from hoq.typesys import TRIVIAL, has_hats

from helpers import random_type


REG = SystemRegistry.of(A=2, B=2, C=3, D=3, E=2, F=4, G=2, H=2, P=4)


def test_parse_smallest_hatted():
    t = parse_type("(^A -> ^B)", REG)
    assert t == BistochElem("A", (), "B", ())


def test_parse_supermap_type():
    t = parse_type("((^A -> ^B) -> (P -> F))", REG)
    assert t == Arrow(BistochElem("A", (), "B", ()),
                      Arrow(SystemString(("P",)), SystemString(("F",))))


def test_parse_hat_dim_mismatch():
    with pytest.raises(HatDimMismatch):
        parse_type("(^A B -> ^C)", REG)


def test_parse_tails():
    t = parse_type("(^A B -> ^E C)", REG)
    assert t == BistochElem("A", ("B",), "E", ("C",))


def test_parse_errors_carry_position():
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("(^A -> ", REG)
    assert err.value.position == 7
    with pytest.raises(TypeSyntaxError):
        parse_type("(A ->", REG)
    with pytest.raises(TypeSyntaxError):
        parse_type("A -> B", REG)  # arrows need parentheses
    with pytest.raises(UnknownSystem):
        parse_type("(A -> ZZZ)", REG)


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateSystem):
        parse_type("(A -> A)", REG)
    with pytest.raises(DuplicateSystem):
        parse_type("(^A -> ^B A)", REG)


def test_trivial_string():
    t = parse_type("I", REG)
    assert t == TRIVIAL
    assert systems_of(t) == []
    # repeated I is fine; embedded in a longer string is not
    parse_type("((A -> I) -> I)", REG)
    with pytest.raises(TypeSyntaxError):
        parse_type("A I", REG)


def test_print_examples():
    assert print_type(BistochElem("A", (), "B", ())) == "(^A -> ^B)"
    assert print_type(Arrow(SystemString(("A",)), TRIVIAL)) == "(A -> I)"
    assert print_type(BistochElem("A", ("B",), "E", ("C",))) == "(^A B -> ^E C)"


def test_roundtrip_on_random_corpus():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        t, reg = random_type(rng, (2, 3), max_depth=6, max_systems=12)
        assert parse_type(print_type(t), reg) == t


def test_systems_of_matches_first_occurrence():
    reg = SystemRegistry.of(A=2, B=2, C=3, D=2, E=2, F=3, G=3, H=2)
    text = "((A -> (^B C -> ^D E)) -> ((^F -> ^G) -> H))"
    t = parse_type(text, reg)
    assert systems_of(t) == list("ABCDEFGH")
    assert systems_of(t, reg)[0] == ("A", 2)


def test_systems_of_simple():
    assert systems_of(parse_type("(^A -> ^B)", REG)) == ["A", "B"]


def test_extend_clauses():
    reg = REG
    # hatted pair: appends to the output tail
    t = parse_type("(^A B -> ^E C)", reg)
    assert print_type(extend(t, "D", reg)) == "(^A B -> ^E C D)"
    # string: appends
    s = parse_type("A B", reg)
    assert print_type(extend(s, "E", reg)) == "A B E"
    # arrow: recurses into the right-hand side
    a = parse_type("((^A -> ^B) -> (P -> F))", reg)
    assert print_type(extend(a, "E", reg)) == "((^A -> ^B) -> (P -> F E))"
    # extension by the trivial system is a no-op
    assert extend(a, "I", reg) == a
    with pytest.raises(UnknownSystem):
        extend(a, "NOPE", reg)


def test_extend_appends_to_systems():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t, reg = random_type(rng, (2, 3))
        reg = reg.with_entries(Zx=2)
        assert systems_of(extend(t, "Zx", reg)) == systems_of(t) + ["Zx"]


def test_dual_and_tensor_shapes():
    a = parse_type("(^A -> ^B)", REG)
    assert print_type(dual(a)) == "((^A -> ^B) -> I)"
    x = SystemString(("A",))
    y = SystemString(("B",))
    assert tensor(x, y) == Arrow(Arrow(x, Arrow(y, TRIVIAL)), TRIVIAL)


def test_precedes():
    a = parse_type("A", REG)
    b = parse_type("B", REG)
    ab = Arrow(a, b)
    abc = Arrow(ab, SystemString(("C",)))
    assert precedes(a, ab)
    assert precedes(a, abc)
    assert precedes(b, abc)
    assert not precedes(SystemString(("C",)), ab)
    # irreflexive
    assert not precedes(ab, ab)


def test_precedes_strict_partial_order_sampled():
    rng = np.random.default_rng(3)
    types = []
    for _ in range(30):
        t, _ = random_type(rng, (2,), max_depth=4)
        types.append(t)
        for node in [t]:
            assert not precedes(node, node)
    # transitivity on subterm chains
    for t in types:
        if isinstance(t, Arrow) and isinstance(t.lhs, Arrow):
            assert precedes(t.lhs.lhs, t.lhs) and precedes(t.lhs, t)
            assert precedes(t.lhs.lhs, t)


def test_dehat():
    t = parse_type("(^A -> ^B)", REG)
    assert print_type(dehat(t)) == "(A -> B)"
    u = parse_type("((^A -> ^B) -> (P -> F))", REG)
    assert print_type(dehat(u)) == "((A -> B) -> (P -> F))"
    assert dehat(dehat(u)) == dehat(u)
    assert has_hats(u) and not has_hats(dehat(u))


def test_network_spec_has_one_home():
    import hoq
    from hoq import network, typesys

    assert hoq.NetworkSpec is network.NetworkSpec is typesys.NetworkSpec


def test_network_spec_memories_and_order():
    reg = REG.with_entries(Q=1)
    slots = (parse_type("(^A -> ^B)", REG), parse_type("(C -> D)", REG))
    # a trivial memory carries no factor; a one-dimensional label does
    spec = NetworkSpec(slots, ("I", "E", "Q"))
    assert spec.memory(0) == TRIVIAL and spec.memory(-1) == SystemString(("Q",))
    assert spec.system_order(reg) == [("A", 2), ("B", 2), ("C", 3), ("D", 3), ("Q", 1)]
    assert print_type(spec.block_type(1)) == "(((C -> D) -> I) -> (E -> Q))"
    closed = NetworkSpec(slots, ("P", "I", "I"))
    assert [lab for lab, _ in closed.system_order(REG)] == ["P", "A", "B", "C", "D"]
    with pytest.raises(ValueError, match="n\\+1 memory labels"):
        NetworkSpec(slots, ("I", "I"))
    with pytest.raises(ValueError, match="at least one slot"):
        NetworkSpec((), ("I",))


def test_dehat_spec_keeps_memories():
    spec = NetworkSpec((parse_type("(^A -> ^B)", REG), parse_type("C", REG)), ("P", "E", "F"))
    flat = dehat(spec)
    assert flat == NetworkSpec((parse_type("(A -> B)", REG), parse_type("C", REG)),
                               ("P", "E", "F"))
    assert dehat(flat) == flat


def test_registry_invariants():
    reg = SystemRegistry.of(A=2)
    assert reg.dim("I") == 1
    with pytest.raises(ValueError):
        SystemRegistry.of(I=3)
    with pytest.raises(ValueError):
        SystemRegistry.of(A=0)
    with pytest.raises(UnknownSystem):
        reg.dim("Q")
    reg2 = reg.with_entries(Q=5)
    assert reg2.dim("Q") == 5 and reg.dim("A") == 2
