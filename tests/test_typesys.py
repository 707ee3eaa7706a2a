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
    print_type,
    systems_of,
    tensor,
)
from hoq.errors import (
    DuplicateSystem,
    HatDimMismatch,
    RecursionLimit,
    ShapeMismatch,
    TypeSyntaxError,
    UnknownSystem,
)
from hoq.typesys import TRIVIAL, _lex, has_hats

from helpers import random_type


REG = SystemRegistry.of(A=2, B=2, C=3, D=3, E=2, F=4, G=2, H=2, P=4)


def test_parse_smallest_hatted():
    t = parse_type("(^A -> ^B)", REG)
    assert t == BistochElem("A", (), "B", ())


def test_parse_supermap_type():
    t = parse_type("((^A -> ^B) -> (P -> F))", REG)
    assert t == Arrow(BistochElem("A", (), "B", ()),
                      Arrow(SystemString(("P",)), SystemString(("F",))))


def test_a_parse_is_worked_out_once():
    # types are frozen and registries compare by value, so each text,
    # registry and nesting limit is parsed once; a failure raises each time
    parse_type.cache_clear()
    text = "((^A -> ^B) -> (P -> F))"
    t = parse_type(text, REG)
    assert parse_type(text, SystemRegistry(REG.entries)) is t
    for _ in range(2):
        with pytest.raises(RecursionLimit):
            parse_type(text, REG, 1)
        with pytest.raises(UnknownSystem):
            parse_type("(X -> A)", REG)
    assert parse_type(text, REG, 2) == t
    assert parse_type("(X -> A)", REG.with_entries(X=2)) == Arrow(SystemString(("X",)),
                                                                  SystemString(("A",)))
    assert parse_type.cache_info().currsize == 3


def test_parse_hat_dim_mismatch():
    with pytest.raises(HatDimMismatch):
        parse_type("(^A B -> ^C)", REG)


def test_validate_reports_the_first_fault_left_to_right():
    # a pair's hat dimensions are checked right after its own labels, before
    # any label that comes later
    with pytest.raises(HatDimMismatch):
        parse_type("((^A B -> ^C) -> A)", REG)
    with pytest.raises(DuplicateSystem):
        parse_type("(A -> (^A B -> ^C))", REG)


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


@pytest.mark.parametrize("text,char,at", [("(A -> $B)", "$", 6), ("(A - B)", "-", 3),
                                          ("  1A", "1", 2), ("(A -> \u00e9)", "\u00e9", 6)],
                         ids=["dollar", "lone_minus", "leading_digit", "non_ascii"])
def test_an_unexpected_character_is_named_at_its_position(text, char, at):
    with pytest.raises(TypeSyntaxError) as err:
        parse_type(text, REG)
    assert str(err.value) == f"unexpected character {char!r} at position {at}"
    assert err.value.position == at


def test_trailing_whitespace_lexes_cleanly():
    assert _lex("(A -> B) \t\n") == [("(", 0), ("A", 1), ("->", 3), ("B", 6), (")", 7), ("", 11)]
    assert parse_type("(A -> B) \t\n", REG) == parse_type("(A -> B)", REG)


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


def test_extend_the_trivial_type():
    assert extend(TRIVIAL, "A", REG) == SystemString(("A",))


def test_an_empty_system_string_is_refused():
    with pytest.raises(ValueError, match="at least one label"):
        SystemString(())


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
    with pytest.raises(ShapeMismatch, match="n\\+1 memory labels"):
        NetworkSpec(slots, ("I", "I"))
    with pytest.raises(ShapeMismatch, match="at least one slot"):
        NetworkSpec((), ("I",))


@pytest.mark.parametrize("slots, memories, label", [
    (["((^A -> ^B) -> I)", "((^A -> ^B) -> I)"], ("P", "I", "F"), "A"),
    (["(^A -> ^B)"], ("B", "F"), "B"),
    (["C"], ("P", "P"), "P"),
], ids=["two-slots", "memory-is-a-slot-label", "two-memories"])
def test_network_spec_refuses_a_repeated_label(slots, memories, label):
    # as validate does for a type; the trivial label I may repeat
    slot_types = tuple(parse_type(x, REG) for x in slots)
    with pytest.raises(DuplicateSystem,
                       match=f"label '{label}' occurs more than once in the network spec"):
        NetworkSpec(slot_types, memories)
    assert NetworkSpec(slot_types[:1], ("I", "I")).memories == ("I", "I")


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


def test_registry_refuses_a_label_of_two_dimensions():
    with pytest.raises(ValueError, match="registered twice with different dimensions"):
        SystemRegistry((("A", 2), ("A", 3)))
    with pytest.raises(ValueError, match="already registered with dimension 2"):
        SystemRegistry.of(A=2).with_entries(A=3)


def test_registry_dimensions_follow_the_factor_rule():
    # as for operator factors: Python and numpy integers, stored as int;
    # booleans, floats and strings refused
    reg = SystemRegistry.of(A=np.int64(2), B=3)
    assert type(reg.dim("A")) is int and reg == SystemRegistry.of(A=2, B=3)
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            SystemRegistry.of(A=bad)
