"""Unit tests for the ESP type checker."""

import pytest

from repro.api import compile_source
from repro.errors import TypeError_
from repro.lang import ast
from repro.lang.parser import MAX_ARRAY_SIZE, parse
from repro.lang.typecheck import check, deep_set_mutability
from repro.lang.types import ArrayType, BOOL, INT, RecordType, UnionType
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE


def check_program(text):
    return check(parse(text))


def check_body(body, prelude=""):
    return check_program(prelude + "\nprocess p { " + body + " }")


PRELUDE = """
type sendT = record of { dest: int, vAddr: int, size: int}
type updateT = record of { vAddr: int, pAddr: int}
type userT = union of { send: sendT, update: updateT }
channel intC: int
channel userC: userT
"""


# -- type declarations ----------------------------------------------------


def test_type_alias_resolution():
    checked = check_program(PRELUDE + "process p { skip; }")
    send = checked.types["sendT"]
    assert isinstance(send, RecordType)
    assert send.field_names() == ("dest", "vAddr", "size")
    user = checked.types["userT"]
    assert isinstance(user, UnionType)
    assert user.tag_type("send") == send


def test_forward_type_reference_allowed():
    checked = check_program(
        "type a = record of { x: b } type b = record of { y: int } process p { skip; }"
    )
    assert isinstance(checked.types["a"].field_type("x"), RecordType)


def test_recursive_type_rejected():
    with pytest.raises(TypeError_, match="recursive"):
        check_program("type t = record of { next: t } process p { skip; }")


def test_mutually_recursive_types_rejected():
    with pytest.raises(TypeError_, match="recursive"):
        check_program(
            "type a = record of { x: b } type b = record of { y: a } process p { skip; }"
        )


def test_duplicate_field_names_rejected():
    with pytest.raises(TypeError_, match="duplicate"):
        check_program("type t = record of { x: int, x: int } process p { skip; }")


def test_mutable_on_base_type_rejected():
    with pytest.raises(TypeError_, match="#"):
        check_program("type t = #int process p { skip; }")


# -- constants ---------------------------------------------------------------


def test_const_evaluation():
    checked = check_program("const A = 3 const B = A * 4 + 1 process p { skip; }")
    assert checked.consts == {"A": 3, "B": 13}


def test_const_division_by_zero_rejected():
    with pytest.raises(TypeError_, match="division by zero"):
        check_program("const A = 1 / 0 process p { skip; }")


def test_const_non_constant_rejected():
    with pytest.raises(TypeError_, match="constant"):
        check_program("const A = x + 1 process p { skip; }")


# -- variables and inference ---------------------------------------------------


def test_declared_and_inferred_types():
    checked = check_body("$i: int = 7; i = 45; $j = 36; $b = true;")
    types = checked.processes[0].locals
    assert set(types.values()) == {INT, BOOL}


def test_type_annotation_mismatch_rejected():
    with pytest.raises(TypeError_, match="mismatch"):
        check_body("$i: int = true;")


def test_unknown_variable_rejected():
    with pytest.raises(TypeError_, match="unknown variable"):
        check_body("$i = j;")


def test_duplicate_declaration_in_scope_rejected():
    with pytest.raises(TypeError_, match="already declared"):
        check_body("$i = 1; $i = 2;")


def test_shadowing_in_nested_scope_allowed():
    check_body("$i = 1; if (i > 0) { $i = 2; print(i); }")


def test_block_scoping_variables_not_visible_outside():
    with pytest.raises(TypeError_, match="unknown variable"):
        check_body("if (true) { $i = 1; } print(i);")


def test_assignment_type_must_match():
    with pytest.raises(TypeError_, match="mismatch"):
        check_body("$i = 1; i = true;")


# -- aggregates ------------------------------------------------------------------


def test_record_literal_against_annotation():
    check_body("$sr: sendT = { 7, 54677, 1024};", PRELUDE)


def test_record_literal_arity_mismatch_rejected():
    with pytest.raises(TypeError_, match="components"):
        check_body("$sr: sendT = { 7, 54677};", PRELUDE)


def test_record_literal_needs_context():
    with pytest.raises(TypeError_, match="cannot infer"):
        check_body("$x = {1, 2};")


def test_union_literal_and_unknown_tag():
    check_body("$u: userT = { update |> { 5, 6}};", PRELUDE)
    with pytest.raises(TypeError_, match="no tag"):
        check_body("$u: userT = { bogus |> 5};", PRELUDE)


def test_union_literal_from_existing_record():
    check_body("$sr: sendT = { 7, 5, 10}; $u: userT = { send |> sr};", PRELUDE)


def test_array_fill_infers_element_type():
    checked = check_body("$a = #{ 8 -> 0 };")
    (t,) = checked.processes[0].locals.values()
    assert t == ArrayType(INT, mutable=True)


def test_constant_array_fill_over_the_bound_is_a_check_error():
    # The page-table fill a mutation fuzzer found: it used to typecheck
    # and lower, then exhaust memory when the firmware ran.  Only
    # checking happens here, so nothing is allocated.
    line = "$table: #array of int = #{ 64 -> 0, ... };"
    assert line in VMMC_ESP_SOURCE
    source = VMMC_ESP_SOURCE.replace(line, line.replace("64", "0x7fffffff"))
    with pytest.raises(TypeError_) as err:
        compile_source(source, filename="vmmc.esp")
    assert err.value.message == (
        f"array size 2147483647 exceeds the limit of {MAX_ARRAY_SIZE} elements")
    span = err.value.span
    row = source.splitlines()[span.start.line - 1]
    assert row[span.start.column - 1:span.end.column - 1] == "0x7fffffff"


def test_constant_array_fill_at_the_bound_checks():
    check_body(f"$a = #{{ {MAX_ARRAY_SIZE // 2} * 2 -> 0 }};")
    check_body("$n = 0x7fffffff; $a = #{ n -> 0 };")  # not a constant


def test_array_literal_homogeneous():
    with pytest.raises(TypeError_, match="mismatch"):
        check_body("$a = [1, true];")


def test_indexing_and_field_access():
    check_body("$a = #{ 4 -> 0 }; $x = a[2]; a[1] = x + 1;")
    check_body("$r: #record of { x: int } = #{ 1 }; r.x = 2; $y = r.x;")


def test_index_requires_int():
    with pytest.raises(TypeError_, match="index must be int"):
        check_body("$a = #{ 4 -> 0 }; $x = a[true];")


def test_assignment_into_immutable_array_rejected():
    with pytest.raises(TypeError_, match="immutable"):
        check_body("$a: array of int = { 4 -> 0 }; a[0] = 1;")


def test_assignment_into_immutable_record_rejected():
    with pytest.raises(TypeError_, match="immutable"):
        check_body("$r: record of { x: int } = { 1 }; r.x = 2;")


def test_field_access_on_union_rejected():
    with pytest.raises(TypeError_, match="pattern matching"):
        check_body("$u: userT = { update |> { 1, 2}}; $x = u.update;", PRELUDE)


def test_mutability_mismatch_in_literal_rejected():
    with pytest.raises(TypeError_, match="immutable"):
        check_body("$a: #array of int = { 4 -> 0 };")


def test_cast_flips_mutability_deeply():
    checked = check_body(
        "$a = #{ 4 -> 0 }; $b = cast(a); $c = cast(b);"
    )
    types = checked.processes[0].locals
    assert types["a.0"] == ArrayType(INT, mutable=True)
    assert types["b.1"] == ArrayType(INT, mutable=False)
    assert types["c.2"] == ArrayType(INT, mutable=True)


def test_cast_on_base_type_rejected():
    with pytest.raises(TypeError_, match="cast"):
        check_body("$x = cast(5);")


def test_deep_set_mutability_helper():
    t = RecordType((("a", ArrayType(INT)),))
    mt = deep_set_mutability(t, True)
    assert mt.mutable and mt.field_type("a").mutable


# -- operators ----------------------------------------------------------------


def test_arithmetic_comparison_logic():
    check_body("$x = (1 + 2 * 3) % 4; $b = x < 5 && !(x == 3) || false;")


def test_bitwise_and_shifts():
    check_body("$x = (1 << 4) | (255 & 0x0f) ^ (8 >> 2);")


def test_logic_on_ints_rejected():
    with pytest.raises(TypeError_, match="bool"):
        check_body("$x = 1 && 2;")


def test_aggregate_equality_rejected():
    with pytest.raises(TypeError_, match="aggregate"):
        check_body("$a = #{4 -> 0}; $b = #{4 -> 0}; $e = a == b;")


# -- channels -----------------------------------------------------------------


def test_in_out_statement_types():
    check_body("out( intC, 5); in( intC, $x); print(x);", PRELUDE)


def test_out_wrong_type_rejected():
    with pytest.raises(TypeError_, match="mismatch"):
        check_body("out( intC, true);", PRELUDE)


def test_unknown_channel_rejected():
    with pytest.raises(TypeError_, match="unknown channel"):
        check_body("out( nosuch, 5);")


def test_channel_with_mutable_type_rejected():
    with pytest.raises(TypeError_, match="mutable"):
        check_program("channel bad: #array of int process p { skip; }")


def test_process_cannot_write_external_writer_channel():
    prog = PRELUDE + """
external interface userReq(out userC) {
    Send({ send |> { $d, $v, $s }}),
    Update({ update |> $n })
};
process p { out( userC, { update |> { 1, 2}}); }
"""
    with pytest.raises(TypeError_, match="external writer"):
        check_program(prog)


def test_process_cannot_read_external_reader_channel():
    prog = PRELUDE + """
external interface notify(in intC) { Notify($v) };
process p { in( intC, $x); print(x); }
"""
    with pytest.raises(TypeError_, match="external reader"):
        check_program(prog)


def test_channel_cannot_have_two_external_sides():
    prog = PRELUDE + """
external interface a(in intC) { A($v) };
external interface b(out intC) { B($v) };
process p { skip; }
"""
    with pytest.raises(TypeError_, match="external side"):
        check_program(prog)


# -- patterns in statements -----------------------------------------------------


def test_in_pattern_binds_variables():
    checked = check_body(
        "in( userC, { send |> { $dest, $vAddr, $size}}); print(dest + vAddr + size);",
        PRELUDE,
    )
    assert len(checked.processes[0].locals) == 3


def test_in_pattern_store_into_array_element():
    check_body("$q = #{ 4 -> 0 }; in( intC, q[0]);", PRELUDE)


def test_match_statement_destructures():
    check_body(
        "$u: userT = { send |> { 5, 10000, 512}};"
        "{ send |> { $dest, $vAddr, $size}}: userT = u;"
        "print(dest, vAddr, size);",
        PRELUDE,
    )


def test_pattern_arity_mismatch_rejected():
    with pytest.raises(TypeError_, match="components"):
        check_body("in( userC, { send |> { $a, $b }});", PRELUDE)


def test_pattern_unknown_tag_rejected():
    with pytest.raises(TypeError_, match="no tag"):
        check_body("in( userC, { bogus |> $x });", PRELUDE)


# -- statements -------------------------------------------------------------------


def test_if_while_conditions_must_be_bool():
    with pytest.raises(TypeError_, match="bool"):
        check_body("if (1) { skip; }")
    with pytest.raises(TypeError_, match="bool"):
        check_body("while (1) { skip; }")


def test_break_outside_loop_rejected():
    with pytest.raises(TypeError_, match="break"):
        check_body("break;")


def test_break_inside_loop_ok():
    check_body("while (true) { break; }")


def test_link_unlink_require_heap_objects():
    check_body("$a = #{4 -> 0}; link(a); unlink(a);")
    with pytest.raises(TypeError_, match="heap objects"):
        check_body("$x = 5; link(x);")


def test_assert_requires_bool():
    with pytest.raises(TypeError_, match="bool"):
        check_body("assert(5);")


def test_alt_guard_must_be_bool():
    with pytest.raises(TypeError_, match="guard"):
        check_body("alt { case( 1, in( intC, $x)) { skip; } }", PRELUDE)


def test_process_id_is_int():
    check_body("$x = @ + 1;", PRELUDE)


def test_duplicate_process_rejected():
    with pytest.raises(TypeError_, match="duplicate process"):
        check_program("process p { skip; } process p { skip; }")


def test_process_ids_are_assigned_in_order():
    checked = check_program("process a { skip; } process b { skip; }")
    assert [(p.name, p.pid) for p in checked.processes] == [("a", 0), ("b", 1)]
