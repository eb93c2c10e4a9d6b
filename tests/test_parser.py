"""Unit tests for the ESP parser."""

import pytest

from repro.backends.c.codegen import generate_c
from repro.errors import ParseError
from repro.ir.pipeline import compile_ir
from repro.lang import ast
from repro.lang.parser import MAX_NESTING, parse
from repro.lang.program import frontend
from repro.runtime.machine import create_machine
from repro.runtime.scheduler import create_scheduler


def parse_stmts(body: str) -> list[ast.Stmt]:
    program = parse("process p { " + body + " }")
    return program.processes()[0].body.stmts


def parse_expr(text: str) -> ast.Expr:
    stmt = parse_stmts(f"$x = {text};")[0]
    assert isinstance(stmt, ast.DeclStmt)
    return stmt.init


# -- declarations -----------------------------------------------------------


def test_type_decl_record():
    program = parse("type sendT = record of { dest: int, vAddr: int, size: int}")
    decl = program.type_decls()[0]
    assert decl.name == "sendT"
    assert isinstance(decl.definition, ast.TRecord)
    assert [n for n, _ in decl.definition.fields] == ["dest", "vAddr", "size"]


def test_type_decl_union_with_ellipsis():
    program = parse("type userT = union of { send: sendT, update: updateT, ...}")
    decl = program.type_decls()[0]
    assert isinstance(decl.definition, ast.TUnion)
    assert [n for n, _ in decl.definition.tags] == ["send", "update"]


def test_type_decl_array_and_mutable():
    program = parse("type dataT = array of int type t2 = #array of bool")
    defs = [d.definition for d in program.type_decls()]
    assert isinstance(defs[0], ast.TArray)
    assert isinstance(defs[1], ast.TMutable)


def test_channel_decl():
    program = parse("channel ptReqC: record of { ret: int, vAddr: int}")
    chan = program.channels()[0]
    assert chan.name == "ptReqC"
    assert isinstance(chan.message_type, ast.TRecord)


def test_const_decl():
    program = parse("const N = 4 * 8;")
    const = program.const_decls()[0]
    assert const.name == "N"
    assert isinstance(const.value, ast.Binary)


def test_external_interface_decl():
    program = parse(
        """
        type userT = union of { send: int, update: int }
        channel userReqC: userT
        external interface userReq(out userReqC) {
            Send({ send |> $v }),
            Update({ update |> $v })
        };
        """
    )
    iface = program.interfaces()[0]
    assert iface.name == "userReq"
    assert iface.direction == "out"
    assert iface.channel == "userReqC"
    assert [e.name for e in iface.entries] == ["Send", "Update"]


def test_process_decl():
    program = parse("process add5 { while(true) { in( c1, $i); out( c2, i+5); } }")
    proc = program.processes()[0]
    assert proc.name == "add5"
    assert len(proc.body.stmts) == 1


def test_top_level_junk_rejected():
    with pytest.raises(ParseError):
        parse("junk")


# -- statements ---------------------------------------------------------------


def test_decl_with_type():
    stmt = parse_stmts("$i: int = 7;")[0]
    assert isinstance(stmt, ast.DeclStmt)
    assert stmt.name == "i"
    assert isinstance(stmt.declared_type, ast.TInt)


def test_decl_inferred():
    stmt = parse_stmts("$j = 36;")[0]
    assert isinstance(stmt, ast.DeclStmt)
    assert stmt.declared_type is None


def test_assignment_to_variable_and_index():
    stmts = parse_stmts("i = 45; table[vAddr] = pAddr;")
    assert isinstance(stmts[0], ast.AssignStmt)
    assert isinstance(stmts[1].target, ast.Index)


def test_assignment_to_literal_rejected():
    with pytest.raises(ParseError):
        parse_stmts("5 = x;")


def test_match_statement_with_annotation():
    # Paper §4.2: `{ send |> { $dest, $vAddr, $size}}: userT = ur2;`
    stmt = parse_stmts("{ send |> { $dest, $vAddr, $size}}: userT = ur2;")[0]
    assert isinstance(stmt, ast.MatchStmt)
    assert isinstance(stmt.pattern, ast.PUnion)
    assert isinstance(stmt.declared_type, ast.TName)


def test_in_statement_with_union_pattern():
    stmt = parse_stmts("in( userReqC, { send |> { $dest, $vAddr, $size}});")[0]
    assert isinstance(stmt, ast.InStmt)
    assert stmt.channel == "userReqC"
    pattern = stmt.pattern
    assert isinstance(pattern, ast.PUnion) and pattern.tag == "send"
    assert all(isinstance(i, ast.PBind) for i in pattern.value.items)


def test_in_statement_with_process_id_constraint():
    stmt = parse_stmts("in( ptReplyC, { @, $pAddr});")[0]
    items = stmt.pattern.items
    assert isinstance(items[0], ast.PEq)
    assert isinstance(items[0].expr, ast.ProcessId)
    assert isinstance(items[1], ast.PBind)


def test_in_statement_receiving_into_lvalue():
    # FIFO example: in( chan1, Q[tl])
    stmt = parse_stmts("in( chan1, Q[tl]);")[0]
    assert isinstance(stmt.pattern, ast.PEq)
    assert isinstance(stmt.pattern.expr, ast.Index)


def test_out_statement():
    stmt = parse_stmts("out( ptReqC, { @, vAddr});")[0]
    assert isinstance(stmt, ast.OutStmt)
    assert isinstance(stmt.value, ast.RecordLit)


def test_alt_with_guards():
    stmt = parse_stmts(
        """
        alt {
            case( !full, in( chan1, $m)) { t = t + 1; }
            case( !empty, out( chan2, x)) { h = h + 1; }
        }
        """
    )[0]
    assert isinstance(stmt, ast.AltStmt)
    assert len(stmt.cases) == 2
    assert stmt.cases[0].guard is not None
    assert isinstance(stmt.cases[0].op, ast.InStmt)
    assert isinstance(stmt.cases[1].op, ast.OutStmt)


def test_alt_without_guard():
    stmt = parse_stmts("alt { case( in( c, $x)) { skip; } }")[0]
    assert stmt.cases[0].guard is None


def test_alt_requires_cases():
    with pytest.raises(ParseError):
        parse_stmts("alt { }")


def test_if_else_chain():
    stmt = parse_stmts("if (a) { skip; } else if (b) { skip; } else { skip; }")[0]
    assert isinstance(stmt, ast.IfStmt)
    nested = stmt.else_block.stmts[0]
    assert isinstance(nested, ast.IfStmt)
    assert nested.else_block is not None


def test_while_with_condition_and_sugar():
    stmts = parse_stmts("while (x < 5) { skip; } while { skip; }")
    assert isinstance(stmts[0].cond, ast.Binary)
    assert isinstance(stmts[1].cond, ast.BoolLit) and stmts[1].cond.value


def test_link_unlink_assert_skip_break_print():
    stmts = parse_stmts(
        "while(true) { link(x); unlink(x); assert(x > 0); skip; print(x, 2); break; }"
    )[0].body.stmts
    classes = [type(s).__name__ for s in stmts]
    assert classes == [
        "LinkStmt", "UnlinkStmt", "AssertStmt", "SkipStmt", "PrintStmt", "BreakStmt",
    ]


# -- expressions ---------------------------------------------------------------


def test_precedence_arithmetic():
    e = parse_expr("1 + 2 * 3")
    assert e.op == "+"
    assert e.right.op == "*"


def test_precedence_comparison_binds_looser_than_arithmetic():
    e = parse_expr("a + 1 < b * 2")
    assert e.op == "<"


def test_precedence_logical():
    e = parse_expr("a && b || c")
    assert e.op == "||"
    assert e.left.op == "&&"


def test_unary_operators():
    e = parse_expr("!a")
    assert isinstance(e, ast.Unary) and e.op == "!"
    e = parse_expr("-5")
    assert isinstance(e, ast.Unary) and e.op == "-"


def test_parentheses_override_precedence():
    e = parse_expr("(1 + 2) * 3")
    assert e.op == "*"
    assert e.left.op == "+"


def test_postfix_chains():
    e = parse_expr("a[i].f[j]")
    assert isinstance(e, ast.Index)
    assert isinstance(e.base, ast.FieldAccess)
    assert isinstance(e.base.base, ast.Index)


def _parenthesize(e) -> str:
    if isinstance(e, ast.Binary):
        return f"({_parenthesize(e.left)} {e.op} {_parenthesize(e.right)})"
    if isinstance(e, ast.Unary):
        return f"({e.op}{_parenthesize(e.operand)})"
    return e.name if isinstance(e, ast.Var) else str(e.value)


def test_every_precedence_level_and_left_associativity():
    e = parse_expr("a || b && c | d ^ e & f == g < h << i + j * k")
    assert _parenthesize(e) == \
        "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))"
    e = parse_expr("a * b + c << d < e == f & g ^ h | i && j || k")
    assert _parenthesize(e) == \
        "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)"
    assert _parenthesize(parse_expr("a - b - c % d / e * f")) == \
        "((a - b) - (((c % d) / e) * f))"
    assert _parenthesize(parse_expr("-a * !b != -(c - d) >= e")) == \
        "(((-a) * (!b)) != ((-(c - d)) >= e))"


def test_record_literal():
    e = parse_expr("{ 7, 54677, 1024}")
    assert isinstance(e, ast.RecordLit)
    assert not e.mutable
    assert len(e.items) == 3


def test_union_literal_nested():
    e = parse_expr("{ send |> { 5, 10000, 512}}")
    assert isinstance(e, ast.UnionLit)
    assert e.tag == "send"
    assert isinstance(e.value, ast.RecordLit)


def test_mutable_array_fill_with_ellipsis():
    e = parse_expr("#{ TABLE_SIZE -> 0, ... }")
    assert isinstance(e, ast.ArrayFill)
    assert e.mutable


def test_array_literal():
    e = parse_expr("[1, 2, 3]")
    assert isinstance(e, ast.ArrayLit)
    assert len(e.items) == 3


def test_cast_expression():
    e = parse_expr("cast(x)")
    assert isinstance(e, ast.Cast)


def test_hash_requires_literal():
    with pytest.raises(ParseError):
        parse_expr("#x")


def test_appendix_b_full_program_parses():
    program = parse(APPENDIX_B)
    assert [p.name for p in program.processes()] == ["pageTable", "SM1"]
    assert len(program.channels()) == 6
    assert len(program.type_decls()) == 4


APPENDIX_B = """
type dataT = array of int
type sendT = record of { dest: int, vAddr: int, size: int}
type updateT = record of { vAddr: int, pAddr: int}
type userT = union of { send: sendT, update: updateT }
const TABLE_SIZE = 64;

channel ptReqC: record of { ret: int, vAddr: int}
channel ptReplyC: record of { ret: int, pAddr: int}
channel dmaReqC: record of { ret: int, pAddr: int, size: int}
channel dmaDataC: record of { ret: int, data: dataT}
channel SM2C: record of { dest: int, data: dataT}
channel userReqC: userT // External (aka C) writer

external interface userReq(out userReqC) {
    Send({ send |> { $dest, $vAddr, $size }}),
    Update({ update |> $new })
};

process pageTable {
    $table: #array of int = #{ TABLE_SIZE -> 0, ... };
    while (true) {
        alt {
            case( in( ptReqC, { $ret, $vAddr})) {
                // Request to lookup a mapping
                out( ptReplyC, { ret, table[vAddr]});
            }
            case( in( userReqC, { update |> { $vAddr, $pAddr}})) {
                // Request to update a mapping
                table[vAddr] = pAddr;
            }
        }
    }
}

process SM1 {
    while (true) {
        in( userReqC, { send |> { $dest, $vAddr, $size}});
        out( ptReqC, { @, vAddr});
        in( ptReplyC, { @, $pAddr});
        out( dmaReqC, { @, pAddr, size});
        in( dmaDataC, { @, $sendData});
        out( SM2C, { dest, sendData});
        unlink( sendData);
    }
}
"""


# -- nesting limit -------------------------------------------------------------
#
# The process body is one level; each operand, binary operator, block and
# brace pattern inside it is one more (see MAX_NESTING).


def _parens(n: int) -> str:
    """One operand inside ``n`` parentheses: its deepest level is n + 2."""
    return "process p { $x: int = 0; x = " + "(" * n + "7" + ")" * n + "; print(x); }"


def _loops(n: int) -> str:
    """``n`` nested ``while { ... break; }`` blocks: n + 1 levels."""
    return ("process p { $x: int = 7; " + "while { " * n + "break; }"
            + " break; }" * (n - 1) + " print(x); }")


def _ifs(n: int) -> str:
    """``n`` nested ``if (c) { ... }`` blocks; the innermost assignment's
    operands are at level n + 2."""
    return ("process p { $x: int = 0; $c: bool = true; " + "if (c) { " * n
            + "x = 7;" + " }" * n + " print(x); }")


def _chain(n: int) -> str:
    """A flat chain of ``n`` additions: each one nests its left operand."""
    return "process p { $x: int = 0; x = " + " + ".join(["1"] * (n + 1)) + "; print(x); }"


AT_LIMIT = {
    "parentheses": (_parens, MAX_NESTING - 2, 7),
    "while blocks": (_loops, MAX_NESTING - 1, 7),
    "if blocks": (_ifs, MAX_NESTING - 2, 7),
    "operator chain": (_chain, MAX_NESTING - 2, MAX_NESTING - 1),
}


@pytest.mark.parametrize("name", sorted(AT_LIMIT))
def test_program_at_the_nesting_limit_runs_through_every_stage(name):
    build, depth, printed = AT_LIMIT[name]
    text = build(depth)
    program, _stats = compile_ir(frontend(text))
    assert "esp_" in generate_c(program)
    for engine in ("compiled", "ast"):
        out = []
        machine = create_machine(program, engine=engine,
                                 print_handler=lambda *args: out.append(args))
        create_scheduler(machine).run()
        assert out == [("p", [printed])], engine


def _nesting_error(text: str) -> int:
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.message == "nesting too deep"
    return info.value.span.start.offset


@pytest.mark.parametrize("name", sorted(AT_LIMIT))
def test_one_level_past_the_limit_is_a_parse_error(name):
    build, depth, _ = AT_LIMIT[name]
    parse(build(depth))
    text = build(depth + 1)
    offset = _nesting_error(text)
    if name == "parentheses":  # the innermost operand crosses
        assert text[offset:].startswith("7)")
    elif name == "while blocks":  # the innermost block's brace crosses
        assert offset == text.rindex("while {") + len("while ")
    elif name == "if blocks":  # an operand inside the innermost block
        assert offset == text.index("x = 7;")
    else:  # the right operand of the last operator crosses
        assert offset == text.rindex("1;")


def test_nesting_error_points_at_the_crossing_token():
    # Far past the limit the error still names the first token too deep:
    # the parenthesis that opens level MAX_NESTING + 1.
    text = _parens(5 * MAX_NESTING)
    offset = _nesting_error(text)
    assert offset == text.index("(") + MAX_NESTING - 1
    for deep in ("x = " + "-" * 300 + "1;", "x = " + "a[" * 300 + "0" + "]" * 300 + ";",
                 "{" * 300 + "$y" + "}" * 300 + " = x;",
                 "if (c) { x = 1; }" + " else if (c) { x = 1; }" * 300):
        _nesting_error("process p { " + deep + " }")
    _nesting_error("type t = " + "array of " * 300 + "int")
