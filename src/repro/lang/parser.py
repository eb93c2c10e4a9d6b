"""Recursive-descent parser for ESP.

The grammar is reconstructed from every fragment in the paper; see
``DESIGN.md`` §5 for the (small) set of syntax decisions the paper
leaves open.  Binary operators are parsed by precedence climbing over
one table; precedence and associativity follow C.

Nesting — blocks, operands, binary operators, patterns and type
expressions — is limited to :data:`MAX_NESTING` levels, so every
later pass can recurse over the tree at Python's default recursion
limit.  Crossing the limit is a :class:`~repro.errors.ParseError`.

Entry point: :func:`parse_program` (or :func:`parse` on text).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import Lexer
from repro.lang.source import SourceFile
from repro.lang.tokens import Token, TokenKind

# The deepest nesting a program may have: each block, operand, binary
# operator (a chain nests its left operand), brace pattern, type
# expression and ``else if`` is one level.  A program at the limit is
# checked, lowered, compiled to C and run on the Python engines at the
# default recursion limit (tests/test_parser.py).
MAX_NESTING = 100

# The most elements an array fill may have when its size is a constant
# (``{ n -> v, ... }``): a larger constant is a check-time error rather
# than an allocation that exhausts memory when the program runs.
MAX_ARRAY_SIZE = 1 << 20


class K:
    """The :class:`TokenKind` members as plain class attributes.  Before
    Python 3.12 reading a member off the Enum class goes through
    ``EnumType.__getattr__``, which costs more than the token test it
    feeds; the parser reads one for nearly every test."""


for _kind in TokenKind:
    setattr(K, _kind.name, _kind)

# Binary operators: precedence level (loosest 0) and AST spelling (C-like).
_BINARY: dict[TokenKind, tuple[int, str]] = {
    K.OR: (0, "||"),
    K.AND: (1, "&&"),
    K.PIPE: (2, "|"),
    K.CARET: (3, "^"),
    K.AMP: (4, "&"),
    K.EQ: (5, "=="), K.NE: (5, "!="),
    K.LT: (6, "<"), K.LE: (6, "<="), K.GT: (6, ">"), K.GE: (6, ">="),
    K.SHL: (7, "<<"), K.SHR: (7, ">>"),
    K.PLUS: (8, "+"), K.MINUS: (8, "-"),
    K.STAR: (9, "*"), K.SLASH: (9, "/"), K.PERCENT: (9, "%"),
}


class Parser:
    """A single-pass recursive-descent parser over a token list.

    The list ends with EOF and the parser never moves past it, so the
    token helpers index the list directly.  Lookahead past the current
    token (``ahead=1``) is only taken from a non-EOF token."""

    def __init__(self, tokens: list[Token], source: SourceFile):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def at(self, kind: TokenKind, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead].kind is kind

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not K.EOF:
            self.pos += 1
        return token

    def expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self.tokens[self.pos]
        if token.kind is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected '{kind.value}'{where}, found {token}", token.span
            )
        if kind is not K.EOF:
            self.pos += 1
        return token

    def accept(self, kind: TokenKind) -> Token | None:
        token = self.tokens[self.pos]
        if token.kind is not kind:
            return None
        if kind is not K.EOF:
            self.pos += 1
        return token

    def _ident(self, context: str) -> str:
        return self.expect(K.IDENT, context).text

    def _nest(self) -> None:
        """Enter one nesting level at the current token; the caller
        leaves it with ``self.depth -= 1``.  (A failed parse abandons
        the parser, so no level needs unwinding on an error.)"""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting too deep", self.tokens[self.pos].span)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        start = self.peek().span
        decls: list[ast.Decl] = []
        while not self.at(K.EOF):
            decls.append(self.parse_decl())
        end = self.peek().span
        return ast.Program(start.merge(end), decls)

    def parse_decl(self) -> ast.Decl:
        token = self.peek()
        if token.kind is K.KW_TYPE:
            return self.parse_type_decl()
        if token.kind is K.KW_CONST:
            return self.parse_const_decl()
        if token.kind is K.KW_CHANNEL:
            return self.parse_channel_decl()
        if token.kind is K.KW_EXTERNAL:
            return self.parse_interface_decl()
        if token.kind is K.KW_PROCESS:
            return self.parse_process_decl()
        raise ParseError(
            f"expected a declaration (type/const/channel/external/process), found {token}",
            token.span,
        )

    def parse_type_decl(self) -> ast.TypeDecl:
        start = self.expect(K.KW_TYPE).span
        name = self._ident("type declaration")
        self.expect(K.ASSIGN, "type declaration")
        definition = self.parse_type_expr()
        self.accept(K.SEMI)
        return ast.TypeDecl(start.merge(definition.span), name, definition)

    def parse_const_decl(self) -> ast.ConstDecl:
        start = self.expect(K.KW_CONST).span
        name = self._ident("const declaration")
        self.expect(K.ASSIGN, "const declaration")
        value = self.parse_expr()
        self.accept(K.SEMI)
        return ast.ConstDecl(start.merge(value.span), name, value)

    def parse_channel_decl(self) -> ast.ChannelDecl:
        start = self.expect(K.KW_CHANNEL).span
        name = self._ident("channel declaration")
        self.expect(K.COLON, "channel declaration")
        message_type = self.parse_type_expr()
        self.accept(K.SEMI)
        return ast.ChannelDecl(start.merge(message_type.span), name, message_type)

    def parse_interface_decl(self) -> ast.InterfaceDecl:
        start = self.expect(K.KW_EXTERNAL).span
        self.expect(K.KW_INTERFACE, "external interface")
        name = self._ident("external interface")
        self.expect(K.LPAREN, "external interface")
        if self.accept(K.KW_OUT):
            direction = "out"
        elif self.accept(K.KW_IN):
            direction = "in"
        else:
            raise ParseError(
                f"expected 'in' or 'out' direction, found {self.peek()}",
                self.peek().span,
            )
        channel = self._ident("external interface")
        self.expect(K.RPAREN, "external interface")
        self.expect(K.LBRACE, "external interface")
        entries: list[ast.InterfaceEntry] = []
        while not self.at(K.RBRACE):
            entry_start = self.peek().span
            entry_name = self._ident("interface entry")
            self.expect(K.LPAREN, "interface entry")
            # One pattern matches the whole message; several comma-separated
            # patterns are sugar for a record pattern over its components.
            patterns = [self.parse_pattern()]
            while self.accept(K.COMMA):
                patterns.append(self.parse_pattern())
            if len(patterns) == 1:
                pattern = patterns[0]
            else:
                span = patterns[0].span.merge(patterns[-1].span)
                pattern = ast.PRecord(span, items=patterns)
            self.expect(K.RPAREN, "interface entry")
            entries.append(
                ast.InterfaceEntry(entry_start.merge(pattern.span), entry_name, pattern)
            )
            if not self.accept(K.COMMA):
                break
        end = self.expect(K.RBRACE, "external interface").span
        self.accept(K.SEMI)
        return ast.InterfaceDecl(start.merge(end), name, direction, channel, entries)

    def parse_process_decl(self) -> ast.ProcessDecl:
        start = self.expect(K.KW_PROCESS).span
        name = self._ident("process declaration")
        body = self.parse_block()
        return ast.ProcessDecl(start.merge(body.span), name, body)

    # -- type expressions ---------------------------------------------------

    def parse_type_expr(self) -> ast.TypeExpr:
        self._nest()
        type_expr = self._parse_type_expr()
        self.depth -= 1
        return type_expr

    def _parse_type_expr(self) -> ast.TypeExpr:
        token = self.peek()
        if token.kind is K.HASH:
            self.advance()
            inner = self.parse_type_expr()
            return ast.TMutable(token.span.merge(inner.span), inner)
        if token.kind is K.KW_INT:
            self.advance()
            return ast.TInt(token.span)
        if token.kind is K.KW_BOOL:
            self.advance()
            return ast.TBool(token.span)
        if token.kind is K.IDENT:
            self.advance()
            return ast.TName(token.span, token.text)
        if token.kind is K.KW_RECORD:
            self.advance()
            self.expect(K.KW_OF, "record type")
            fields, end = self._parse_field_list("record type")
            return ast.TRecord(token.span.merge(end), fields)
        if token.kind is K.KW_UNION:
            self.advance()
            self.expect(K.KW_OF, "union type")
            tags, end = self._parse_field_list("union type")
            return ast.TUnion(token.span.merge(end), tags)
        if token.kind is K.KW_ARRAY:
            self.advance()
            self.expect(K.KW_OF, "array type")
            element = self.parse_type_expr()
            return ast.TArray(token.span.merge(element.span), element)
        raise ParseError(f"expected a type, found {token}", token.span)

    def _parse_field_list(self, context: str):
        self.expect(K.LBRACE, context)
        fields: list[tuple[str, ast.TypeExpr]] = []
        while not self.at(K.RBRACE):
            if self.accept(K.ELLIPSIS):
                break
            fname = self._ident(context)
            self.expect(K.COLON, context)
            ftype = self.parse_type_expr()
            fields.append((fname, ftype))
            if not self.accept(K.COMMA):
                break
        end = self.expect(K.RBRACE, context).span
        return fields, end

    # -- blocks and statements ----------------------------------------------

    def parse_block(self) -> ast.Block:
        self._nest()
        start = self.expect(K.LBRACE, "block").span
        stmts: list[ast.Stmt] = []
        while not self.at(K.RBRACE):
            stmts.append(self.parse_stmt())
        end = self.expect(K.RBRACE, "block").span
        self.depth -= 1
        return ast.Block(start.merge(end), stmts)

    def parse_stmt(self) -> ast.Stmt:
        token = self.peek()
        kind = token.kind
        if kind is K.DOLLAR:
            return self._parse_decl_stmt()
        if kind is K.LBRACE:
            return self._parse_match_stmt()
        if kind is K.KW_IN:
            stmt = self._parse_in_op()
            self.expect(K.SEMI, "in statement")
            return stmt
        if kind is K.KW_OUT:
            stmt = self._parse_out_op()
            self.expect(K.SEMI, "out statement")
            return stmt
        if kind is K.KW_ALT:
            return self._parse_alt_stmt()
        if kind is K.KW_IF:
            return self._parse_if_stmt()
        if kind is K.KW_WHILE:
            return self._parse_while_stmt()
        if kind is K.KW_BREAK:
            self.advance()
            self.expect(K.SEMI, "break statement")
            return ast.BreakStmt(token.span)
        if kind in (K.KW_LINK, K.KW_UNLINK):
            self.advance()
            self.expect(K.LPAREN, token.text)
            value = self.parse_expr()
            self.expect(K.RPAREN, token.text)
            end = self.expect(K.SEMI, token.text).span
            cls = ast.LinkStmt if kind is K.KW_LINK else ast.UnlinkStmt
            return cls(token.span.merge(end), value)
        if kind is K.KW_ASSERT:
            self.advance()
            self.expect(K.LPAREN, "assert")
            cond = self.parse_expr()
            self.expect(K.RPAREN, "assert")
            end = self.expect(K.SEMI, "assert").span
            return ast.AssertStmt(token.span.merge(end), cond)
        if kind is K.KW_SKIP:
            self.advance()
            end = self.expect(K.SEMI, "skip").span
            return ast.SkipStmt(token.span.merge(end))
        if kind is K.KW_PRINT:
            self.advance()
            self.expect(K.LPAREN, "print")
            args = []
            if not self.at(K.RPAREN):
                args.append(self.parse_expr())
                while self.accept(K.COMMA):
                    args.append(self.parse_expr())
            self.expect(K.RPAREN, "print")
            end = self.expect(K.SEMI, "print").span
            return ast.PrintStmt(token.span.merge(end), args)
        # Fallback: assignment to an lvalue.
        return self._parse_assign_stmt()

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        start = self.expect(K.DOLLAR).span
        name = self._ident("variable declaration")
        declared_type = None
        if self.accept(K.COLON):
            declared_type = self.parse_type_expr()
        self.expect(K.ASSIGN, "variable declaration")
        init = self.parse_expr()
        end = self.expect(K.SEMI, "variable declaration").span
        return ast.DeclStmt(start.merge(end), name, declared_type, init)

    def _parse_match_stmt(self) -> ast.MatchStmt:
        pattern = self.parse_pattern()
        declared_type = None
        if self.accept(K.COLON):
            declared_type = self.parse_type_expr()
        self.expect(K.ASSIGN, "pattern match")
        value = self.parse_expr()
        end = self.expect(K.SEMI, "pattern match").span
        return ast.MatchStmt(pattern.span.merge(end), pattern, declared_type, value)

    def _parse_assign_stmt(self) -> ast.AssignStmt:
        target = self.parse_expr()
        if not isinstance(target, (ast.Var, ast.Index, ast.FieldAccess)):
            raise ParseError(
                "left-hand side of assignment must be a variable, index, or field",
                target.span,
            )
        self.expect(K.ASSIGN, "assignment")
        value = self.parse_expr()
        end = self.expect(K.SEMI, "assignment").span
        return ast.AssignStmt(target.span.merge(end), target, value)

    def _parse_in_op(self) -> ast.InStmt:
        start = self.expect(K.KW_IN).span
        self.expect(K.LPAREN, "in")
        channel = self._ident("in")
        self.expect(K.COMMA, "in")
        pattern = self.parse_pattern()
        end = self.expect(K.RPAREN, "in").span
        return ast.InStmt(start.merge(end), channel, pattern)

    def _parse_out_op(self) -> ast.OutStmt:
        start = self.expect(K.KW_OUT).span
        self.expect(K.LPAREN, "out")
        channel = self._ident("out")
        self.expect(K.COMMA, "out")
        value = self.parse_expr()
        end = self.expect(K.RPAREN, "out").span
        return ast.OutStmt(start.merge(end), channel, value)

    def _parse_alt_stmt(self) -> ast.AltStmt:
        start = self.expect(K.KW_ALT).span
        self.expect(K.LBRACE, "alt")
        cases: list[ast.AltCase] = []
        while self.at(K.KW_CASE):
            case_start = self.advance().span
            self.expect(K.LPAREN, "alt case")
            guard = None
            if not (self.at(K.KW_IN) or self.at(K.KW_OUT)):
                guard = self.parse_expr()
                self.expect(K.COMMA, "alt case")
            if self.at(K.KW_IN):
                op: ast.Stmt = self._parse_in_op()
            elif self.at(K.KW_OUT):
                op = self._parse_out_op()
            else:
                raise ParseError(
                    f"alt case must contain an in or out operation, found {self.peek()}",
                    self.peek().span,
                )
            self.expect(K.RPAREN, "alt case")
            body = self.parse_block()
            cases.append(ast.AltCase(case_start.merge(body.span), guard, op, body))
        end = self.expect(K.RBRACE, "alt").span
        if not cases:
            raise ParseError("alt requires at least one case", start.merge(end))
        return ast.AltStmt(start.merge(end), cases)

    def _parse_if_stmt(self) -> ast.IfStmt:
        start = self.expect(K.KW_IF).span
        self.expect(K.LPAREN, "if")
        cond = self.parse_expr()
        self.expect(K.RPAREN, "if")
        then_block = self.parse_block()
        else_block = None
        end = then_block.span
        if self.accept(K.KW_ELSE):
            if self.at(K.KW_IF):
                self._nest()
                nested = self._parse_if_stmt()
                self.depth -= 1
                else_block = ast.Block(nested.span, [nested])
            else:
                else_block = self.parse_block()
            end = else_block.span
        return ast.IfStmt(start.merge(end), cond, then_block, else_block)

    def _parse_while_stmt(self) -> ast.WhileStmt:
        start = self.expect(K.KW_WHILE).span
        if self.at(K.LBRACE):
            # `while { ... }` sugar (FIFO example, §4.2) == while (true).
            cond: ast.Expr = ast.BoolLit(start, value=True)
        else:
            self.expect(K.LPAREN, "while")
            cond = self.parse_expr()
            self.expect(K.RPAREN, "while")
        body = self.parse_block()
        return ast.WhileStmt(start.merge(body.span), cond, body)

    # -- patterns -------------------------------------------------------------

    def parse_pattern(self) -> ast.Pattern:
        token = self.peek()
        if token.kind is K.DOLLAR:
            self.advance()
            name_token = self.expect(K.IDENT, "pattern binder")
            return ast.PBind(token.span.merge(name_token.span), name=name_token.text)
        if token.kind is K.LBRACE:
            return self._parse_brace_pattern()
        expr = self.parse_expr()
        return ast.PEq(expr.span, expr=expr)

    def _parse_brace_pattern(self) -> ast.Pattern:
        self._nest()
        pattern = self._parse_brace_pattern_body()
        self.depth -= 1
        return pattern

    def _parse_brace_pattern_body(self) -> ast.Pattern:
        start = self.expect(K.LBRACE).span
        # Union pattern: `{ tag |> pattern }`.
        if self.at(K.IDENT) and self.at(K.TRIANGLE, 1):
            tag = self.advance().text
            self.advance()  # |>
            value = self.parse_pattern()
            end = self.expect(K.RBRACE, "union pattern").span
            return ast.PUnion(start.merge(end), tag=tag, value=value)
        items: list[ast.Pattern] = []
        while not self.at(K.RBRACE):
            if self.accept(K.ELLIPSIS):
                break
            items.append(self.parse_pattern())
            if not self.accept(K.COMMA):
                break
        end = self.expect(K.RBRACE, "record pattern").span
        return ast.PRecord(start.merge(end), items=items)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: an operand, then every operator binding
        at least as tightly as ``min_level``, left-associative."""
        tokens = self.tokens
        left = self._parse_unary()
        chain = 0
        while True:
            entry = _BINARY.get(tokens[self.pos].kind)
            if entry is None or entry[0] < min_level:
                self.depth -= chain
                return left
            self._nest()
            chain += 1
            self.pos += 1
            right = self._parse_binary(entry[0] + 1)
            left = ast.Binary(left.span.merge(right.span), op=entry[1], left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        self._nest()
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is K.NOT or kind is K.MINUS:
            self.pos += 1
            operand = self._parse_unary()
            op = "!" if kind is K.NOT else "-"
            expr: ast.Expr = ast.Unary(token.span.merge(operand.span), op=op, operand=operand)
        else:
            expr = self._parse_postfix()
        self.depth -= 1
        return expr

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            kind = tokens[self.pos].kind
            if kind is K.LBRACKET:
                self.pos += 1
                index = self.parse_expr()
                end = self.expect(K.RBRACKET, "index").span
                expr = ast.Index(expr.span.merge(end), base=expr, index=index)
            elif kind is K.DOT:
                self.pos += 1
                name_token = self.expect(K.IDENT, "field access")
                expr = ast.FieldAccess(
                    expr.span.merge(name_token.span), base=expr, field_name=name_token.text
                )
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is K.IDENT:
            self.pos += 1
            return ast.Var(token.span, name=token.text)
        if kind is K.INT:
            self.pos += 1
            return ast.IntLit(token.span, value=token.value)
        if kind is K.KW_TRUE:
            self.pos += 1
            return ast.BoolLit(token.span, value=True)
        if kind is K.KW_FALSE:
            self.pos += 1
            return ast.BoolLit(token.span, value=False)
        if kind is K.AT:
            self.pos += 1
            return ast.ProcessId(token.span)
        if kind is K.LPAREN:
            self.pos += 1
            expr = self.parse_expr()
            self.expect(K.RPAREN, "parenthesised expression")
            return expr
        if kind is K.KW_CAST:
            self.pos += 1
            self.expect(K.LPAREN, "cast")
            operand = self.parse_expr()
            end = self.expect(K.RPAREN, "cast").span
            return ast.Cast(token.span.merge(end), operand=operand)
        if kind is K.HASH:
            self.pos += 1
            if self.at(K.LBRACE):
                return self._parse_brace_expr(mutable=True, start=token.span)
            if self.at(K.LBRACKET):
                return self._parse_bracket_array(mutable=True, start=token.span)
            raise ParseError(
                "'#' must be followed by an allocation literal", token.span
            )
        if kind is K.LBRACE:
            return self._parse_brace_expr(mutable=False, start=token.span)
        if kind is K.LBRACKET:
            return self._parse_bracket_array(mutable=False, start=token.span)
        raise ParseError(f"expected an expression, found {token}", token.span)

    def _parse_brace_expr(self, mutable: bool, start) -> ast.Expr:
        self.expect(K.LBRACE)
        # Union allocation: `{ tag |> e }`.
        if self.at(K.IDENT) and self.at(K.TRIANGLE, 1):
            tag = self.advance().text
            self.advance()  # |>
            value = self.parse_expr()
            end = self.expect(K.RBRACE, "union literal").span
            return ast.UnionLit(start.merge(end), tag=tag, value=value, mutable=mutable)
        first = self.parse_expr()
        # Array fill: `{ n -> e }` with optional `, ...` tail.
        if self.accept(K.ARROW):
            fill = self.parse_expr()
            if self.accept(K.COMMA):
                self.accept(K.ELLIPSIS)
            end = self.expect(K.RBRACE, "array fill").span
            return ast.ArrayFill(
                start.merge(end), count=first, fill=fill, mutable=mutable
            )
        items = [first]
        while self.accept(K.COMMA):
            if self.accept(K.ELLIPSIS):
                break
            items.append(self.parse_expr())
        end = self.expect(K.RBRACE, "record literal").span
        return ast.RecordLit(start.merge(end), items=items, mutable=mutable)

    def _parse_bracket_array(self, mutable: bool, start) -> ast.Expr:
        self.expect(K.LBRACKET)
        items = []
        if not self.at(K.RBRACKET):
            items.append(self.parse_expr())
            while self.accept(K.COMMA):
                items.append(self.parse_expr())
        end = self.expect(K.RBRACKET, "array literal").span
        return ast.ArrayLit(start.merge(end), items=items, mutable=mutable)


def parse(text: str, filename: str = "<esp>") -> ast.Program:
    """Parse ESP source text into a :class:`~repro.lang.ast.Program`."""
    source = SourceFile(text, filename)
    tokens = Lexer(source).tokenize()
    return Parser(tokens, source).parse_program()
