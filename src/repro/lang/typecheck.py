"""Type checking and elaboration for ESP.

Implements the rules of paper §4:

* per-statement type inference — declared types may be omitted when
  they are deducible from the initialiser (§4.1);
* no recursive types (they cannot be translated to SPIN) — alias
  cycles are rejected;
* no global variables — every variable is process-local and must be
  initialised at declaration;
* channels carry only deeply immutable objects (§4.2); the checker
  enforces this both on channel message types and on ``out`` payloads;
* patterns may bind (``$x``), store into lvalues (the FIFO example
  receives directly into ``Q[tl]``), or constrain by equality
  (``@``/literals);
* ``cast`` flips mutability and is the only way to move between the
  two flavors (§4.2);
* ``link``/``unlink`` apply to heap objects only (§4.4).

Besides checking, this pass *elaborates*: every expression and pattern
node gets its semantic ``.type``; binders and variable references get
``.unique_name`` (alpha-renaming, so later passes see a flat per-process
local space); ``in``/``out`` statements get ``.message_type``; and all
channel usages are collected for pattern analysis
(:mod:`repro.lang.patterns`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TypeError_
from repro.lang import ast
from repro.lang.parser import MAX_ARRAY_SIZE
from repro.lang.types import (
    BOOL,
    INT,
    ArrayType,
    BoolType,
    ChannelInfo,
    IntType,
    RecordType,
    Type,
    UnionType,
)

_ARITH_OPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}
_CMP_OPS = {"<", "<=", ">", ">="}
_EQ_OPS = {"==", "!="}
_LOGIC_OPS = {"&&", "||"}


def deep_set_mutability(t: Type, mutable: bool) -> Type:
    """Return ``t`` with *every* aggregate constructor set to ``mutable``.

    This is the type of ``cast(e)``: semantically a deep copy into the
    other flavor (§4.2).
    """
    if isinstance(t, RecordType):
        fields = tuple((n, deep_set_mutability(ft, mutable)) for n, ft in t.fields)
        return RecordType(fields, mutable)
    if isinstance(t, UnionType):
        tags = tuple((n, deep_set_mutability(tt, mutable)) for n, tt in t.tags)
        return UnionType(tags, mutable)
    if isinstance(t, ArrayType):
        return ArrayType(deep_set_mutability(t.element, mutable), mutable)
    return t


@dataclass
class InUse:
    """One receive site on a channel: an ``in`` pattern (possibly inside
    ``alt``), or an external-interface entry when ``process`` is None."""

    channel: str
    process: str | None
    pattern: ast.Pattern
    pid: int | None = None
    entry_name: str | None = None


@dataclass
class OutUse:
    """One send site on a channel (``process`` None for external writers)."""

    channel: str
    process: str | None
    entry_name: str | None = None


@dataclass
class ProcessInfo:
    """Elaborated facts about one process."""

    name: str
    pid: int
    decl: ast.ProcessDecl
    locals: dict[str, Type] = field(default_factory=dict)  # unique name -> type


@dataclass
class CheckedProgram:
    """The result of type checking: the elaborated program plus symbol
    tables consumed by pattern analysis, lowering, and the backends."""

    program: ast.Program
    types: dict[str, Type]
    consts: dict[str, int | bool]
    channels: dict[str, ChannelInfo]
    processes: list[ProcessInfo]
    in_uses: dict[str, list[InUse]]
    out_uses: dict[str, list[OutUse]]

    def process(self, name: str) -> ProcessInfo:
        for p in self.processes:
            if p.name == name:
                return p
        raise KeyError(name)


class _Scope:
    """A lexical scope mapping source names to (unique name, type)."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.bindings: dict[str, tuple[str, Type]] = {}

    def lookup(self, name: str) -> tuple[str, Type] | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def declare(self, name: str, unique: str, t: Type, span) -> None:
        if name in self.bindings:
            raise TypeError_(f"variable '{name}' already declared in this scope", span)
        self.bindings[name] = (unique, t)


class Checker:
    """Whole-program type checker; see module docstring."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.types: dict[str, Type] = {}
        self.consts: dict[str, int | bool] = {}
        self.channels: dict[str, ChannelInfo] = {}
        self.processes: list[ProcessInfo] = []
        self.in_uses: dict[str, list[InUse]] = {}
        self.out_uses: dict[str, list[OutUse]] = {}
        # Per-process state while checking a body:
        self._current: ProcessInfo | None = None
        self._counter = 0
        self._loop_depth = 0

    # -- entry point --------------------------------------------------------

    def check(self) -> CheckedProgram:
        self._collect_types()
        self._collect_consts()
        self._collect_channels()
        self._collect_interfaces()
        self._check_processes()
        return CheckedProgram(
            program=self.program,
            types=self.types,
            consts=self.consts,
            channels=self.channels,
            processes=self.processes,
            in_uses=self.in_uses,
            out_uses=self.out_uses,
        )

    # -- declarations --------------------------------------------------------

    def _collect_types(self) -> None:
        decls = {d.name: d for d in self.program.type_decls()}
        if len(decls) != len(self.program.type_decls()):
            seen = set()
            for d in self.program.type_decls():
                if d.name in seen:
                    raise TypeError_(f"duplicate type name '{d.name}'", d.span)
                seen.add(d.name)
        resolving: set[str] = set()

        def resolve_name(name: str, span) -> Type:
            if name in self.types:
                return self.types[name]
            if name not in decls:
                raise TypeError_(f"unknown type '{name}'", span)
            if name in resolving:
                raise TypeError_(
                    f"recursive type '{name}' (ESP has no recursive data types)", span
                )
            resolving.add(name)
            resolved = self.resolve_type(decls[name].definition, resolve_name)
            resolving.discard(name)
            self.types[name] = resolved
            return resolved

        for d in self.program.type_decls():
            resolve_name(d.name, d.span)
        self._resolve_name_hook = resolve_name

    def resolve_type(self, texpr: ast.TypeExpr, resolver=None) -> Type:
        """Elaborate a syntactic type expression into a semantic type."""
        if resolver is None:
            resolver = getattr(self, "_resolve_name_hook", None)
        if isinstance(texpr, ast.TInt):
            return INT
        if isinstance(texpr, ast.TBool):
            return BOOL
        if isinstance(texpr, ast.TName):
            if resolver is not None:
                return resolver(texpr.name, texpr.span)
            if texpr.name in self.types:
                return self.types[texpr.name]
            raise TypeError_(f"unknown type '{texpr.name}'", texpr.span)
        if isinstance(texpr, ast.TRecord):
            if not texpr.fields:
                raise TypeError_("record type needs at least one field", texpr.span)
            fields = tuple((n, self.resolve_type(t, resolver)) for n, t in texpr.fields)
            names = [n for n, _ in fields]
            if len(set(names)) != len(names):
                raise TypeError_("duplicate record field name", texpr.span)
            return RecordType(fields)
        if isinstance(texpr, ast.TUnion):
            if not texpr.tags:
                raise TypeError_("union type needs at least one tag", texpr.span)
            tags = tuple((n, self.resolve_type(t, resolver)) for n, t in texpr.tags)
            names = [n for n, _ in tags]
            if len(set(names)) != len(names):
                raise TypeError_("duplicate union tag name", texpr.span)
            return UnionType(tags)
        if isinstance(texpr, ast.TArray):
            return ArrayType(self.resolve_type(texpr.element, resolver))
        if isinstance(texpr, ast.TMutable):
            inner = self.resolve_type(texpr.inner, resolver)
            if not inner.is_aggregate():
                raise TypeError_("'#' applies only to record/union/array types", texpr.span)
            return inner.with_mutability(True)
        raise TypeError_(f"unhandled type expression {texpr!r}", texpr.span)

    def _collect_consts(self) -> None:
        for d in self.program.const_decls():
            if d.name in self.consts:
                raise TypeError_(f"duplicate const '{d.name}'", d.span)
            self.consts[d.name] = self._eval_const(d.value)

    def _eval_const(self, e: ast.Expr) -> int | bool:
        """Evaluate a compile-time constant expression (const decls,
        array-fill sizes in Promela, pattern equality constants)."""
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.BoolLit):
            return e.value
        if isinstance(e, ast.Var):
            if e.name in self.consts:
                return self.consts[e.name]
            raise TypeError_(f"'{e.name}' is not a constant", e.span)
        if isinstance(e, ast.Unary):
            v = self._eval_const(e.operand)
            if e.op == "-":
                return -v
            if e.op == "!":
                return not v
        if isinstance(e, ast.Binary):
            left = self._eval_const(e.left)
            right = self._eval_const(e.right)
            try:
                return _fold_binary(e.op, left, right)
            except ZeroDivisionError:
                raise TypeError_("division by zero in constant expression", e.span)
            except NegativeShift:
                raise TypeError_("negative shift count in constant expression", e.span)
        raise TypeError_("expression is not a compile-time constant", e.span)

    def _collect_channels(self) -> None:
        for d in self.program.channels():
            if d.name in self.channels:
                raise TypeError_(f"duplicate channel '{d.name}'", d.span)
            message_type = self.resolve_type(d.message_type)
            if not message_type.deeply_immutable():
                raise TypeError_(
                    f"channel '{d.name}' carries a mutable type; only immutable "
                    "objects may be sent over channels",
                    d.span,
                )
            self.channels[d.name] = ChannelInfo(d.name, message_type)
            self.in_uses[d.name] = []
            self.out_uses[d.name] = []

    def _collect_interfaces(self) -> None:
        for d in self.program.interfaces():
            info = self.channels.get(d.channel)
            if info is None:
                raise TypeError_(
                    f"external interface '{d.name}' names unknown channel '{d.channel}'",
                    d.span,
                )
            if info.external is not None:
                raise TypeError_(
                    f"channel '{d.channel}' already has an external side "
                    "(a channel may have an external reader or writer, not both)",
                    d.span,
                )
            external = "writer" if d.direction == "out" else "reader"
            if not d.entries:
                raise TypeError_(
                    f"external interface '{d.name}' needs at least one entry", d.span
                )
            names = [e.name for e in d.entries]
            if len(set(names)) != len(names):
                raise TypeError_("duplicate interface entry name", d.span)
            for entry in d.entries:
                self._check_pattern(entry.pattern, info.message_type, scope=None)
                if external == "writer":
                    self.out_uses[d.channel].append(OutUse(d.channel, None, entry.name))
                else:
                    self.in_uses[d.channel].append(
                        InUse(d.channel, None, entry.pattern, None, entry.name)
                    )
            self.channels[d.channel] = ChannelInfo(
                info.name,
                info.message_type,
                external=external,
                interface_name=d.name,
                pattern_names=tuple(names),
            )

    # -- processes -----------------------------------------------------------

    def _check_processes(self) -> None:
        names = set()
        for pid, decl in enumerate(self.program.processes()):
            if decl.name in names:
                raise TypeError_(f"duplicate process '{decl.name}'", decl.span)
            names.add(decl.name)
            info = ProcessInfo(decl.name, pid, decl)
            self.processes.append(info)
        for info in self.processes:
            self._current = info
            self._counter = 0
            self._loop_depth = 0
            self._check_block(info.decl.body, _Scope())
            self._current = None

    def _fresh(self, name: str, t: Type) -> str:
        unique = f"{name}.{self._counter}"
        self._counter += 1
        self._current.locals[unique] = t
        return unique

    # -- statements ------------------------------------------------------------

    def _check_block(self, block: ast.Block, scope: _Scope) -> None:
        inner = _Scope(scope)
        for stmt in block.stmts:
            self._check_stmt(stmt, inner)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.DeclStmt):
            declared = None
            if stmt.declared_type is not None:
                declared = self.resolve_type(stmt.declared_type)
            t = self._check_expr(stmt.init, scope, expected=declared)
            if declared is not None:
                self._require_same(declared, t, stmt.init.span)
                t = declared
            unique = self._fresh(stmt.name, t)
            scope.declare(stmt.name, unique, t, stmt.span)
            stmt.unique_name = unique
            stmt.resolved_type = t
            return
        if isinstance(stmt, ast.AssignStmt):
            target_type = self._check_lvalue(stmt.target, scope)
            value_type = self._check_expr(stmt.value, scope, expected=target_type)
            self._require_same(target_type, value_type, stmt.value.span)
            return
        if isinstance(stmt, ast.MatchStmt):
            declared = None
            if stmt.declared_type is not None:
                declared = self.resolve_type(stmt.declared_type)
            value_type = self._check_expr(stmt.value, scope, expected=declared)
            if declared is not None:
                self._require_same(declared, value_type, stmt.value.span)
                value_type = declared
            self._check_pattern(stmt.pattern, value_type, scope)
            stmt.resolved_type = value_type
            return
        if isinstance(stmt, ast.InStmt):
            info = self._channel(stmt.channel, stmt.span)
            if info.external == "reader":
                raise TypeError_(
                    f"channel '{stmt.channel}' has an external reader; "
                    "processes may not receive on it",
                    stmt.span,
                )
            self._check_pattern(stmt.pattern, info.message_type, scope)
            stmt.message_type = info.message_type
            self.in_uses[stmt.channel].append(
                InUse(stmt.channel, self._current.name, stmt.pattern, self._current.pid)
            )
            return
        if isinstance(stmt, ast.OutStmt):
            info = self._channel(stmt.channel, stmt.span)
            if info.external == "writer":
                raise TypeError_(
                    f"channel '{stmt.channel}' has an external writer; "
                    "processes may not send on it",
                    stmt.span,
                )
            t = self._check_expr(stmt.value, scope, expected=info.message_type)
            self._require_same(info.message_type, t, stmt.value.span)
            stmt.message_type = info.message_type
            self.out_uses[stmt.channel].append(OutUse(stmt.channel, self._current.name))
            return
        if isinstance(stmt, ast.AltStmt):
            for case in stmt.cases:
                case_scope = _Scope(scope)
                if case.guard is not None:
                    gt = self._check_expr(case.guard, case_scope)
                    self._require(isinstance(gt, BoolType), "alt guard must be bool", case.guard.span)
                self._check_stmt(case.op, case_scope)
                self._check_block(case.body, case_scope)
            return
        if isinstance(stmt, ast.IfStmt):
            ct = self._check_expr(stmt.cond, scope)
            self._require(isinstance(ct, BoolType), "if condition must be bool", stmt.cond.span)
            self._check_block(stmt.then_block, scope)
            if stmt.else_block is not None:
                self._check_block(stmt.else_block, scope)
            return
        if isinstance(stmt, ast.WhileStmt):
            ct = self._check_expr(stmt.cond, scope)
            self._require(isinstance(ct, BoolType), "while condition must be bool", stmt.cond.span)
            self._loop_depth += 1
            self._check_block(stmt.body, scope)
            self._loop_depth -= 1
            return
        if isinstance(stmt, ast.BreakStmt):
            if self._loop_depth == 0:
                raise TypeError_("break outside of a loop", stmt.span)
            return
        if isinstance(stmt, (ast.LinkStmt, ast.UnlinkStmt)):
            t = self._check_expr(stmt.value, scope)
            op = "link" if isinstance(stmt, ast.LinkStmt) else "unlink"
            self._require(
                t.is_aggregate(),
                f"{op} applies to heap objects (record/union/array), not {t}",
                stmt.value.span,
            )
            return
        if isinstance(stmt, ast.AssertStmt):
            t = self._check_expr(stmt.cond, scope)
            self._require(isinstance(t, BoolType), "assert condition must be bool", stmt.cond.span)
            return
        if isinstance(stmt, ast.SkipStmt):
            return
        if isinstance(stmt, ast.PrintStmt):
            for arg in stmt.args:
                self._check_expr(arg, scope)
            return
        raise TypeError_(f"unhandled statement {type(stmt).__name__}", stmt.span)

    def _channel(self, name: str, span) -> ChannelInfo:
        info = self.channels.get(name)
        if info is None:
            raise TypeError_(f"unknown channel '{name}'", span)
        return info

    # -- lvalues ----------------------------------------------------------------

    def _check_lvalue(self, e: ast.Expr, scope: _Scope) -> Type:
        """Check an assignment target; enforces mutability of the base."""
        if isinstance(e, ast.Var):
            binding = scope.lookup(e.name)
            if binding is None:
                raise TypeError_(f"unknown variable '{e.name}'", e.span)
            e.unique_name, t = binding
            e.type = t
            return t
        if isinstance(e, ast.Index):
            base_type = self._check_expr(e.base, scope)
            if not isinstance(base_type, ArrayType):
                raise TypeError_(f"cannot index into {base_type}", e.span)
            if not base_type.mutable:
                raise TypeError_("cannot assign into an immutable array", e.span)
            it = self._check_expr(e.index, scope)
            self._require(isinstance(it, IntType), "array index must be int", e.index.span)
            e.type = base_type.element
            return base_type.element
        if isinstance(e, ast.FieldAccess):
            base_type = self._check_expr(e.base, scope)
            if not isinstance(base_type, RecordType):
                raise TypeError_(f"cannot select a field of {base_type}", e.span)
            if not base_type.mutable:
                raise TypeError_("cannot assign into an immutable record", e.span)
            ft = base_type.field_type(e.field_name)
            if ft is None:
                raise TypeError_(f"record has no field '{e.field_name}'", e.span)
            e.type = ft
            return ft
        raise TypeError_("invalid assignment target", e.span)

    # -- patterns ----------------------------------------------------------------

    def _check_pattern(self, p: ast.Pattern, expected: Type, scope: _Scope | None) -> None:
        """Check pattern ``p`` against ``expected``; binds ``$x`` variables
        into ``scope``.  ``scope`` is None for interface entries, whose
        binders are parameters of the external function, not variables."""
        p.type = expected
        if isinstance(p, ast.PBind):
            if scope is not None:
                unique = self._fresh(p.name, expected)
                scope.declare(p.name, unique, expected, p.span)
                p.unique_name = unique
            else:
                p.unique_name = p.name
            return
        if isinstance(p, ast.PEq):
            expr = p.expr
            if isinstance(expr, (ast.Var, ast.Index, ast.FieldAccess)) and scope is not None:
                # A bare lvalue in pattern position stores the component
                # (the FIFO example receives straight into Q[tl]).
                target_type = self._check_lvalue_or_value(expr, scope, expected, p)
                self._require_same(expected, target_type, p.span)
                return
            if scope is None and isinstance(expr, ast.Var):
                raise TypeError_(
                    "interface entry patterns may only use binders, literals, and '@'",
                    p.span,
                )
            t = self._check_expr(expr, scope if scope is not None else _Scope())
            self._require_same(expected, t, p.span)
            return
        if isinstance(p, ast.PRecord):
            if not isinstance(expected, RecordType):
                raise TypeError_(f"record pattern cannot match {expected}", p.span)
            if len(p.items) != len(expected.fields):
                raise TypeError_(
                    f"record pattern has {len(p.items)} components, "
                    f"type has {len(expected.fields)} fields",
                    p.span,
                )
            for item, (_, ftype) in zip(p.items, expected.fields):
                self._check_pattern(item, ftype, scope)
            return
        if isinstance(p, ast.PUnion):
            if not isinstance(expected, UnionType):
                raise TypeError_(f"union pattern cannot match {expected}", p.span)
            ttype = expected.tag_type(p.tag)
            if ttype is None:
                raise TypeError_(f"union has no tag '{p.tag}'", p.span)
            self._check_pattern(p.value, ttype, scope)
            return
        raise TypeError_(f"unhandled pattern {type(p).__name__}", p.span)

    def _check_lvalue_or_value(
        self, expr: ast.Expr, scope: _Scope, expected: Type, p: ast.PEq
    ) -> Type:
        """Classify a bare lvalue in pattern position: Var/Index/Field
        become store targets; mark the PEq node so lowering knows."""
        if isinstance(expr, ast.Var):
            binding = scope.lookup(expr.name)
            if binding is None:
                raise TypeError_(f"unknown variable '{expr.name}'", expr.span)
            # Storing into a plain local does not need mutability.
            expr.unique_name, t = binding
            expr.type = t
            p.is_store = True
            return t
        t = self._check_lvalue(expr, scope)
        p.is_store = True
        return t

    # -- expressions ----------------------------------------------------------------

    def _check_expr(self, e: ast.Expr, scope: _Scope, expected: Type | None = None) -> Type:
        t = self._infer_expr(e, scope, expected)
        e.type = t
        return t

    def _infer_expr(self, e: ast.Expr, scope: _Scope, expected: Type | None) -> Type:
        if isinstance(e, ast.IntLit):
            return INT
        if isinstance(e, ast.BoolLit):
            return BOOL
        if isinstance(e, ast.ProcessId):
            if self._current is None:
                raise TypeError_("'@' is only valid inside a process", e.span)
            return INT
        if isinstance(e, ast.Var):
            binding = scope.lookup(e.name)
            if binding is not None:
                e.unique_name, t = binding
                return t
            if e.name in self.consts:
                e.const_value = self.consts[e.name]
                return BOOL if isinstance(self.consts[e.name], bool) else INT
            raise TypeError_(f"unknown variable '{e.name}'", e.span)
        if isinstance(e, ast.Unary):
            ot = self._check_expr(e.operand, scope)
            if e.op == "!":
                self._require(isinstance(ot, BoolType), "'!' needs a bool", e.span)
                return BOOL
            self._require(isinstance(ot, IntType), "unary '-' needs an int", e.span)
            return INT
        if isinstance(e, ast.Binary):
            return self._infer_binary(e, scope)
        if isinstance(e, ast.Index):
            base = self._check_expr(e.base, scope)
            if not isinstance(base, ArrayType):
                raise TypeError_(f"cannot index into {base}", e.span)
            it = self._check_expr(e.index, scope)
            self._require(isinstance(it, IntType), "array index must be int", e.index.span)
            return base.element
        if isinstance(e, ast.FieldAccess):
            base = self._check_expr(e.base, scope)
            if isinstance(base, RecordType):
                ft = base.field_type(e.field_name)
                if ft is None:
                    raise TypeError_(f"record has no field '{e.field_name}'", e.span)
                return ft
            raise TypeError_(
                f"cannot select field '{e.field_name}' of {base} "
                "(unions are accessed by pattern matching)",
                e.span,
            )
        if isinstance(e, ast.RecordLit):
            return self._infer_record_lit(e, scope, expected)
        if isinstance(e, ast.UnionLit):
            return self._infer_union_lit(e, scope, expected)
        if isinstance(e, ast.ArrayFill):
            return self._infer_array_fill(e, scope, expected)
        if isinstance(e, ast.ArrayLit):
            return self._infer_array_lit(e, scope, expected)
        if isinstance(e, ast.Cast):
            ot = self._check_expr(e.operand, scope)
            if not ot.is_aggregate():
                raise TypeError_("cast applies to record/union/array values", e.span)
            return deep_set_mutability(ot, not ot.mutable)
        raise TypeError_(f"unhandled expression {type(e).__name__}", e.span)

    def _infer_binary(self, e: ast.Binary, scope: _Scope) -> Type:
        lt = self._check_expr(e.left, scope)
        rt = self._check_expr(e.right, scope)
        op = e.op
        if op in _ARITH_OPS:
            self._require(isinstance(lt, IntType) and isinstance(rt, IntType),
                          f"'{op}' needs int operands", e.span)
            return INT
        if op in _CMP_OPS:
            self._require(isinstance(lt, IntType) and isinstance(rt, IntType),
                          f"'{op}' needs int operands", e.span)
            return BOOL
        if op in _EQ_OPS:
            self._require(
                type(lt) is type(rt) and isinstance(lt, (IntType, BoolType)),
                f"'{op}' compares ints or bools (no aggregate equality in ESP)",
                e.span,
            )
            return BOOL
        if op in _LOGIC_OPS:
            self._require(isinstance(lt, BoolType) and isinstance(rt, BoolType),
                          f"'{op}' needs bool operands", e.span)
            return BOOL
        raise TypeError_(f"unknown operator '{op}'", e.span)

    def _infer_record_lit(self, e: ast.RecordLit, scope, expected) -> Type:
        expected = _strip_expect(expected, RecordType, e, "record literal")
        if expected is None:
            raise TypeError_(
                "cannot infer the record type of this literal; add a type annotation",
                e.span,
            )
        if e.mutable != expected.mutable:
            raise TypeError_(
                f"literal is {'mutable' if e.mutable else 'immutable'} but "
                f"context expects {expected}",
                e.span,
            )
        if len(e.items) != len(expected.fields):
            raise TypeError_(
                f"record literal has {len(e.items)} components, "
                f"type has {len(expected.fields)} fields",
                e.span,
            )
        for item, (_, ftype) in zip(e.items, expected.fields):
            t = self._check_expr(item, scope, expected=ftype)
            self._require_same(ftype, t, item.span)
        return expected

    def _infer_union_lit(self, e: ast.UnionLit, scope, expected) -> Type:
        expected = _strip_expect(expected, UnionType, e, "union literal")
        if expected is None:
            raise TypeError_(
                "cannot infer the union type of this literal; add a type annotation",
                e.span,
            )
        if e.mutable != expected.mutable:
            raise TypeError_(
                f"literal is {'mutable' if e.mutable else 'immutable'} but "
                f"context expects {expected}",
                e.span,
            )
        ttype = expected.tag_type(e.tag)
        if ttype is None:
            raise TypeError_(f"union has no tag '{e.tag}'", e.span)
        vt = self._check_expr(e.value, scope, expected=ttype)
        self._require_same(ttype, vt, e.value.span)
        return expected

    def _infer_array_fill(self, e: ast.ArrayFill, scope, expected) -> Type:
        expected = _strip_expect(expected, ArrayType, e, "array fill")
        ct = self._check_expr(e.count, scope)
        self._require(isinstance(ct, IntType), "array size must be int", e.count.span)
        size = _folded(e.count)
        if size is not None and size > MAX_ARRAY_SIZE:
            raise TypeError_(
                f"array size {size} exceeds the limit of {MAX_ARRAY_SIZE} "
                "elements",
                e.count.span,
            )
        elem_expected = expected.element if expected is not None else None
        ft = self._check_expr(e.fill, scope, expected=elem_expected)
        if expected is not None:
            self._require_same(expected.element, ft, e.fill.span)
            if e.mutable != expected.mutable:
                raise TypeError_(
                    f"literal is {'mutable' if e.mutable else 'immutable'} but "
                    f"context expects {expected}",
                    e.span,
                )
            return expected
        return ArrayType(ft, e.mutable)

    def _infer_array_lit(self, e: ast.ArrayLit, scope, expected) -> Type:
        expected = _strip_expect(expected, ArrayType, e, "array literal")
        elem_expected = expected.element if expected is not None else None
        if not e.items and expected is None:
            raise TypeError_("cannot infer the type of an empty array literal", e.span)
        elem_type = elem_expected
        for item in e.items:
            t = self._check_expr(item, scope, expected=elem_expected)
            if elem_type is None:
                elem_type = t
            self._require_same(elem_type, t, item.span)
        if expected is not None:
            if e.mutable != expected.mutable:
                raise TypeError_(
                    f"literal is {'mutable' if e.mutable else 'immutable'} but "
                    f"context expects {expected}",
                    e.span,
                )
            return expected
        return ArrayType(elem_type, e.mutable)

    # -- helpers ------------------------------------------------------------------

    def _require(self, cond: bool, message: str, span) -> None:
        if not cond:
            raise TypeError_(message, span)

    def _require_same(self, expected: Type, actual: Type, span) -> None:
        if expected != actual:
            raise TypeError_(f"type mismatch: expected {expected}, found {actual}", span)


def _strip_expect(expected, cls, e, what):
    """Validate that a contextual expected type fits the literal class."""
    if expected is None:
        return None
    if not isinstance(expected, cls):
        raise TypeError_(f"{what} cannot have type {expected}", e.span)
    return expected


def _folded(e: ast.Expr):
    """The value of a checked integer expression built from literals and
    constants only, else None."""
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.Var):
        return getattr(e, "const_value", None)
    if isinstance(e, ast.Unary) and e.op == "-":
        value = _folded(e.operand)
        return None if value is None else -value
    if isinstance(e, ast.Binary):
        left, right = _folded(e.left), _folded(e.right)
        if left is None or right is None:
            return None
        try:
            return _fold_binary(e.op, left, right)
        except (ZeroDivisionError, NegativeShift):
            return None
    return None


def _fold_binary(op: str, left, right):
    """Constant-fold one binary operator (shared with the optimizer)."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return truncating_div(left, right) if right != 0 else _div0()
    if op == "%":
        return left - right * truncating_div(left, right) if right != 0 else _div0()
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << right if right >= 0 else _negative_shift()
    if op == ">>":
        return left >> right if right >= 0 else _negative_shift()
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "&&":
        return left and right
    if op == "||":
        return left or right
    raise ValueError(f"unknown operator {op}")


def truncating_div(left: int, right: int) -> int:
    """C's quotient, rounded toward zero, computed in integers so it is
    exact at every magnitude (the generated firmware's ``/``)."""
    quotient = abs(left) // abs(right)
    return quotient if (left < 0) == (right < 0) else -quotient


class NegativeShift(ArithmeticError):
    """A shift by a negative count: an error on every engine, like
    division by zero."""


def _div0():
    raise ZeroDivisionError


def _negative_shift():
    raise NegativeShift


def check(program: ast.Program) -> CheckedProgram:
    """Type-check and elaborate ``program``."""
    return Checker(program).check()
