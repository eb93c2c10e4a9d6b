"""Closure compilation of ESP processes ("threaded code").

The paper's backend compiles each process to a C state machine whose
context switch is a program-counter store (§4.3, §6.1).  This module
is the Python analogue: every IR instruction is lowered *once* into a
closure ``handler(machine, ps) -> next_pc`` with its operands —
variable slots, jump targets, field offsets, wait masks, constants —
resolved at compile time, and :func:`run_until_block_compiled` drives
the handler table with the PC in a local until the process blocks.

The compiled engine is observationally identical to the AST walker in
:mod:`repro.runtime.interp` (the reference oracle, selectable with
``--engine ast``): same instruction/step counters, same heap
refcount traffic, same error messages and spans, same
:class:`BlockInfo` blocking records.  ``tests/test_engine_differential``
enforces this over the examples corpus and generated programs.

Expression closures carry a static freshness mode: ``False`` (never a
fresh temporary), ``True`` (always fresh — allocations and casts), or
:data:`DYNAMIC` (component reads through a possibly-fresh base, where
the closure returns a ``(value, fresh)`` pair).
"""

from __future__ import annotations

import operator

from repro.errors import AssertionFailure, ESPRuntimeError
from repro.lang import ast
from repro.lang.parser import MAX_ARRAY_SIZE
from repro.lang.patterns import Eq, Rec, Uni, Wild
from repro.lang.typecheck import truncating_div
from repro.lang.types import ArrayType, RecordType, UnionType
from repro.ir import nodes as ir
from repro.ir.slots import resolve_process_slots
from repro.runtime.interp import (
    BlockInfo,
    EnabledArm,
    Status,
    _store_slot,
    _verdict,
    array_size_error,
)
from repro.runtime.values import Ref, UNSET

# Handler return sentinel: the process blocked (or halted); the handler
# has already written ``ps.pc``/``ps.status``/``ps.block``.
BLOCKED = -1

# Freshness mode for expressions whose result ownership is only known
# at run time (reading a component out of a possibly-fresh aggregate).
DYNAMIC = "dynamic"

_DIRECT_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": operator.lshift,
    ">>": operator.rshift,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_SHIFTS = ("<<", ">>")


def _true(*_):
    return True


def _false(*_):
    return False


def _pairify(fn, mode):
    """Wrap a compiled expression so it always returns (value, fresh)."""
    if mode is DYNAMIC:
        return fn
    if mode:
        return lambda machine, ps: (fn(machine, ps), True)
    return lambda machine, ps: (fn(machine, ps), False)


def _valuify(fn, mode):
    """Wrap a compiled expression so it returns the bare value (for
    sites that ignore freshness, e.g. ``Decl``)."""
    if mode is DYNAMIC:
        return lambda machine, ps: fn(machine, ps)[0]
    return fn


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def compile_expr(e: ast.Expr, proc: ir.IRProcess, consts: dict):
    """Compile ``e`` to ``(closure, freshness_mode)``; the closure is
    ``fn(machine, ps) -> value`` (or ``-> (value, fresh)`` when the
    mode is :data:`DYNAMIC`)."""
    if isinstance(e, ast.IntLit):
        value = e.value
        return (lambda machine, ps: value), False
    if isinstance(e, ast.BoolLit):
        value = e.value
        return (lambda machine, ps: value), False
    if isinstance(e, ast.ProcessId):
        pid = proc.pid
        return (lambda machine, ps: pid), False
    if isinstance(e, ast.Var):
        return _compile_var(e, proc, consts), False
    if isinstance(e, ast.Unary):
        fo, _ = compile_expr(e.operand, proc, consts)
        if e.op == "!":
            return (lambda machine, ps: not fo(machine, ps)), False
        return (lambda machine, ps: -fo(machine, ps)), False
    if isinstance(e, ast.Binary):
        return _compile_binary(e, proc, consts), False
    if isinstance(e, ast.Index):
        return _compile_index(e, proc, consts)
    if isinstance(e, ast.FieldAccess):
        return _compile_field(e, proc, consts)
    if isinstance(e, ast.RecordLit):
        return _compile_alloc("record", e.items, e.mutable, None, proc, consts), True
    if isinstance(e, ast.ArrayLit):
        return _compile_alloc("array", e.items, e.mutable, None, proc, consts), True
    if isinstance(e, ast.UnionLit):
        return _compile_alloc("union", [e.value], e.mutable, e.tag, proc, consts), True
    if isinstance(e, ast.ArrayFill):
        return _compile_fill(e, proc, consts), True
    if isinstance(e, ast.Cast):
        return _compile_cast(e, proc, consts), True
    kind, span = type(e).__name__, e.span

    def unhandled(machine, ps):
        raise ESPRuntimeError(f"unhandled expression {kind}", span)

    return unhandled, False


def _compile_var(e: ast.Var, proc: ir.IRProcess, consts: dict):
    unique = getattr(e, "unique_name", None)
    name, span = e.name, e.span
    if unique is not None:
        slot = proc.slot_of.get(unique, -1)
        if slot < 0:
            def unbound_local(machine, ps):
                raise ESPRuntimeError(
                    f"variable '{name}' read before initialisation", span
                )

            return unbound_local

        def read(machine, ps):
            value = ps.frame[slot]
            if value is UNSET:
                raise ESPRuntimeError(
                    f"variable '{name}' read before initialisation", span
                )
            return value

        return read
    if name in consts:
        value = consts[name]
        return lambda machine, ps: value

    def unbound(machine, ps):
        raise ESPRuntimeError(f"unbound variable '{name}'", span)

    return unbound


def _compile_binary(e: ast.Binary, proc: ir.IRProcess, consts: dict):
    op, span = e.op, e.span
    fl, _ = compile_expr(e.left, proc, consts)
    if op == "&&":
        fr, _ = compile_expr(e.right, proc, consts)

        def and_(machine, ps):
            if not fl(machine, ps):
                return False
            return bool(fr(machine, ps))

        return and_
    if op == "||":
        fr, _ = compile_expr(e.right, proc, consts)

        def or_(machine, ps):
            if fl(machine, ps):
                return True
            return bool(fr(machine, ps))

        return or_
    fr, _ = compile_expr(e.right, proc, consts)
    direct = _DIRECT_OPS.get(op)
    if direct is not None:
        if isinstance(e.right, ast.IntLit) and (
                op not in _SHIFTS or e.right.value >= 0):
            right = e.right.value
            return lambda machine, ps: direct(fl(machine, ps), right)
        if op in _SHIFTS:
            def shift(machine, ps):
                left, right = fl(machine, ps), fr(machine, ps)
                if right < 0:
                    raise ESPRuntimeError("negative shift count", span)
                return direct(left, right)

            return shift
        return lambda machine, ps: direct(fl(machine, ps), fr(machine, ps))
    if op == "/":
        def div(machine, ps):
            left, right = fl(machine, ps), fr(machine, ps)
            if right == 0:
                raise ESPRuntimeError("division by zero", span)
            return truncating_div(left, right)

        return div
    if op == "%":
        def mod(machine, ps):
            left, right = fl(machine, ps), fr(machine, ps)
            if right == 0:
                raise ESPRuntimeError("division by zero", span)
            return left - right * truncating_div(left, right)

        return mod

    def unknown(machine, ps):
        raise ESPRuntimeError(f"unknown operator {op}", span)

    return unknown


def _compile_index(e: ast.Index, proc: ir.IRProcess, consts: dict):
    fb, bmode = compile_expr(e.base, proc, consts)
    fi, _ = compile_expr(e.index, proc, consts)
    span = e.span
    if bmode is False:
        def index_borrowed(machine, ps):
            base = fb(machine, ps)
            index = fi(machine, ps)
            data = machine.heap.get(base).data
            if not 0 <= index < len(data):
                raise ESPRuntimeError(
                    f"array index {index} out of bounds (size {len(data)})", span
                )
            return data[index]

        return index_borrowed, False
    fbp = _pairify(fb, bmode)

    def index_dyn(machine, ps):
        heap = machine.heap
        base, base_fresh = fbp(machine, ps)
        index = fi(machine, ps)
        data = heap.get(base).data
        if not 0 <= index < len(data):
            raise ESPRuntimeError(
                f"array index {index} out of bounds (size {len(data)})", span
            )
        return _read_through(heap, data[index], base, base_fresh)

    return index_dyn, DYNAMIC


def _compile_field(e: ast.FieldAccess, proc: ir.IRProcess, consts: dict):
    fb, bmode = compile_expr(e.base, proc, consts)
    offset = e.base.type.field_names().index(e.field_name)
    if bmode is False:
        def field_borrowed(machine, ps):
            return machine.heap.get(fb(machine, ps)).data[offset]

        return field_borrowed, False
    fbp = _pairify(fb, bmode)

    def field_dyn(machine, ps):
        heap = machine.heap
        base, base_fresh = fbp(machine, ps)
        return _read_through(heap, heap.get(base).data[offset], base, base_fresh)

    return field_dyn, DYNAMIC


def _read_through(heap, result, base, base_fresh):
    """Mirror of ``Evaluator._read_through_temp``."""
    if not base_fresh:
        return result, False
    if isinstance(result, Ref):
        heap.link(result)
        heap.unlink(base)
        return result, True
    heap.unlink(base)
    return result, False


def _compile_alloc(kind, items, mutable, tag, proc, consts):
    item_fns = [compile_expr(item, proc, consts) for item in items]

    def alloc(machine, ps):
        heap = machine.heap
        data = []
        for fn, mode in item_fns:
            if mode is DYNAMIC:
                value, fresh = fn(machine, ps)
            else:
                value, fresh = fn(machine, ps), mode
            if isinstance(value, Ref) and not fresh:
                heap.link(value)
            data.append(value)
        return heap.alloc(kind, data, mutable, tag=tag)

    return alloc


def _compile_fill(e: ast.ArrayFill, proc, consts):
    fc, _ = compile_expr(e.count, proc, consts)
    ff = _pairify(*compile_expr(e.fill, proc, consts))
    mutable, span = e.mutable, e.span

    def fill(machine, ps):
        heap = machine.heap
        count = fc(machine, ps)
        if not 0 <= count <= MAX_ARRAY_SIZE:
            raise array_size_error(count, span)
        value, fresh = ff(machine, ps)
        if isinstance(value, Ref):
            links = count - 1 if fresh else count
            for _ in range(max(links, 0)):
                heap.link(value)
            if fresh and count == 0:
                heap.unlink(value)
        return heap.alloc("array", [value] * count, mutable)

    return fill


def _compile_cast(e: ast.Cast, proc, consts):
    fo = _pairify(*compile_expr(e.operand, proc, consts))
    elide = bool(getattr(e, "elide", False))

    def cast(machine, ps):
        heap = machine.heap
        value, fresh = fo(machine, ps)
        obj = heap.get(value)
        target_mutable = not obj.mutable
        if elide and not fresh and heap.exclusively_owned(value):
            heap.set_mutability_deep(value, target_mutable)
            return value
        copy = heap.deep_copy(value, mutable=target_mutable)
        if fresh and isinstance(value, Ref):
            heap.unlink(value)
        return copy

    return cast


# ---------------------------------------------------------------------------
# Stores and pattern dispatchers
# ---------------------------------------------------------------------------


def compile_store(target: ast.Expr, proc: ir.IRProcess, consts: dict):
    """Compile an lvalue to ``fn(machine, ps, value, fresh, extra_link)``
    mirroring :func:`repro.runtime.interp.store_into`."""
    if isinstance(target, ast.Var):
        slot = proc.slot_of[target.unique_name]

        def store_var(machine, ps, value, fresh, extra_link):
            if extra_link and isinstance(value, Ref):
                machine.heap.link(value)
            ps.frame[slot] = value

        return store_var
    if isinstance(target, ast.Index):
        fb = _pairify(*compile_expr(target.base, proc, consts))
        fi, _ = compile_expr(target.index, proc, consts)
        span = target.span

        def store_index(machine, ps, value, fresh, extra_link):
            heap = machine.heap
            base, base_fresh = fb(machine, ps)
            index = fi(machine, ps)
            obj = heap.get(base)
            if not 0 <= index < len(obj.data):
                raise ESPRuntimeError(
                    f"array index {index} out of bounds (size {len(obj.data)})",
                    span,
                )
            _store_slot(heap, obj, index, value, fresh, extra_link)
            if base_fresh and isinstance(base, Ref):
                heap.unlink(base)

        return store_index
    if isinstance(target, ast.FieldAccess):
        fb = _pairify(*compile_expr(target.base, proc, consts))
        offset = target.base.type.field_names().index(target.field_name)

        def store_field(machine, ps, value, fresh, extra_link):
            heap = machine.heap
            base, base_fresh = fb(machine, ps)
            obj = heap.get(base)
            _store_slot(heap, obj, offset, value, fresh, extra_link)
            if base_fresh and isinstance(base, Ref):
                heap.unlink(base)

        return store_field
    span = target.span

    def invalid(machine, ps, value, fresh, extra_link):
        raise ESPRuntimeError("invalid store target", span)

    return invalid


def compile_bind(pattern: ast.Pattern, proc: ir.IRProcess, consts: dict):
    """Compile a pattern to a destructuring dispatcher
    ``fn(machine, ps, value, link_binders)`` mirroring
    :func:`repro.runtime.interp.match_local`."""
    if isinstance(pattern, ast.PBind):
        slot = proc.slot_of[pattern.unique_name]

        def bind(machine, ps, value, link_binders):
            if link_binders and isinstance(value, Ref):
                machine.heap.link(value)
            ps.frame[slot] = value

        return bind
    if isinstance(pattern, ast.PEq):
        if getattr(pattern, "is_store", False):
            store = compile_store(pattern.expr, proc, consts)

            def bind_store(machine, ps, value, link_binders):
                store(machine, ps, value, False, link_binders)

            return bind_store
        fe = _valuify(*compile_expr(pattern.expr, proc, consts))
        span = pattern.span

        def bind_eq(machine, ps, value, link_binders):
            expected = fe(machine, ps)
            if expected != value:
                raise ESPRuntimeError(
                    f"pattern match failed: expected {expected}, got {value}",
                    span,
                )

        return bind_eq
    if isinstance(pattern, ast.PRecord):
        subs = [compile_bind(item, proc, consts) for item in pattern.items]
        arity, span = len(subs), pattern.span

        def bind_record(machine, ps, value, link_binders):
            data = machine.heap.get(value).data
            if len(data) != arity:
                raise ESPRuntimeError("record arity mismatch in pattern", span)
            for sub, component in zip(subs, data):
                sub(machine, ps, component, link_binders)

        return bind_record
    if isinstance(pattern, ast.PUnion):
        sub = compile_bind(pattern.value, proc, consts)
        tag, span = pattern.tag, pattern.span

        def bind_union(machine, ps, value, link_binders):
            obj = machine.heap.get(value)
            if obj.tag != tag:
                raise ESPRuntimeError(
                    f"pattern match failed: union tag is '{obj.tag}', "
                    f"pattern wants '{tag}'",
                    span,
                )
            sub(machine, ps, obj.data[0], link_binders)

        return bind_union
    kind, span = type(pattern).__name__, pattern.span

    def unhandled(machine, ps, value, link_binders):
        raise ESPRuntimeError(f"unhandled pattern {kind}", span)

    return unhandled


def compile_test(pattern: ast.Pattern, proc: ir.IRProcess, consts: dict):
    """Compile a pattern to a non-destructive matcher
    ``fn(machine, ps, value) -> bool`` mirroring
    :func:`repro.runtime.interp.try_match`."""
    if isinstance(pattern, ast.PBind):
        return _true
    if isinstance(pattern, ast.PEq):
        if getattr(pattern, "is_store", False):
            return _true
        fe = _valuify(*compile_expr(pattern.expr, proc, consts))
        return lambda machine, ps, value: fe(machine, ps) == value
    if isinstance(pattern, ast.PRecord):
        arity = len(pattern.items)
        subs = _item_tests(pattern, proc, consts)

        def test_record(machine, ps, value):
            data = machine.heap.get(value).data
            if len(data) != arity:
                return False
            for position, sub in subs:
                if not sub(machine, ps, data[position]):
                    return False
            return True

        return test_record
    if isinstance(pattern, ast.PUnion):
        sub = compile_test(pattern.value, proc, consts)
        tag = pattern.tag

        def test_union(machine, ps, value):
            obj = machine.heap.get(value)
            if obj.tag != tag:
                return False
            return sub(machine, ps, obj.data[0])

        return test_union
    return lambda machine, ps, value: False


def compile_test_components(pattern: ast.Pattern, proc: ir.IRProcess,
                            consts: dict):
    """Fused-send variant of :func:`compile_test`
    (cf. :func:`repro.runtime.interp.try_match_components`): the record
    wrapper is never allocated, so the components match item-wise."""
    if not isinstance(pattern, ast.PRecord):
        return lambda machine, ps, values: False
    arity = len(pattern.items)
    subs = _item_tests(pattern, proc, consts)

    def test_components(machine, ps, values):
        if len(values) != arity:
            return False
        for position, sub in subs:
            if not sub(machine, ps, values[position]):
                return False
        return True

    return test_components


def _item_tests(pattern: ast.PRecord, proc: ir.IRProcess, consts: dict) -> list:
    """``(position, test)`` of the items of a record pattern that can
    fail: a binder or store target matches anything."""
    tests = [(position, compile_test(item, proc, consts))
             for position, item in enumerate(pattern.items)]
    return [(position, test) for position, test in tests if test is not _true]


def compile_payload(arm: ir.AltArm, proc: ir.IRProcess, consts: dict):
    """Postponed alt out-arm payload evaluator:
    ``fn(machine, ps) -> (values, fresh, fused)``."""
    if arm.fused:
        item_fns = [_pairify(*compile_expr(item, proc, consts))
                    for item in arm.expr.items]

        def payload_fused(machine, ps):
            values, fresh = [], []
            for fn in item_fns:
                value, f = fn(machine, ps)
                values.append(value)
                fresh.append(f)
            return values, fresh, True

        return payload_fused
    fe = _pairify(*compile_expr(arm.expr, proc, consts))

    def payload(machine, ps):
        value, fresh = fe(machine, ps)
        return [value], [fresh], False

    return payload


def compile_deliver_components(pattern: ast.PRecord, proc: ir.IRProcess,
                               consts: dict):
    """Fused delivery ``fn(machine, ps, values, fresh)`` mirroring
    :func:`repro.runtime.interp.deliver_components`."""
    steps = [_compile_component_delivery(item, proc, consts)
             for item in pattern.items]

    def deliver(machine, ps, values, fresh):
        for step, value, f in zip(steps, values, fresh):
            step(machine, ps, value, f)

    return deliver


def _compile_component_delivery(item: ast.Pattern, proc, consts):
    if isinstance(item, ast.PBind):
        slot = proc.slot_of[item.unique_name]

        def bind(machine, ps, value, fresh):
            if isinstance(value, Ref) and not fresh:
                machine.heap.link(value)
            ps.frame[slot] = value

        return bind
    if isinstance(item, ast.PEq):
        if getattr(item, "is_store", False):
            store = compile_store(item.expr, proc, consts)
            return lambda machine, ps, value, fresh: store(
                machine, ps, value, fresh, False)
        fe = _valuify(*compile_expr(item.expr, proc, consts))
        span = item.span

        def eq(machine, ps, value, fresh):
            if fe(machine, ps) != value:
                raise ESPRuntimeError("fused delivery equality mismatch", span)

        return eq
    bind_nested = compile_bind(item, proc, consts)

    def nested(machine, ps, value, fresh):
        bind_nested(machine, ps, value, True)
        if fresh and isinstance(value, Ref):
            machine.heap.unlink(value)

    return nested


# ---------------------------------------------------------------------------
# The external boundary and the exhaustiveness check
# ---------------------------------------------------------------------------

# Interface entries belong to no process: their equality expressions
# read constants only and evaluate in the machine's ``<external>``
# context (pid -1).
_ENV = ir.IRProcess(name="<external>", pid=-1)


def compile_reach(entry: ast.Pattern, pattern: ast.Pattern,
                  proc: ir.IRProcess, consts: dict):
    """Offer matcher ``fn(machine, ps, args) -> bool``: would the
    message built from interface entry ``entry`` with binder arguments
    ``args`` match ``pattern``, the pattern process ``ps`` waits with?
    Mirrors :func:`repro.runtime.interp.entry_reaches`, which reads the
    arguments through an iterator while it walks both patterns; which
    argument it reads where is fixed by the two patterns, so the
    positions are resolved here.  The caller has checked that ``args``
    covers every binder and converts to the binder types."""
    return _compile_reach(entry, pattern, proc, consts, [0])


def _compile_reach(entry, rp, proc, consts, pos):
    takes_anything = (isinstance(rp, ast.PBind)
                      or getattr(rp, "is_store", False))
    if isinstance(entry, ast.PBind):
        index = pos[0]
        pos[0] += 1
        test = _compile_raw_test(entry.type, rp, proc, consts)
        if test is _true:
            return _true
        return lambda machine, ps, args: test(machine, ps, args[index])
    if isinstance(entry, ast.PEq):
        if takes_anything:
            return _true
        if not isinstance(rp, ast.PEq):
            return _false
        fe = _valuify(*compile_expr(entry.expr, _ENV, consts))
        fr = _valuify(*compile_expr(rp.expr, proc, consts))

        def equal(machine, ps, args):
            value = fe(machine, machine._env_ps)
            return fr(machine, ps) == value

        return equal
    if isinstance(entry, ast.PRecord):
        if isinstance(rp, ast.PBind):
            # The walker still reads (and skips) the record's binders.
            pos[0] += _record_binders(entry)
            return _true
        if takes_anything:
            return _true
        if not isinstance(rp, ast.PRecord) or len(entry.items) != len(rp.items):
            return _false
        subs = [_compile_reach(e, r, proc, consts, pos)
                for e, r in zip(entry.items, rp.items)]
        subs = [sub for sub in subs if sub is not _true]
        if not subs:
            return _true

        def reach_record(machine, ps, args):
            for sub in subs:
                if not sub(machine, ps, args):
                    return False
            return True

        return reach_record
    if isinstance(entry, ast.PUnion):
        if takes_anything:
            return _true
        if not isinstance(rp, ast.PUnion) or entry.tag != rp.tag:
            return _false
        return _compile_reach(entry.value, rp.value, proc, consts, pos)
    return _true


def _record_binders(entry: ast.Pattern) -> int:
    """Arguments the walker reads matching ``entry`` against a
    whole-message bind (a union inside answers without reading)."""
    if isinstance(entry, ast.PBind):
        return 1
    if isinstance(entry, ast.PRecord):
        return sum(_record_binders(item) for item in entry.items)
    return 0


def _compile_raw_test(t, rp, proc, consts):
    """``fn(machine, ps, raw) -> bool`` matching plain Python data of
    type ``t`` against a receive pattern, without allocating."""
    if isinstance(rp, ast.PBind) or getattr(rp, "is_store", False):
        return _true
    if isinstance(rp, ast.PEq):
        fr = _valuify(*compile_expr(rp.expr, proc, consts))
        return lambda machine, ps, raw: fr(machine, ps) == raw
    if isinstance(rp, ast.PRecord):
        if not isinstance(t, RecordType):
            return _false
        subs = [_compile_raw_test(ft, r, proc, consts)
                for (_, ft), r in zip(t.fields, rp.items)]
        arity = len(rp.items)
        return lambda machine, ps, raw: len(raw) == arity and all(
            sub(machine, ps, item) for sub, item in zip(subs, raw))
    if isinstance(rp, ast.PUnion):
        if not isinstance(t, UnionType):
            return _false
        tag = rp.tag
        sub = _compile_raw_test(t.tag_type(tag), rp.value, proc, consts)

        def union(machine, ps, raw):
            raw_tag, inner = raw
            return raw_tag == tag and sub(machine, ps, inner)

        return union
    return _false


def compile_entry_build(entry: ast.Pattern, consts: dict):
    """Message constructor ``fn(machine, args) -> Value`` for an interface
    entry, mirroring :func:`repro.runtime.interp.build_from_pattern`."""
    return _compile_entry_build(entry, consts, [0])


def _compile_entry_build(pattern, consts, pos):
    if isinstance(pattern, ast.PBind):
        index = pos[0]
        pos[0] += 1
        convert = compile_convert(pattern.type)
        message = (f"external message missing argument for binder "
                   f"'{pattern.name}'")
        span = pattern.span

        def binder(machine, args):
            if index >= len(args):
                raise ESPRuntimeError(message, span)
            return convert(machine.heap, args[index])

        return binder
    if isinstance(pattern, ast.PEq):
        fe = _valuify(*compile_expr(pattern.expr, _ENV, consts))
        return lambda machine, args: fe(machine, machine._env_ps)
    if isinstance(pattern, ast.PRecord):
        subs = [_compile_entry_build(item, consts, pos) for item in pattern.items]

        def record(machine, args):
            data = [sub(machine, args) for sub in subs]
            return machine.heap.alloc("record", data, mutable=False)

        return record
    if isinstance(pattern, ast.PUnion):
        sub = _compile_entry_build(pattern.value, consts, pos)
        tag = pattern.tag

        def union(machine, args):
            inner = sub(machine, args)
            return machine.heap.alloc("union", [inner], mutable=False, tag=tag)

        return union
    span = pattern.span

    def unhandled(machine, args):
        raise ESPRuntimeError("unhandled interface pattern", span)

    return unhandled


def compile_convert(t):
    """``fn(heap, raw) -> Value`` converting plain Python data to type
    ``t``, mirroring :func:`repro.runtime.interp.build_value`."""
    if isinstance(t, RecordType):
        subs = [compile_convert(ft) for _, ft in t.fields]
        arity, mutable = len(subs), t.mutable

        def record(heap, raw):
            if not isinstance(raw, (tuple, list)) or len(raw) != arity:
                raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")
            data = [sub(heap, item) for sub, item in zip(subs, raw)]
            return heap.alloc("record", data, mutable)

        return record
    if isinstance(t, UnionType):
        subs = {tag: compile_convert(t.tag_type(tag)) for tag in t.tag_names()}
        mutable = t.mutable

        def union(heap, raw):
            if not isinstance(raw, (tuple, list)) or len(raw) != 2:
                raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")
            tag, inner = raw
            sub = subs.get(tag) if isinstance(tag, str) else None
            if sub is None:
                raise ESPRuntimeError(f"unknown union tag '{tag}' in external data")
            return heap.alloc("union", [sub(heap, inner)], mutable, tag=tag)

        return union
    if isinstance(t, ArrayType):
        sub = compile_convert(t.element)
        mutable = t.mutable

        def array(heap, raw):
            if not isinstance(raw, (tuple, list)):
                raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")
            return heap.alloc("array", [sub(heap, item) for item in raw],
                              mutable)

        return array

    def scalar(heap, raw):
        if isinstance(raw, int):  # bools are ints
            return raw
        raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")

    return scalar


def compile_match_entry(entry: ast.Pattern, consts: dict, fused: bool):
    """External-accept matcher ``fn(machine, values) -> args | None``:
    the entry's binder values (as host data, in pattern order) when the
    ESP message matches the interface entry, else None."""
    if fused:
        test = compile_test_components(entry, _ENV, consts)
        extracts = ([compile_extract(item) for item in entry.items]
                    if isinstance(entry, ast.PRecord) else [])

        def match_fused(machine, values):
            if not test(machine, machine._env_ps, values):
                return None
            heap = machine.heap
            args: list = []
            for extract, value in zip(extracts, values):
                extract(heap, value, args)
            return tuple(args)

        return match_fused
    test = compile_test(entry, _ENV, consts)
    extract = compile_extract(entry)

    def match(machine, values):
        value = values[0]
        if not test(machine, machine._env_ps, value):
            return None
        args: list = []
        extract(machine.heap, value, args)
        return tuple(args)

    return match


def compile_extract(pattern: ast.Pattern):
    """``fn(heap, value, args)`` appending the binders' host values,
    mirroring :func:`repro.runtime.interp.extract_args`."""
    if isinstance(pattern, ast.PBind):
        return lambda heap, value, args: args.append(heap.to_python(value))
    if isinstance(pattern, ast.PRecord):
        subs = [compile_extract(item) for item in pattern.items]

        def record(heap, value, args):
            for sub, component in zip(subs, heap.get(value).data):
                sub(heap, component, args)

        return record
    if isinstance(pattern, ast.PUnion):
        sub = compile_extract(pattern.value)
        return lambda heap, value, args: sub(heap, heap.get(value).data[0], args)
    return lambda heap, value, args: None


def compile_out_check(ports: list, fused: bool):
    """The §4.2 dynamic exhaustiveness check for one ``out`` site:
    ``fn(machine, block) -> bool``, False when the blocked message
    definitely matches none of the channel's receive ports (mirrors
    :func:`repro.runtime.interp.out_matchable`)."""
    if not ports:
        return _true
    if not fused:
        shapes = [compile_shape(port.shape) for port in ports]

        def check(machine, block):
            heap, value = machine.heap, block.values[0]
            for shape in shapes:
                if shape(heap, value) is not False:
                    return True
            return False

        return check
    records = [[compile_shape(item) for item in port.shape.items]
               for port in ports if isinstance(port.shape, Rec)]

    def check_fused(machine, block):
        heap, values = machine.heap, block.values
        for items in records:
            if len(items) == len(values) and _verdict(
                    [item(heap, v) for item, v in zip(items, values)]) is not False:
                return True
        return False

    return check_fused


def out_always_matches(instr: ir.Out, ports: list) -> bool:
    """Does every message the ``out`` site ``instr`` can send match one
    of ``ports`` without a heap read, so that its §4.2 check can never
    fail?  True with no ports (the check is vacuous) or a ``Wild`` port
    (not for a fused send, whose components the check matches against
    record ports only), and for a record or union literal, or fused
    components, that matches a port item by item: equal arity and tag,
    ``Wild`` leaves."""
    if not ports:
        return True
    if instr.fused:
        items = instr.expr.items
        return any(isinstance(port.shape, Rec)
                   and len(port.shape.items) == len(items)
                   and all(_literal_matches(item, shape)
                           for item, shape in zip(items, port.shape.items))
                   for port in ports)
    return any(_literal_matches(instr.expr, port.shape) for port in ports)


def _literal_matches(e: ast.Expr, shape) -> bool:
    if isinstance(shape, Wild):
        return True
    if isinstance(shape, Rec):
        return (isinstance(e, ast.RecordLit) and len(e.items) == len(shape.items)
                and all(_literal_matches(item, sub)
                        for item, sub in zip(e.items, shape.items)))
    if isinstance(shape, Uni):
        return (isinstance(e, ast.UnionLit) and e.tag == shape.tag
                and _literal_matches(e.value, shape.value))
    return False


def compile_shape(shape):
    """``fn(heap, value) -> True | False | None``, mirroring
    :func:`repro.runtime.interp.shape_match`."""
    if isinstance(shape, Wild):
        return _true
    if isinstance(shape, Eq):
        expected = shape.value
        return lambda heap, value: expected == value
    if isinstance(shape, Rec):
        items = [compile_shape(item) for item in shape.items]
        arity = len(items)

        def record(heap, value):
            obj = heap.get(value)
            if obj.kind != "record" or len(obj.data) != arity:
                return False
            return _verdict([item(heap, v) for item, v in zip(items, obj.data)])

        return record
    if isinstance(shape, Uni):
        sub = compile_shape(shape.value)
        tag = shape.tag

        def union(heap, value):
            obj = heap.get(value)
            if obj.kind != "union" or obj.tag != tag:
                return False
            return sub(heap, obj.data[0])

        return union
    return lambda heap, value: None  # EqUnknown and unknown shapes


class CompiledBoundary:
    """The compiled engine's side of the machine's pattern boundary
    (see :class:`repro.runtime.interp.ReferenceBoundary`, which has the
    same methods).  Every closure is compiled once and cached on the
    node it serves: a receive pattern belongs to one process, an
    interface entry to one channel, an ``out`` to one site."""

    def __init__(self, program: ir.IRProgram):
        self.consts = program.consts
        self.ports = program.ports.ports

    def test(self, pattern, proc):
        return (getattr(pattern, "_ctest_fn", None)
                or _cache(pattern, "_ctest_fn",
                          compile_test(pattern, proc, self.consts)))

    def test_components(self, pattern, proc):
        return (getattr(pattern, "_ctestc_fn", None)
                or _cache(pattern, "_ctestc_fn",
                          compile_test_components(pattern, proc, self.consts)))

    def bind(self, pattern, proc):
        return (getattr(pattern, "_cbind_fn", None)
                or _cache(pattern, "_cbind_fn",
                          compile_bind(pattern, proc, self.consts)))

    def deliver_components(self, pattern, proc):
        return (getattr(pattern, "_cdeliver_fn", None)
                or _cache(pattern, "_cdeliver_fn",
                          compile_deliver_components(pattern, proc,
                                                     self.consts)))

    def payload(self, arm, proc):
        return (getattr(arm, "_cpayload_fn", None)
                or _cache(arm, "_cpayload_fn",
                          compile_payload(arm, proc, self.consts)))

    def reach(self, entry_name, entry, pattern, proc):
        table = getattr(pattern, "_creach_fns", None)
        if table is None:
            table = pattern._creach_fns = {}
        fn = table.get(entry_name)
        if fn is None:
            fn = table[entry_name] = compile_reach(entry, pattern, proc,
                                                   self.consts)
        return fn

    def build(self, entry):
        return (getattr(entry, "_cbuild_fn", None)
                or _cache(entry, "_cbuild_fn",
                          compile_entry_build(entry, self.consts)))

    def match_entry(self, entry, fused):
        attr = "_cacceptc_fn" if fused else "_caccept_fn"
        return (getattr(entry, attr, None)
                or _cache(entry, attr,
                          compile_match_entry(entry, self.consts, fused)))

    def out_check(self, instr):
        """The site's §4.2 check, or None where
        :func:`out_always_matches` proves it cannot fail."""
        if not hasattr(instr, "_ccheck_fn"):
            ports = self.ports.get(instr.channel, [])
            instr._ccheck_fn = (None if out_always_matches(instr, ports)
                                else compile_out_check(ports, instr.fused))
        return instr._ccheck_fn


def _cache(node, attr: str, fn):
    """Keep the compiled closure ``fn`` on ``node``; returns it."""
    setattr(node, attr, fn)
    return fn


# ---------------------------------------------------------------------------
# Instruction handlers
# ---------------------------------------------------------------------------


def _compile_instr(instr: ir.Instr, index: int, proc: ir.IRProcess,
                   consts: dict):
    nxt = index + 1
    if isinstance(instr, ir.Decl):
        fe = _valuify(*compile_expr(instr.expr, proc, consts))
        slot = proc.slot_of[instr.var]

        def decl(machine, ps):
            ps.frame[slot] = fe(machine, ps)
            return nxt

        return decl
    if isinstance(instr, ir.Assign):
        if isinstance(instr.target, ast.Var):
            # Plain rebinding ignores freshness (alias/move semantics).
            fe = _valuify(*compile_expr(instr.expr, proc, consts))
            slot = proc.slot_of[instr.target.unique_name]

            def assign_var(machine, ps):
                ps.frame[slot] = fe(machine, ps)
                return nxt

            return assign_var
        fe = _pairify(*compile_expr(instr.expr, proc, consts))
        store = compile_store(instr.target, proc, consts)

        def assign(machine, ps):
            value, fresh = fe(machine, ps)
            store(machine, ps, value, fresh, False)
            return nxt

        return assign
    if isinstance(instr, ir.Match):
        fe = _pairify(*compile_expr(instr.expr, proc, consts))
        bind = compile_bind(instr.pattern, proc, consts)

        def match(machine, ps):
            value, fresh = fe(machine, ps)
            bind(machine, ps, value, fresh)
            if fresh and isinstance(value, Ref):
                machine.heap.unlink(value)
            return nxt

        return match
    if isinstance(instr, ir.Jump):
        target = instr.target
        return lambda machine, ps: target
    if isinstance(instr, ir.Branch):
        fc, _ = compile_expr(instr.cond, proc, consts)
        true_target, false_target = instr.true_target, instr.false_target

        def branch(machine, ps):
            return true_target if fc(machine, ps) else false_target

        return branch
    if isinstance(instr, ir.In):
        channel, pattern = instr.channel, instr.pattern
        mask = proc.wait_mask_for([channel])
        # A receive's block depends only on the instruction, and blocks
        # are never changed, so every visit shares this one.
        block = BlockInfo(kind="in", channel=channel, pattern=pattern,
                          port_index=instr.port_index)

        def block_in(machine, ps):
            ps.pc = index
            ps.status = Status.BLOCKED
            ps.block = block
            ps.wait_mask = mask
            return BLOCKED

        return block_in
    if isinstance(instr, ir.Out):
        channel, fused = instr.channel, instr.fused
        mask = proc.wait_mask_for([channel])
        if fused:
            item_fns = [_pairify(*compile_expr(item, proc, consts))
                        for item in instr.expr.items]

            def block_out_fused(machine, ps):
                values, fresh = [], []
                for fn in item_fns:
                    value, f = fn(machine, ps)
                    values.append(value)
                    fresh.append(f)
                ps.pc = index
                ps.status = Status.BLOCKED
                ps.block = BlockInfo(kind="out", channel=channel,
                                     values=tuple(values), fresh=tuple(fresh),
                                     fused=True)
                ps.wait_mask = mask
                return BLOCKED

            return block_out_fused
        fe = _pairify(*compile_expr(instr.expr, proc, consts))

        def block_out(machine, ps):
            value, f = fe(machine, ps)
            ps.pc = index
            ps.status = Status.BLOCKED
            ps.block = BlockInfo(kind="out", channel=channel,
                                 values=(value,), fresh=(f,), fused=False)
            ps.wait_mask = mask
            return BLOCKED

        return block_out
    if isinstance(instr, ir.Alt):
        arm_plans = []
        for arm_index, arm in enumerate(instr.arms):
            guard_fn = (compile_expr(arm.guard, proc, consts)[0]
                        if arm.guard is not None else None)
            arm_plans.append((guard_fn, EnabledArm(arm=arm, index=arm_index),
                              proc.wait_mask_for([arm.channel])))
        span = instr.span

        def block_alt(machine, ps):
            machine.counters.alt_blocks += 1
            arms = []
            mask = 0
            for guard_fn, enabled, arm_mask in arm_plans:
                if guard_fn is not None and not guard_fn(machine, ps):
                    continue
                arms.append(enabled)
                mask |= arm_mask
            if not arms:
                raise ESPRuntimeError(
                    "alt blocked with every guard false (permanent deadlock)",
                    span,
                )
            ps.pc = index
            ps.status = Status.BLOCKED
            ps.block = BlockInfo(kind="alt", arms=tuple(arms))
            ps.wait_mask = mask
            return BLOCKED

        return block_alt
    if isinstance(instr, ir.Link):
        fe = _pairify(*compile_expr(instr.expr, proc, consts))

        def link(machine, ps):
            heap = machine.heap
            value, fresh = fe(machine, ps)
            heap.link(value)
            if fresh and isinstance(value, Ref):
                heap.unlink(value)
            return nxt

        return link
    if isinstance(instr, ir.Unlink):
        fe = _valuify(*compile_expr(instr.expr, proc, consts))

        def unlink(machine, ps):
            machine.heap.unlink(fe(machine, ps))
            return nxt

        return unlink
    if isinstance(instr, ir.Assert):
        fc, _ = compile_expr(instr.cond, proc, consts)
        message = f"assertion failed in process '{proc.name}'"
        span = instr.span

        def check(machine, ps):
            if not fc(machine, ps):
                raise AssertionFailure(message, span)
            return nxt

        return check
    if isinstance(instr, ir.Print):
        arg_fns = [_pairify(*compile_expr(arg, proc, consts))
                   for arg in instr.args]

        def emit(machine, ps):
            heap = machine.heap
            values = []
            for fn in arg_fns:
                value, fresh = fn(machine, ps)
                values.append(heap.to_python(value))
                if fresh and isinstance(value, Ref):
                    heap.unlink(value)
            machine.counters.prints += 1
            machine.on_print(ps, values)
            return nxt

        return emit
    if isinstance(instr, ir.Nop):
        return lambda machine, ps: nxt
    if isinstance(instr, ir.Halt):
        def halt(machine, ps):
            ps.pc = index
            ps.status = Status.DONE
            ps.block = None
            ps.wait_mask = 0
            return BLOCKED

        return halt
    kind, span = type(instr).__name__, instr.span

    def unhandled(machine, ps):
        raise ESPRuntimeError(f"unhandled instruction {kind}", span)

    return unhandled


def compile_handlers(proc: ir.IRProcess, consts: dict) -> list:
    """The handler table for one process: ``handlers[pc]`` executes
    ``proc.instrs[pc]`` and returns the next PC (or :data:`BLOCKED`)."""
    if not proc.slots_resolved:
        resolve_process_slots(proc)
    return [_compile_instr(instr, index, proc, consts)
            for index, instr in enumerate(proc.instrs)]


def handlers_for(proc: ir.IRProcess, consts: dict) -> list:
    """Cached :func:`compile_handlers` (one table per process object)."""
    handlers = getattr(proc, "_compiled_handlers", None)
    if handlers is None:
        handlers = compile_handlers(proc, consts)
        proc._compiled_handlers = handlers
    return handlers


# ---------------------------------------------------------------------------
# The driver loop
# ---------------------------------------------------------------------------


def run_until_block_compiled(machine, ps) -> None:
    """Drop-in replacement for
    :func:`repro.runtime.interp.run_until_block` driving the compiled
    handler table.  The PC lives in a local; ``ps.pc`` is written only
    at a blocking point (a PC-only context switch, §6.1) or when an
    error propagates (so violation replays see the faulting PC)."""
    handlers = getattr(ps.proc, "_compiled_handlers", None)
    if handlers is None:
        handlers = handlers_for(ps.proc, machine.program.consts)
    counters = machine.counters
    ps.version += 1  # dirty for copy-on-write snapshots
    machine._dirty_procs.add(ps)
    n = len(handlers)
    pc = ps.pc
    count = 0
    # Instruction/step counts accumulate in a local and flush when the
    # stretch ends (including on an exception, where the faulting
    # instruction counts and ``ps.pc`` must point at it — exactly the
    # AST walker's bookkeeping).
    try:
        while pc < n:
            count += 1
            target = handlers[pc](machine, ps)
            if target < 0:
                return
            pc = target
        ps.pc = pc
        ps.status = Status.DONE
    except BaseException:
        ps.pc = pc
        raise
    finally:
        counters.instructions += count
        ps.steps += count
