"""The small-step ESP interpreter.

One interpreter core serves two drivers, mirroring the paper's
one-program/two-targets design (Figure 4):

* the :mod:`repro.runtime.scheduler` executes programs (the role of
  the generated C firmware);
* the :mod:`repro.verify` explorer snapshots/restores machine states
  and enumerates rendezvous choices (the role of the SPIN model).

Processes run deterministically between blocking points
(``in``/``out``/``alt``), which are the state-machine states of §4.3;
:func:`run_until_block` executes exactly one such deterministic
stretch.

Reference-count bookkeeping follows the discipline of §4.4 and §6.1:

* allocation ⇒ refcount 1; embedding a *borrowed* value (a variable
  read) into a new aggregate links it; embedding a *fresh* temporary
  moves it;
* sending a borrowed object over a channel links it (the pointer-send
  implementation of the semantic deep copy); sending a fresh
  temporary moves it;
* on delivery, every aggregate bound by the receive pattern is
  linked, then the message wrapper is unlinked — so each bound
  component behaves as newly allocated for the receiver (§4.4,
  footnote), and unbound wrappers are reclaimed automatically;
* ``link``/``unlink`` are the programmer's explicit operations and
  the only source of unsafety; everything above is compiler-managed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import AssertionFailure, ESPRuntimeError
from repro.lang import ast
from repro.lang.parser import MAX_ARRAY_SIZE
from repro.lang.patterns import Eq, EqUnknown, Rec, Shape, Uni, Wild
from repro.lang.typecheck import NegativeShift, _fold_binary
from repro.lang.types import ArrayType, RecordType, Type, UnionType
from repro.ir import nodes as ir
from repro.ir.slots import resolve_process_slots
from repro.runtime.heap import Heap
from repro.runtime.values import Ref, UNSET, Value


class Status(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class EnabledArm:
    """One alt arm whose guard held when the process blocked."""

    arm: ir.AltArm
    index: int


@dataclass(slots=True)
class BlockInfo:
    """Why a process is blocked.

    * kind "in": waiting to receive on ``channel`` with ``pattern``;
    * kind "out": waiting to send ``values`` (a 1-tuple holding the
      message value, or the component tuple when the send is fused);
    * kind "alt": waiting on ``arms`` (guards already evaluated).

    A BlockInfo is never changed once its process blocks — ``values``,
    ``fresh`` and ``arms`` are tuples — so snapshot records hold the
    object itself and restore puts the same object back.
    """

    kind: str
    channel: str | None = None
    pattern: ast.Pattern | None = None
    port_index: int = -1
    values: tuple[Value, ...] | None = None
    fresh: tuple[bool, ...] | None = None
    fused: bool = False
    arms: tuple[EnabledArm, ...] = ()


@dataclass
class InterpCounters:
    """Per-machine execution counts; the NIC simulator charges cycles
    from deltas of these."""

    instructions: int = 0
    context_switches: int = 0
    transfers: int = 0
    alt_blocks: int = 0
    matches: int = 0
    idle_polls: int = 0
    prints: int = 0


class ProcessState:
    """Mutable execution state of one process (PC + locals, §6.1:
    a context switch saves only the program counter).

    ``version`` is a dirty counter for the verifier's copy-on-write
    snapshots: every mutation path bumps it, and the cached snapshot
    record (``_record``/``_record_version``) is valid exactly while it
    stands still.  See :meth:`repro.runtime.machine.Machine.snapshot`.
    """

    __slots__ = ("proc", "pid", "pc", "frame", "status", "block", "wait_mask",
                 "steps", "version", "_record", "_record_version")

    def __init__(self, proc: ir.IRProcess):
        if not proc.slots_resolved:
            resolve_process_slots(proc)
        self.proc = proc
        self.pid = proc.pid
        self.pc = 0
        self.frame: list[Value] = [UNSET] * proc.nslots
        self.status = Status.READY
        self.block: BlockInfo | None = None
        self.wait_mask = 0
        self.steps = 0
        self.version = 0
        self._record = None
        self._record_version = -1

    def __repr__(self) -> str:
        return f"<{self.proc.name} pc={self.pc} {self.status.value}>"


def array_size_error(count: int, span) -> ESPRuntimeError:
    """The error of an array fill whose run-time size is negative or
    above the typechecker's static limit (every engine raises it)."""
    if count < 0:
        return ESPRuntimeError(f"negative array size {count}", span)
    return ESPRuntimeError(
        f"array size {count} exceeds the limit of {MAX_ARRAY_SIZE} elements",
        span,
    )


class Evaluator:
    """Expression evaluation for one machine; returns (value, fresh)
    where ``fresh`` marks an evaluation-owned temporary."""

    def __init__(self, heap: Heap, consts: dict):
        self.heap = heap
        self.consts = consts

    # -- entry ------------------------------------------------------------------

    def eval(self, e: ast.Expr, ps: ProcessState) -> tuple[Value, bool]:
        if isinstance(e, ast.IntLit):
            return e.value, False
        if isinstance(e, ast.BoolLit):
            return e.value, False
        if isinstance(e, ast.ProcessId):
            return ps.pid, False
        if isinstance(e, ast.Var):
            unique = getattr(e, "unique_name", None)
            if unique is not None:
                slot = ps.proc.slot_of.get(unique, -1)
                value = ps.frame[slot] if slot >= 0 else UNSET
                if value is UNSET:
                    raise ESPRuntimeError(
                        f"variable '{e.name}' read before initialisation", e.span
                    )
                return value, False
            if e.name in self.consts:
                return self.consts[e.name], False
            raise ESPRuntimeError(f"unbound variable '{e.name}'", e.span)
        if isinstance(e, ast.Unary):
            v, fresh = self.eval(e.operand, ps)
            assert not fresh
            return (not v) if e.op == "!" else (-v), False
        if isinstance(e, ast.Binary):
            return self._eval_binary(e, ps), False
        if isinstance(e, ast.Index):
            return self._eval_index(e, ps)
        if isinstance(e, ast.FieldAccess):
            return self._eval_field(e, ps)
        if isinstance(e, ast.RecordLit):
            return self._alloc_items("record", e.items, e.mutable, None, ps, e)
        if isinstance(e, ast.UnionLit):
            value, fresh = self.eval(e.value, ps)
            self._embed(value, fresh)
            return self.heap.alloc("union", [value], e.mutable, tag=e.tag), True
        if isinstance(e, ast.ArrayLit):
            return self._alloc_items("array", e.items, e.mutable, None, ps, e)
        if isinstance(e, ast.ArrayFill):
            return self._eval_fill(e, ps)
        if isinstance(e, ast.Cast):
            return self._eval_cast(e, ps)
        raise ESPRuntimeError(f"unhandled expression {type(e).__name__}", e.span)

    # -- helpers ------------------------------------------------------------------

    def _embed(self, value: Value, fresh: bool) -> None:
        """Account for embedding ``value`` into a new aggregate."""
        if isinstance(value, Ref) and not fresh:
            self.heap.link(value)

    def release_temp(self, value: Value, fresh: bool) -> None:
        """Drop an evaluation-owned temporary after its statement."""
        if fresh and isinstance(value, Ref):
            self.heap.unlink(value)

    def _eval_binary(self, e: ast.Binary, ps: ProcessState) -> Value:
        if e.op == "&&":
            left, _ = self.eval(e.left, ps)
            if not left:
                return False
            right, _ = self.eval(e.right, ps)
            return bool(right)
        if e.op == "||":
            left, _ = self.eval(e.left, ps)
            if left:
                return True
            right, _ = self.eval(e.right, ps)
            return bool(right)
        left, _ = self.eval(e.left, ps)
        right, _ = self.eval(e.right, ps)
        try:
            return _fold_binary(e.op, left, right)
        except ZeroDivisionError:
            raise ESPRuntimeError("division by zero", e.span)
        except NegativeShift:
            raise ESPRuntimeError("negative shift count", e.span)

    def _eval_index(self, e: ast.Index, ps: ProcessState) -> tuple[Value, bool]:
        base, base_fresh = self.eval(e.base, ps)
        index, _ = self.eval(e.index, ps)
        obj = self.heap.get(base)
        if not 0 <= index < len(obj.data):
            raise ESPRuntimeError(
                f"array index {index} out of bounds (size {len(obj.data)})", e.span
            )
        result = obj.data[index]
        return self._read_through_temp(result, base, base_fresh)

    def _eval_field(self, e: ast.FieldAccess, ps: ProcessState) -> tuple[Value, bool]:
        base, base_fresh = self.eval(e.base, ps)
        obj = self.heap.get(base)
        names = e.base.type.field_names()
        result = obj.data[names.index(e.field_name)]
        return self._read_through_temp(result, base, base_fresh)

    def _read_through_temp(self, result, base, base_fresh) -> tuple[Value, bool]:
        """Reading a component out of a fresh temporary must keep the
        component alive while the temporary is reclaimed."""
        if not base_fresh:
            return result, False
        if isinstance(result, Ref):
            self.heap.link(result)
            self.heap.unlink(base)
            return result, True
        self.heap.unlink(base)
        return result, False

    def _alloc_items(self, kind, items, mutable, tag, ps, e) -> tuple[Value, bool]:
        data = []
        for item in items:
            value, fresh = self.eval(item, ps)
            self._embed(value, fresh)
            data.append(value)
        return self.heap.alloc(kind, data, mutable, tag=tag), True

    def _eval_fill(self, e: ast.ArrayFill, ps: ProcessState) -> tuple[Value, bool]:
        count, _ = self.eval(e.count, ps)
        if not 0 <= count <= MAX_ARRAY_SIZE:
            raise array_size_error(count, e.span)
        fill, fresh = self.eval(e.fill, ps)
        if isinstance(fill, Ref):
            # Every slot references the object: fresh fills donate their
            # ownership to slot 0 and link the rest.
            links = count - 1 if fresh else count
            for _ in range(max(links, 0)):
                self.heap.link(fill)
            if fresh and count == 0:
                self.heap.unlink(fill)
        data = [fill] * count
        return self.heap.alloc("array", data, e.mutable), True

    def _eval_cast(self, e: ast.Cast, ps: ProcessState) -> tuple[Value, bool]:
        value, fresh = self.eval(e.operand, ps)
        obj = self.heap.get(value)
        target_mutable = not obj.mutable
        if getattr(e, "elide", False) and not fresh and self.heap.exclusively_owned(value):
            # The optimizer proved the source dead afterwards: flip in place.
            self.heap.set_mutability_deep(value, target_mutable)
            return value, True
        copy = self.heap.deep_copy(value, mutable=target_mutable)
        self.release_temp(value, fresh)
        return copy, True


# ---------------------------------------------------------------------------
# Local pattern matching / destructuring (non-channel)
# ---------------------------------------------------------------------------


def match_local(evaluator: Evaluator, ps: ProcessState, pattern: ast.Pattern,
                value: Value, link_binders: bool) -> None:
    """Destructure ``value`` with ``pattern`` inside the owning process.

    ``link_binders`` is True when the matched value's ownership is being
    consumed (channel delivery, fresh temporaries) so bound aggregates
    must be retained.  Raises on equality-constraint mismatch.
    """
    heap = evaluator.heap
    if isinstance(pattern, ast.PBind):
        if link_binders and isinstance(value, Ref):
            heap.link(value)
        ps.frame[ps.proc.slot_of[pattern.unique_name]] = value
        return
    if isinstance(pattern, ast.PEq):
        if getattr(pattern, "is_store", False):
            store_into(evaluator, ps, pattern.expr, value,
                       fresh=False, extra_link=link_binders)
            return
        expected, _ = evaluator.eval(pattern.expr, ps)
        if expected != value:
            raise ESPRuntimeError(
                f"pattern match failed: expected {expected}, got {value}",
                pattern.span,
            )
        return
    if isinstance(pattern, ast.PRecord):
        obj = heap.get(value)
        if len(obj.data) != len(pattern.items):
            raise ESPRuntimeError("record arity mismatch in pattern", pattern.span)
        for item, component in zip(pattern.items, obj.data):
            match_local(evaluator, ps, item, component, link_binders)
        return
    if isinstance(pattern, ast.PUnion):
        obj = heap.get(value)
        if obj.tag != pattern.tag:
            raise ESPRuntimeError(
                f"pattern match failed: union tag is '{obj.tag}', "
                f"pattern wants '{pattern.tag}'",
                pattern.span,
            )
        match_local(evaluator, ps, pattern.value, obj.data[0], link_binders)
        return
    raise ESPRuntimeError(f"unhandled pattern {type(pattern).__name__}", pattern.span)


def try_match(evaluator: Evaluator, ps: ProcessState, pattern: ast.Pattern,
              value: Value) -> bool:
    """Non-destructive test: would ``pattern`` match ``value``?  Used by
    the dispatch logic; evaluates equality expressions in the reader's
    context but performs no binding."""
    heap = evaluator.heap
    if isinstance(pattern, ast.PBind):
        return True
    if isinstance(pattern, ast.PEq):
        if getattr(pattern, "is_store", False):
            return True
        expected, _ = evaluator.eval(pattern.expr, ps)
        return expected == value
    if isinstance(pattern, ast.PRecord):
        obj = heap.get(value)
        if len(obj.data) != len(pattern.items):
            return False
        return all(
            try_match(evaluator, ps, item, component)
            for item, component in zip(pattern.items, obj.data)
        )
    if isinstance(pattern, ast.PUnion):
        obj = heap.get(value)
        if obj.tag != pattern.tag:
            return False
        return try_match(evaluator, ps, pattern.value, obj.data[0])
    return False


def try_match_components(evaluator: Evaluator, ps: ProcessState,
                         pattern: ast.Pattern, components: list[Value]) -> bool:
    """Fused-send variant of :func:`try_match`: the record wrapper was
    never allocated, so match component-wise."""
    if not isinstance(pattern, ast.PRecord) or len(pattern.items) != len(components):
        return False
    return all(
        try_match(evaluator, ps, item, component)
        for item, component in zip(pattern.items, components)
    )


def store_into(evaluator: Evaluator, ps: ProcessState, target: ast.Expr,
               value: Value, fresh: bool, extra_link: bool = False) -> None:
    """Store ``value`` into an lvalue.

    Plain variables rebind (alias/move).  Mutable array/record slots
    take a reference: borrowed values are linked, fresh ones move, and
    the old occupant is unlinked so counts stay exact.  ``extra_link``
    adds the delivery link for channel receives into lvalues.
    """
    heap = evaluator.heap
    if isinstance(target, ast.Var):
        if extra_link and isinstance(value, Ref):
            heap.link(value)
        ps.frame[ps.proc.slot_of[target.unique_name]] = value
        return
    if isinstance(target, ast.Index):
        base, base_fresh = evaluator.eval(target.base, ps)
        index, _ = evaluator.eval(target.index, ps)
        obj = heap.get(base)
        if not 0 <= index < len(obj.data):
            raise ESPRuntimeError(
                f"array index {index} out of bounds (size {len(obj.data)})",
                target.span,
            )
        _store_slot(heap, obj, index, value, fresh, extra_link)
        evaluator.release_temp(base, base_fresh)
        return
    if isinstance(target, ast.FieldAccess):
        base, base_fresh = evaluator.eval(target.base, ps)
        obj = heap.get(base)
        names = target.base.type.field_names()
        _store_slot(heap, obj, names.index(target.field_name), value, fresh, extra_link)
        evaluator.release_temp(base, base_fresh)
        return
    raise ESPRuntimeError("invalid store target", target.span)


def _store_slot(heap: Heap, obj, index: int, value: Value, fresh: bool,
                extra_link: bool) -> None:
    old = obj.data[index]
    if isinstance(value, Ref) and (not fresh or extra_link):
        heap.link(value)
    obj.data[index] = value
    heap._touched.add(obj.oid)
    if isinstance(old, Ref):
        heap.unlink(old)


# ---------------------------------------------------------------------------
# Deterministic execution until the next blocking point
# ---------------------------------------------------------------------------


def run_until_block(machine, ps: ProcessState) -> None:
    """Execute ``ps`` until it blocks, halts, or raises.  ``machine``
    provides the evaluator, counters, and print handler."""
    evaluator: Evaluator = machine.evaluator
    counters: InterpCounters = machine.counters
    instrs = ps.proc.instrs
    n = len(instrs)
    ps.version += 1  # dirty for copy-on-write snapshots
    machine._dirty_procs.add(ps)
    while True:
        if ps.pc >= n:
            ps.status = Status.DONE
            return
        instr = instrs[ps.pc]
        counters.instructions += 1
        ps.steps += 1
        if isinstance(instr, ir.Decl):
            value, _fresh = evaluator.eval(instr.expr, ps)
            ps.frame[ps.proc.slot_of[instr.var]] = value
        elif isinstance(instr, ir.Assign):
            value, fresh = evaluator.eval(instr.expr, ps)
            store_into(evaluator, ps, instr.target, value, fresh)
        elif isinstance(instr, ir.Match):
            value, fresh = evaluator.eval(instr.expr, ps)
            match_local(evaluator, ps, instr.pattern, value, link_binders=fresh)
            evaluator.release_temp(value, fresh)
        elif isinstance(instr, ir.Jump):
            ps.pc = instr.target
            continue
        elif isinstance(instr, ir.Branch):
            cond, _ = evaluator.eval(instr.cond, ps)
            ps.pc = instr.true_target if cond else instr.false_target
            continue
        elif isinstance(instr, ir.In):
            ps.status = Status.BLOCKED
            ps.block = BlockInfo(
                kind="in",
                channel=instr.channel,
                pattern=instr.pattern,
                port_index=instr.port_index,
            )
            ps.wait_mask = ps.proc.wait_mask_for([instr.channel])
            return
        elif isinstance(instr, ir.Out):
            values, fresh = _evaluate_out(evaluator, ps, instr.expr, instr.fused)
            ps.status = Status.BLOCKED
            ps.block = BlockInfo(
                kind="out",
                channel=instr.channel,
                values=tuple(values),
                fresh=tuple(fresh),
                fused=instr.fused,
            )
            ps.wait_mask = ps.proc.wait_mask_for([instr.channel])
            return
        elif isinstance(instr, ir.Alt):
            counters.alt_blocks += 1
            enabled = []
            channels = []
            for index, arm in enumerate(instr.arms):
                if arm.guard is not None:
                    guard, _ = evaluator.eval(arm.guard, ps)
                    if not guard:
                        continue
                enabled.append(EnabledArm(arm=arm, index=index))
                channels.append(arm.channel)
            if not enabled:
                raise ESPRuntimeError(
                    "alt blocked with every guard false (permanent deadlock)",
                    instr.span,
                )
            ps.status = Status.BLOCKED
            ps.block = BlockInfo(kind="alt", arms=tuple(enabled))
            ps.wait_mask = ps.proc.wait_mask_for(channels)
            return
        elif isinstance(instr, ir.Link):
            value, fresh = evaluator.eval(instr.expr, ps)
            evaluator.heap.link(value)
            evaluator.release_temp(value, fresh)
        elif isinstance(instr, ir.Unlink):
            value, _fresh = evaluator.eval(instr.expr, ps)
            evaluator.heap.unlink(value)
        elif isinstance(instr, ir.Assert):
            cond, _ = evaluator.eval(instr.cond, ps)
            if not cond:
                raise AssertionFailure(
                    f"assertion failed in process '{ps.proc.name}'", instr.span
                )
        elif isinstance(instr, ir.Print):
            values = []
            for arg in instr.args:
                value, fresh = evaluator.eval(arg, ps)
                values.append(evaluator.heap.to_python(value))
                evaluator.release_temp(value, fresh)
            counters.prints += 1
            machine.on_print(ps, values)
        elif isinstance(instr, ir.Nop):
            pass
        elif isinstance(instr, ir.Halt):
            ps.status = Status.DONE
            ps.block = None
            ps.wait_mask = 0
            return
        else:
            raise ESPRuntimeError(f"unhandled instruction {type(instr).__name__}",
                                  instr.span)
        ps.pc += 1


def _evaluate_out(evaluator: Evaluator, ps: ProcessState, expr: ast.Expr,
                  fused: bool) -> tuple[list[Value], list[bool]]:
    """Evaluate an out payload: component-wise for fused sends (the
    message record is never allocated, §6.1), whole otherwise."""
    if fused:
        values, fresh = [], []
        for item in expr.items:
            v, f = evaluator.eval(item, ps)
            values.append(v)
            fresh.append(f)
        return values, fresh
    v, f = evaluator.eval(expr, ps)
    return [v], [f]


# ---------------------------------------------------------------------------
# The machine's pattern boundary (reference walkers)
# ---------------------------------------------------------------------------


def deliver_components(evaluator: Evaluator, ps: ProcessState,
                       pattern: ast.Pattern, values: list[Value],
                       fresh: list[bool]) -> None:
    """Bind a fused message (its components, never wrapped in a record)
    item by item with the receiver's record pattern."""
    assert isinstance(pattern, ast.PRecord)
    heap = evaluator.heap
    for item, value, f in zip(pattern.items, values, fresh):
        if isinstance(item, ast.PBind):
            if isinstance(value, Ref) and not f:
                heap.link(value)
            ps.frame[ps.proc.slot_of[item.unique_name]] = value
        elif isinstance(item, ast.PEq):
            if getattr(item, "is_store", False):
                store_into(evaluator, ps, item.expr, value, fresh=f)
                continue
            expected, _ = evaluator.eval(item.expr, ps)
            if expected != value:
                raise ESPRuntimeError("fused delivery equality mismatch",
                                      item.span)
        else:  # nested destructure of an aggregate component
            match_local(evaluator, ps, item, value, link_binders=True)
            if f and isinstance(value, Ref):
                heap.unlink(value)


def entry_reaches(evaluator: Evaluator, env: ProcessState,
                  entry: ast.Pattern, args_iter, receiver_pattern: ast.Pattern,
                  receiver: ProcessState) -> bool:
    """Value-level offer test: would the message built from interface
    entry ``entry`` with the binder arguments in ``args_iter`` match the
    receiver's waiting pattern?  Walks both patterns together, so no
    message is allocated."""
    if isinstance(entry, ast.PBind):
        try:
            raw = next(args_iter)
        except StopIteration:
            return False
        return _python_vs_pattern(evaluator, raw, entry.type,
                                  receiver_pattern, receiver)
    if isinstance(entry, ast.PEq):
        value, _ = evaluator.eval(entry.expr, env)
        if isinstance(receiver_pattern, ast.PBind) or getattr(
            receiver_pattern, "is_store", False
        ):
            return True
        if isinstance(receiver_pattern, ast.PEq):
            expected, _ = evaluator.eval(receiver_pattern.expr, receiver)
            return expected == value
        return False
    if isinstance(entry, ast.PRecord):
        if isinstance(receiver_pattern, ast.PBind):
            # Whole-message bind: consume args to keep the iterator
            # aligned, always matches.
            for item in entry.items:
                if not entry_reaches(evaluator, env, item, args_iter,
                                     ast.PBind(item.span, name="_"), receiver):
                    return False
            return True
        if getattr(receiver_pattern, "is_store", False):
            return True
        if not isinstance(receiver_pattern, ast.PRecord):
            return False
        if len(entry.items) != len(receiver_pattern.items):
            return False
        return all(
            entry_reaches(evaluator, env, e, args_iter, r, receiver)
            for e, r in zip(entry.items, receiver_pattern.items)
        )
    if isinstance(entry, ast.PUnion):
        if isinstance(receiver_pattern, ast.PBind) or getattr(
            receiver_pattern, "is_store", False
        ):
            return True
        if not isinstance(receiver_pattern, ast.PUnion):
            return False
        if entry.tag != receiver_pattern.tag:
            return False
        return entry_reaches(evaluator, env, entry.value, args_iter,
                             receiver_pattern.value, receiver)
    return True


def _python_vs_pattern(evaluator: Evaluator, raw, t: Type,
                       receiver_pattern: ast.Pattern,
                       receiver: ProcessState) -> bool:
    """Match plain Python data (a binder argument) against the
    receiver's pattern without allocating."""
    if isinstance(receiver_pattern, ast.PBind) or getattr(
        receiver_pattern, "is_store", False
    ):
        return True
    if isinstance(receiver_pattern, ast.PEq):
        expected, _ = evaluator.eval(receiver_pattern.expr, receiver)
        return expected == raw
    if isinstance(receiver_pattern, ast.PRecord):
        if not isinstance(t, RecordType) or len(raw) != len(receiver_pattern.items):
            return False
        return all(
            _python_vs_pattern(evaluator, item, ft, rp, receiver)
            for item, (_, ft), rp in zip(raw, t.fields, receiver_pattern.items)
        )
    if isinstance(receiver_pattern, ast.PUnion):
        if not isinstance(t, UnionType):
            return False
        tag, inner = raw
        if tag != receiver_pattern.tag:
            return False
        return _python_vs_pattern(evaluator, inner, t.tag_type(tag),
                                  receiver_pattern.value, receiver)
    return False


def build_from_pattern(evaluator: Evaluator, env: ProcessState,
                       pattern: ast.Pattern, args_iter) -> Value:
    """Construct a fresh message from an interface entry pattern and
    the host-supplied binder arguments (in pattern order)."""
    if isinstance(pattern, ast.PBind):
        try:
            raw = next(args_iter)
        except StopIteration:
            raise ESPRuntimeError(
                f"external message missing argument for binder "
                f"'{pattern.name}'", pattern.span
            )
        return build_value(evaluator.heap, pattern.type, raw)
    if isinstance(pattern, ast.PEq):
        value, _ = evaluator.eval(pattern.expr, env)
        return value
    if isinstance(pattern, ast.PRecord):
        data = [build_from_pattern(evaluator, env, item, args_iter)
                for item in pattern.items]
        return evaluator.heap.alloc("record", data, mutable=False)
    if isinstance(pattern, ast.PUnion):
        inner = build_from_pattern(evaluator, env, pattern.value, args_iter)
        return evaluator.heap.alloc("union", [inner], mutable=False,
                                    tag=pattern.tag)
    raise ESPRuntimeError("unhandled interface pattern", pattern.span)


def build_value(heap: Heap, t: Type, raw) -> Value:
    """Convert plain Python data into a heap value of type ``t``:
    records are sequences of exactly their fields, unions ``(tag,
    value)`` pairs, arrays sequences, scalars ints or bools."""
    if isinstance(t, RecordType):
        if not isinstance(raw, (tuple, list)) or len(raw) != len(t.fields):
            raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")
        data = [build_value(heap, ft, item) for (_, ft), item in zip(t.fields, raw)]
        return heap.alloc("record", data, t.mutable)
    if isinstance(t, UnionType):
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")
        tag, inner = raw
        tag_type = t.tag_type(tag)
        if tag_type is None:
            raise ESPRuntimeError(f"unknown union tag '{tag}' in external data")
        return heap.alloc("union", [build_value(heap, tag_type, inner)],
                          t.mutable, tag=tag)
    if isinstance(t, ArrayType):
        if not isinstance(raw, (tuple, list)):
            raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")
        data = [build_value(heap, t.element, item) for item in raw]
        return heap.alloc("array", data, t.mutable)
    if isinstance(raw, int):  # bools are ints
        return raw
    raise ESPRuntimeError(f"cannot convert {raw!r} to {t}")


def extract_args(heap: Heap, pattern: ast.Pattern, value: Value,
                 args: list) -> None:
    """Append the host-side values of ``pattern``'s binders, in pattern
    order, as an external reader receives them."""
    if isinstance(pattern, ast.PBind):
        args.append(heap.to_python(value))
    elif isinstance(pattern, ast.PRecord):
        obj = heap.get(value)
        for item, component in zip(pattern.items, obj.data):
            extract_args(heap, item, component, args)
    elif isinstance(pattern, ast.PUnion):
        extract_args(heap, pattern.value, heap.get(value).data[0], args)


def shape_match(heap: Heap, shape: Shape, value: Value) -> bool | None:
    """Definite match test of a value against a static port shape.
    Returns None when the shape has runtime-dependent constraints."""
    if isinstance(shape, Wild):
        return True
    if isinstance(shape, Eq):
        return shape.value == value
    if isinstance(shape, EqUnknown):
        return None
    if isinstance(shape, Rec):
        obj = heap.get(value)
        if obj.kind != "record" or len(obj.data) != len(shape.items):
            return False
        return _verdict([shape_match(heap, item, v)
                         for item, v in zip(shape.items, obj.data)])
    if isinstance(shape, Uni):
        obj = heap.get(value)
        if obj.kind != "union" or obj.tag != shape.tag:
            return False
        return shape_match(heap, shape.value, obj.data[0])
    return None


def _verdict(verdicts: list) -> bool | None:
    if any(v is False for v in verdicts):
        return False
    if all(v is True for v in verdicts):
        return True
    return None


def out_matchable(heap: Heap, ports: list, block: BlockInfo) -> bool:
    """Dynamic exhaustiveness (§4.2): False when the blocked ``out``'s
    message definitely matches none of the channel's receive ports."""
    if not ports:
        return True
    for port in ports:
        shape = port.shape
        if block.fused:
            if not isinstance(shape, Rec) or len(shape.items) != len(block.values):
                continue
            verdict = _verdict([shape_match(heap, item, v)
                                for item, v in zip(shape.items, block.values)])
        else:
            verdict = shape_match(heap, shape, block.values[0])
        if verdict is not False:
            return True
    return False


class ReferenceBoundary:
    """The AST walker's side of the machine's pattern boundary.

    :class:`repro.runtime.machine.Machine` reaches every pattern
    operation — receive tests and binds, postponed alt payloads,
    external offers, message building, external accepts and the
    exhaustiveness check — through a boundary object, so one machine
    serves both Python engines.  This one answers with closures over
    the reference walkers; :class:`repro.runtime.compile.CompiledBoundary`
    answers with compiled closures of the same signatures."""

    def __init__(self, program: ir.IRProgram):
        self.ports = program.ports.ports

    @staticmethod
    def test(pattern, proc):
        return lambda machine, ps, value: try_match(
            machine.evaluator, ps, pattern, value)

    @staticmethod
    def test_components(pattern, proc):
        return lambda machine, ps, values: try_match_components(
            machine.evaluator, ps, pattern, values)

    @staticmethod
    def bind(pattern, proc):
        return lambda machine, ps, value, link_binders: match_local(
            machine.evaluator, ps, pattern, value, link_binders)

    @staticmethod
    def deliver_components(pattern, proc):
        return lambda machine, ps, values, fresh: deliver_components(
            machine.evaluator, ps, pattern, values, fresh)

    @staticmethod
    def payload(arm, proc):
        def payload(machine, ps):
            values, fresh = _evaluate_out(machine.evaluator, ps, arm.expr,
                                          arm.fused)
            return values, fresh, arm.fused

        return payload

    @staticmethod
    def reach(entry_name, entry, pattern, proc):
        return lambda machine, ps, args: entry_reaches(
            machine.evaluator, machine._env_ps, entry, iter(args), pattern, ps)

    @staticmethod
    def build(entry):
        return lambda machine, args: build_from_pattern(
            machine.evaluator, machine._env_ps, entry, iter(args))

    @staticmethod
    def match_entry(entry, fused):
        def match(machine, values):
            evaluator, env = machine.evaluator, machine._env_ps
            if fused:
                if not try_match_components(evaluator, env, entry, values):
                    return None
                pairs = zip(entry.items, values)
            else:
                if not try_match(evaluator, env, entry, values[0]):
                    return None
                pairs = ((entry, values[0]),)
            args: list = []
            for item, value in pairs:
                extract_args(machine.heap, item, value, args)
            return tuple(args)

        return match

    def out_check(self, instr):
        ports = self.ports.get(instr.channel, [])
        return lambda machine, block: out_matchable(machine.heap, ports, block)
