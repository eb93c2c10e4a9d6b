"""The ESP → C whole-program code generator (§6.1).

The compiler "requires the entire program ... and generates one big C
function that implements the entire concurrent program" — here, one C
*file*: a per-process step function whose entry ``switch`` restores the
saved program counter (context switches save only the PC), plus the
scheduler tables (channel bitmasks, match functions, staging functions)
and the idle loop.

Message payloads are staged component-wise for fused channels (the
record is never allocated, §6.1) and as one boxed object otherwise.
The host side supplies the paper's two-function external interface per
external channel: ``<Iface>IsReady`` and one function per pattern
(§4.5); argument passing uses the uniform ``esp_val`` calling
convention documented in the generated header comment.

Known divergences from the interpreter (documented in DESIGN.md):
``cast`` elision falls back to a refcount test at run time, and alt
out-arm payloads are evaluated when the scheduler stages the arm.
"""

from __future__ import annotations

from repro.errors import ESPError
from repro.lang import ast
from repro.lang.parser import MAX_ARRAY_SIZE
from repro.lang.patterns import Eq, Rec, Uni
from repro.lang.types import ArrayType, BoolType, RecordType, Type, UnionType
from repro.ir import nodes as ir
from repro.backends.c.runtime_c import RUNTIME_H, SCHEDULER_C, SHIFT_C
from repro.runtime.machine import _patterns_compatible


def _san(name: str) -> str:
    return name.replace(".", "_")


class _Emitter:
    """An indented line buffer."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0
        self._temp = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def fresh_temp(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    def text(self) -> str:
        return "\n".join(self.lines)


class CExpr:
    """A compiled expression: C text plus static facts."""

    __slots__ = ("text", "fresh", "is_ref")

    def __init__(self, text: str, fresh: bool = False, is_ref: bool = False):
        self.text = text
        self.fresh = fresh
        self.is_ref = is_ref


def _is_agg(t: Type | None) -> bool:
    return t is not None and t.is_aggregate()


class CCodegen:
    """Generates one self-contained C file for an IR program."""

    def __init__(self, program: ir.IRProgram, emit_main: bool = False):
        self.program = program
        self.emit_main = emit_main
        self.channel_ids = {name: i for i, name in enumerate(program.channels)}
        # all-or-nothing per-channel fusion (set by the optimizer)
        self.fused_channels = self._fused_channels()
        self.out = _Emitter()
        # (pid, alt_state_pc) -> list of stager function names per arm
        self._stagers: list[str] = []
        self._match_cases: list[str] = []
        # receive sites: (channel, pattern, pid, state, arm|-1), used to
        # route external-writer entries to compatible readers *before*
        # consuming host data.
        self._in_sites: list[tuple[str, ast.Pattern, int, int, int]] = []
        # error/print site registry: site id = index + 1 (0 is the
        # generic esp_fail message); the native host maps ids back to
        # the Python engines' exact error strings via the manifest.
        self._sites: list[dict] = []
        # dispatch cases for the delivery-time bind function
        self._bind_cases: list[str] = []
        # (pid, state, [(kind, channel), ...]) per alt site, for the
        # native scheduler's arm enumeration tables
        self._alt_sites: list[tuple[int, int, list[tuple[str, str]]]] = []

    # ------------------------------------------------------------------ driver

    def generate(self) -> str:
        out = self.out
        out.emit("/* ESP whole-program C output — see repro.backends.c */")
        out.emit(f"#define ESP_NPROC {len(self.program.processes)}")
        out.emit(f"#define ESP_NCHAN {len(self.channel_ids)}")
        out.emit(RUNTIME_H)
        self._gen_channel_ids()
        self._gen_locals()
        out.emit("#ifndef ESP_NATIVE")
        self._gen_externs()
        out.emit("#endif")
        out.emit("static esp_proc esp_procs[ESP_NPROC];")
        out.emit("")
        self._gen_prototypes()
        helpers_at = len(out.lines)
        for proc in self.program.processes:
            self._gen_step_function(proc)
        if any(site["kind"] == "shift" for site in self._sites):
            out.lines[helpers_at:helpers_at] = SHIFT_C.split("\n")
        self._gen_dispatch()
        self._gen_chan_bit()
        self._gen_out_slots()
        self._gen_reader_arm_for()
        self._gen_stage_unstage_complete()
        self._gen_match_reader()
        self._gen_bind_dispatch()
        out.emit("#ifndef ESP_NATIVE")
        self._gen_poll_externals()
        out.emit("#endif")
        self._gen_native_tables()
        out.emit(SCHEDULER_C)
        self._gen_init()
        if self.emit_main:
            self._gen_main()
        return out.text()

    # ------------------------------------------------------------------ sites

    def _site(self, kind: str, span=None, **extra) -> int:
        """Register an error/print site; returns its id (ids start at 1,
        0 is reserved for the generic esp_fail message)."""
        entry: dict = {"kind": kind, "span": span}
        entry.update(extra)
        self._sites.append(entry)
        return len(self._sites)

    def manifest(self) -> dict:
        """Everything the native host needs to mirror the Python
        engines: names, channel externality, interface entry layouts
        (binder names / spans / type trees), and the site registry."""
        channels = []
        for name in self.program.channels:
            info = self.program.channels[name]
            channels.append({
                "name": name,
                "external": info.external,
                "message_agg": _is_agg(info.message_type),
            })
        interfaces: dict = {}
        for channel, entries in self.program.interfaces.items():
            rows = []
            for entry_name, pattern in entries.items():
                binders: list[dict] = []
                _collect_binders(pattern, binders)
                rows.append({"entry": entry_name, "binders": binders})
            interfaces[channel] = rows
        # Offers whose arguments the host cannot preview are routed on
        # the entry's shape alone, like the firmware's poll loop.
        routes = {
            channel: {entry_name: self._shape_routes(channel, pattern)
                      for entry_name, pattern in entries.items()}
            for channel, entries in self.program.interfaces.items()
        }
        return {
            "nproc": len(self.program.processes),
            "proc_names": [p.name for p in self.program.processes],
            "channels": channels,
            "interfaces": interfaces,
            "routes": routes,
            "sites": self._sites,
        }

    def _fused_channels(self) -> set[str]:
        fused = set()
        for proc in self.program.processes:
            for instr in proc.instrs:
                if isinstance(instr, ir.Out) and instr.fused:
                    fused.add(instr.channel)
                elif isinstance(instr, ir.Alt):
                    for arm in instr.arms:
                        if arm.kind == "out" and arm.fused:
                            fused.add(arm.channel)
        return fused

    # ------------------------------------------------------------------ tables

    def _gen_channel_ids(self) -> None:
        if not self.channel_ids:
            return  # C has no empty enum
        self.out.emit("/* channel ids */")
        self.out.emit("enum {")
        for name, cid in self.channel_ids.items():
            self.out.emit(f"    CH_{_san(name)} = {cid},")
        self.out.emit("};")
        self.out.emit("")

    def _gen_locals(self) -> None:
        self.out.emit("/* process locals live in the static region (§4.3) */")
        for proc in self.program.processes:
            fields = "".join(
                f" esp_val {_san(name)};" for name in proc.locals
            )
            self.out.emit(f"static struct {{ int _dummy;{fields} }} L{proc.pid};")
        self.out.emit("")

    def _gen_externs(self) -> None:
        self.out.emit("/* external interfaces: host code provides these (§4.5) */")
        for channel, entries in self.program.interfaces.items():
            info = self.program.channels[channel]
            iface = info.interface_name or channel
            self.out.emit(f"extern int {iface}IsReady(void);")
            for entry_name, pattern in entries.items():
                binders = _count_binders(pattern)
                if info.external == "writer":
                    params = ", ".join(f"esp_val *a{i}" for i in range(binders))
                else:
                    params = ", ".join(f"esp_val a{i}" for i in range(binders))
                params = params or "void"
                self.out.emit(f"extern void {iface}{entry_name}({params});")
        self.out.emit("")

    def _gen_prototypes(self) -> None:
        for proc in self.program.processes:
            self.out.emit(f"static void esp_step_{proc.pid}(void);")
        self.out.emit("static void esp_step(int pid);")
        self.out.emit("static int esp_poll_externals(void);")
        self.out.emit("")

    # ------------------------------------------------------------------ processes

    def _gen_step_function(self, proc: ir.IRProcess) -> None:
        out = self.out
        self.proc = proc
        states = {pc: i + 1 for i, pc in enumerate(proc.state_points())}
        self.states = states
        out.emit(f"/* ==== process {proc.name} (pid {proc.pid}) ==== */")
        out.emit(f"static void esp_step_{proc.pid}(void) {{")
        out.indent += 1
        out.emit(f"esp_proc *self = &esp_procs[{proc.pid}];")
        out.emit("switch (self->pc) {")
        out.emit("    case 0: goto I0;")
        for pc, state in states.items():
            out.emit(f"    case {state}: goto R{state};")
        out.emit("    default: return;")
        out.emit("}")
        for pc, instr in enumerate(proc.instrs):
            out.emit(f"I{pc}: ;")
            out.emit("ESP_ICOUNT();")
            self._gen_instr(pc, instr)
        out.indent -= 1
        out.emit("}")
        out.emit("")

    def _local(self, unique: str) -> str:
        return f"L{self.proc.pid}.{_san(unique)}"

    # -- expressions ----------------------------------------------------------

    def expr(self, e: ast.Expr) -> CExpr:
        if isinstance(e, ast.IntLit):
            return CExpr(str(e.value))
        if isinstance(e, ast.BoolLit):
            return CExpr("1" if e.value else "0")
        if isinstance(e, ast.ProcessId):
            return CExpr(str(self.proc.pid))
        if isinstance(e, ast.Var):
            unique = getattr(e, "unique_name", None)
            if unique is not None:
                return CExpr(self._local(unique), is_ref=_is_agg(e.type))
            const = getattr(e, "const_value", None)
            if const is not None:
                return CExpr(str(int(const)))
            raise ESPError(f"unbound variable {e.name} in C backend", e.span)
        if isinstance(e, ast.Unary):
            operand = self.expr(e.operand)
            op = "!" if e.op == "!" else "-"
            return CExpr(f"({op}({operand.text}))")
        if isinstance(e, ast.Binary):
            left = self.expr(e.left)
            right = self.expr(e.right)
            if e.op in ("/", "%"):
                site = self._site("div", span=e.span)
                fn = "esp_div" if e.op == "/" else "esp_mod"
                return CExpr(f"{fn}({left.text}, {right.text}, {site})")
            if e.op in ("<<", ">>") and not (
                    isinstance(e.right, ast.IntLit) and e.right.value >= 0):
                site = self._site("shift", span=e.span)
                fn = "esp_shl" if e.op == "<<" else "esp_shr"
                return CExpr(f"{fn}({left.text}, {right.text}, {site})")
            return CExpr(f"({left.text} {e.op} {right.text})")
        if isinstance(e, ast.Index):
            return self._index(e)
        if isinstance(e, ast.FieldAccess):
            return self._field(e)
        if isinstance(e, ast.RecordLit):
            return self._alloc_record(e)
        if isinstance(e, ast.UnionLit):
            return self._alloc_union(e)
        if isinstance(e, ast.ArrayLit):
            return self._alloc_array_lit(e)
        if isinstance(e, ast.ArrayFill):
            return self._alloc_array_fill(e)
        if isinstance(e, ast.Cast):
            return self._cast(e)
        raise ESPError(f"unhandled expression {type(e).__name__} in C backend", e.span)

    def _materialize(self, ce: CExpr) -> str:
        """Bind a compiled expression to a temp so it can be reused."""
        temp = self.out.fresh_temp()
        self.out.emit(f"esp_val {temp} = (esp_val)({ce.text});")
        return temp

    def _index(self, e: ast.Index) -> CExpr:
        base = self.expr(e.base)
        index = self.expr(e.index)
        site = self._site("index", span=e.span)
        result_ref = _is_agg(e.type)
        if not base.fresh:
            return CExpr(
                f"esp_index((esp_obj *)({base.text}), {index.text}, {site})",
                is_ref=result_ref,
            )
        b = self._materialize(base)
        v = self.out.fresh_temp()
        self.out.emit(f"esp_val {v} = esp_index((esp_obj *){b}, {index.text}, {site});")
        if result_ref:
            self.out.emit(f"esp_link((esp_obj *){v});")
        self.out.emit(f"esp_unlink((esp_obj *){b});")
        return CExpr(v, fresh=result_ref, is_ref=result_ref)

    def _field(self, e: ast.FieldAccess) -> CExpr:
        base = self.expr(e.base)
        names = e.base.type.field_names()
        k = names.index(e.field_name)
        result_ref = _is_agg(e.type)
        if not base.fresh:
            return CExpr(
                f"(((esp_obj *)({base.text}))->data[{k}])", is_ref=result_ref
            )
        b = self._materialize(base)
        v = self.out.fresh_temp()
        self.out.emit(f"esp_val {v} = ((esp_obj *){b})->data[{k}];")
        if result_ref:
            self.out.emit(f"esp_link((esp_obj *){v});")
        self.out.emit(f"esp_unlink((esp_obj *){b});")
        return CExpr(v, fresh=result_ref, is_ref=result_ref)

    def _refmask(self, item_types: list[Type | None]) -> int:
        mask = 0
        for i, t in enumerate(item_types):
            if _is_agg(t):
                mask |= 1 << i
        return mask

    def _alloc_record(self, e: ast.RecordLit) -> CExpr:
        mask = self._refmask([item.type for item in e.items])
        temp = self.out.fresh_temp()
        self.out.emit(
            f"esp_obj *{temp} = esp_alloc(0, 0, {len(e.items)}, {mask}u);"
        )
        for i, item in enumerate(e.items):
            ce = self.expr(item)
            if ce.is_ref and not ce.fresh:
                v = self._materialize(ce)
                self.out.emit(f"esp_link((esp_obj *){v});")
                self.out.emit(f"{temp}->data[{i}] = {v};")
            else:
                self.out.emit(f"{temp}->data[{i}] = (esp_val)({ce.text});")
        return CExpr(f"((esp_val){temp})", fresh=True, is_ref=True)

    def _alloc_union(self, e: ast.UnionLit) -> CExpr:
        union_type: UnionType = e.type
        tag_index = union_type.tag_index(e.tag)
        mask = 1 if _is_agg(union_type.tag_type(e.tag)) else 0
        temp = self.out.fresh_temp()
        self.out.emit(f"esp_obj *{temp} = esp_alloc(1, {tag_index}, 1, {mask}u);")
        ce = self.expr(e.value)
        if ce.is_ref and not ce.fresh:
            v = self._materialize(ce)
            self.out.emit(f"esp_link((esp_obj *){v});")
            self.out.emit(f"{temp}->data[0] = {v};")
        else:
            self.out.emit(f"{temp}->data[0] = (esp_val)({ce.text});")
        return CExpr(f"((esp_val){temp})", fresh=True, is_ref=True)

    def _alloc_array_lit(self, e: ast.ArrayLit) -> CExpr:
        elem_ref = _is_agg(e.type.element) if isinstance(e.type, ArrayType) else False
        temp = self.out.fresh_temp()
        self.out.emit(
            f"esp_obj *{temp} = esp_alloc(2, 0, {len(e.items)}, "
            f"{1 if elem_ref else 0}u);"
        )
        for i, item in enumerate(e.items):
            ce = self.expr(item)
            if ce.is_ref and not ce.fresh:
                v = self._materialize(ce)
                self.out.emit(f"esp_link((esp_obj *){v});")
                self.out.emit(f"{temp}->data[{i}] = {v};")
            else:
                self.out.emit(f"{temp}->data[{i}] = (esp_val)({ce.text});")
        return CExpr(f"((esp_val){temp})", fresh=True, is_ref=True)

    def _alloc_array_fill(self, e: ast.ArrayFill) -> CExpr:
        elem_ref = _is_agg(e.type.element) if isinstance(e.type, ArrayType) else False
        count = self.expr(e.count)
        n = self.out.fresh_temp()
        self.out.emit(f"intptr_t {n} = {count.text};")
        site = self._site("negsize", span=e.span)
        self.out.emit(
            f"if ({n} < 0 || {n} > {MAX_ARRAY_SIZE}) "
            f"esp_fail_at({site}, (long long){n}, 0, 0);"
        )
        temp = self.out.fresh_temp()
        self.out.emit(
            f"esp_obj *{temp} = esp_alloc(2, 0, (int){n}, {1 if elem_ref else 0}u);"
        )
        fill = self.expr(e.fill)
        f = self._materialize(fill)
        loop_var = self.out.fresh_temp()
        self.out.emit(f"for (intptr_t {loop_var} = 0; {loop_var} < {n}; {loop_var}++) {{")
        if elem_ref:
            fresh = "1" if fill.fresh else "0"
            self.out.emit(
                f"    if (!({fresh} && {loop_var} == 0)) esp_link((esp_obj *){f});"
            )
        self.out.emit(f"    {temp}->data[{loop_var}] = {f};")
        self.out.emit("}")
        if elem_ref and fill.fresh:
            self.out.emit(f"if ({n} == 0) esp_unlink((esp_obj *){f});")
        return CExpr(f"((esp_val){temp})", fresh=True, is_ref=True)

    def _cast(self, e: ast.Cast) -> CExpr:
        operand = self.expr(e.operand)
        src = self._materialize(operand)
        result = self.out.fresh_temp()
        if getattr(e, "elide", False) and not operand.fresh:
            # Reuse when exclusively owned (the interpreter's recursive
            # exclusively_owned test), otherwise copy (flavor is a
            # compile-time property, so nothing else to do at run time).
            self.out.emit(
                f"esp_val {result} = esp_excl((const esp_obj *){src}) ? {src} "
                f": (esp_val)esp_deep_copy((esp_obj *){src});"
            )
            return CExpr(result, fresh=True, is_ref=True)
        self.out.emit(
            f"esp_val {result} = (esp_val)esp_deep_copy((esp_obj *){src});"
        )
        if operand.fresh:
            self.out.emit(f"esp_unlink((esp_obj *){src});")
        return CExpr(result, fresh=True, is_ref=True)

    # -- statements -------------------------------------------------------------

    def _gen_instr(self, pc: int, instr: ir.Instr) -> None:
        out = self.out
        if isinstance(instr, ir.Decl):
            ce = self.expr(instr.expr)
            out.emit(f"{self._local(instr.var)} = (esp_val)({ce.text});")
        elif isinstance(instr, ir.Assign):
            self._gen_assign(instr.target, instr.expr)
        elif isinstance(instr, ir.Match):
            ce = self.expr(instr.expr)
            v = self._materialize(ce)
            self._gen_destructure(instr.pattern, v, link_binders=ce.fresh)
            if ce.fresh and ce.is_ref:
                out.emit(f"esp_unlink((esp_obj *){v});")
        elif isinstance(instr, ir.Jump):
            out.emit(f"goto I{instr.target};")
        elif isinstance(instr, ir.Branch):
            cond = self.expr(instr.cond)
            out.emit(f"if ({cond.text}) goto I{instr.true_target};")
            out.emit(f"goto I{instr.false_target};")
            return
        elif isinstance(instr, ir.In):
            self._gen_in(pc, instr)
            return
        elif isinstance(instr, ir.Out):
            self._gen_out(pc, instr)
            return
        elif isinstance(instr, ir.Alt):
            self._gen_alt(pc, instr)
            return
        elif isinstance(instr, ir.Link):
            ce = self.expr(instr.expr)
            out.emit(f"esp_link((esp_obj *)({ce.text}));")
            if ce.fresh:
                out.emit(f"esp_unlink((esp_obj *)({ce.text}));")
        elif isinstance(instr, ir.Unlink):
            ce = self.expr(instr.expr)
            out.emit(f"esp_unlink((esp_obj *)({ce.text}));")
        elif isinstance(instr, ir.Assert):
            cond = self.expr(instr.cond)
            site = self._site("assert", span=instr.span, proc=self.proc.name)
            out.emit(f"if (!({cond.text})) esp_fail_at({site}, 0, 0, 0);")
        elif isinstance(instr, ir.Print):
            self._gen_print(instr)
        elif isinstance(instr, ir.Nop):
            out.emit(";")
        elif isinstance(instr, ir.Halt):
            out.emit("self->status = ESP_DONE; self->wait_mask = 0; return;")
            return
        else:
            raise ESPError(f"unhandled instruction {type(instr).__name__}")
        if pc + 1 < len(self.proc.instrs):
            pass  # fall through to the next label
        else:
            out.emit("self->status = ESP_DONE; return;")

    def _gen_print(self, instr: ir.Print) -> None:
        """Print mirrors the interpreter arg-by-arg: evaluate, snapshot
        (encode into the event ring under the native build), release a
        fresh aggregate, then count the print.  The standalone build
        keeps the old trace line so byte-level trace comparison with the
        Python engines is unchanged."""
        out = self.out
        trees = [_type_tree(a.type) for a in instr.args]
        site = self._site("print", span=getattr(instr, "span", None),
                          proc=self.proc.name, trees=trees)
        ev = out.fresh_temp()
        out.emit("#ifdef ESP_NATIVE")
        out.emit(f"long long {ev} = esp_ev_begin({site});")
        out.emit("#endif")
        temps = []
        for arg in instr.args:
            ce = self.expr(arg)
            t = self._materialize(ce)
            temps.append(t)
            out.emit("#ifdef ESP_NATIVE")
            out.emit(f"esp_enc_val({t}, {1 if _is_agg(arg.type) else 0});")
            out.emit("#endif")
            if ce.fresh and ce.is_ref:
                out.emit(f"esp_unlink((esp_obj *){t});")
        out.emit("#ifdef ESP_NATIVE")
        out.emit(f"esp_c[6]++; esp_ev_commit({ev});")
        out.emit("#endif")
        if temps:
            parts = " ".join(["%ld"] * len(temps))
            args_s = ", ".join(f"(long)({t})" for t in temps)
            out.emit("#ifndef ESP_NATIVE")
            out.emit(f"ESP_TRACE(\"{self.proc.name}: {parts}\\n\", {args_s});")
            out.emit("#endif")

    def _slot_store(self, target: ast.Expr, value_c: str, fresh_c: str) -> None:
        """Store into an array/record slot the way the interpreter's
        store_into does: evaluate base then index, bounds-check + link +
        unlink-old inside esp_store_slot, then release a fresh base."""
        out = self.out
        base = self.expr(target.base)
        if isinstance(target, ast.Index):
            idx_t = self.expr(target.index).text
        else:
            idx_t = str(target.base.type.field_names().index(target.field_name))
        site = self._site("index", span=target.span)
        if base.fresh:
            b = self._materialize(base)
            out.emit(f"esp_store_slot((esp_obj *){b}, {idx_t}, {value_c}, {fresh_c}, {site});")
            out.emit(f"esp_unlink((esp_obj *){b});")
        else:
            out.emit(f"esp_store_slot((esp_obj *)({base.text}), {idx_t}, {value_c}, {fresh_c}, {site});")

    def _gen_assign(self, target: ast.Expr, value: ast.Expr) -> None:
        out = self.out
        if isinstance(target, ast.Var):
            ce = self.expr(value)
            out.emit(f"{self._local(target.unique_name)} = (esp_val)({ce.text});")
            return
        if isinstance(target, (ast.Index, ast.FieldAccess)):
            ce = self.expr(value)
            v = self._materialize(ce)
            self._slot_store(target, v, "1" if (ce.fresh and ce.is_ref) else "0")
            return
        raise ESPError("invalid assignment target in C backend", target.span)

    # -- destructuring ------------------------------------------------------------

    def _gen_destructure(self, pattern: ast.Pattern, value_c: str,
                         link_binders: bool) -> None:
        """Bind ``pattern`` against the C value expression ``value_c``."""
        out = self.out
        if isinstance(pattern, ast.PBind):
            if link_binders and _is_agg(pattern.type):
                out.emit(f"esp_link((esp_obj *)({value_c}));")
            out.emit(f"{self._local(pattern.unique_name)} = {value_c};")
            return
        if isinstance(pattern, ast.PEq):
            if getattr(pattern, "is_store", False):
                self._gen_store_pattern(pattern.expr, value_c, owned=link_binders)
                return
            expected = self.expr(pattern.expr)
            exp_t = self._materialize(expected)
            is_bool = isinstance(getattr(pattern.expr, "type", None), BoolType)
            site = self._site("match_eq", span=pattern.span, bool=is_bool)
            out.emit(
                f"if (({exp_t}) != ({value_c})) "
                f"esp_fail_at({site}, (long long)({exp_t}), (long long)({value_c}), 0);"
            )
            return
        if isinstance(pattern, ast.PRecord):
            for i, item in enumerate(pattern.items):
                self._gen_destructure(
                    item, f"(((esp_obj *)({value_c}))->data[{i}])", link_binders
                )
            return
        if isinstance(pattern, ast.PUnion):
            union_type: UnionType = pattern.type
            tag_index = union_type.tag_index(pattern.tag)
            site = self._site("match_tag", span=pattern.span, want=pattern.tag,
                              tags=list(union_type.tag_names()))
            out.emit(
                f"if (((esp_obj *)({value_c}))->tag != {tag_index}) "
                f"esp_fail_at({site}, (long long)(((esp_obj *)({value_c}))->tag), 0, 0);"
            )
            self._gen_destructure(
                pattern.value, f"(((esp_obj *)({value_c}))->data[0])", link_binders
            )
            return
        raise ESPError("unhandled pattern in C backend", pattern.span)

    def _gen_store_pattern(self, target: ast.Expr, value_c: str, owned: bool) -> None:
        """A receive-into-lvalue (the FIFO `in(c, Q[tl])` form)."""
        out = self.out
        if isinstance(target, ast.Var):
            if owned and _is_agg(target.type):
                out.emit(f"esp_link((esp_obj *)({value_c}));")
            out.emit(f"{self._local(target.unique_name)} = {value_c};")
            return
        # Slot stores: esp_store_slot treats the value as borrowed and
        # links it, which is the delivery semantics we want.
        if isinstance(target, (ast.Index, ast.FieldAccess)):
            self._slot_store(target, value_c, "0")
            return
        raise ESPError("invalid store pattern in C backend", target.span)

    # -- channel operations ----------------------------------------------------------

    def _chan_bit(self, channel: str) -> int:
        return 1 << self.proc.channel_bits[channel]

    def _gen_in(self, pc: int, instr: ir.In) -> None:
        out = self.out
        state = self.states[pc]
        out.emit(f"self->block_channel = CH_{_san(instr.channel)};")
        out.emit("self->block_is_out = 0; self->block_kind = 1; self->selected_arm = -1;")
        out.emit(f"self->wait_mask = {self._chan_bit(instr.channel)}u;")
        out.emit(f"self->status = ESP_BLOCKED; self->pc = {state}; return;")
        out.emit(f"R{state}: ;")
        out.emit("self->wait_mask = 0;")
        out.emit(f"goto I{pc + 1};")
        self._register_match(state, None, instr.pattern, instr.channel)
        self._register_bind(state, None, instr.pattern, instr.channel)

    def _register_bind(self, state: int, arm: int | None,
                       pattern: ast.Pattern, channel: str) -> None:
        """Generate the delivery-time bind function for one receive site
        (called by the scheduler when the transfer happens, mirroring
        the interpreter's Machine._deliver) and its dispatch case."""
        suffix = f"{self.proc.pid}_{state}" + ("" if arm is None else f"_{arm}")
        name = f"esp_bindf_{suffix}"
        body = _Emitter()
        body.emit(f"static void {name}(void) {{")
        body.indent += 1
        body.emit(f"esp_proc *self = &esp_procs[{self.proc.pid}]; (void)self;")
        saved_out, self.out = self.out, body
        try:
            self._gen_bind_inbox(pattern, channel)
        finally:
            self.out = saved_out
        body.indent -= 1
        body.emit("}")
        self._stagers.append(body.text())
        # Plain in: the pc identifies the site (selected_arm may hold a
        # stale value from an earlier alt). Alt arm: the arm must match.
        cond_arm = "1" if arm is None else f"esp_procs[r].selected_arm == {arm}"
        self._bind_cases.append(
            f"if (r == {self.proc.pid} && esp_procs[r].pc == {state} && "
            f"{cond_arm}) {{ {name}(); return; }}"
        )

    def _gen_bind_inbox(self, pattern: ast.Pattern, channel: str) -> None:
        """Mirror Machine._deliver: the inbox freshmask says per
        component whether the value arrived owned (fresh) or borrowed."""
        out = self.out
        info = self.program.channels[channel]
        if channel in self.fused_channels:
            assert isinstance(pattern, ast.PRecord)
            for i, item in enumerate(pattern.items):
                self._gen_bind_component(
                    item, f"self->inbox[{i}]",
                    f"((self->inbox_freshmask >> {i}) & 1u)",
                )
            return
        msg = out.fresh_temp()
        out.emit(f"esp_val {msg} = self->inbox[0];")
        if _is_agg(info.message_type):
            out.emit(f"if (!(self->inbox_freshmask & 1u)) esp_link((esp_obj *){msg});")
            self._gen_destructure(pattern, msg, link_binders=True)
            out.emit(f"esp_unlink((esp_obj *){msg});")
        else:
            self._gen_destructure(pattern, msg, link_binders=False)

    def _gen_bind_component(self, item: ast.Pattern, comp_c: str,
                            freshbit_c: str) -> None:
        """Bind one fused component (Machine._deliver_component): a
        fresh component arrives owned, a borrowed one needs a link when
        a binder keeps it."""
        out = self.out
        if isinstance(item, ast.PBind):
            if _is_agg(item.type):
                out.emit(f"if (!{freshbit_c}) esp_link((esp_obj *)({comp_c}));")
            out.emit(f"{self._local(item.unique_name)} = {comp_c};")
            return
        if isinstance(item, ast.PEq):
            if getattr(item, "is_store", False):
                target = item.expr
                if isinstance(target, ast.Var):
                    out.emit(f"{self._local(target.unique_name)} = {comp_c};")
                else:
                    self._slot_store(target, comp_c, freshbit_c)
                return
            expected = self.expr(item.expr)
            out.emit(
                f"if (({expected.text}) != ({comp_c})) "
                f"esp_fail(\"fused delivery equality mismatch\");"
            )
            return
        # Nested destructure of an aggregate component.
        temp = self.out.fresh_temp()
        out.emit(f"esp_val {temp} = {comp_c};")
        self._gen_destructure(item, temp, link_binders=True)
        if _is_agg(item.type):
            out.emit(f"if ({freshbit_c}) esp_unlink((esp_obj *){temp});")

    def _gen_out(self, pc: int, instr: ir.Out) -> None:
        out = self.out
        state = self.states[pc]
        self._gen_stage_payload(instr.expr, instr.fused)
        out.emit("self->pending_arm = -1;")
        out.emit(f"self->block_channel = CH_{_san(instr.channel)};")
        out.emit("self->block_is_out = 1; self->block_kind = 2; self->selected_arm = -1;")
        out.emit(f"self->wait_mask = {self._chan_bit(instr.channel)}u;")
        out.emit(f"self->status = ESP_BLOCKED; self->pc = {state}; return;")
        out.emit(f"R{state}: ;")
        out.emit("self->wait_mask = 0;")
        out.emit(f"goto I{pc + 1};")

    def _gen_stage_payload(self, expr: ast.Expr, fused: bool) -> None:
        """Evaluate the message into self->pending without touching any
        refcount (the interpreter holds its payload the same way): the
        freshmask records which components arrived owned, so delivery
        (esp_bind) and unstaging know what to link or drop."""
        out = self.out
        if fused:
            items = expr.items
            out.emit(f"self->pending_n = {len(items)};")
            mask = 0
            fresh_mask = 0
            for i, item in enumerate(items):
                ce = self.expr(item)
                if ce.is_ref:
                    mask |= 1 << i
                    if ce.fresh:
                        fresh_mask |= 1 << i
                out.emit(f"self->pending[{i}] = (esp_val)({ce.text});")
            out.emit(f"self->pending_refmask = {mask}u;")
            out.emit(f"self->pending_freshmask = {fresh_mask}u;")
            return
        ce = self.expr(expr)
        out.emit("self->pending_n = 1;")
        out.emit(f"self->pending[0] = (esp_val)({ce.text});")
        out.emit(f"self->pending_refmask = {1 if ce.is_ref else 0}u;")
        out.emit(f"self->pending_freshmask = {1 if (ce.fresh and ce.is_ref) else 0}u;")

    def _gen_alt(self, pc: int, instr: ir.Alt) -> None:
        out = self.out
        state = self.states[pc]
        out.emit("esp_c[3]++; /* alt_blocks */")
        out.emit("self->arm_enabled = 0; self->wait_mask = 0;")
        for k, arm in enumerate(instr.arms):
            if arm.guard is not None:
                guard = self.expr(arm.guard)
                out.emit(f"if ({guard.text}) {{")
                out.emit(f"    self->arm_enabled |= {1 << k}u;")
                out.emit(f"    self->wait_mask |= {self._chan_bit(arm.channel)}u;")
                out.emit("}")
            else:
                out.emit(f"self->arm_enabled |= {1 << k}u;")
                out.emit(f"self->wait_mask |= {self._chan_bit(arm.channel)}u;")
        site = self._site("altfalse", span=instr.span)
        out.emit(f"if (!self->arm_enabled) esp_fail_at({site}, 0, 0, 0);")
        out.emit("self->selected_arm = -1; self->pending_n = 0; self->block_kind = 3;")
        out.emit(f"self->status = ESP_BLOCKED; self->pc = {state}; return;")
        out.emit(f"R{state}: ;")
        out.emit("self->wait_mask = 0;")
        out.emit("switch (self->selected_arm) {")
        out.indent += 1
        for k, arm in enumerate(instr.arms):
            out.emit(f"case {k}: goto A{state}_{k};")
        out.emit("default: esp_fail(\"alt resumed without selection\");")
        out.indent -= 1
        out.emit("}")
        self._alt_sites.append(
            (self.proc.pid, state, [(arm.kind, arm.channel) for arm in instr.arms])
        )
        for k, arm in enumerate(instr.arms):
            out.emit(f"A{state}_{k}: ;")
            if arm.kind == "in":
                self._register_match(state, k, arm.pattern, arm.channel)
                self._register_bind(state, k, arm.pattern, arm.channel)
            out.emit(f"goto I{arm.body_target};")
            if arm.kind == "out":
                self._register_stager(state, k, arm)

    # -- match functions -----------------------------------------------------------

    def _register_match(self, state: int, arm: int | None,
                        pattern: ast.Pattern, channel: str) -> None:
        """Generate a match function for one receive site and remember
        the dispatch case for esp_match_reader."""
        suffix = f"{self.proc.pid}_{state}" + ("" if arm is None else f"_{arm}")
        name = f"esp_match_{suffix}"
        body = _Emitter()
        body.emit(f"static int {name}(const esp_val *c, int n) {{")
        body.indent += 1
        saved_out, self.out = self.out, body
        try:
            if channel in self.fused_channels:
                assert isinstance(pattern, ast.PRecord)
                body.emit(f"if (n != {len(pattern.items)}) return 0;")
                for i, item in enumerate(pattern.items):
                    self._gen_match_test(item, f"c[{i}]")
            else:
                body.emit("if (n != 1) return 0;")
                self._gen_match_test(pattern, "c[0]")
        finally:
            self.out = saved_out
        body.emit("return 1;")
        body.indent -= 1
        body.emit("}")
        self._stagers.append(body.text())
        arm_c = -1 if arm is None else arm
        self._match_cases.append(
            f"if (r == {self.proc.pid} && esp_procs[r].pc == {state} && "
            f"arm == {arm_c}) return {name}(c, n);"
        )
        self._in_sites.append((channel, pattern, self.proc.pid, state, arm_c))

    def _gen_match_test(self, pattern: ast.Pattern, value_c: str) -> None:
        out = self.out
        if isinstance(pattern, ast.PBind):
            return
        if isinstance(pattern, ast.PEq):
            if getattr(pattern, "is_store", False):
                return
            expected = self.expr(pattern.expr)
            out.emit(f"if (({expected.text}) != ({value_c})) return 0;")
            return
        if isinstance(pattern, ast.PRecord):
            for i, item in enumerate(pattern.items):
                self._gen_match_test(item, f"(((esp_obj *)({value_c}))->data[{i}])")
            return
        if isinstance(pattern, ast.PUnion):
            union_type: UnionType = pattern.type
            tag_index = union_type.tag_index(pattern.tag)
            out.emit(
                f"if (((esp_obj *)({value_c}))->tag != {tag_index}) return 0;"
            )
            self._gen_match_test(pattern.value, f"(((esp_obj *)({value_c}))->data[0])")
            return

    def _register_stager(self, state: int, arm_index: int, arm: ir.AltArm) -> None:
        """Generate the postponed-evaluation stager for an alt out-arm."""
        name = f"esp_stage_{self.proc.pid}_{state}_{arm_index}"
        body = _Emitter()
        body.emit(f"static void {name}(void) {{")
        body.indent += 1
        body.emit(f"esp_proc *self = &esp_procs[{self.proc.pid}];")
        saved_out, self.out = self.out, body
        try:
            self._gen_stage_payload(arm.expr, arm.fused)
        finally:
            self.out = saved_out
        body.emit(f"self->pending_arm = {arm_index};")
        body.indent -= 1
        body.emit("}")
        self._stagers.append(body.text())

    # ------------------------------------------------------------------ glue

    def _gen_dispatch(self) -> None:
        out = self.out
        for chunk in self._stagers:
            out.emit(chunk)
            out.emit("")
        out.emit("static void esp_step(int pid) {")
        out.emit("    switch (pid) {")
        for proc in self.program.processes:
            out.emit(f"    case {proc.pid}: esp_step_{proc.pid}(); break;")
        out.emit("    }")
        out.emit("}")
        out.emit("")

    def _gen_chan_bit(self) -> None:
        out = self.out
        out.emit("static uint32_t esp_chan_bit(int pid, int chan) {")
        out.emit("    switch (pid) {")
        for proc in self.program.processes:
            out.emit(f"    case {proc.pid}:")
            out.emit("        switch (chan) {")
            for channel, bit in proc.channel_bits.items():
                out.emit(f"        case CH_{_san(channel)}: return {1 << bit}u;")
            out.emit("        default: return 0;")
            out.emit("        }")
        out.emit("    }")
        out.emit("    return 0;")
        out.emit("}")
        out.emit("")

    def _gen_out_slots(self) -> None:
        out = self.out
        out.emit("/* out-slot enumeration: slot = -1 for a plain out, or the")
        out.emit("   alt arm index. esp_out_slot_channel returns -1 if inactive. */")
        out.emit("static int esp_out_slot_count(int pid) {")
        out.emit("    esp_proc *self = &esp_procs[pid];")
        out.emit("    if (self->block_is_out && self->selected_arm == -1 && self->pending_arm == -1 && self->pending_n > 0) return 1;")
        out.emit("    switch (pid) {")
        for proc in self.program.processes:
            states = {pc: i + 1 for i, pc in enumerate(proc.state_points())}
            cases = []
            for pc, state in states.items():
                instr = proc.instrs[pc]
                if isinstance(instr, ir.Alt):
                    cases.append((state, len(instr.arms)))
            if cases:
                out.emit(f"    case {proc.pid}:")
                out.emit("        switch (self->pc) {")
                for state, count in cases:
                    out.emit(f"        case {state}: return {count};")
                out.emit("        default: return 0;")
                out.emit("        }")
        out.emit("    default: return 0;")
        out.emit("    }")
        out.emit("}")
        out.emit("")
        out.emit("static int esp_out_slot_channel(int pid, int slot) {")
        out.emit("    esp_proc *self = &esp_procs[pid];")
        out.emit("    if (self->block_is_out && self->pending_arm == -1 && self->pending_n > 0)")
        out.emit("        return slot == 0 ? self->block_channel : -1;")
        out.emit("    switch (pid) {")
        for proc in self.program.processes:
            states = {pc: i + 1 for i, pc in enumerate(proc.state_points())}
            alt_states = [
                (state, proc.instrs[pc])
                for pc, state in states.items()
                if isinstance(proc.instrs[pc], ir.Alt)
            ]
            if not alt_states:
                continue
            out.emit(f"    case {proc.pid}:")
            out.emit("        switch (self->pc) {")
            for state, instr in alt_states:
                out.emit(f"        case {state}:")
                out.emit("            switch (slot) {")
                for k, arm in enumerate(instr.arms):
                    if arm.kind == "out":
                        out.emit(
                            f"            case {k}: return (self->arm_enabled >> {k}) & 1u "
                            f"? CH_{_san(arm.channel)} : -1;"
                        )
                    else:
                        out.emit(f"            case {k}: return -1;")
                out.emit("            default: return -1;")
                out.emit("            }")
            out.emit("        default: return -1;")
            out.emit("        }")
        out.emit("    default: return -1;")
        out.emit("    }")
        out.emit("}")
        out.emit("")

    def _gen_reader_arm_for(self) -> None:
        out = self.out
        out.emit("/* -1: plain in; k>=0: alt in-arm; -2: not waiting on chan */")
        out.emit("static int esp_reader_arm_for(int pid, int chan) {")
        out.emit("    esp_proc *self = &esp_procs[pid];")
        out.emit("    switch (pid) {")
        for proc in self.program.processes:
            states = {pc: i + 1 for i, pc in enumerate(proc.state_points())}
            out.emit(f"    case {proc.pid}:")
            out.emit("        switch (self->pc) {")
            for pc, state in states.items():
                instr = proc.instrs[pc]
                if isinstance(instr, ir.In):
                    out.emit(
                        f"        case {state}: return chan == CH_{_san(instr.channel)} "
                        f"? -1 : -2;"
                    )
                elif isinstance(instr, ir.Alt):
                    out.emit(f"        case {state}:")
                    for k, arm in enumerate(instr.arms):
                        if arm.kind == "in":
                            out.emit(
                                f"            if (chan == CH_{_san(arm.channel)} && "
                                f"((self->arm_enabled >> {k}) & 1u)) return {k};"
                            )
                    out.emit("            return -2;")
            out.emit("        default: return -2;")
            out.emit("        }")
        out.emit("    default: return -2;")
        out.emit("    }")
        out.emit("}")
        out.emit("")

    def _gen_stage_unstage_complete(self) -> None:
        out = self.out
        out.emit("static int esp_stage_out(int pid, int slot) {")
        out.emit("    esp_proc *self = &esp_procs[pid];")
        out.emit("    if (self->block_is_out && self->pending_arm == -1 && self->pending_n > 0) return 1;")
        out.emit("    switch (pid) {")
        for proc in self.program.processes:
            states = {pc: i + 1 for i, pc in enumerate(proc.state_points())}
            alt_states = [
                (state, proc.instrs[pc])
                for pc, state in states.items()
                if isinstance(proc.instrs[pc], ir.Alt)
            ]
            if not alt_states:
                continue
            out.emit(f"    case {proc.pid}:")
            out.emit("        switch (self->pc) {")
            for state, instr in alt_states:
                out.emit(f"        case {state}:")
                out.emit("            switch (slot) {")
                for k, arm in enumerate(instr.arms):
                    if arm.kind == "out":
                        out.emit(
                            f"            case {k}: esp_stage_{proc.pid}_{state}_{k}(); "
                            f"return 1;"
                        )
                out.emit("            default: return 0;")
                out.emit("            }")
            out.emit("        default: return 0;")
            out.emit("        }")
        out.emit("    default: return 0;")
        out.emit("    }")
        out.emit("}")
        out.emit("")
        out.emit("static void esp_unstage_out(int pid, int slot) {")
        out.emit("    esp_proc *self = &esp_procs[pid];")
        out.emit("    (void)slot;")
        out.emit("    if (self->pending_arm != -1) esp_unstage(self);")
        out.emit("}")
        out.emit("")
        out.emit("static void esp_complete_out(int pid, int slot) {")
        out.emit("    esp_proc *self = &esp_procs[pid];")
        out.emit("    (void)slot;")
        out.emit("    /* an alt out-arm resumes into its body via selected_arm;")
        out.emit("       a plain out resumes at the state saved when it blocked */")
        out.emit("    if (self->pending_arm != -1) self->selected_arm = self->pending_arm;")
        out.emit("    self->pending_n = 0; self->pending_refmask = 0;")
        out.emit("    self->pending_freshmask = 0; self->pending_arm = -1;")
        out.emit("    self->block_kind = 0;")
        out.emit("    self->status = ESP_READY;")
        out.emit("}")
        out.emit("")
        out.emit("static void esp_complete_in(int pid, int chan, int arm) {")
        out.emit("    esp_proc *self = &esp_procs[pid];")
        out.emit("    (void)chan;")
        out.emit("    if (arm >= 0) self->selected_arm = arm;")
        out.emit("    self->block_kind = 0;")
        out.emit("    self->status = ESP_READY;")
        out.emit("}")
        out.emit("")

    def _gen_match_reader(self) -> None:
        out = self.out
        out.emit("static int esp_match_reader(int r, int chan, int arm,")
        out.emit("                            const esp_val *c, int n) {")
        out.emit("    (void)chan;")
        for case in self._match_cases:
            out.emit(f"    {case}")
        out.emit("    return 0;")
        out.emit("}")
        out.emit("")

    def _gen_bind_dispatch(self) -> None:
        """The delivery-time bind dispatcher: called once per completed
        transfer with the receiver resumed and its inbox filled."""
        out = self.out
        out.emit("static void esp_bind(int r) {")
        out.emit("    (void)r;")
        for case in self._bind_cases:
            out.emit(f"    {case}")
        out.emit("}")
        out.emit("/* external deliveries are never fused (allocopt), so the")
        out.emit("   one-component bind path is the same dispatcher */")
        out.emit("#define esp_bind_one esp_bind")
        out.emit("")

    # -- externals --------------------------------------------------------------------

    def _gen_poll_externals(self) -> None:
        out = self.out
        out.emit("static int esp_poll_externals(void) {")
        out.indent += 1
        for channel, entries in self.program.interfaces.items():
            info = self.program.channels[channel]
            iface = info.interface_name or channel
            if info.external == "writer":
                self._gen_poll_writer(channel, iface, entries)
            else:
                self._gen_poll_reader(channel, iface, entries)
        out.emit("return 0;")
        out.indent -= 1
        out.emit("}")
        out.emit("")

    def _gen_poll_writer(self, channel: str, iface: str, entries: dict) -> None:
        out = self.out
        cid = f"CH_{_san(channel)}"
        out.emit(f"{{ /* external writer {iface} -> {channel} */")
        out.indent += 1
        out.emit(f"int k = {iface}IsReady();")
        out.emit("if (k > 0) {")
        out.indent += 1
        out.emit("for (int r = 0; r < ESP_NPROC; r++) {")
        out.indent += 1
        out.emit("esp_proc *rp = &esp_procs[r];")
        out.emit(f"if (rp->status != ESP_BLOCKED || !(rp->wait_mask & "
                 f"esp_chan_bit(r, {cid}))) continue;")
        out.emit(f"int arm = esp_reader_arm_for(r, {cid});")
        out.emit("if (arm == -2) continue;")
        for idx, (entry_name, pattern) in enumerate(entries.items(), start=1):
            binders = _count_binders(pattern)
            out.emit(f"if (k == {idx}) {{")
            out.indent += 1
            # Route by static entry/pattern compatibility before touching
            # host state: the fetch function consumes the host's message.
            compatible = [
                f"(r == {pid} && esp_procs[r].pc == {state} && arm == {arm_c})"
                for pid, state, arm_c in self._shape_routes(channel, pattern)
            ]
            cond = " || ".join(compatible) or "0"
            out.emit(f"if (!({cond})) continue;")
            decls = "".join(f"esp_val a{i} = 0; " for i in range(binders))
            if decls:
                out.emit(decls)
            args = ", ".join(f"&a{i}" for i in range(binders)) or ""
            out.emit(f"{iface}{entry_name}({args});")
            # Build the message from the entry pattern.
            builder = _EntryBuilder(self, [f"a{i}" for i in range(binders)])
            msg = builder.build(pattern)
            out.emit("esp_val c0[1];")
            out.emit(f"c0[0] = {msg};")
            if _is_agg(self.program.channels[channel].message_type):
                out.emit(
                    f"if (!esp_match_reader(r, {cid}, arm, c0, 1)) "
                    "{ esp_unlink((esp_obj *)c0[0]); continue; }"
                )
            else:
                out.emit(f"if (!esp_match_reader(r, {cid}, arm, c0, 1)) continue;")
            out.emit("rp->inbox_n = 1; rp->inbox[0] = c0[0];")
            msg_agg = _is_agg(self.program.channels[channel].message_type)
            out.emit(f"rp->inbox_freshmask = {1 if msg_agg else 0}u;")
            out.emit(f"esp_complete_in(r, {cid}, arm);")
            out.emit("esp_bind(r);")
            out.emit("esp_ready_push(r);")
            out.emit("esp_transfers++;")
            out.emit("return 1;")
            out.indent -= 1
            out.emit("}")
        out.indent -= 1
        out.emit("}")
        out.indent -= 1
        out.emit("}")
        out.indent -= 1
        out.emit("}")

    def _shape_routes(self, channel: str, entry: ast.Pattern) -> list:
        """The receive sites ``[pid, state, arm]`` on ``channel`` whose
        pattern a message of interface entry ``entry`` could match."""
        return [[pid, state, arm]
                for site_chan, site_pattern, pid, state, arm in self._in_sites
                if site_chan == channel
                and _patterns_compatible(entry, site_pattern)]

    def _gen_poll_reader(self, channel: str, iface: str, entries: dict) -> None:
        out = self.out
        cid = f"CH_{_san(channel)}"
        out.emit(f"{{ /* external reader {iface} <- {channel} */")
        out.indent += 1
        out.emit(f"if ({iface}IsReady()) {{")
        out.indent += 1
        out.emit("for (int w = 0; w < ESP_NPROC; w++) {")
        out.indent += 1
        out.emit("esp_proc *wp = &esp_procs[w];")
        out.emit("if (wp->status != ESP_BLOCKED) continue;")
        out.emit("int nslots = esp_out_slot_count(w);")
        out.emit("for (int s = 0; s < nslots; s++) {")
        out.indent += 1
        out.emit(f"int chan = esp_out_slot_channel(w, s);")
        out.emit(f"if (chan != {cid}) continue;")
        out.emit("if (!esp_stage_out(w, s)) continue;")
        # Extract + call host entry; entries are tried in order.
        for entry_name, pattern in entries.items():
            extractor = _EntryExtractor(self)
            test, args = extractor.extract(pattern, "wp->pending[0]")
            out.emit(f"if ({test}) {{")
            out.indent += 1
            iface_args = ", ".join(args)
            out.emit(f"{iface}{entry_name}({iface_args});")
            out.emit("esp_unstage(wp);")
            out.emit("esp_complete_out(w, s);")
            out.emit("esp_ready_push(w);")
            out.emit("esp_transfers++;")
            out.emit("return 1;")
            out.indent -= 1
            out.emit("}")
        out.emit("esp_unstage_out(w, s);")
        out.indent -= 1
        out.emit("}")
        out.indent -= 1
        out.emit("}")
        out.indent -= 1
        out.emit("}")
        out.indent -= 1
        out.emit("}")

    # -- native engine tables ------------------------------------------------------

    def _gen_native_tables(self) -> None:
        """Program-specific tables consumed by the native scheduler in
        SCHEDULER_C: channel externality, the plain-out matchability
        check, alt arm enumeration, and the external entry match/build
        functions (the host drives bridges between quanta)."""
        out = self.out
        self._deliver_site = self._site("deliver")
        self._accept_site = self._site("accept")
        out.emit(f"#define ESP_SITE_DELIVER {self._deliver_site}")
        out.emit(f"#define ESP_SITE_ACCEPT {self._accept_site}")
        out.emit("#ifdef ESP_NATIVE")
        vals = []
        for name in self.program.channels:
            ext = self.program.channels[name].external
            vals.append("1" if ext == "writer" else ("2" if ext == "reader" else "0"))
        init = ", ".join(vals) if vals else "0"
        out.emit(f"static const int esp_chan_external[ESP_NCHAN + 1] = {{{init}}};")
        out.emit("")
        self._gen_outcheck()
        self._gen_arm_tables()
        out.emit("static int esp_deliver_match(int r_pid, int chan, int r_arm, esp_val v) {")
        out.emit("    esp_val c0[1]; c0[0] = v;")
        out.emit("    return esp_match_reader(r_pid, chan, r_arm, c0, 1);")
        out.emit("}")
        out.emit("")
        self._gen_accept_match()
        self._gen_entry_build()
        out.emit("#endif /* ESP_NATIVE */")
        out.emit("")

    def _gen_outcheck(self) -> None:
        """interp.out_matchable: when a plain out blocks and no
        receive pattern in the program could ever take the message, the
        Python engines raise immediately; so does the quantum loop."""
        out = self.out
        ports = getattr(self.program.ports, "ports", {})
        out.emit("static void esp_outcheck(int pid) {")
        out.emit("    esp_proc *self = &esp_procs[pid]; (void)self;")
        out.emit("    switch (self->block_channel) {")
        for channel, port_list in ports.items():
            if not port_list or channel not in self.channel_ids:
                continue
            info = self.program.channels[channel]
            exprs = []
            for port in port_list:
                exprs.append(self._port_not_false(port.shape, channel, info))
            site = self._site("outmatch", chan=channel)
            out.emit(f"    case CH_{_san(channel)}:")
            for expr in exprs:
                out.emit(f"        if ({expr}) return;")
            out.emit(f"        esp_fail_at({site}, pid, 0, 0);")
        out.emit("    default: return;")
        out.emit("    }")
        out.emit("}")
        out.emit("")

    def _port_not_false(self, shape, channel: str, info) -> str:
        """One port's verdict is "not definitely False" for the staged
        payload (interp.shape_match compiled to a C condition)."""
        if channel in self.fused_channels:
            mt = info.message_type
            n = len(mt.fields)
            if not isinstance(shape, Rec) or len(shape.items) != n:
                return "0"
            conds = []
            for i, (item, (_, ft)) in enumerate(zip(shape.items, mt.fields)):
                conds.append(self._shape_not_false(item, f"self->pending[{i}]", ft))
            return "(" + " && ".join(conds) + ")"
        return self._shape_not_false(shape, "self->pending[0]", info.message_type)

    def _shape_not_false(self, shape, value_c: str, t) -> str:
        if isinstance(shape, Eq):
            return f"(({value_c}) == {int(shape.value)})"
        if isinstance(shape, Rec):
            if not isinstance(t, RecordType) or len(t.fields) != len(shape.items):
                return "0"
            conds = [f"(((esp_obj *)({value_c}))->kind == 0)",
                     f"(((esp_obj *)({value_c}))->len == {len(shape.items)})"]
            for i, (item, (_, ft)) in enumerate(zip(shape.items, t.fields)):
                conds.append(
                    self._shape_not_false(
                        item, f"(((esp_obj *)({value_c}))->data[{i}])", ft)
                )
            return "(" + " && ".join(conds) + ")"
        if isinstance(shape, Uni):
            if not isinstance(t, UnionType) or shape.tag not in t.tag_names():
                return "0"
            idx = t.tag_index(shape.tag)
            conds = [f"(((esp_obj *)({value_c}))->kind == 1)",
                     f"(((esp_obj *)({value_c}))->tag == {idx})",
                     self._shape_not_false(
                         shape.value, f"(((esp_obj *)({value_c}))->data[0])",
                         t.tag_type(shape.tag))]
            return "(" + " && ".join(conds) + ")"
        return "1"  # Wild / EqUnknown: verdict unknown, never False

    def _gen_arm_tables(self) -> None:
        out = self.out
        by_pid: dict[int, list[tuple[int, list]]] = {}
        for pid, state, arms in self._alt_sites:
            by_pid.setdefault(pid, []).append((state, arms))
        out.emit("static int esp_arm_count(int pid) {")
        out.emit("    switch (pid) {")
        for pid, sites in by_pid.items():
            out.emit(f"    case {pid}:")
            out.emit("        switch (esp_procs[pid].pc) {")
            for state, arms in sites:
                out.emit(f"        case {state}: return {len(arms)};")
            out.emit("        default: return 0;")
            out.emit("        }")
        out.emit("    default: return 0;")
        out.emit("    }")
        out.emit("}")
        out.emit("")
        out.emit("static void esp_arm_info(int pid, int k, int *kind, int *chan, int *en) {")
        out.emit("    *kind = 0; *chan = 0; *en = 0; (void)k;")
        out.emit("    switch (pid) {")
        for pid, sites in by_pid.items():
            out.emit(f"    case {pid}:")
            out.emit("        switch (esp_procs[pid].pc) {")
            for state, arms in sites:
                out.emit(f"        case {state}:")
                out.emit("            switch (k) {")
                for k, (kind, channel) in enumerate(arms):
                    kc = 1 if kind == "out" else 0
                    out.emit(
                        f"            case {k}: *kind = {kc}; "
                        f"*chan = CH_{_san(channel)}; "
                        f"*en = (esp_procs[pid].arm_enabled >> {k}) & 1u; return;"
                    )
                out.emit("            default: return;")
                out.emit("            }")
            out.emit("        default: return;")
            out.emit("        }")
        out.emit("    default: return;")
        out.emit("    }")
        out.emit("}")
        out.emit("")

    def _gen_accept_match(self) -> None:
        """The external-accept match for the native path: find the first
        interface entry (declaration order) the staged payload matches,
        encoding each binder's value into the host buffer on the way."""
        out = self.out
        out.emit("static int esp_accept_match(int chan, const esp_val *p, int n) {")
        out.emit("    (void)n; (void)p;")
        out.emit("    switch (chan) {")
        for channel, entries in self.program.interfaces.items():
            info = self.program.channels[channel]
            if info.external != "reader":
                continue
            out.emit(f"    case CH_{_san(channel)}: {{")
            for idx, (entry_name, pattern) in enumerate(entries.items()):
                tests: list[str] = []
                encs: list[str] = []
                self._accept_walk(pattern, "p[0]", tests, encs)
                cond = " && ".join(tests) or "1"
                out.emit(f"        /* entry {entry_name} */")
                out.emit(f"        if ({cond}) {{")
                for enc in encs:
                    out.emit(f"            {enc}")
                out.emit(f"            return {idx};")
                out.emit("        }")
            out.emit("        return -1;")
            out.emit("    }")
        out.emit("    default: return -1;")
        out.emit("    }")
        out.emit("}")
        out.emit("")

    def _accept_walk(self, pattern: ast.Pattern, value_c: str,
                     tests: list[str], encs: list[str]) -> None:
        if isinstance(pattern, ast.PBind):
            encs.append(
                f"esp_enc_val({value_c}, {1 if _is_agg(pattern.type) else 0});"
            )
            return
        if isinstance(pattern, ast.PEq):
            tests.append(f"(({_const_expr_text(pattern.expr)}) == ({value_c}))")
            return
        if isinstance(pattern, ast.PRecord):
            tests.append(f"(((esp_obj *)({value_c}))->len == {len(pattern.items)})")
            for i, item in enumerate(pattern.items):
                self._accept_walk(
                    item, f"(((esp_obj *)({value_c}))->data[{i}])", tests, encs)
            return
        if isinstance(pattern, ast.PUnion):
            union_type: UnionType = pattern.type
            tag_index = union_type.tag_index(pattern.tag)
            tests.append(f"(((esp_obj *)({value_c}))->tag == {tag_index})")
            self._accept_walk(
                pattern.value, f"(((esp_obj *)({value_c}))->data[0])", tests, encs)
            return
        raise ESPError("unhandled interface pattern in C backend")

    def _gen_entry_build(self) -> None:
        """interp.build_from_pattern for the native path: rebuild an
        external writer entry's message from the host-encoded binder
        values (children before parents, like build_value)."""
        out = self.out
        out.emit("static esp_val esp_entry_build(int chan, int entry_idx,")
        out.emit("                               const long long *enc, int *is_ref) {")
        out.emit("    long long pos = 0; (void)pos; (void)enc;")
        out.emit("    switch (chan) {")
        for channel, entries in self.program.interfaces.items():
            info = self.program.channels[channel]
            if info.external != "writer":
                continue
            out.emit(f"    case CH_{_san(channel)}:")
            out.emit("        switch (entry_idx) {")
            for idx, (entry_name, pattern) in enumerate(entries.items()):
                out.emit(f"        case {idx}: {{ /* entry {entry_name} */")
                body = _Emitter()
                body.indent = 3
                body._temp = 1000 * (self.channel_ids[channel] + 1) + idx
                saved_out, self.out = self.out, body
                try:
                    val, agg = self._build_entry_value(pattern)
                finally:
                    self.out = saved_out
                for line in body.lines:
                    out.emit(line.strip() and line or "")
                out.emit(f"            *is_ref = {1 if agg else 0};")
                out.emit(f"            return (esp_val)({val});")
                out.emit("        }")
            out.emit("        default: break;")
            out.emit("        }")
            out.emit("        break;")
        out.emit("    default: break;")
        out.emit("    }")
        out.emit("    esp_fail(\"unknown interface entry\");")
        out.emit("    return 0;")
        out.emit("}")
        out.emit("")

    def _build_entry_value(self, pattern: ast.Pattern) -> tuple[str, bool]:
        out = self.out
        if isinstance(pattern, ast.PBind):
            t = out.fresh_temp()
            out.emit(f"int r{t} = 0; (void)r{t};")
            out.emit(f"esp_val {t} = esp_dec_val(enc, &pos, &r{t});")
            return t, _is_agg(pattern.type)
        if isinstance(pattern, ast.PEq):
            return _const_expr_text(pattern.expr), False
        if isinstance(pattern, ast.PRecord):
            parts = [self._build_entry_value(item) for item in pattern.items]
            mask = self._refmask([item.type for item in pattern.items])
            t = out.fresh_temp()
            out.emit(f"esp_obj *{t} = esp_alloc(0, 0, {len(parts)}, {mask}u);")
            for i, (txt, _) in enumerate(parts):
                out.emit(f"{t}->data[{i}] = (esp_val)({txt});")
            return f"((esp_val){t})", True
        if isinstance(pattern, ast.PUnion):
            union_type: UnionType = pattern.type
            tag_index = union_type.tag_index(pattern.tag)
            inner, _ = self._build_entry_value(pattern.value)
            mask = 1 if _is_agg(union_type.tag_type(pattern.tag)) else 0
            t = out.fresh_temp()
            out.emit(f"esp_obj *{t} = esp_alloc(1, {tag_index}, 1, {mask}u);")
            out.emit(f"{t}->data[0] = (esp_val)({inner});")
            return f"((esp_val){t})", True
        raise ESPError("unhandled interface pattern in C backend")

    # -- init / main ------------------------------------------------------------------

    def _gen_init(self) -> None:
        out = self.out
        out.emit("void esp_init(void) {")
        out.emit("    for (int i = 0; i < ESP_NPROC; i++) {")
        out.emit("        memset(&esp_procs[i], 0, sizeof(esp_proc));")
        out.emit("        esp_procs[i].selected_arm = -1;")
        out.emit("        esp_procs[i].pending_arm = -1;")
        out.emit("        esp_ready_push(i);")
        out.emit("    }")
        out.emit("}")
        out.emit("")
        out.emit("#ifndef ESP_NATIVE")
        out.emit("void esp_run(int max_polls) { esp_main_loop(max_polls); }")
        out.emit("#endif")
        out.emit("")

    def _gen_main(self) -> None:
        out = self.out
        out.emit("#ifdef ESP_STANDALONE")
        out.emit("int main(void) {")
        out.emit("    esp_init();")
        out.emit("    esp_run(-1);")
        out.emit("    return 0;")
        out.emit("}")
        out.emit("#endif")


class _EntryBuilder:
    """Builds C code constructing a message from an interface entry
    pattern and fetched binder args (external writer delivery)."""

    def __init__(self, gen: CCodegen, arg_names: list[str]):
        self.gen = gen
        self.args = iter(arg_names)

    def build(self, pattern: ast.Pattern) -> str:
        out = self.gen.out
        if isinstance(pattern, ast.PBind):
            return next(self.args)
        if isinstance(pattern, ast.PEq):
            ce_text = _const_expr_text(pattern.expr)
            return ce_text
        if isinstance(pattern, ast.PRecord):
            mask = 0
            for i, item in enumerate(pattern.items):
                if _is_agg(item.type):
                    mask |= 1 << i
            temp = out.fresh_temp()
            out.emit(f"esp_obj *{temp} = esp_alloc(0, 0, {len(pattern.items)}, {mask}u);")
            for i, item in enumerate(pattern.items):
                out.emit(f"{temp}->data[{i}] = (esp_val)({self.build(item)});")
            return f"((esp_val){temp})"
        if isinstance(pattern, ast.PUnion):
            union_type: UnionType = pattern.type
            tag_index = union_type.tag_index(pattern.tag)
            mask = 1 if _is_agg(union_type.tag_type(pattern.tag)) else 0
            temp = out.fresh_temp()
            out.emit(f"esp_obj *{temp} = esp_alloc(1, {tag_index}, 1, {mask}u);")
            out.emit(f"{temp}->data[0] = (esp_val)({self.build(pattern.value)});")
            return f"((esp_val){temp})"
        raise ESPError("unhandled interface pattern in C backend")


class _EntryExtractor:
    """Builds the match test + binder extraction for an external reader
    entry (ESP → host)."""

    def __init__(self, gen: CCodegen):
        self.gen = gen

    def extract(self, pattern: ast.Pattern, value_c: str) -> tuple[str, list[str]]:
        tests: list[str] = []
        args: list[str] = []
        self._walk(pattern, value_c, tests, args)
        return (" && ".join(tests) or "1", args)

    def _walk(self, pattern: ast.Pattern, value_c: str,
              tests: list[str], args: list[str]) -> None:
        if isinstance(pattern, ast.PBind):
            args.append(value_c)
            return
        if isinstance(pattern, ast.PEq):
            tests.append(f"(({_const_expr_text(pattern.expr)}) == ({value_c}))")
            return
        if isinstance(pattern, ast.PRecord):
            for i, item in enumerate(pattern.items):
                self._walk(item, f"(((esp_obj *)({value_c}))->data[{i}])", tests, args)
            return
        if isinstance(pattern, ast.PUnion):
            union_type: UnionType = pattern.type
            tag_index = union_type.tag_index(pattern.tag)
            tests.append(f"(((esp_obj *)({value_c}))->tag == {tag_index})")
            self._walk(pattern.value, f"(((esp_obj *)({value_c}))->data[0])",
                       tests, args)
            return


def _const_expr_text(e: ast.Expr) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.BoolLit):
        return "1" if e.value else "0"
    if isinstance(e, ast.Var):
        const = getattr(e, "const_value", None)
        if const is not None:
            return str(int(const))
    raise ESPError("interface patterns may only use binders and constants")


def _count_binders(pattern: ast.Pattern) -> int:
    if isinstance(pattern, ast.PBind):
        return 1
    if isinstance(pattern, ast.PEq):
        return 0
    if isinstance(pattern, ast.PRecord):
        return sum(_count_binders(i) for i in pattern.items)
    if isinstance(pattern, ast.PUnion):
        return _count_binders(pattern.value)
    return 0


def _type_tree(t: Type | None) -> dict:
    """A JSON-able description of a type, used by the native host to
    decode event-ring payloads and encode external arguments."""
    if isinstance(t, RecordType):
        return {"k": "record", "s": str(t),
                "fields": [_type_tree(ft) for _, ft in t.fields]}
    if isinstance(t, UnionType):
        return {"k": "union", "s": str(t),
                "tags": [[name, _type_tree(t.tag_type(name))]
                         for name in t.tag_names()]}
    if isinstance(t, ArrayType):
        return {"k": "array", "s": str(t), "elem": _type_tree(t.element)}
    if isinstance(t, BoolType):
        return {"k": "bool", "s": str(t)}
    return {"k": "int", "s": str(t) if t is not None else "int"}


def _collect_binders(pattern: ast.Pattern, acc: list[dict]) -> None:
    """Binder names/spans/types of an interface entry pattern, in the
    depth-first order both engines pass arguments in."""
    if isinstance(pattern, ast.PBind):
        acc.append({
            "name": pattern.name,
            "span": getattr(pattern, "span", None),
            "tree": _type_tree(pattern.type),
        })
    elif isinstance(pattern, ast.PRecord):
        for item in pattern.items:
            _collect_binders(item, acc)
    elif isinstance(pattern, ast.PUnion):
        _collect_binders(pattern.value, acc)


def generate_c(program: ir.IRProgram, emit_main: bool = False) -> str:
    """Generate the whole-program C file for ``program``."""
    return CCodegen(program, emit_main=emit_main).generate()


def generate_native(program: ir.IRProgram) -> tuple[str, dict]:
    """Generate the native-engine C file plus the host manifest (names,
    interface layouts, error/print sites) needed to mirror the Python
    engines' observable behaviour from the loaded shared object."""
    gen = CCodegen(program, emit_main=False)
    source = gen.generate()
    return source, gen.manifest()
