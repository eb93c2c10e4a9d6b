"""Unit and integration tests for the ESP runtime (heap, interpreter,
scheduler, external bridges)."""

import pytest

from repro import (
    CollectorReader,
    Machine,
    OptLevel,
    QueueWriter,
    Scheduler,
    compile_source,
)
from repro.api import compile_source_with_stats
from repro.backends.c.build import find_cc
from repro.errors import AssertionFailure, ESPRuntimeError, MemorySafetyError
from repro.ir import nodes as ir
from repro.runtime.compile import CompiledBoundary
from repro.runtime.interp import Status
from repro.runtime.machine import create_machine
from repro.runtime.scheduler import create_scheduler
from repro.vmmc.firmware_esp import compile_vmmc_esp


def run_source(src, externals=None, policy="stack", max_objects=None, **kw):
    prog = compile_source(src, **kw)
    machine = Machine(prog, externals=externals or {}, max_objects=max_objects)
    result = Scheduler(machine, policy=policy).run()
    return machine, result


# -- basic execution -----------------------------------------------------------


def test_two_process_pipeline():
    src = """
channel c: int
channel outC: int
external interface drain(in outC) { D($v) };
process producer { $i = 0; while (i < 5) { out( c, i * i); i = i + 1; } }
process consumer { while (true) { in( c, $x); out( outC, x); } }
"""
    drain = CollectorReader(["D"])
    machine, result = run_source(src, {"outC": drain})
    assert [args[0] for _, args in drain.received] == [0, 1, 4, 9, 16]
    assert machine.processes[0].status is Status.DONE


def test_print_collects_output():
    src = "channel c: int process p { print(1 + 2, true); } process q { in( c, $x); print(x); }"
    machine, result = run_source(src)
    assert ("p", [3, True]) in machine.prints


def test_if_else_and_while():
    src = """
channel outC: int
external interface drain(in outC) { D($v) };
process p {
    $total = 0;
    $i = 0;
    while (i < 10) {
        if (i % 2 == 0) { total = total + i; } else { skip; }
        i = i + 1;
    }
    out( outC, total);
}
"""
    drain = CollectorReader(["D"])
    machine, _ = run_source(src, {"outC": drain})
    assert drain.received == [("D", (20,))]


def test_break_exits_loop():
    src = """
channel outC: int
external interface drain(in outC) { D($v) };
process p {
    $i = 0;
    while (true) { if (i == 3) { break; } i = i + 1; }
    out( outC, i);
}
"""
    drain = CollectorReader(["D"])
    run_source(src, {"outC": drain})
    assert drain.received == [("D", (3,))]


def test_division_by_zero_raises():
    src = "channel c: int process p { $x = 0; print(1 / x); } process q { in( c, $y); print(y); }"
    with pytest.raises(ESPRuntimeError, match="division by zero"):
        run_source(src)


def test_array_out_of_bounds_raises():
    src = "channel c: int process p { $a = #{ 2 -> 0 }; print(a[5]); } process q { in( c, $x); print(x); }"
    with pytest.raises(ESPRuntimeError, match="out of bounds"):
        run_source(src)


def test_assert_failure_raises():
    src = "channel c: int process p { assert(1 > 2); } process q { in( c, $x); print(x); }"
    with pytest.raises(AssertionFailure):
        run_source(src)


# -- pattern dispatch ----------------------------------------------------------


DISPATCH_SRC = """
type sendT = record of { dest: int, size: int }
type userT = union of { send: sendT, update: int }
channel userC: userT
channel sendOutC: int
channel updOutC: int
external interface user(out userC) {
    Send({ send |> { $dest, $size }}),
    Update({ update |> $v })
};
external interface sendDrain(in sendOutC) { S($v) };
external interface updDrain(in updOutC) { U($v) };
process sender { while (true) { in( userC, { send |> { $d, $s }}); out( sendOutC, d + s); } }
process updater { while (true) { in( userC, { update |> $v }); out( updOutC, v); } }
"""


def test_union_dispatch_routes_to_correct_process():
    user = QueueWriter(["Send", "Update"])
    s, u = CollectorReader(["S"]), CollectorReader(["U"])
    user.post("Update", 7)
    user.post("Send", 1, 2)
    user.post("Update", 9)
    run_source(DISPATCH_SRC, {"userC": user, "sendOutC": s, "updOutC": u})
    assert s.received == [("S", (3,))]
    assert u.received == [("U", (7,)), ("U", (9,))]


def test_pid_reply_routing():
    src = """
channel reqC: record of { ret: int, v: int }
channel repC: record of { ret: int, v: int }
channel outC: record of { who: int, v: int }
external interface drain(in outC) { D($who, $v) };
process server { while (true) { in( reqC, { $ret, $v }); out( repC, { ret, v * 10 }); } }
process a { out( reqC, { @, 1 }); in( repC, { @, $r }); out( outC, { @, r }); }
process b { out( reqC, { @, 2 }); in( repC, { @, $r }); out( outC, { @, r }); }
"""
    drain = CollectorReader(["D"])
    machine, _ = run_source(src, {"outC": drain}, policy="random")
    got = {args for _, args in drain.received}
    a_pid = machine.program.process("a").pid
    b_pid = machine.program.process("b").pid
    assert got == {(a_pid, 10), (b_pid, 20)}


def test_unmatched_message_raises():
    src = """
channel c: record of { tag: int, v: int }
process p { out( c, { 99, 1 }); }
process q { in( c, { 0, $v }); print(v); }
"""
    with pytest.raises(ESPRuntimeError, match="matches no receive pattern"):
        run_source(src)


# -- the §4.2 check the compiler discharges ----------------------------------------


def _out_sites(program) -> list:
    return [(proc.name, instr) for proc in program.processes
            for instr in proc.instrs if isinstance(instr, ir.Out)]


def _kept_out_checks(program) -> list:
    """(process, channel) of every ``out`` whose §4.2 check the compiled
    engine keeps."""
    boundary = CompiledBoundary(program)
    return [(name, instr.channel) for name, instr in _out_sites(program)
            if boundary.out_check(instr) is not None]


def test_vmmc_discharges_every_out_check_but_the_page_table_reply():
    program = compile_vmmc_esp()
    assert len(_out_sites(program)) == 12
    # The reply's port { @, $pAddr } holds an equality on the pid.
    assert _kept_out_checks(program) == [("pageTable", "ptReplyC")]


@pytest.mark.parametrize("engine", ["compiled", "ast", "native"])
def test_unmatched_message_is_the_same_error_on_every_engine(engine):
    if engine == "native" and find_cc() is None:
        pytest.skip("no C compiler available")
    src = """
channel c: record of { tag: int, v: int }
process p { out( c, { 99, 1 }); }
process q { in( c, { 0, $v }); print(v); }
"""
    program = compile_source(src)
    assert _kept_out_checks(program) == [("p", "c")]
    machine = create_machine(program, engine=engine)
    with pytest.raises(ESPRuntimeError) as err:
        create_scheduler(machine).run()
    assert err.value.message == (
        "message sent by 'p' on channel 'c' matches no receive pattern")


def test_out_of_a_record_variable_keeps_its_check():
    # Both sends match the nested all-binder port, but only the literal
    # shows it without reading the heap.
    src = """
type innerT = record of { a: int, b: int }
type msgT = record of { t: int, body: innerT }
channel c: msgT
process p { $m: msgT = { 1, { 2, 3 }}; out( c, m); out( c, { 4, { 5, 6 }}); }
process q { while { in( c, { $t, { $a, $b }}); print(t + a + b); } }
"""
    assert _kept_out_checks(compile_source(src)) == [("p", "c")]
    machine, result = run_source(src)
    assert [values for _, values in machine.prints] == [[6], [15]]


# -- alt ------------------------------------------------------------------------


def test_fifo_queue_with_alt():
    src = """
const N = 4;
channel inC: int
channel outC: int
external interface feed(out inC) { F($v) };
external interface drain(in outC) { D($v) };
process fifo {
    $q: #array of int = #{ N -> 0 };
    $hd = 0; $tl = 0; $count = 0;
    while {
        alt {
            case( count < N, in( inC, q[tl % N])) { tl = tl + 1; count = count + 1; }
            case( count > 0, out( outC, q[hd % N])) { hd = hd + 1; count = count - 1; }
        }
    }
}
"""
    feed = QueueWriter(["F"])
    drain = CollectorReader(["D"])
    for v in range(10):
        feed.post("F", v)
    run_source(src, {"inC": feed, "outC": drain})
    assert [args[0] for _, args in drain.received] == list(range(10))


def test_alt_guard_false_branch_disabled():
    src = """
channel aC: int
channel bC: int
channel outC: int
external interface feedA(out aC) { A($v) };
external interface feedB(out bC) { B($v) };
external interface drain(in outC) { D($v) };
process p {
    $enabled = false;
    while (true) {
        alt {
            case( enabled, in( aC, $x)) { out( outC, x); }
            case( in( bC, $y)) { out( outC, y + 100); enabled = true; }
        }
    }
}
"""
    fa, fb = QueueWriter(["A"]), QueueWriter(["B"])
    drain = CollectorReader(["D"])
    fa.post("A", 1)
    fb.post("B", 2)
    machine, _ = run_source(src, {"aC": fa, "bC": fb, "outC": drain})
    # B must be consumed first (A guard is false); then A is enabled.
    assert [args[0] for _, args in drain.received] == [102, 1]


def test_alt_all_guards_false_raises():
    src = """
channel aC: int
process p { alt { case( false, in( aC, $x)) { print(x); } } }
process q { out( aC, 1); }
"""
    with pytest.raises(ESPRuntimeError, match="every guard false"):
        run_source(src)


# -- memory management -------------------------------------------------------------


MEM_PRELUDE = """
type dataT = array of int
channel dataC: dataT
channel doneC: int
external interface drain(in doneC) { D($v) };
"""


def test_message_passing_refcounts_balance():
    src = MEM_PRELUDE + """
process producer {
    $d: dataT = { 4 -> 7 };
    out( dataC, d);
    unlink( d);
    out( doneC, 1);
}
process consumer { in( dataC, $x); unlink( x); out( doneC, 2); }
"""
    machine, _ = run_source(src, {"doneC": CollectorReader(["D"])})
    assert machine.heap.live_count() == 0


def test_double_free_detected_at_runtime():
    src = MEM_PRELUDE + """
process producer { $d: dataT = { 4 -> 7 }; unlink( d); unlink( d); }
process consumer { in( dataC, $x); unlink( x); }
"""
    with pytest.raises(MemorySafetyError, match="double free|use after free"):
        run_source(src, {"doneC": CollectorReader(["D"])})


def test_use_after_free_detected():
    src = MEM_PRELUDE + """
process producer { $d: dataT = { 4 -> 7 }; unlink( d); print(d[0]); }
process consumer { in( dataC, $x); unlink( x); }
"""
    with pytest.raises(MemorySafetyError, match="use after free"):
        run_source(src, {"doneC": CollectorReader(["D"])})


def test_link_keeps_object_alive():
    src = MEM_PRELUDE + """
process producer {
    $d: dataT = { 4 -> 7 };
    link( d);
    unlink( d);
    out( doneC, d[0]);
    unlink( d);
}
process consumer { in( dataC, $x); unlink( x); }
"""
    drain = CollectorReader(["D"])
    machine, _ = run_source(src, {"doneC": drain})
    assert drain.received == [("D", (7,))]
    assert machine.heap.live_count() == 0


def test_bounded_object_table_flags_leaks():
    src = MEM_PRELUDE + """
process producer {
    $i = 0;
    $total = 0;
    while (i < 100) { $d: dataT = { 2 -> 0 }; total = total + d[0]; i = i + 1; }
    out( doneC, total);
}
process consumer { in( dataC, $x); unlink( x); }
"""
    with pytest.raises(MemorySafetyError, match="object table exhausted"):
        run_source(src, {"doneC": CollectorReader(["D"])}, max_objects=8)


def test_dead_allocation_is_optimized_away_not_leaked():
    # The same leaking loop, but the allocation is dead: DCE removes it
    # (§6.1), so the bounded object table never trips.
    src = MEM_PRELUDE + """
process producer {
    $i = 0;
    while (i < 100) { $d: dataT = { 2 -> 0 }; i = i + 1; }
    out( doneC, i);
}
process consumer { in( dataC, $x); unlink( x); }
"""
    machine, _ = run_source(src, {"doneC": CollectorReader(["D"])}, max_objects=8)
    assert machine.heap.live_count() == 0


def test_nested_structure_recursive_free():
    src = """
type dataT = array of int
type wrapT = record of { id: int, data: dataT }
channel wrapC: wrapT
channel doneC: int
external interface drain(in doneC) { D($v) };
process producer {
    out( wrapC, { 1, { 3 -> 9 } });
    out( doneC, 0);
}
process consumer { in( wrapC, { $id, $d }); out( doneC, d[0] + id); unlink( d); }
"""
    drain = CollectorReader(["D"])
    machine, _ = run_source(src, {"doneC": drain})
    assert ("D", (10,)) in drain.received
    assert machine.heap.live_count() == 0


def test_cast_produces_independent_copy():
    src = """
channel doneC: record of { a: int, b: int }
external interface drain(in doneC) { D($a, $b) };
process p {
    $m = #{ 2 -> 5 };
    $frozen = cast(m);
    m[0] = 99;
    out( doneC, { m[0], frozen[0] });
    unlink( m); unlink( frozen);
}
"""
    drain = CollectorReader(["D"])
    machine, _ = run_source(src, {"doneC": drain})
    assert drain.received == [("D", (99, 5))]
    assert machine.heap.live_count() == 0


def test_mutable_array_shared_alias_semantics():
    src = """
channel doneC: record of { a: int, b: int }
external interface drain(in doneC) { D($a, $b) };
process p {
    $a1 = #{ 4 -> 0 };
    $a2 = a1;
    a2[3] = 7;
    out( doneC, { a1[3], a2[3] });
    unlink( a1);
}
"""
    drain = CollectorReader(["D"])
    machine, _ = run_source(src, {"doneC": drain})
    assert drain.received == [("D", (7, 7))]
    assert machine.heap.live_count() == 0


def test_match_statement_destructure_paper_example():
    src = """
type sendT = record of { dest: int, vAddr: int, size: int }
type userT = union of { send: sendT, update: int }
channel doneC: record of { a: int, b: int, c: int }
external interface drain(in doneC) { D($a, $b, $c) };
process p {
    $sr: sendT = { 7, 54677, 1024 };
    $ur1: userT = { send |> sr };
    $ur2: userT = { send |> { 5, 10000, 512 } };
    { send |> { $dest, $vAddr, $size }}: userT = ur2;
    out( doneC, { dest, vAddr, size });
    unlink( ur1);
    unlink( ur2);
    unlink( sr);
}
"""
    drain = CollectorReader(["D"])
    machine, _ = run_source(src, {"doneC": drain})
    assert drain.received == [("D", (5, 10000, 512))]
    # unlink(ur1) drops sr's embedding reference; unlink(sr) drops the
    # allocation reference — everything reclaimed.
    assert machine.heap.live_count() == 0


# -- scheduling policies ------------------------------------------------------------


@pytest.mark.parametrize("policy", ["stack", "fifo", "random"])
def test_all_policies_produce_same_multiset(policy):
    src = """
channel c: int
channel outC: int
external interface drain(in outC) { D($v) };
process p1 { out( c, 1); out( c, 2); }
process p2 { out( c, 3); }
process consumer { while (true) { in( c, $x); out( outC, x); } }
"""
    drain = CollectorReader(["D"])
    run_source(src, {"outC": drain}, policy=policy)
    assert sorted(args[0] for _, args in drain.received) == [1, 2, 3]


def test_context_switch_counting():
    src = "channel c: int process p { out( c, 1); } process q { in( c, $x); print(x); }"
    machine, _ = run_source(src)
    assert machine.counters.context_switches >= 2
    assert machine.counters.transfers == 1


def test_scheduler_limit_stops_early():
    src = """
channel ping: int
channel pong: int
process a { $i = 0; while (true) { out( ping, i); in( pong, $x); i = x; } }
process b { while (true) { in( ping, $y); out( pong, y + 1); } }
"""
    prog = compile_source(src)
    machine = Machine(prog)
    result = Scheduler(machine).run(max_transfers=10)
    assert result.reason == "limit"
    assert result.transfers == 10


# -- optimization levels produce identical behaviour ----------------------------------


def test_opt_levels_agree():
    src = DISPATCH_SRC
    results = []
    for level in (OptLevel.NONE, OptLevel.FULL):
        user = QueueWriter(["Send", "Update"])
        s, u = CollectorReader(["S"]), CollectorReader(["U"])
        user.post("Send", 4, 6)
        user.post("Update", 5)
        prog = compile_source(src, opt_level=level)
        machine = Machine(prog, externals={"userC": user, "sendOutC": s, "updOutC": u})
        Scheduler(machine).run()
        results.append((s.received, u.received))
    assert results[0] == results[1]


def test_optimizer_reports_stats():
    src = """
const K = 10;
channel outC: int
external interface drain(in outC) { D($v) };
process p {
    $a = K * 2;
    $b = a;
    $unused = 123;
    out( outC, b + 1);
}
"""
    prog, stats, _front = compile_source_with_stats(src)
    assert stats.folds >= 1
    assert stats.copies_propagated >= 1
    assert stats.dead_removed >= 1


def test_stack_policy_prevents_starvation():
    # Two producers compete for one consumer forever; §4.2 requires the
    # selection to prevent starvation, so both streams must progress.
    src = """
channel c: int
channel outC: int
external interface drain(in outC) { D($v) };
process fast { $i = 0; while (i < 40) { out( c, 1); i = i + 1; } }
process slow { $j = 0; while (j < 5) { out( c, 2); j = j + 1; } }
process consumer { while (true) { in( c, $x); out( outC, x); } }
"""
    drain = CollectorReader(["D"])
    machine, result = run_source(src, {"outC": drain}, policy="stack")
    values = [args[0] for _, args in drain.received]
    assert values.count(2) == 5  # the slow producer was fully served
    # ... and it did not have to wait for the fast one to finish.
    first_slow = values.index(2)
    assert first_slow < values.count(1)
