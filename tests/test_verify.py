"""Tests for the model-checking verifier (explorer, bit-state,
simulation, memory safety, environments)."""

import pytest

from repro import compile_source
from repro.runtime.machine import Machine
from repro.verify import (
    BitstateExplorer,
    ChoiceWriter,
    Explorer,
    ScriptWriter,
    SinkReader,
    Simulator,
    canonical_state,
    enumerate_values,
    format_trace,
    max_live_objects,
    refcounts_match_references,
    verify_process,
)
from repro.lang.types import ArrayType, BOOL, INT, RecordType, UnionType


# -- value enumeration ---------------------------------------------------------


def test_enumerate_ints_and_bools():
    assert enumerate_values(INT) == [0, 1]
    assert enumerate_values(BOOL) == [False, True]


def test_enumerate_record_product():
    t = RecordType((("a", INT), ("b", BOOL)))
    values = enumerate_values(t)
    assert (0, False) in values and (1, True) in values
    assert len(values) == 4


def test_enumerate_union_all_tags():
    t = UnionType((("x", INT), ("y", BOOL)))
    values = enumerate_values(t)
    tags = {tag for tag, _ in values}
    assert tags == {"x", "y"}


def test_enumerate_array_sizes():
    t = ArrayType(INT)
    values = enumerate_values(t, array_sizes=(2,))
    assert [0, 0] in values and [1, 1] in values


def test_enumerate_respects_limit():
    t = ArrayType(INT)
    values = enumerate_values(t, int_domain=(0, 1, 2), array_sizes=(4,), limit=10)
    assert len(values) == 10


# -- canonical states -----------------------------------------------------------


def test_canonical_state_ignores_allocation_order():
    src = """
channel c: int
channel outC: int
external interface drain(in outC) { D($v) };
process p {
    $i = 0;
    while (true) {
        $d = #{ 2 -> i };
        out( outC, d[0]);
        unlink( d);
        i = 0;
    }
}
process q { in( c, $x); print(x); }
"""
    prog = compile_source(src)
    machine = Machine(prog, externals={"outC": SinkReader(["D"])})
    machine.run_ready()
    s0 = canonical_state(machine)
    # One loop iteration: allocate, send, free. Raw oids differ, the
    # canonical state must not.
    moves = machine.enabled_moves()
    machine.apply(moves[0])
    machine.run_ready()
    s1 = canonical_state(machine)
    assert s0 == s1


# -- exhaustive exploration -------------------------------------------------------


def test_deadlock_detected_with_trace():
    src = """
channel aToB: int
channel bToA: int
process a { out( aToB, 1); in( bToA, $x); print(x); }
process b { out( bToA, 2); in( aToB, $y); print(y); }
"""
    machine = Machine(compile_source(src))
    result = Explorer(machine, quiescence_ok=False).explore()
    assert not result.ok
    assert result.violations[0].kind == "deadlock"


def test_deadlock_free_pair_verifies_clean():
    src = """
channel aToB: int
channel bToA: int
process a { out( aToB, 1); in( bToA, $x); print(x); }
process b { in( aToB, $y); out( bToA, y + 1); }
"""
    machine = Machine(compile_source(src))
    result = Explorer(machine, quiescence_ok=False).explore()
    assert result.ok
    assert result.complete


def test_assertion_violation_found_with_counterexample():
    src = """
channel c: record of { who: int, v: int }
channel dC: int
external interface feed(out c) { F($who, $v) };
process p { in( c, { 0, $v }); assert( v < 2); print(v); }
process q { in( c, { 1, $v }); print(v); }
"""
    prog = compile_source(src)
    env = ChoiceWriter(["F"], [("F", (0, 1)), ("F", (0, 2)), ("F", (1, 5))])
    machine = Machine(prog, externals={"c": env})
    result = Explorer(machine).explore()
    assert not result.ok
    v = result.violations[0]
    assert v.kind == "assertion"
    assert v.trace  # counterexample present
    assert "F" in format_trace(v)


def test_initial_state_violation_reported():
    # The assertion fails while the machine settles into its initial
    # state: depth 0, nothing to replay.
    src = """
channel c: int
process p { assert( 1 == 2); out( c, 0); }
process q { in( c, $x); }
"""
    result = Explorer(Machine(compile_source(src))).explore()
    assert not result.ok
    v = result.violations[0]
    assert (v.kind, v.depth, v.trace) == ("assertion", 0, [])


def test_exploration_visits_all_interleavings():
    # Two independent senders to one alt-reader: both orders explored.
    src = """
channel aC: int
channel bC: int
channel outC: int
external interface drain(in outC) { D($v) };
process pa { out( aC, 1); }
process pb { out( bC, 2); }
process merge {
    $n = 0;
    while (n < 2) {
        alt {
            case( in( aC, $x)) { out( outC, x); }
            case( in( bC, $y)) { out( outC, y); }
        }
        n = n + 1;
    }
}
"""
    machine = Machine(compile_source(src), externals={"outC": SinkReader(["D"])})
    result = Explorer(machine, quiescence_ok=True).explore()
    assert result.ok
    # at least: initial, after-a-first, after-b-first, and joins
    assert result.states >= 5
    assert result.transitions > result.states - 1  # diamond merges exist


def test_invariant_checked_in_every_state():
    src = """
channel c: int
channel outC: int
external interface feed(out c) { F($v) };
external interface drain(in outC) { D($v) };
process p {
    while (true) {
        in( c, $x);
        $d = #{ 4 -> x };
        out( outC, d[0]);
        unlink( d);
    }
}
"""
    env = ChoiceWriter(["F"], [("F", (1,))])
    machine = Machine(compile_source(src),
                      externals={"c": env, "outC": SinkReader(["D"])})
    ok_result = Explorer(machine, invariants=[max_live_objects(3)]).explore()
    assert ok_result.ok

    machine2 = Machine(compile_source(src),
                       externals={"c": ChoiceWriter(["F"], [("F", (1,))]),
                                  "outC": SinkReader(["D"])})
    bad_result = Explorer(machine2, invariants=[max_live_objects(0)]).explore()
    assert not bad_result.ok
    assert bad_result.violations[0].kind == "invariant"


PRODUCE_TWO = """
channel c: int
process prod { out( c, 1); out( c, 2); }
process cons { in( c, $x); in( c, $y); assert( y == 2); }
"""


def test_invariant_violation_found_in_full_search():
    def never_two_done(machine):
        from repro.runtime.interp import Status

        done = sum(1 for ps in machine.processes
                   if ps.status is Status.DONE)
        return "two processes finished" if done >= 2 else None

    result = Explorer(Machine(compile_source(PRODUCE_TWO)),
                      invariants=[never_two_done],
                      stop_at_first=False).explore()
    assert [(v.kind, v.message, v.depth, len(v.trace))
            for v in result.violations] == \
        [("invariant", "two processes finished", 2, 2)]


def test_refcount_invariant_holds_on_clean_program():
    src = """
type dataT = array of int
channel dC: dataT
channel outC: int
external interface drain(in outC) { D($v) };
process producer { $d: dataT = { 2 -> 3 }; out( dC, d); unlink( d); }
process consumer { in( dC, $x); out( outC, x[0]); unlink( x); }
"""
    machine = Machine(compile_source(src), externals={"outC": SinkReader(["D"])})
    result = Explorer(machine, invariants=[refcounts_match_references()]).explore()
    assert result.ok


def test_max_states_truncates_search():
    src = """
channel c: int
external interface feed(out c) { F($v) };
process p { $n = 0; while (true) { in( c, $x); n = n + x; } }
"""
    env = ChoiceWriter(["F"], [("F", (1,))])
    machine = Machine(compile_source(src), externals={"c": env})
    result = Explorer(machine, max_states=5).explore()
    assert not result.complete
    assert result.states == 5


def _counts(result) -> tuple:
    return (result.states, result.transitions, result.transitions_pruned,
            result.max_depth, result.complete)


@pytest.mark.parametrize("reduce", [None, "por,sym"])
def test_max_states_refuses_only_the_state_past_the_bound(reduce):
    # Retransmission w1m2 has 138 states plain and 47 under por,sym.  A
    # bound equal to the space lets the search finish exactly as an
    # unbounded one; one less refuses the last state.
    from repro.vmmc.retransmission import build_machine, protocol_source

    def explore(max_states=None):
        machine = build_machine(protocol_source(window=1, messages=2))
        return Explorer(machine, max_states=max_states,
                        reduce=reduce).explore()

    full = explore()
    n = full.states
    assert n == (138 if reduce is None else 47)
    assert full.complete
    for bound in (n, n + 1):
        assert _counts(explore(bound)) == _counts(full)
    below = explore(n - 1)
    assert below.states == n - 1
    assert not below.complete
    assert below.transitions <= full.transitions


def test_max_depth_marks_incomplete():
    # PRODUCE_TWO is a chain of three states; a depth bound below its
    # length cuts the search short without inventing a violation.
    def explore(max_depth):
        return Explorer(Machine(compile_source(PRODUCE_TWO)),
                        max_depth=max_depth).explore()

    full = explore(None)
    assert (full.states, full.max_depth, full.complete) == (3, 2, True)
    assert _counts(explore(2)) == _counts(full)
    for bound in (0, 1):
        cut = explore(bound)
        assert cut.ok and not cut.complete
        assert (cut.states, cut.max_depth) == (bound + 1, bound)


# Three textually identical tickers (true symmetry replicas: out-side
# only, so ESP's one-pattern-per-process rule allows them) and a
# counting consumer.
REPLICA_TICKERS = """
channel tally: int
process t0 { out( tally, 1); out( tally, 1); }
process t1 { out( tally, 1); out( tally, 1); }
process t2 { out( tally, 1); out( tally, 1); }
process boss {
    $n = 0;
    while (n < 6) { in( tally, $d); n = n + d; }
}
"""


def test_symmetry_merges_permuted_replica_states():
    def explore(reduce):
        return Explorer(Machine(compile_source(REPLICA_TICKERS)),
                        stop_at_first=False, reduce=reduce).explore()

    plain, reduced = explore(None), explore("sym")
    assert plain.ok and reduced.ok
    assert reduced.states < plain.states
    assert reduced.stats["reduction"]["sym_canonicalized"] > 0


def test_state_space_of_looping_firmware_is_finite():
    # A consuming loop returns to its initial canonical state: the
    # space closes and exploration terminates (the §5.3 property).
    src = """
channel c: int
channel outC: int
external interface feed(out c) { F($v) };
external interface drain(in outC) { D($v) };
process echo { while (true) { in( c, $x); out( outC, x); } }
"""
    env = ChoiceWriter(["F"], [("F", (0,)), ("F", (1,))])
    machine = Machine(compile_source(src),
                      externals={"c": env, "outC": SinkReader(["D"])})
    result = Explorer(machine).explore()
    assert result.ok and result.complete
    assert result.states < 20


def test_memory_violation_during_exploration():
    src = """
type dataT = array of int
channel dC: dataT
channel outC: int
external interface drain(in outC) { D($v) };
process producer { $d: dataT = { 2 -> 3 }; out( dC, d); unlink( d); }
process consumer { in( dC, $x); unlink( x); unlink( x); }
"""
    machine = Machine(compile_source(src), externals={"outC": SinkReader(["D"])})
    result = Explorer(machine).explore()
    assert not result.ok
    assert result.violations[0].kind == "memory"


# -- bit-state hashing --------------------------------------------------------------


def test_bitstate_covers_small_space():
    src = """
channel aC: int
channel bC: int
process pa { out( aC, 1); }
process pb { out( bC, 2); }
process merge {
    $n = 0;
    while (n < 2) {
        alt {
            case( in( aC, $x)) { n = n + 1; }
            case( in( bC, $y)) { n = n + 1; }
        }
    }
}
"""
    machine = Machine(compile_source(src))
    exhaustive = Explorer(machine).explore()
    machine2 = Machine(compile_source(src))
    bit = BitstateExplorer(machine2, bitmap_bits=1 << 16).explore()
    assert bit.ok
    # With a roomy bitmap the partial search stores every state.
    assert bit.states == exhaustive.states


def test_bitstate_finds_seeded_assertion():
    src = """
channel c: int
external interface feed(out c) { F($v) };
process p { in( c, $x); assert( x == 0); print(x); }
"""
    env = ChoiceWriter(["F"], [("F", (0,)), ("F", (1,))])
    machine = Machine(compile_source(src), externals={"c": env})
    result = BitstateExplorer(machine).explore()
    assert not result.ok
    assert result.violations[0].kind == "assertion"


def test_bitstate_tiny_bitmap_misses_states():
    src = """
channel c: int
external interface feed(out c) { F($v) };
process p { $n = 0; while (n < 6) { in( c, $x); n = n + 1; } }
"""
    env = ChoiceWriter(["F"], [("F", (0,)), ("F", (1,))])
    machine = Machine(compile_source(src), externals={"c": env})
    exhaustive = Explorer(Machine(compile_source(src),
                                  externals={"c": ChoiceWriter(
                                      ["F"], [("F", (0,)), ("F", (1,))])})).explore()
    result = BitstateExplorer(machine, bitmap_bits=16, hash_count=1).explore()
    # A 16-bit bitmap cannot distinguish this space exactly: either the
    # bitmap is heavily filled or collisions silently dropped states.
    assert (result.stats["store"]["fill_factor"] > 0.2
            or result.states < exhaustive.states)


_BITSTATE_SRC = """
channel c: int
external interface feed(out c) { F($v) };
process p { $n = 0; while (n < 4) { in( c, $x); n = n + 1; } }
"""


def _bitstate_run(seed: int) -> tuple[int, int]:
    env = ChoiceWriter(["F"], [("F", (0,)), ("F", (1,)), ("F", (2,))])
    machine = Machine(compile_source(_BITSTATE_SRC), externals={"c": env})
    result = BitstateExplorer(machine, bitmap_bits=128, hash_count=2,
                              seed=seed).explore()
    return result.states, result.transitions


def test_bitstate_same_seed_same_search():
    # A lossy bitmap makes which states collide (and are therefore
    # skipped) visible in the counts; a fixed seed must pin them down.
    assert _bitstate_run(seed=7) == _bitstate_run(seed=7)
    assert _bitstate_run(seed=0) == _bitstate_run(seed=0)


def test_bitstate_seed_survives_hash_randomization():
    # The bitmap hashes must not depend on Python's per-process string
    # hash randomization: the identical search run under different
    # PYTHONHASHSEED values has to store the same states.
    import os
    import pathlib
    import subprocess
    import sys

    src_dir = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    script = (
        "from repro import compile_source\n"
        "from repro.runtime.machine import Machine\n"
        "from repro.verify import BitstateExplorer, ChoiceWriter\n"
        f"src = '''{_BITSTATE_SRC}'''\n"
        "env = ChoiceWriter(['F'], [('F', (0,)), ('F', (1,)), ('F', (2,))])\n"
        "machine = Machine(compile_source(src), externals={'c': env})\n"
        "r = BitstateExplorer(machine, bitmap_bits=128, hash_count=2,"
        " seed=7).explore()\n"
        "print(r.states, r.transitions)\n"
    )
    outputs = []
    for hashseed in ("1", "99"):
        env_vars = dict(os.environ,
                        PYTHONHASHSEED=hashseed,
                        PYTHONPATH=src_dir)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env_vars,
                              check=True)
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("reduce", [None, "por", "sym", "por,sym"])
def test_bitstate_roomy_bitmap_matches_exhaustive_counts(reduce):
    # Bit-state search is the exhaustive search over a bitmap store: with
    # a bitmap large enough for no collision, every count is the same.
    from repro.vmmc.retransmission import build_machine, protocol_source

    source = protocol_source(window=2, messages=2)
    exact = Explorer(build_machine(source), stop_at_first=False,
                     reduce=reduce).explore()
    bit = BitstateExplorer(build_machine(source), bitmap_bits=1 << 20,
                           stop_at_first=False, reduce=reduce).explore()
    assert (bit.states, bit.transitions, bit.transitions_pruned) == \
        (exact.states, exact.transitions, exact.transitions_pruned)
    assert bit.memory_bytes == (1 << 20) // 8 + 1


def test_bitstate_store_reports_deadlock():
    # Each process waits to receive from the other: no move is enabled.
    from repro.verify.bitstate import BitstateStore

    src = """
channel aC: int
channel bC: int
process p { in( aC, $x); out( bC, x); }
process q { in( bC, $y); out( aC, y); }
"""
    machine = Machine(compile_source(src))
    result = Explorer(machine, quiescence_ok=False,
                      store=BitstateStore()).explore()
    assert [v.kind for v in result.violations] == ["deadlock"]


STOP_SRC = """
channel c: int
external interface feed(out c) { F($v) };
process p { in( c, $x); assert( x == 0); }
"""


@pytest.mark.parametrize("search", ["plain", "por,sym", "bitstate"])
def test_stop_at_first_stops_at_the_violating_move(search):
    # F(1) and F(2) both fail the assertion; a search that stops at the
    # first violation must not run the move after it.
    def run(stop_at_first):
        env = ChoiceWriter(["F"], [("F", (0,)), ("F", (1,)), ("F", (2,))])
        machine = Machine(compile_source(STOP_SRC), externals={"c": env})
        if search == "bitstate":
            return BitstateExplorer(machine,
                                    stop_at_first=stop_at_first).explore()
        reduce = None if search == "plain" else search
        return Explorer(machine, stop_at_first=stop_at_first,
                        reduce=reduce).explore()

    first, every = run(True), run(False)
    assert len(every.violations) == 2
    assert first.violations == every.violations[:1]


# -- simulation mode -----------------------------------------------------------------


def test_simulation_finds_shallow_bug():
    src = """
channel c: int
external interface feed(out c) { F($v) };
process p { while (true) { in( c, $x); assert( x < 1); } }
"""
    env = ChoiceWriter(["F"], [("F", (0,)), ("F", (1,))])
    machine = Machine(compile_source(src), externals={"c": env})
    result = Simulator(machine, seed=1, max_steps=200).simulate()
    assert not result.ok
    assert result.violations[0].kind == "assertion"


def test_simulation_clean_run_terminates():
    src = """
channel c: int
external interface feed(out c) { F($v) };
process p { while (true) { in( c, $x); print(x); } }
"""
    env = ScriptWriter(["F"], [("F", (1,)), ("F", (2,))])
    machine = Machine(compile_source(src), externals={"c": env})
    result = Simulator(machine, max_steps=100).simulate()
    assert result.ok
    # The script's two messages are the only moves; the walk that ran
    # out of them still counts its steps.
    assert result.steps == 2


def test_simulation_multiple_runs():
    src = """
channel c: int
external interface feed(out c) { F($v) };
process p { while (true) { in( c, $x); print(x); } }
"""
    env = ChoiceWriter(["F"], [("F", (1,))])
    machine = Machine(compile_source(src), externals={"c": env})
    result = Simulator(machine, max_steps=10, runs=3).simulate()
    assert result.runs == 3
    assert result.steps == 30


# -- per-process memory safety ---------------------------------------------------------


CLEAN_WORKER = """
type dataT = array of int
channel inC: record of { ret: int, data: dataT }
channel outC: dataT
process worker {
    while (true) {
        in( inC, { $ret, $d });
        out( outC, d);
        unlink( d);
    }
}
process peer { in( outC, $x); unlink( x); }
"""


def test_verify_process_clean():
    report = verify_process(CLEAN_WORKER, "worker")
    assert report.ok
    assert report.result.complete
    assert report.result.states > 1


def test_verify_process_finds_double_free():
    buggy = CLEAN_WORKER.replace("unlink( d);", "unlink( d); unlink( d);")
    report = verify_process(buggy, "worker")
    assert not report.ok
    assert report.result.violations[0].kind == "memory"


def test_verify_process_finds_use_after_free():
    buggy = CLEAN_WORKER.replace(
        "out( outC, d);\n        unlink( d);",
        "unlink( d);\n        out( outC, d);",
    )
    report = verify_process(buggy, "worker")
    assert not report.ok


def test_verify_process_finds_leak():
    buggy = CLEAN_WORKER.replace("unlink( d);", "skip;")
    report = verify_process(buggy, "worker", max_objects=10)
    assert not report.ok
    assert "object table exhausted" in report.result.violations[0].message


def test_verify_process_unknown_name():
    from repro.errors import ProgramError

    with pytest.raises(ProgramError, match="no process named"):
        verify_process(CLEAN_WORKER, "nonexistent")


def test_verify_process_respects_pid_routed_ports():
    # Replies tagged with the process id: the environment only offers
    # messages that can actually reach the isolated process's ports.
    src = """
channel reqC: record of { ret: int, v: int }
channel repC: record of { ret: int, v: int }
process client {
    while (true) {
        out( reqC, { @, 1 });
        in( repC, { @, $r });
        print(r);
    }
}
process server { while (true) { in( reqC, { $ret, $v }); out( repC, { ret, v }); } }
"""
    report = verify_process(src, "client")
    assert report.ok, report.summary()
    assert report.result.states >= 2
