"""Move-order oracle for the machine's wait index.

``Machine.enabled_moves`` reads a per-channel index of blocked senders
and receivers that is kept up to date where processes block, resume
and are restored.  Schedulers pick moves by position and counterexample
paths replay by position, so the index must list exactly the moves,
in exactly the order, of the full scan it replaced.  That scan is kept
here as the oracle (:func:`reference_moves`): every blocked process in
pid order, its waits grouped by channel in first-seen order, matched
with the AST walker's reference matchers.

The two are compared before every move ``Scheduler.run`` applies, in
the state it stops in, and after every ``restore`` the explorer
performs (including restores of states other than the last one), over
the examples corpus and generated programs, under both Python engines;
``all_done()`` is compared with a full scan at the same points.

``Scheduler.run`` builds the external deliveries only when no
rendezvous is enabled, so the move it applies is also checked against
``pick(enabled_moves())`` under every policy, and a counting writer
shows that it is not polled while a rendezvous is enabled.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import compile_source
from repro.errors import ESPError
from repro.runtime.interp import (
    Status,
    entry_reaches,
    try_match,
    try_match_components,
)
from repro.runtime.external import QueueWriter
from repro.runtime.machine import (
    ENGINES,
    ExternalAccept,
    ExternalDeliver,
    Machine,
    Rendezvous,
    _admits,
    _patterns_compatible,
)
from repro.runtime.scheduler import Scheduler
from repro.verify.environment import default_verification_bridges
from repro.verify.explorer import Explorer
from tests.strategies import esp_programs

ESP_DIR = Path(__file__).resolve().parent.parent / "examples" / "esp"
EXAMPLES = sorted(p.name for p in ESP_DIR.glob("*.esp"))


# -- the reference scan ---------------------------------------------------------


def _out_slots(machine):
    slots = {}
    for ps in machine.processes:
        if ps.status is not Status.BLOCKED:
            continue
        block = ps.block
        if block.kind == "out":
            slots.setdefault(block.channel, []).append((ps.pid, None))
        elif block.kind == "alt":
            for enabled in block.arms:
                if enabled.arm.kind == "out":
                    slots.setdefault(enabled.arm.channel, []).append(
                        (ps.pid, enabled.index))
    return slots


def _in_slots(machine):
    slots = {}
    for ps in machine.processes:
        if ps.status is not Status.BLOCKED:
            continue
        block = ps.block
        if block.kind == "in":
            slots.setdefault(block.channel, []).append((ps.pid, None))
        elif block.kind == "alt":
            for enabled in block.arms:
                if enabled.arm.kind == "in":
                    slots.setdefault(enabled.arm.channel, []).append(
                        (ps.pid, enabled.index))
    return slots


def _receiver_pattern(machine, pid, arm):
    ps = machine.processes[pid]
    if arm is None:
        return ps.block.pattern
    return ps.proc.instrs[ps.pc].arms[arm].pattern


def reference_moves(machine):
    """The enabled moves by full scan (no counters touched)."""
    evaluator = machine.evaluator
    channels = machine.program.channels
    senders, receivers = _out_slots(machine), _in_slots(machine)
    moves = []
    for channel, sends in senders.items():
        if channels[channel].external == "reader":
            if machine.externals[channel].can_accept():
                moves += [ExternalAccept(channel, pid, arm) for pid, arm in sends]
            continue
        for s_pid, s_arm in sends:
            for r_pid, r_arm in receivers.get(channel, []):
                if r_pid == s_pid:
                    continue
                if s_arm is None:
                    block = machine.processes[s_pid].block
                    receiver = machine.processes[r_pid]
                    pattern = _receiver_pattern(machine, r_pid, r_arm)
                    ok = (try_match_components(evaluator, receiver, pattern,
                                               block.values)
                          if block.fused else
                          try_match(evaluator, receiver, pattern, block.values[0]))
                    if not ok:
                        continue
                moves.append(Rendezvous(channel, s_pid, s_arm, r_pid, r_arm))
    for channel, recvs in receivers.items():
        if channels[channel].external != "writer":
            continue
        for entry_name, args in machine.externals[channel].offers():
            entry = machine.program.interfaces[channel][entry_name]
            for r_pid, r_arm in recvs:
                pattern = _receiver_pattern(machine, r_pid, r_arm)
                if args is None:
                    ok = _patterns_compatible(entry, pattern)
                else:
                    ok = _admits(entry, tuple(args)) and entry_reaches(
                        evaluator, machine._env_ps, entry, iter(tuple(args)),
                        pattern, machine.processes[r_pid])
                if ok:
                    moves.append(ExternalDeliver(
                        channel, entry_name, () if args is None else tuple(args),
                        r_pid, r_arm))
    return moves


def _check(machine) -> list:
    assert machine.all_done() == all(
        ps.status is Status.DONE for ps in machine.processes)
    expected = reference_moves(machine)
    moves = machine.enabled_moves()
    assert moves == expected
    return moves


# -- running the oracle ---------------------------------------------------------


def _machine(source: str, engine: str, filename: str = "<index>") -> Machine:
    program = compile_source(source, filename)
    return Machine(program, externals=default_verification_bridges(program),
                   engine=engine)


class _PickCheckedMachine(Machine):
    """Checks, before every move it is asked to apply, the index against
    the scan and the move against what the ``oracle`` scheduler (a
    twin of the one applying moves) picks from ``enabled_moves()``."""

    oracle: Scheduler
    checked = 0

    def apply(self, move) -> None:
        assert move == self.oracle.pick(_check(self))
        self.checked += 1
        super().apply(move)


def _schedule(source: str, engine: str, policy: str, steps: int = 400) -> int:
    """Run ``Scheduler.run`` for up to ``steps`` moves, checking every
    move it applies and the state it stops in."""
    program = compile_source(source, "<index>")
    machine = _PickCheckedMachine(
        program, externals=default_verification_bridges(program), engine=engine)
    machine.oracle = Scheduler(machine, policy=policy, seed=7)
    try:
        Scheduler(machine, policy=policy, seed=7).run(max_transfers=steps)
        _check(machine)
        machine.checked += 1
    except ESPError:
        pass  # a runtime error ends the run; every step so far agreed
    return machine.checked


class _CheckedMachine(Machine):
    """Checks the index against the scan after every restore."""

    restores = 0

    def restore(self, state) -> None:
        super().restore(state)
        self.restores += 1
        _check(self)


def _explore(source: str, engine: str, max_states: int = 300) -> int:
    program = compile_source(source, "<index>")
    machine = _CheckedMachine(
        program, externals=default_verification_bridges(program), engine=engine)
    Explorer(machine, quiescence_ok=False, stop_at_first=False,
             max_states=max_states).explore()
    return machine.restores


# -- the corpus ------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("example", EXAMPLES)
def test_examples_scheduler_steps_match_reference_scan(example, engine):
    source = (ESP_DIR / example).read_text()
    for policy in ("stack", "fifo", "random"):
        assert _schedule(source, engine, policy) > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("example", EXAMPLES)
def test_examples_explorer_restores_match_reference_scan(example, engine):
    assert _explore((ESP_DIR / example).read_text(), engine) > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(esp_programs())
def test_random_programs_match_reference_scan(source):
    for engine in ENGINES:
        for policy in ("stack", "fifo", "random"):
            _schedule(source, engine, policy, steps=200)
        _explore(source, engine, max_states=100)


class _CountingWriter(QueueWriter):
    polls = 0

    def offers(self):
        self.polls += 1
        return super().offers()


POLLED = """
channel c: int
channel e: int
external interface ext(out e) { E($v) };
process producer { $i = 0; while (i < 5) { out( c, i); i = i + 1; } }
process consumer {
    $n = 0;
    while {
        alt {
            case( in( c, $x)) { n = n + x; }
            case( in( e, $y)) { n = n + y; }
        }
    }
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_writer_is_not_polled_while_a_rendezvous_is_enabled(engine):
    # The consumer can take the queued E(7) from the start, but each of
    # the five enumerations that hold a rendezvous picks the rendezvous
    # without asking the writer; it is polled twice: once to deliver
    # E(7) after the producer is done, once to find the queue empty.
    writer = _CountingWriter(["E"])
    writer.post("E", 7)
    machine = Machine(compile_source(POLLED, "<polled>"),
                      externals={"e": writer}, engine=engine)
    result = Scheduler(machine).run()
    assert (result.reason, result.transfers) == ("idle", 6)
    assert writer.polls == 2


def test_restoring_an_older_state_reindexes():
    # Restore a state other than the one restored last: the processes
    # that moved since must be re-indexed from their restored blocks.
    source = (ESP_DIR / "retransmission.esp").read_text()
    for engine in ENGINES:
        machine = _machine(source, engine, "retransmission.esp")
        machine.run_ready()
        states = [machine.snapshot()]
        for _ in range(12):
            moves = _check(machine)
            if not moves:
                break
            machine.apply(moves[-1])
            machine.run_ready()
            states.append(machine.snapshot())
        for state in states[::-3] + states[::2]:
            machine.restore(state)
            _check(machine)
