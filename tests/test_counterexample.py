"""Tests for counterexample formatting, violation grouping, and
deterministic trace replay."""

import pytest

from repro import compile_source
from repro.runtime.machine import Machine
from repro.verify import (
    Explorer,
    ReplayError,
    format_trace,
    replay_path,
    replay_violation,
    report,
    shortest,
)
from repro.verify.properties import Violation
from repro.vmmc.retransmission import buggy_source, build_machine


def make(kind, message, steps):
    return Violation(kind, message, [f"step-{i}" for i in range(steps)], steps)


def test_format_trace_numbers_steps():
    v = make("assertion", "x exploded", 3)
    text = format_trace(v)
    assert "assertion — x exploded" in text
    assert "step   1: step-0" in text
    assert "=> x exploded" in text


def test_format_trace_empty():
    v = Violation("deadlock", "stuck", [])
    text = format_trace(v)
    assert "deadlock — stuck" in text


def test_shortest_picks_minimal_trace():
    violations = [make("memory", "long", 9), make("memory", "short", 2),
                  make("assertion", "mid", 5)]
    assert shortest(violations).message == "short"
    assert shortest([]) is None


def test_report_groups_by_kind():
    violations = [make("memory", "a", 1), make("memory", "b", 2),
                  make("deadlock", "c", 3)]
    text = report(violations)
    assert "3 violation(s)" in text
    assert "memory: 2" in text
    assert "deadlock: 1" in text
    assert "shortest counterexample" in text


def test_report_no_violations():
    assert report([]) == "no violations found"


def test_violation_str_includes_trace():
    v = make("runtime", "boom", 2)
    text = str(v)
    assert "[runtime] boom" in text
    assert "1. step-0" in text


# -- deterministic replay ------------------------------------------------------


ASSERT_FAIL = """
channel c: int

process prod {
    out( c, 1);
    out( c, 2);
}

process cons {
    in( c, $x);
    in( c, $y);
    assert( y == 3);
}
"""

DEADLOCK = """
channel c: int

process prod {
    out( c, 1);
}

process cons {
    in( c, $x);
    in( c, $y);
}
"""


def test_replay_reproduces_explorer_violation():
    # The regression guarantee: a violation found by exploration can be
    # replayed through a *fresh* machine and comes back identical.
    found = Explorer(Machine(compile_source(ASSERT_FAIL))).explore()
    assert not found.ok
    original = found.violations[0]
    replayed = replay_violation(Machine(compile_source(ASSERT_FAIL)), original)
    assert replayed.kind == original.kind
    assert replayed.message == original.message
    assert replayed.trace == original.trace
    assert replayed.depth == original.depth


def test_replay_reproduces_retransmission_bug():
    source = buggy_source("duplicate_delivery", window=1, messages=2)
    found = Explorer(build_machine(source)).explore()
    assert not found.ok
    original = found.violations[0]
    replayed = replay_violation(build_machine(source), original)
    assert (replayed.kind, replayed.message, replayed.trace, replayed.depth) \
        == (original.kind, original.message, original.trace, original.depth)


def test_retransmission_counterexample_steps_are_move_descriptions():
    # Every step of the trace is a human-readable move description, and
    # the violation's depth is the trace's length.
    source = buggy_source("duplicate_delivery", window=1, messages=2)
    result = Explorer(build_machine(source)).explore()
    assert result.violations
    v = result.violations[0]
    assert v.trace
    assert all(isinstance(step, str) and "->" in step for step in v.trace)
    assert v.depth == len(v.trace)


def test_replay_reproduces_deadlock():
    found = Explorer(Machine(compile_source(DEADLOCK)),
                     quiescence_ok=False).explore()
    assert not found.ok
    original = found.violations[0]
    assert original.kind == "deadlock"
    replayed = replay_violation(Machine(compile_source(DEADLOCK)), original,
                                quiescence_ok=False)
    assert replayed.kind == "deadlock"
    assert replayed.trace == original.trace


def test_replay_path_returns_descriptions_and_error():
    machine = Machine(compile_source(ASSERT_FAIL))
    trace, err = replay_path(machine, [0, 0])
    assert len(trace) == 2
    assert all("prod -> cons on c" in step for step in trace)
    assert err is not None  # the assertion fires on the second delivery


def test_replay_path_rejects_bad_index():
    machine = Machine(compile_source(DEADLOCK))
    with pytest.raises(ReplayError):
        replay_path(machine, [5])


def test_replay_violation_rejects_stale_trace():
    stale = Violation("assertion", "old", ["nobody -> nothing on ghostC"], 1)
    with pytest.raises(ReplayError):
        replay_violation(Machine(compile_source(ASSERT_FAIL)), stale)


def test_replay_violation_rejects_clean_trace():
    # A prefix that violates nothing must not silently "succeed".
    found = Explorer(Machine(compile_source(ASSERT_FAIL))).explore()
    partial = Violation("assertion", "partial",
                        found.violations[0].trace[:1], 1)
    with pytest.raises(ReplayError):
        replay_violation(Machine(compile_source(ASSERT_FAIL)), partial)


# A consumer that deadlocks *inside an alt*: after draining the one
# message, both arms wait on channels nobody will ever send on.
ALT_DEADLOCK = """\
channel a: int
channel b: int

process prod {
    out( a, 1);
}

process cons {
    in( a, $x);
    alt {
        case( in( a, $y)) { skip; }
        case( in( b, $z)) { skip; }
    }
}
"""


def test_deadlock_report_points_at_alt_arms():
    # The deadlock message must carry the source coordinates of the
    # alt *arms* the process is waiting on (ir.AltArm.span), not just
    # the process name — and replay must reproduce the same rendering.
    found = Explorer(Machine(compile_source(ALT_DEADLOCK, "alt_dead.esp")),
                     quiescence_ok=False).explore()
    assert not found.ok
    original = found.violations[0]
    assert original.kind == "deadlock"
    # case( in( a, ...)) is on line 11, case( in( b, ...)) on line 12.
    assert "cons at alt_dead.esp:11" in original.message
    assert "alt_dead.esp:12" in original.message
    replayed = replay_violation(
        Machine(compile_source(ALT_DEADLOCK, "alt_dead.esp")), original,
        quiescence_ok=False)
    assert replayed.message == original.message
    text = format_trace(replayed)
    assert "alt_dead.esp:11" in text


def test_deadlock_report_points_at_blocking_in():
    # A plain ``in`` block reports the instruction's own span.
    source = "channel a: int\n\nprocess lone {\n    in( a, $x);\n}\n"
    found = Explorer(Machine(compile_source(source, "lone.esp")),
                     quiescence_ok=False).explore()
    assert not found.ok
    assert "lone at lone.esp:4" in found.violations[0].message


def test_cloned_alt_arms_keep_spans():
    # clone_tree shares spans; IR lowered from a clone must still carry
    # per-arm source coordinates (the memsafety isolation path).
    from repro.ir.pipeline import compile_ir
    from repro.lang.astclone import clone_tree
    from repro.lang.program import frontend

    front = frontend(ALT_DEADLOCK, "alt_dead.esp")
    for info in front.checked.processes:
        info.decl.body = clone_tree(info.decl.body)
    program, _stats = compile_ir(front)
    cons = next(p for p in program.processes if p.name == "cons")
    arms = next(i for i in cons.instrs if i.__class__.__name__ == "Alt").arms
    assert [str(arm.span) for arm in arms] == \
        ["alt_dead.esp:11:9", "alt_dead.esp:12:9"]
