"""Tests for the liveness checker (AG EF and goal-free-cycle checks,
the §5.1 "absence of starvation" properties)."""

from repro import Machine, compile_source
from repro.verify import (
    ChoiceWriter,
    SinkReader,
    check_always_eventually,
    check_no_goal_free_cycles,
)
from repro.runtime.interp import Status


def pc_of(machine, process_name):
    for ps in machine.processes:
        if ps.proc.name == process_name:
            return ps
    raise KeyError(process_name)


# A server that always eventually serves the slow client: the alt has
# both arms, and every path keeps both reachable.
FAIR = """
channel fastC: int
channel slowC: int
channel outC: int
external interface feedF(out fastC) { F($v) };
external interface feedS(out slowC) { S($v) };
external interface drain(in outC) { D($v) };
process server {
    while (true) {
        alt {
            case( in( fastC, $x)) { out( outC, x); }
            case( in( slowC, $y)) { out( outC, y + 100); }
        }
    }
}
"""


def fair_machine():
    return Machine(
        compile_source(FAIR),
        externals={
            "fastC": ChoiceWriter(["F"], [("F", (1,))]),
            "slowC": ChoiceWriter(["S"], [("S", (2,))]),
            "outC": SinkReader(["D"]),
        },
    )


def test_always_eventually_holds_for_fair_server():
    machine = fair_machine()

    def slow_delivered(m):
        # Goal: the server is mid-delivery of a slow message (its pc
        # sits in the slow arm's body, at the out).
        ps = pc_of(m, "server")
        return ps.status is Status.BLOCKED and ps.block.kind == "out"

    result = check_always_eventually(machine, slow_delivered)
    assert result.holds, result.summary()
    assert result.complete
    assert result.goal_states > 0


def test_goal_free_cycle_found_when_fast_can_starve_slow():
    # The fast channel alone can cycle the server forever — an infinite
    # execution on which the slow message is never taken.  The
    # goal-free-cycle check exposes it (this is why the paper demands
    # the channel-selection policy "must prevent starvation": the
    # *scheduler* must not follow this cycle forever).
    machine = fair_machine()

    def served_slow(m):
        env = m.externals["slowC"]
        return False  # strictest goal: never satisfied by construction

    result = check_no_goal_free_cycles(machine, served_slow)
    assert not result.holds
    assert result.witness is not None


def test_no_goal_free_cycles_when_goal_is_on_every_loop():
    machine = fair_machine()

    def any_delivery(m):
        ps = pc_of(m, "server")
        return ps.status is Status.BLOCKED and ps.block.kind == "out"

    # Every loop through the server passes a delivery: no goal-free cycle.
    result = check_no_goal_free_cycles(machine, any_delivery)
    assert result.holds, result.summary()


ABSORBING = """
channel tokenC: int
channel outC: int
external interface drain(in outC) { D($v) };
process giver { out( tokenC, 1); }
process worker {
    in( tokenC, $x);
    while (true) {
        out( outC, x);
    }
}
"""


def absorbing_machine():
    return Machine(compile_source(ABSORBING),
                   externals={"outC": SinkReader(["D"])})


def giver_active(m):
    return pc_of(m, "giver").status is not Status.DONE


def test_always_eventually_violated_by_absorbing_state():
    # Once `stopper` consumes the token, `worker` can never run again:
    # a reachable state from which the goal is unreachable.
    machine = absorbing_machine()

    def worker_out(m):
        ps = pc_of(m, "worker")
        return ps.status is Status.BLOCKED and ps.block.kind == "out"

    # goal = the *giver* can still act; once the token is gone it cannot.
    result = check_always_eventually(machine, giver_active)
    assert not result.holds
    assert "never reach the goal" in result.reason
    # but the worker keeps running forever: AG EF worker_out holds.
    machine2 = absorbing_machine()
    assert check_always_eventually(machine2, worker_out).holds


def replay_witness(machine, witness):
    """Run a witness on a fresh machine: every step must describe a
    move enabled at that point.  Returns the machine in the end state."""
    machine.run_ready()
    for description in witness:
        moves = machine.enabled_moves()
        move = next((m for m in moves if m.describe(machine) == description),
                    None)
        assert move is not None, f"no enabled move is {description!r}"
        machine.apply(move)
        machine.run_ready()
    return machine


def test_witness_replays_to_the_absorbing_state():
    result = check_always_eventually(absorbing_machine(), giver_active)
    assert result.witness
    end = replay_witness(absorbing_machine(), result.witness)
    # The witness ends where the goal can never hold again.
    assert not giver_active(end)


def test_witness_replays_to_the_goal_free_cycle():
    result = check_no_goal_free_cycles(fair_machine(), lambda m: False)
    assert not result.holds and result.witness
    replay_witness(fair_machine(), result.witness)


def test_liveness_respects_state_budget():
    src = """
channel c: int
external interface feed(out c) { F($v) };
process p { $n = 0; while (true) { in( c, $x); n = n + x; } }
"""
    env = ChoiceWriter(["F"], [("F", (1,))])
    machine = Machine(compile_source(src), externals={"c": env})
    result = check_always_eventually(machine, lambda m: True, max_states=5)
    assert not result.complete
    assert result.states <= 6


def test_liveness_state_budget_refuses_only_the_state_past_it():
    # A bound equal to the number of states builds the whole graph; one
    # less refuses the last state and leaves the graph incomplete.
    from repro.vmmc.retransmission import build_machine, protocol_source

    def check(max_states):
        machine = build_machine(protocol_source(window=1, messages=2))
        return check_always_eventually(machine, lambda m: True,
                                       max_states=max_states)

    full = check(100_000)
    n = full.states
    assert full.complete and n > 1
    for bound in (n, n + 1):
        bounded = check(bound)
        assert (bounded.states, bounded.complete) == (n, True)
    below = check(n - 1)
    assert (below.states, below.complete) == (n - 1, False)
