"""Copy-on-write snapshot correctness.

:meth:`Machine.snapshot` shares per-process and per-heap-object
records across snapshots and only re-records what a transition
touched; :meth:`Machine.restore` walks only the dirty set when
restoring the state it is already synchronised with.  The property
under test is that none of that sharing is observable: restoring a
snapshot always reproduces the exact canonical state it was taken
from, no matter which moves ran (and failed) in between.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.errors import ESPError
from repro.runtime.machine import Machine
from repro.verify.explorer import Explorer
from repro.verify.state import canonical_state
from repro.vmmc.retransmission import build_machine, protocol_source
from tests.strategies import esp_programs


def _machine(source: str) -> Machine:
    return Machine(compile_source(source))


@settings(max_examples=20, deadline=None)
@given(esp_programs(), st.lists(st.integers(min_value=0, max_value=7),
                                min_size=1, max_size=12))
def test_restore_snapshot_is_identity_along_random_walks(source, choices):
    # Walk a random path through the state space; at every step the
    # snapshot taken *before* applying a move must restore to exactly
    # the canonical state observed at snapshot time — including after
    # moves that raise (assertion failures leave partial mutations the
    # restore has to undo).
    machine = _machine(source)
    try:
        machine.run_ready()
    except ESPError:
        return
    for choice in choices:
        before = canonical_state(machine)
        snap = machine.snapshot()
        moves = machine.enabled_moves()
        if not moves:
            break
        move = moves[choice % len(moves)]
        try:
            machine.apply(move)
            machine.run_ready()
        except ESPError:
            pass
        machine.restore(snap)
        assert canonical_state(machine) == before, source
        # Advance along the walk so later iterations test deeper states.
        try:
            machine.apply(move)
            machine.run_ready()
        except ESPError:
            machine.restore(snap)


@settings(max_examples=20, deadline=None)
@given(esp_programs())
def test_snapshot_reuses_untouched_process_records(source):
    # Two snapshots with no mutation in between must share every
    # process record by identity (that sharing is the whole point of
    # COW); after one move, records of untouched processes must still
    # be the same objects.
    machine = _machine(source)
    try:
        machine.run_ready()
    except ESPError:
        return
    first = machine.snapshot()
    second = machine.snapshot()
    assert all(a is b for a, b in zip(first[0], second[0]))
    moves = machine.enabled_moves()
    if not moves:
        return
    try:
        machine.apply(moves[0])
        machine.run_ready()
    except ESPError:
        return
    third = machine.snapshot()
    shared = sum(a is b for a, b in zip(first[0], third[0]))
    changed = len(first[0]) - shared
    # A rendezvous touches the two endpoint processes; everything else
    # must have been reused verbatim.
    assert changed <= 2, source


def test_mid_protocol_roundtrip_retransmission():
    # Drive the retransmission model a few transitions in, snapshot,
    # explore a detour, and restore: the canonical state and the set of
    # enabled moves must both come back exactly.
    machine = build_machine(protocol_source(window=2, messages=2))
    machine.run_ready()
    for _ in range(3):
        moves = machine.enabled_moves()
        if not moves:
            break
        machine.apply(moves[0])
        machine.run_ready()
    mid = canonical_state(machine)
    snap = machine.snapshot()
    described = [m.describe(machine) for m in machine.enabled_moves()]
    for index in range(len(described)):
        machine.restore(snap)
        machine.apply(machine.enabled_moves()[index])
        machine.run_ready()
    machine.restore(snap)
    assert canonical_state(machine) == mid
    assert [m.describe(machine) for m in machine.enabled_moves()] == described


def test_restore_foreign_snapshot_after_sync_switch():
    # Restoring snapshot A, mutating, then restoring snapshot B (taken
    # on a different branch) exercises the full-walk restore path with
    # record-identity skipping; both must reproduce their states.
    machine = build_machine(protocol_source(window=1, messages=2))
    machine.run_ready()
    root = machine.snapshot()
    states = []
    snaps = []
    for index in range(len(machine.enabled_moves())):
        machine.restore(root)
        machine.apply(machine.enabled_moves()[index])
        machine.run_ready()
        states.append(canonical_state(machine))
        snaps.append(machine.snapshot())
    for state, snap in zip(reversed(states), reversed(snaps)):
        machine.restore(snap)
        assert canonical_state(machine) == state


# -- blocks held by records never change ------------------------------------


def _block_fields(block) -> tuple:
    """Every field of a BlockInfo, sequences copied by content."""
    return (block.kind, block.channel, block.pattern, block.port_index,
            None if block.values is None else tuple(block.values),
            None if block.fresh is None else tuple(block.fresh),
            block.fused, tuple((e.arm, e.index) for e in block.arms))


class _RecordBlocks:
    """Wraps Machine.snapshot to record, field by field, every block a
    snapshot record holds at the moment the snapshot is taken."""

    def __enter__(self):
        self.recorded = []
        self._snapshot = Machine.snapshot
        original = self._snapshot

        def snapshot(machine):
            state = original(machine)
            for record in state[0]:
                block = record[3]
                if block is not None:
                    self.recorded.append((block, _block_fields(block)))
            return state

        Machine.snapshot = snapshot
        return self

    def __exit__(self, *exc):
        Machine.snapshot = self._snapshot

    def assert_unchanged(self) -> None:
        assert self.recorded
        for block, fields in self.recorded:
            assert _block_fields(block) == fields


def test_blocks_are_unchanged_after_snapshots_hold_them():
    # Records hold the process's BlockInfo itself and restore puts the
    # same object back, which is sound only while nothing changes it.
    from tests.test_verify_counts import _retrans_machine, _vmmc_machine

    for machine in (_vmmc_machine("sm1"), _retrans_machine(2, 2)):
        with _RecordBlocks() as blocks:
            result = Explorer(machine).explore()
        assert result.ok and result.complete
        blocks.assert_unchanged()


@settings(max_examples=20, deadline=None)
@given(esp_programs())
def test_blocks_of_generated_programs_are_unchanged(source):
    with _RecordBlocks() as blocks:
        Explorer(_machine(source), quiescence_ok=False, stop_at_first=False,
                 max_states=200).explore()
    if blocks.recorded:
        blocks.assert_unchanged()
