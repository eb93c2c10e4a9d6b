"""The collapse-compressed visited store and its state digests.

The store is a lossless compression of the visited set (SPIN's
COLLAPSE, not bit-state hashing): the differential property here pins
the exact-equivalence guarantee — exploration through the collapse
store visits precisely the states a plain canonical-state set would.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import compile_source
from repro.errors import ESPError
from repro.runtime.machine import Machine
from repro.verify.collapse import (
    CollapseStore,
    PlainStore,
    StateKeyer,
    deep_size,
    make_visited_store,
)
from repro.verify.explorer import Explorer
from repro.verify.state import canonical_state
from repro.vmmc.retransmission import build_machine, protocol_source
from tests.strategies import esp_programs


def _explore(source: str, store: str):
    machine = Machine(compile_source(source))
    return Explorer(machine, quiescence_ok=False, stop_at_first=False,
                    store=store).explore()


# -- the property: collapse == plain ------------------------------------------


@settings(max_examples=15, deadline=None)
@given(esp_programs())
def test_collapse_store_is_exact(source):
    collapse = _explore(source, "collapse")
    plain = _explore(source, "plain")
    assert (collapse.states, collapse.transitions, collapse.max_depth) == \
        (plain.states, plain.transitions, plain.max_depth), source
    assert sorted((v.kind, v.message) for v in collapse.violations) == \
        sorted((v.kind, v.message) for v in plain.violations), source


# -- store mechanics ----------------------------------------------------------


def _settled_machine() -> Machine:
    machine = build_machine(protocol_source(window=1, messages=2))
    machine.run_ready()
    return machine


def test_add_current_dedups_revisits():
    machine = _settled_machine()
    store = make_visited_store()
    assert isinstance(store, CollapseStore)
    is_new, token = store.add_current(machine)
    assert is_new and token is not None
    snap = machine.snapshot()
    token[0] = snap
    machine.restore(snap)
    assert store.add_current(machine, token) == (False, None)
    # A genuinely different state is new again.
    machine.apply(machine.enabled_moves()[0])
    machine.run_ready()
    is_new, _ = store.add_current(machine, token)
    assert is_new


def test_add_and_add_current_agree():
    # The fused fast path must produce byte-identical visited keys to
    # interning a prebuilt canonical state.
    machine = _settled_machine()
    by_state = make_visited_store()
    by_machine = make_visited_store()
    assert by_state.add(canonical_state(machine))
    assert by_machine.add_current(machine)[0]
    snap = machine.snapshot()
    for index in range(len(machine.enabled_moves())):
        machine.restore(snap)
        try:
            machine.apply(machine.enabled_moves()[index])
            machine.run_ready()
        except ESPError:
            continue
        assert by_state.add(canonical_state(machine)) == \
            by_machine.add_current(machine)[0]
    assert by_state._seen == by_machine._seen


def test_memory_bytes_matches_stats():
    def run(store: str):
        machine = build_machine(protocol_source(window=1, messages=2))
        return Explorer(machine, stop_at_first=False, store=store).explore()

    result = run("collapse")
    assert result.ok and result.states > 0
    assert result.memory_bytes > 0
    assert result.stats["store"]["memory_bytes"] == result.memory_bytes
    assert result.stats["store"]["states"] == result.states
    # Collapse beats the plain store's full canonical encodings.
    plain = run("plain")
    assert result.memory_bytes < plain.memory_bytes


@pytest.mark.parametrize("model", ["vmmc sm1", "retrans w2m2"])
def test_payload_bytes_equal_a_recount_of_the_interned_components(model):
    # memory_bytes is the store's actual footprint only while the bytes
    # charged as components are interned equal deep_size over every
    # component the tables hold, each distinct object counted once.
    from tests.test_verify_counts import _retrans_machine, _vmmc_machine

    machine = (_vmmc_machine("sm1") if model == "vmmc sm1"
               else _retrans_machine(2, 2))
    store = CollapseStore()
    result = Explorer(machine, store=store).explore()
    assert result.ok and result.complete
    tables = (store.procs, store.objects, store.vectors, store.exts)
    seen: set[int] = set()
    recount = sum(deep_size(component, seen)
                  for table in tables for component in table.index_of)
    assert sum(table.payload_bytes for table in tables) == recount


def test_make_visited_store_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_visited_store("bitmap")


def test_plain_store_reports_footprint():
    machine = _settled_machine()
    store = PlainStore()
    assert store.add_current(machine)[0]
    assert store.memory_bytes() > 0
    assert store.stats()["states"] == 1


# -- digests -----------------------------------------------------------------


def test_state_keyer_is_instance_independent():
    machine = _settled_machine()
    state = canonical_state(machine)
    assert StateKeyer().digest(state) == StateKeyer().digest(state)
    assert StateKeyer(seed=1).digest(state) != StateKeyer().digest(state)
    machine.apply(machine.enabled_moves()[0])
    machine.run_ready()
    assert StateKeyer().digest(canonical_state(machine)) != \
        StateKeyer().digest(state)
