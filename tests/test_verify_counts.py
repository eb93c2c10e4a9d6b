"""Golden verifier counts on the real models.

``tests/goldens/verify_counts.json`` pins, for every run below, what
the verifier explored: states, transitions, ``transitions_pruned``,
``max_depth``, ``complete``, and each violation's kind, message, depth
and trace.  The runs cover the
VMMC per-process models with the benchmark corpus's environment
bounds (plain and ``por,sym``), the three seeded ``sm1`` memory bugs,
the retransmission protocol under every reduction mode, and bit-state
search.  ``memory_bytes`` and ``stats`` are left out: they measure the
store's in-memory form, not the search.

The collapse-vs-plain store test compares two stores that share one
state encoding, so an encoding that merged distinct states would pass
it; this file catches that, because merged states change the counts.
It also holds the reduction gates: ``por,sym`` stores >= 10x fewer
states than the plain search on ``sm1`` and on retransmission w6m7,
within a bytes/state ceiling.

Regenerating (only after an intentional change to what the verifier
explores, never to follow a change in the state encoding):

    PYTHONPATH=src python tests/test_verify_counts.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import compile_source
from repro.lang.program import frontend
from repro.runtime.machine import Machine
from repro.verify.bitstate import BitstateExplorer
from repro.verify.environment import ChoiceWriter, SinkReader
from repro.verify.explorer import Explorer
from repro.verify.memsafety import build_isolated_machine
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE
from repro.vmmc.retransmission import protocol_source

GOLDEN = Path(__file__).resolve().parent / "goldens" / "verify_counts.json"

# Per-process environment bounds of the benchmark corpus
# (perfbench/verify_jobs.py PLANS).
PLANS = {
    "sm1": dict(int_domain=(0, 40, 5000), env_budget=3),
    "receiver": dict(int_domain=(0, 1), env_budget=3),
    "pageTable": dict(int_domain=(0, 1), env_budget=4),
    "completer": dict(int_domain=(0, 1)),
    "acker": dict(int_domain=(0, 1)),
}

# Seeded memory bugs in sm1 (perfbench/verify_jobs.py SEEDED_BUGS):
# (text replaced, replacement, object-table size).
SEEDED_BUGS = {
    "leak_chunk_buffer": (
        "out( chunkC, { dest, chunk, msgid, last, buf });\n"
        "                unlink( buf);",
        "out( chunkC, { dest, chunk, msgid, last, buf });",
        4),
    "double_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n"
        "            unlink( ibuf);",
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n"
        "            unlink( ibuf);\n            unlink( ibuf);",
        12),
    "use_after_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n"
        "            unlink( ibuf);",
        "unlink( ibuf);\n"
        "            out( chunkC, { dest, size, msgid, 1, ibuf });",
        12),
}

RETRANS_SIZES = ((1, 2), (2, 2), (2, 3), (3, 4))
REDUCTIONS = ("plain", "por", "sym", "por,sym")
BITSTATE_SIZES = ((2, 2), (2, 3))

# The reduction gates: ``por,sym`` stores at least 10x fewer states
# than the plain search on sm1 and on retransmission w6m7, and its
# store's bytes/state stays within 1.25x of what it was when the gates
# were set (657.6 on sm1, 131.6 on w6m7), so a canonicalizer change
# that bloats the keys fails even when the counts hold.
REDUCTION_FACTOR = 10.0
BYTES_PER_STATE_CEILING = {
    "vmmc sm1 por,sym": 1.25 * 657.6,
    "retrans w6m7 por,sym": 1.25 * 131.6,
}


def _vmmc_machine(process: str, source: str = VMMC_ESP_SOURCE,
                  max_objects: int = 24) -> Machine:
    machine, _report = build_isolated_machine(
        frontend(source, "vmmc.esp"), process, max_objects=max_objects,
        **PLANS[process])
    return machine


def _retrans_machine(window: int, messages: int) -> Machine:
    program = compile_source(protocol_source(window, messages),
                             filename="retransmission.esp")
    return Machine(program, externals={
        "timeoutC": ChoiceWriter(["Timeout"], [("Timeout", (0,))]),
        "allDoneC": SinkReader(["Done"]),
        "dropC": SinkReader(["Drop"]),
    })


def _explore(machine: Machine, mode: str, stop_at_first: bool = False):
    reduce = None if mode == "plain" else mode
    return Explorer(machine, max_states=100_000, stop_at_first=stop_at_first,
                    reduce=reduce).explore()


def _runs() -> dict:
    """Run name -> zero-argument callable returning the search result."""
    runs = {}
    for process in PLANS:
        for mode in ("plain", "por,sym"):
            runs[f"vmmc {process} {mode}"] = (
                lambda p=process, m=mode: _explore(_vmmc_machine(p), m))
    for bug, (old, new, max_objects) in SEEDED_BUGS.items():
        assert old in VMMC_ESP_SOURCE, f"seeded bug {bug!r} no longer applies"
        source = VMMC_ESP_SOURCE.replace(old, new)
        runs[f"vmmc sm1 {bug}"] = (
            lambda s=source, n=max_objects: _explore(
                _vmmc_machine("sm1", s, n), "plain", stop_at_first=True))
    for window, messages in RETRANS_SIZES:
        for mode in REDUCTIONS:
            runs[f"retrans w{window}m{messages} {mode}"] = (
                lambda w=window, m=messages, r=mode: _explore(
                    _retrans_machine(w, m), r))
    for window, messages in BITSTATE_SIZES:
        runs[f"retrans w{window}m{messages} bitstate"] = (
            lambda w=window, m=messages: BitstateExplorer(
                _retrans_machine(w, m), stop_at_first=False).explore())
    return runs


RUNS = _runs()


def _record(result) -> dict:
    # Bit-state search is the same search over a bitmap store, so it
    # reports the same fields.
    return {
        "states": result.states,
        "transitions": result.transitions,
        "transitions_pruned": result.transitions_pruned,
        "max_depth": result.max_depth,
        "complete": result.complete,
        "violations": [
            {"kind": v.kind, "message": v.message, "depth": v.depth,
             "trace": list(v.trace)}
            for v in result.violations
        ],
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _bytes_per_state(result) -> float:
    return result.memory_bytes / result.states


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_golden(name):
    result = RUNS[name]()
    assert _record(result) == _golden()[name]
    if name in BYTES_PER_STATE_CEILING:
        assert _bytes_per_state(result) <= BYTES_PER_STATE_CEILING[name]


def test_golden_covers_every_run_and_pins_the_corpus_counts():
    data = _golden()
    assert sorted(data) == sorted(RUNS)
    # The plain counts the benchmark corpus also checks.
    assert (data["vmmc sm1 plain"]["states"],
            data["vmmc sm1 plain"]["transitions"]) == (5713, 14422)
    assert (data["retrans w3m4 plain"]["states"],
            data["retrans w3m4 plain"]["transitions"]) == (3013, 7605)
    for bug in SEEDED_BUGS:
        assert {v["kind"] for v in data[f"vmmc sm1 {bug}"]["violations"]} \
            == {"memory"}
    assert data["vmmc sm1 plain"]["states"] \
        >= REDUCTION_FACTOR * data["vmmc sm1 por,sym"]["states"]


def test_reduction_gate_on_retransmission_w6m7():
    # The retransmission ratio grows with the window: 4.3x at w2m3,
    # 11.9x at w6m7.
    plain = _explore(_retrans_machine(6, 7), "plain")
    reduced = _explore(_retrans_machine(6, 7), "por,sym")
    assert plain.ok and plain.complete
    assert reduced.ok and reduced.complete
    assert plain.states == 33877
    assert (reduced.states, reduced.transitions,
            reduced.transitions_pruned) == (2856, 10231, 8276)
    assert plain.states >= REDUCTION_FACTOR * reduced.states
    assert _bytes_per_state(reduced) \
        <= BYTES_PER_STATE_CEILING["retrans w6m7 por,sym"]


if __name__ == "__main__":  # regeneration entry point (see docstring)
    records = {name: _record(run()) for name, run in RUNS.items()}
    GOLDEN.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
