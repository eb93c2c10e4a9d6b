"""E5 — memory-safety verification of the VMMC firmware (§5.3).

Paper: memory safety is a local property, so each process is checked
separately; the biggest process needed 40 lines of test code, explored
2,251 states exhaustively in 0.5 s / 2.2 MB; and after seeding "a
variety of memory allocation bugs ... the verifier was able to find
the bug in every case", including leaks via the bounded objectId
table.

Regenerated artifact: per-process exhaustive verification of our VMMC
ESP firmware (bounded environments for processes with unbounded
counters), plus seeded use-after-free / double-free / leak bugs that
must each be caught.
"""

import pytest

from benchmarks.harness import Table
from repro.api import compile_source
from repro.lang.program import frontend
from repro.runtime.machine import Machine
from repro.verify import build_isolated_machine, verify_process
from repro.verify.explorer import Explorer
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE
from repro.vmmc.retransmission import (
    build_machine as build_retransmission_machine,
    protocol_source,
)
from tests.test_transition_cache import relay_pipeline

# Per-process verification plans: environment bounds per §5.3's remark
# that abstraction keeps the search tractable.
PLANS = {
    "sm1": dict(int_domain=(0, 40, 5000), env_budget=3),
    "receiver": dict(int_domain=(0, 1), env_budget=3),
    "pageTable": dict(int_domain=(0, 1), env_budget=4),
    "completer": dict(int_domain=(0, 1)),
    "acker": dict(int_domain=(0, 1)),
    "sender": dict(int_domain=(0, 1), env_budget=2),
}

# Seeded memory bugs (§5.3's experiment): each replaces a fragment of
# the firmware; all are in sm1/sender, the processes that manage the
# chunk buffers.
SEEDED_BUGS = {
    "leak_chunk_buffer": (
        "out( chunkC, { dest, chunk, msgid, last, buf });\n                unlink( buf);",
        "out( chunkC, { dest, chunk, msgid, last, buf });",
    ),
    "double_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n            unlink( ibuf);",
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n            unlink( ibuf);\n            unlink( ibuf);",
    ),
    "use_after_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n            unlink( ibuf);",
        "unlink( ibuf);\n            out( chunkC, { dest, size, msgid, 1, ibuf });",
    ),
}

BUG_PROCESS = {
    "leak_chunk_buffer": "sm1",
    "double_free": "sm1",
    "use_after_free": "sm1",
}

# Leaks only trip the bounded objectId table once enough garbage
# accumulates within the environment budget; size the table so a
# clean run fits comfortably (it keeps <= 3 objects live) and the
# leaking run does not (§5.2: the fixed-size table catches leaks).
BUG_MAX_OBJECTS = {
    "leak_chunk_buffer": 4,
    "double_free": 12,
    "use_after_free": 12,
}


@pytest.fixture(scope="module")
def clean_reports():
    front = frontend(VMMC_ESP_SOURCE)
    reports = {}
    for process, plan in PLANS.items():
        reports[process] = verify_process(
            front, process, max_states=100_000, max_objects=24, **plan
        )
    return reports


def test_verification_table(clean_reports):
    table = Table(
        "Per-process memory-safety verification (§5.3)",
        ["process", "verdict", "states", "transitions", "time (s)", "~MB"],
    )
    for process, report in clean_reports.items():
        r = report.result
        table.add(process, "ok" if report.ok else "VIOLATION", r.states,
                  r.transitions, round(r.elapsed_seconds, 3),
                  round(r.memory_bytes / 1e6, 2))
    table.note("paper: biggest process = 2,251 states, 0.5 s, 2.2 MB "
               "(exhaustive)")
    table.show()


def test_every_process_is_memory_safe(clean_reports):
    for process, report in clean_reports.items():
        assert report.ok, f"{process}: {report.result.violations[:1]}"


def test_biggest_process_in_papers_regime(clean_reports):
    # The paper's headline number: thousands of states, sub-second to
    # seconds, a few MB.
    report = clean_reports["sm1"]
    assert 500 <= report.result.states <= 100_000
    assert report.result.elapsed_seconds < 30


def _buggy_source(name: str) -> str:
    old, new = SEEDED_BUGS[name]
    assert old in VMMC_ESP_SOURCE, f"bug template {name!r} no longer matches"
    return VMMC_ESP_SOURCE.replace(old, new)


@pytest.mark.parametrize("bug", sorted(SEEDED_BUGS))
def test_seeded_bug_is_found(bug):
    front = frontend(_buggy_source(bug))
    process = BUG_PROCESS[bug]
    plan = dict(PLANS[process])
    report = verify_process(front, process, max_states=100_000,
                            max_objects=BUG_MAX_OBJECTS[bug], **plan)
    assert not report.ok, f"seeded {bug} was not detected"
    violation = report.result.violations[0]
    assert violation.kind == "memory"
    if bug == "leak_chunk_buffer":
        assert "object table exhausted" in violation.message
    elif bug == "double_free":
        assert "double free" in violation.message or "use after free" in violation.message
    else:
        assert "use after free" in violation.message


def test_seeded_bug_table():
    table = Table(
        "Seeded memory-bug detection (§5.3)",
        ["bug", "detected", "violation"],
    )
    for bug in sorted(SEEDED_BUGS):
        front = frontend(_buggy_source(bug))
        report = verify_process(front, BUG_PROCESS[bug],
                                max_states=100_000,
                                max_objects=BUG_MAX_OBJECTS[bug],
                                **PLANS[BUG_PROCESS[bug]])
        message = (report.result.violations[0].message[:48]
                   if report.result.violations else "-")
        table.add(bug, not report.ok, message)
    table.note("paper: 'the verifier was able to find the bug in every case'")
    table.show()


def test_benchmark_biggest_process_verification(benchmark):
    front = frontend(VMMC_ESP_SOURCE)
    benchmark(
        lambda: verify_process(front, "sm1", max_states=100_000,
                               max_objects=24, **PLANS["sm1"])
    )


# -- serial throughput regression gate -----------------------------------------
#
# The collapse-compressed, copy-on-write hot path is a performance
# claim, so it gets a regression gate: every model must explore the
# seed commit's state space (702f570) at no less than 70% of its
# baseline states/sec (generous because container CPU time is noisy).

_REGRESSION_TOLERANCE = 0.30

# Per model: states and transitions at the seed commit, and the
# baseline states/sec, measured on a shared 2-core host with the
# transition cache in place.
BASELINE = {
    "retransmission w2m3": (873, 2153, 9713.0),
    "retransmission w3m4": (3013, 7605, 8152.2),
    "vmmc sm1": (5713, 14422, 4894.7),
    "pipeline s12m4": (1186, 3308, 8050.6),
    "pipeline s32m4": (47501, 166788, 6177.7),
}


def _throughput_models():
    front = frontend(VMMC_ESP_SOURCE)
    return {
        "retransmission w2m3": lambda: build_retransmission_machine(
            protocol_source(2, 3)
        ),
        "retransmission w3m4": lambda: build_retransmission_machine(
            protocol_source(3, 4)
        ),
        "vmmc sm1": lambda: build_isolated_machine(
            front, "sm1", max_objects=24, **PLANS["sm1"]
        )[0],
        "pipeline s12m4": lambda: Machine(
            compile_source(relay_pipeline(12, 4))
        ),
        "pipeline s32m4": lambda: Machine(
            compile_source(relay_pipeline(32, 4))
        ),
    }


def test_throughput_regression_gate():
    table = Table(
        "Serial exploration throughput (collapse store + COW snapshots)",
        ["model", "states", "transitions", "time (s)", "states/s",
         "B/state", "vs baseline"],
    )
    regressions = []
    for name, make in _throughput_models().items():
        result = Explorer(make(), stop_at_first=False).explore()
        assert result.ok and result.complete, (name, result.violations[:1])
        states, transitions, baseline = BASELINE[name]
        # The state space itself must not have drifted.
        assert (result.states, result.transitions) == (states, transitions), \
            name
        rate = result.states / result.elapsed_seconds
        table.add(name, result.states, result.transitions,
                  round(result.elapsed_seconds, 3), int(rate),
                  round(result.memory_bytes / result.states, 1),
                  f"{rate / baseline:.2f}x")
        floor = baseline * (1.0 - _REGRESSION_TOLERANCE)
        if rate < floor:
            regressions.append(f"{name}: {rate:.0f} states/s < {floor:.0f} "
                               f"(baseline {baseline:.0f})")
    table.note("paper: biggest process = 2,251 states, 0.5 s, 2.2 MB; "
               "B/state is the store's actual footprint")
    table.show()
    assert not regressions, "throughput regressed: " + "; ".join(regressions)
