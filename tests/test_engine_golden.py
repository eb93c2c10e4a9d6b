"""Golden event traces for the VMMC retransmission firmware.

``tests/goldens/retrans_seed*.json`` holds the canonical run report
(``FaultyLinkReport.stats_json()`` — delivery lists, per-NIC
reliability and heap counters, wire stats, injected-fault tallies,
convergence time, event count; serialized with sorted keys so the
bytes are stable) for three deterministic fault plans, produced by the
AST reference engine.  The compiled engine must reproduce each file
*byte for byte*: the firmware's Machine sits inside a discrete-event
simulation, so any divergence in instruction counts, timing quanta, or
message contents shows up in the trace.

Regenerating (only after an intentional semantic change, with both
engines re-checked) runs the AST engine:

    PYTHONPATH=src python tests/test_engine_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.backends.c.build import find_cc
from repro.sim.faults import FaultPlan
from repro.vmmc.retransmission import run_over_faulty_link

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# Three fault plans covering distinct failure modes: loss+duplication,
# reordering+delay, and corruption+DMA stalls.  Small message counts
# keep each run under a second while still forcing retransmissions.
PLANS = {
    "retrans_seed101": dict(
        messages=60, messages_back=0,
        plan=FaultPlan(seed=101, drop=0.05, dup=0.02)),
    "retrans_seed202": dict(
        messages=60, messages_back=20,
        plan=FaultPlan(seed=202, reorder=0.03, delay=0.05)),
    "retrans_seed303": dict(
        messages=60, messages_back=0,
        plan=FaultPlan(seed=303, drop=0.02, corrupt=0.02, dma_stall=0.01)),
}


def _run(name: str, engine: str) -> str:
    report = run_over_faulty_link(window=4, engine=engine, **PLANS[name])
    assert report.converged, f"{name} did not converge"
    assert report.exactly_once_in_order(), f"{name} delivery check failed"
    return report.stats_json() + "\n"


@pytest.mark.parametrize("name", sorted(PLANS))
def test_compiled_engine_matches_golden(name):
    # The default engine (compiled) must reproduce the reference trace
    # byte for byte.
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _run(name, "compiled") == golden


@pytest.mark.parametrize("name", sorted(PLANS))
def test_ast_engine_matches_golden(name):
    # The reference engine still reproduces its own goldens — guards
    # against interpreter drift invalidating the files silently.
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _run(name, "ast") == golden


@pytest.mark.parametrize("name", sorted(PLANS))
@pytest.mark.skipif(find_cc() is None, reason="no C compiler available")
def test_native_engine_matches_golden(name):
    # The loaded native engine (C shared object, batched quanta) must
    # also reproduce the reference traces byte for byte — through the
    # whole firmware + discrete-event simulation stack.
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _run(name, "native") == golden


def test_goldens_are_canonical_json():
    for name in sorted(PLANS):
        text = (GOLDEN_DIR / f"{name}.json").read_text()
        data = json.loads(text)
        # sorted keys + trailing newline == the exact stats_json format
        assert text == json.dumps(data, sort_keys=True) + "\n"
        assert data["converged"] is True


if __name__ == "__main__":  # regeneration entry point (see docstring)
    for name in sorted(PLANS):
        (GOLDEN_DIR / f"{name}.json").write_text(_run(name, "ast"))
        print(f"wrote goldens/{name}.json")
