"""Golden Figure 5 points: the simulated results and the interpreter
counters they are charged from.

``tests/goldens/fig5_points.json`` pins, for vmmcESP (``esp``) and
vmmcOrig (``orig``), the Fig. 5(a) ping-pong latency at 4 B and the
Fig. 5(b) one-way bandwidth at 1 KB: the headline number, the elapsed
simulated time, the per-NIC cycle totals and wire counters, and — for
``esp`` — every interpreter counter of each NIC's ESP machine
(``instructions``, ``context_switches``, ``transfers``, ``alt_blocks``,
``matches``, ``idle_polls``, ``prints``).  The NIC charges cycles from
those counters, so a scheduler change that adds or drops a single idle
poll moves Fig. 5; this file makes that visible.  Every engine must
reproduce the file exactly.

Regenerating (only after an intentional change to the firmware, the
cost model or the scheduler's charging, with every engine re-checked):

    PYTHONPATH=src python tests/test_fig5_golden.py
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.backends.c.build import find_cc
from repro.runtime.interp import InterpCounters
from repro.vmmc import workloads

GOLDEN = Path(__file__).resolve().parent / "goldens" / "fig5_points.json"

POINTS = {
    "pingpong_latency_4": (workloads.pingpong_latency, 4),
    "one_way_bandwidth_1024": (workloads.one_way_bandwidth, 1024),
}

COUNTERS = tuple(f.name for f in fields(InterpCounters))


def _points() -> dict:
    """Run every pinned point under the current default engine."""
    pairs = []
    build_pair = workloads.build_pair

    def recording_build_pair(*args, **kwargs):
        pair = build_pair(*args, **kwargs)
        pairs.append(pair)
        return pair

    out = {}
    workloads.build_pair = recording_build_pair
    try:
        for impl in ("esp", "orig"):
            for name, (fn, size) in POINTS.items():
                result = fn(impl, size)
                row = {
                    "latency_us": result.latency_us,
                    "bandwidth_mb_s": result.bandwidth_mb_s,
                    "elapsed_us": result.elapsed_us,
                    "messages": result.messages,
                    "extra": result.extra,
                }
                if impl == "esp":
                    row["counters"] = [
                        {key: getattr(nic.firmware.machine.counters, key)
                         for key in COUNTERS}
                        for nic in pairs[-1].nics
                    ]
                out[f"{impl}/{name}"] = row
    finally:
        workloads.build_pair = build_pair
    return out


def _render(points: dict) -> str:
    return json.dumps(points, sort_keys=True, indent=1) + "\n"


ENGINES = [
    "compiled",
    "ast",
    pytest.param("native", marks=pytest.mark.skipif(
        find_cc() is None, reason="no C compiler available")),
]


@pytest.mark.parametrize("engine", ENGINES)
def test_fig5_points_match_golden(engine, monkeypatch):
    monkeypatch.setattr("repro.runtime.machine.DEFAULT_ENGINE", engine)
    assert _render(_points()) == GOLDEN.read_text()


def test_golden_pins_the_headline_numbers_and_counters():
    data = json.loads(GOLDEN.read_text())
    assert data["esp/pingpong_latency_4"]["latency_us"] == 43.64371155160636
    assert data["esp/one_way_bandwidth_1024"]["bandwidth_mb_s"] == 29.03992003957636
    for name in POINTS:
        nics = data[f"esp/{name}"]["counters"]
        assert len(nics) == 2
        for counters in nics:
            assert set(counters) == set(COUNTERS)
            assert counters["idle_polls"] > 0 and counters["matches"] > 0
        assert "counters" not in data[f"orig/{name}"]


if __name__ == "__main__":  # regeneration entry point (see docstring)
    GOLDEN.write_text(_render(_points()))
    print(f"wrote {GOLDEN.relative_to(Path.cwd())}")
