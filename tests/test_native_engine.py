"""The native engine's operational surface (everything that is not
covered by trace parity in test_engine_differential.py):

* the content-addressed build cache — a second machine for the same
  program must load the existing ``.so`` without invoking the compiler,
  in under 100 ms;
* graceful degradation — no C compiler means one actionable error from
  the API and an ``espc: error:`` line + exit 2 from the CLI (which
  ``espc sim`` reaches only if ``--engine`` arrives at the firmware),
  and engine auto-selection never silently picks native;
* ``--engine`` does not leak into (or clobber) the caller's
  environment;
* ``dlopen`` isolation — each machine gets its own copy of the shared
  object's globals;
* the unsupported-feature errors (``max_objects``, the ``random``
  policy, verification) point at ``--engine compiled``;
* the ``slow``-marked native soak — 10k payloads over a 5%-lossy link
  with exact counter reconciliation, the native twin of the soak in
  test_fault_injection.py.
"""

from __future__ import annotations

import importlib.util
import os
import time

import pytest

from repro import compile_source, create_machine, create_scheduler
from repro.backends.c import build
from repro.backends.c.build import NativeBuildUnavailable, find_cc
from repro.runtime.machine import Machine
from repro.runtime.native import NativeMachine, NativeScheduler
from repro.sim.faults import FaultPlan
from repro.tools import cli
from repro.vmmc.retransmission import run_over_faulty_link

needs_cc = pytest.mark.skipif(find_cc() is None,
                              reason="no C compiler available")

SOURCE = """
channel c: int

process ping {
    $i = 0;
    while (i < 3) { out( c, i * 10); i = i + 1; }
}

process pong {
    $n = 0;
    while (n < 3) { in( c, $v); print(v); n = n + 1; }
}
"""

EXPECTED_PRINTS = [("pong", [0]), ("pong", [10]), ("pong", [20])]


def _run_native(program):
    machine = create_machine(program, engine="native")
    result = create_scheduler(machine).run()
    return machine, result


# -- the content-addressed build cache -----------------------------------------


@needs_cc
def test_second_build_hits_cache_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("ESP_NATIVE_CACHE", str(tmp_path))
    program = compile_source(SOURCE)

    first, result = _run_native(program)
    assert not first.cache_hit  # cold cache: the compiler really ran
    assert result.reason == "done"
    assert first.prints == EXPECTED_PRINTS
    artifacts = sorted(p.name for p in tmp_path.iterdir())
    assert len(artifacts) == 2  # {key}.c + {key}.so
    assert {p.rsplit(".", 1)[1] for p in artifacts} == {"c", "so"}

    # Second build: same key, so the compiler must never be invoked.
    def _no_compiler(*args, **kwargs):
        raise AssertionError("cache hit must not invoke the C compiler")

    monkeypatch.setattr(build.subprocess, "run", _no_compiler)
    # A warm load is codegen + hash + dlopen: well under a cc run.
    start = time.perf_counter()
    second = create_machine(program, engine="native")
    load_seconds = time.perf_counter() - start
    assert second.cache_hit
    assert load_seconds < 0.100, f"warm load took {load_seconds:.3f} s"
    result = create_scheduler(second).run()
    assert result.reason == "done"
    assert second.prints == EXPECTED_PRINTS
    assert sorted(p.name for p in tmp_path.iterdir()) == artifacts


@needs_cc
def test_cache_key_tracks_the_source(tmp_path, monkeypatch):
    monkeypatch.setenv("ESP_NATIVE_CACHE", str(tmp_path))
    create_machine(compile_source(SOURCE), engine="native")
    create_machine(compile_source(SOURCE.replace("i * 10", "i * 11")),
                   engine="native")
    so_files = [p for p in tmp_path.iterdir() if p.suffix == ".so"]
    assert len(so_files) == 2  # different source, different artifact


# -- graceful degradation without a compiler -----------------------------------


def test_no_compiler_is_one_actionable_error(monkeypatch):
    monkeypatch.setenv("ESP_NATIVE_CC", "/nonexistent/compiler")
    assert find_cc() is None
    with pytest.raises(NativeBuildUnavailable) as exc:
        create_machine(compile_source(SOURCE), engine="native")
    assert str(exc.value) == (
        "no C compiler found for --engine native (install gcc, or point "
        "ESP_NATIVE_CC at one); use --engine compiled instead"
    )


def test_no_compiler_cli_exit_code_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ESP_NATIVE_CC", "/nonexistent/compiler")
    src = tmp_path / "t.esp"
    src.write_text(SOURCE)
    rc = cli.main(["run", str(src), "--engine", "native"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("espc: error: no C compiler found")
    assert "--engine compiled" in err


@pytest.mark.parametrize("topology", [[], ["--topology", "4"]],
                         ids=["2-node", "fabric"])
def test_no_compiler_sim_exit_code_2(topology, monkeypatch, capsys):
    # Sim output is byte-identical on every engine, so this error is
    # what shows that --engine reached the firmware's machines.
    monkeypatch.setenv("ESP_NATIVE_CC", "/nonexistent/compiler")
    rc = cli.main(["sim", "--engine", "native", "--messages", "2",
                   *topology])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "espc: error: no C compiler found")


def test_auto_selection_never_picks_native(monkeypatch):
    # Whatever the host toolchain looks like, the library's default
    # engine is the pure-Python one; native is opt-in only.  The
    # suite's ESP_ENGINE switch rebinds the loaded module's default, so
    # the shipped value is read from a fresh copy of the module.
    spec = importlib.util.find_spec("repro.runtime.machine")
    shipped = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shipped)
    monkeypatch.setattr("repro.runtime.machine.DEFAULT_ENGINE",
                        shipped.DEFAULT_ENGINE)
    machine = create_machine(compile_source(SOURCE))
    assert machine.engine == "compiled"


# -- engine selection ----------------------------------------------------------


def test_engine_flag_does_not_leak_into_environ(tmp_path, monkeypatch,
                                                capsys):
    src = tmp_path / "t.esp"
    src.write_text(SOURCE)

    monkeypatch.delenv("ESP_ENGINE", raising=False)
    assert cli.main(["run", str(src), "--engine", "ast"]) == 0
    assert "ESP_ENGINE" not in os.environ  # regression: used to leak

    monkeypatch.setenv("ESP_ENGINE", "compiled")
    assert cli.main(["run", str(src), "--engine", "ast"]) == 0
    assert os.environ["ESP_ENGINE"] == "compiled"  # prior value kept
    capsys.readouterr()


def test_machine_class_rejects_native():
    # Machine() is the snapshot/restore implementation; asking it for
    # the native engine must point at the factory instead of
    # half-working.
    with pytest.raises(ValueError, match="create_machine"):
        Machine(compile_source(SOURCE), engine="native")


@needs_cc
def test_verify_refuses_native(tmp_path, monkeypatch, capsys):
    src = tmp_path / "t.esp"
    src.write_text(SOURCE)
    rc = cli.main(["verify", str(src), "--engine", "native"])
    assert rc == 2
    assert "does not support verification" in capsys.readouterr().err


# -- unsupported features point at --engine compiled ---------------------------


@needs_cc
def test_native_unsupported_features():
    program = compile_source(SOURCE)
    with pytest.raises(ValueError, match="max_objects"):
        NativeMachine(program, max_objects=100)
    machine = create_machine(program, engine="native")
    with pytest.raises(ValueError, match="'random' policy"):
        NativeScheduler(machine, policy="random")
    with pytest.raises(ValueError, match="unknown scheduling policy"):
        NativeScheduler(machine, policy="sorted")


# -- dlopen isolation ----------------------------------------------------------


@needs_cc
def test_two_machines_do_not_share_globals():
    program = compile_source(SOURCE)
    a = create_machine(program, engine="native")
    b = create_machine(program, engine="native")
    # Run `a` to completion first; if the .so image were shared, `b`
    # would observe a's advanced PCs/channel state instead of t=0.
    assert create_scheduler(a).run().reason == "done"
    assert create_scheduler(b).run().reason == "done"
    assert a.prints == EXPECTED_PRINTS
    assert b.prints == EXPECTED_PRINTS
    assert a.counters.transfers == b.counters.transfers == 3


# -- the native soak -----------------------------------------------------------


@pytest.mark.slow
@needs_cc
def test_native_soak_bidirectional_10k_payloads_at_5pct_loss():
    """The native twin of the soak in test_fault_injection.py: 10k
    payloads across a 5%-lossy link with the firmware Machines running
    inside the shared object, every counter reconciled exactly."""
    report = run_over_faulty_link(messages=5000, messages_back=5000,
                                  plan=FaultPlan(seed=42, drop=0.05),
                                  engine="native")
    assert report.converged, report.summary()
    assert report.exactly_once_in_order()
    for side in (0, 1):
        rel = report.nics[side]["reliability"]
        wire = report.wire[f"wire{side}"]
        assert wire["packets"] == (rel["data_sent"] + rel["retransmissions"]
                                   + rel["acks_sent"])
        assert wire["lost"] == report.faults[f"wire{side}"]["drop"]
        assert wire["delivered"] == wire["packets"] - wire["lost"]
        assert rel["data_sent"] == 5000
        assert rel["delivered"] == 5000
        assert rel["retransmissions"] > 0
        assert rel["timeouts"] > 0
        assert rel["recoveries"] > 0
        assert (report.nics[side]["heap_live_objects"]
                == report.nics[side]["heap_live_baseline"])
