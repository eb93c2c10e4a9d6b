"""The verification worker: one forked process, many jobs.

The daemon forks a pool of these at startup and *shares them across
concurrent verifications* — a worker is not tied to a job, it pulls
whatever the queue holds next.  Long-lived workers are what make
incremental re-verification cheap: the collapse component tables
(:class:`repro.verify.collapse.CollapseTables`) persist across jobs,
so re-verifying an edited program re-interns every unchanged process
and heap component to its existing table slot instead of re-measuring
it (interning is injective, so sharing tables between programs is
sound — each job keeps its own visited set).

Crash discipline: a worker that dies mid-job (OOM-killed, SIGKILLed)
leaves its pipe broken; the daemon respawns the worker and retries the
job from scratch.
"""

from __future__ import annotations

import os
import signal
import sys
import traceback

from repro.errors import ESPError
from repro.verify.collapse import CollapseTables, MachineCollapseStore

# Retained component tables are reset once they cross this many
# components, bounding a long-lived worker's footprint.
TABLE_COMPONENT_LIMIT = 1 << 20


def result_body(result, spec, report=None) -> dict:
    """The JSON-able result document of one exploration — the thing the
    cache stores.  Built from an ``ExploreResult`` by both the worker
    and the differential tests' serial reference runs, so "byte
    identical" comparisons are about the *exploration*, not about two
    formatting functions."""
    body = {
        "ok": result.ok,
        "verdict": "ok" if result.ok else "violations",
        "states": result.states,
        "transitions": result.transitions,
        "transitions_pruned": result.transitions_pruned,
        "complete": result.complete,
        "max_depth": result.max_depth,
        "violations": [
            {
                "kind": v.kind,
                "message": v.message,
                "depth": v.depth,
                "trace": list(v.trace),
            }
            for v in result.violations
        ],
        "stats": result.stats,
        "store": spec.store,
    }
    if report is not None:
        body["process_report"] = {
            "process": report.process,
            "env_channels": report.env_channels,
            "sink_channels": report.sink_channels,
            "message_choices": report.message_choices,
        }
    return body


def deterministic_body(body: dict) -> dict:
    """The spec-determined projection of a result body: verdict,
    state/transition counts, and full violation text — everything that
    must be byte-identical no matter which worker ran the job, which
    visited-store backend held its states, or how warm the retained
    collapse tables were.  (``stats`` and ``store`` are excluded: table
    hit/miss counters depend on what a long-lived worker served before,
    and the store label names the backend — neither is part of the
    verification *answer*.)"""
    return {k: v for k, v in body.items()
            if k not in ("stats", "store", "worker")}


def run_job(spec, attempt: int, tables: CollapseTables) -> dict:
    """Execute one verification job; returns the JSON-able result body.

    The body is deterministic for a given (canonical program, spec):
    no timestamps, no memory probes that depend on address-space
    layout — byte-identical across workers and runs, which is what
    lets the cache serve it verbatim forever.
    """
    from repro.api import compile_source
    from repro.lang.program import frontend
    from repro.runtime.machine import Machine
    from repro.serve.keys import JobSpec, normalize_reduce
    from repro.verify.environment import default_verification_bridges
    from repro.verify.explorer import Explorer
    from repro.verify.memsafety import build_isolated_machine

    assert isinstance(spec, JobSpec)
    reduce = normalize_reduce(spec.reduce)
    tables.jobs_served += 1
    table_reset = tables.reset_if_over(TABLE_COMPONENT_LIMIT)

    report = None
    if spec.process is not None:
        front = frontend(spec.source, spec.filename)
        machine, report = build_isolated_machine(
            front, spec.process, spec.int_domain, spec.array_sizes,
            max_objects=spec.max_objects, env_budget=spec.env_budget,
        )
    else:
        program = compile_source(spec.source, spec.filename)
        machine = Machine(
            program,
            externals=default_verification_bridges(
                program, int_domain=spec.int_domain
            ),
        )

    store = ("plain" if spec.store == "plain"
             else MachineCollapseStore(tables=tables))
    result = Explorer(
        machine, max_states=spec.max_states, max_depth=spec.max_depth,
        check_deadlock=spec.check_deadlock,
        quiescence_ok=spec.quiescence_ok, store=store, reduce=reduce,
    ).explore()

    body = result_body(result, spec, report)
    # Worker-side observability: NOT part of the cached result (the
    # daemon strips this key before caching — it differs per worker).
    body["worker"] = {
        "pid": os.getpid(),
        "attempt": attempt,
        "tables": tables.stats(),
        "table_reset": table_reset,
    }
    return body


def worker_main(conn) -> None:
    """Pull jobs off the daemon pipe until told to stop.

    SIGTERM exits through ``SystemExit``, a clean interpreter exit (the
    daemon's shutdown path sends it to a worker still busy after the
    stop message).
    """
    from repro.serve.keys import JobSpec

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # daemon handles ^C
    tables = CollapseTables()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None or msg.get("op") == "stop":
            break
        job_id = msg.get("id")
        try:
            spec = JobSpec.from_wire(msg["spec"])
            body = run_job(spec, attempt=msg.get("attempt", 0),
                           tables=tables)
            reply = {"id": job_id, "ok": True, "result": body}
        except ESPError as err:
            reply = {"id": job_id, "ok": False, "kind": "compile",
                     "error": err.format()}
        except Exception:
            reply = {"id": job_id, "ok": False, "kind": "internal",
                     "error": traceback.format_exc()}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
