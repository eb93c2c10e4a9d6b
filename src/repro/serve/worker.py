"""The verification worker: one forked process, many jobs.

The daemon forks a pool of these at startup and *shares them across
concurrent verifications* — a worker is not tied to a job, it pulls
whatever the queue holds next.  A worker carries no state from one job
to the next: each job compiles its program, builds a fresh machine and
visited store, and explores it exactly as a one-shot ``espc verify``
would, so a result body (minus ``worker``) is a pure function of the
job's spec.

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


def result_body(result, report=None) -> dict:
    """The JSON-able result document of one exploration — the thing the
    cache stores, built from an ``ExploreResult`` (plus the §5.3
    harness report of a ``process`` job)."""
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
    }
    if report is not None:
        body["process_report"] = {
            "process": report.process,
            "env_channels": report.env_channels,
            "sink_channels": report.sink_channels,
            "message_choices": report.message_choices,
        }
    return body


def run_job(spec, attempt: int) -> dict:
    """Execute one verification job; returns the JSON-able result body.

    The body is deterministic for a given (canonical program, spec):
    no timestamps, no memory probes that depend on address-space
    layout, no state left over from earlier jobs — byte-identical
    across workers and runs, which is what lets the cache serve it
    verbatim forever.
    """
    from repro.api import compile_source
    from repro.lang.program import frontend
    from repro.runtime.machine import Machine
    from repro.serve.keys import JobSpec
    from repro.verify.environment import default_verification_bridges
    from repro.verify.explorer import Explorer
    from repro.verify.memsafety import build_isolated_machine

    assert isinstance(spec, JobSpec)
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

    result = Explorer(
        machine, max_states=spec.max_states, max_depth=spec.max_depth,
        check_deadlock=spec.check_deadlock,
        quiescence_ok=spec.quiescence_ok, reduce=spec.reduce,
    ).explore()

    body = result_body(result, report)
    # Worker-side observability: NOT part of the cached result (the
    # daemon strips this key before caching — it differs per worker).
    body["worker"] = {"pid": os.getpid(), "attempt": attempt}
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
            body = run_job(spec, attempt=msg.get("attempt", 0))
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
