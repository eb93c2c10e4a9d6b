"""Shared plumbing for the ``espc serve`` test battery.

``daemon_process`` runs the real CLI entry point (``espc serve``) in a
subprocess — the same code path users get, including signal handlers
and the shutdown cleanup the leak-check test asserts on.  The daemon's
socket path doubles as a process marker: forked workers inherit the
daemon's command line, so scanning ``/proc`` for the unique socket path
finds every process the daemon is responsible for.

``serial_reference`` computes the ground truth a daemon answer must
match: the same job run to completion in *this* process — what a
one-shot ``espc verify`` of the program computes.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

from repro.serve.client import ServeClient, wait_for_server
from repro.serve.keys import JobSpec
from repro.serve.worker import run_job


@contextlib.contextmanager
def daemon_process(tmp_path, workers: int = 2, cache_dir=None,
                   extra_args=(), extra_env=None):
    """A live ``espc serve`` subprocess, with ``extra_env`` added to
    this process's environment; yields ``SimpleNamespace(socket,
    proc)`` and guarantees the process is gone on exit (graceful
    shutdown first, SIGKILL as a last resort)."""
    socket_path = os.path.join(str(tmp_path), "serve.sock")
    cmd = [
        sys.executable, "-m", "repro.tools.cli", "serve",
        "--socket", socket_path, "--workers", str(workers),
    ]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    cmd += list(extra_args)
    env = dict(os.environ, **(extra_env or {}))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        wait_for_server(socket_path, timeout=30)
        yield SimpleNamespace(socket=socket_path, proc=proc)
    finally:
        if proc.poll() is None:
            with contextlib.suppress(Exception):
                with ServeClient(socket_path, timeout=10) as client:
                    client.shutdown()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def processes_matching(marker: str) -> list[int]:
    """PIDs of live processes whose command line contains ``marker``
    (the daemon, its forked workers, and their fork children all share
    the daemon's command line)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read()
        except OSError:
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry))
    return pids


def serial_reference(spec: JobSpec) -> dict:
    """The result body this spec must produce, ``stats`` included: the
    job run in this process, minus the worker's provenance — the serial
    ``espc verify`` ground truth for the differential tests."""
    body = run_job(spec, 0)
    del body["worker"]
    return body


def canonical_json(body: dict) -> str:
    """Stable bytes for byte-identical comparisons."""
    return json.dumps(body, sort_keys=True)


# Small closed programs with distinct state-space sizes, used as the
# mixed job corpus by the e2e tests and the load benchmark.
def chain_source(messages: int, assert_bound: int | None = None) -> str:
    lines = ["channel c: int", "process producer {"]
    for i in range(messages):
        lines.append(f"    out( c, {i % 3});")
    lines += ["}", "process consumer {", f"    $n = 0;",
              f"    while (n < {messages}) {{",
              "        in( c, $x);"]
    if assert_bound is not None:
        lines.append(f"        assert( x <= {assert_bound});")
    lines += ["        n = n + 1;", "    }", "}"]
    return "\n".join(lines) + "\n"
