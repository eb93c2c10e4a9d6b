"""End-to-end tests for the ``espc serve`` daemon.

Everything here drives the real CLI daemon over its Unix socket: the
submit path (verdict parity with a serial ``espc verify`` run), the
content-addressed cache (O(1) resubmission, alpha-rename hits,
persistent disk tier), same-key request coalescing, compile-error
and bad-request replies, observability counters, a worker killed
mid-job (respawned, the job retried), and a shutdown that reaps every
forked worker and removes every socket/tempfile even while jobs are
still queued (the leak check).
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.keys import JobSpec
from repro.serve.worker import deterministic_body
from repro.vmmc.retransmission import protocol_source
from tests.serve_util import (
    canonical_json,
    chain_source,
    daemon_process,
    processes_matching,
    serial_reference,
)

OK_SOURCE = chain_source(3)
VIOLATING_SOURCE = chain_source(3, assert_bound=1)

ALPHA_RENAMED_OK = OK_SOURCE.replace("x", "value").replace("$n", "$count") \
                            .replace("n <", "count <").replace("n =", "count =") \
                            .replace("n + 1", "count + 1")


def test_submit_matches_serial_verify(tmp_path):
    specs = [
        JobSpec(source=OK_SOURCE),
        JobSpec(source=VIOLATING_SOURCE),
        JobSpec(source=OK_SOURCE, store="plain"),
        JobSpec(source=protocol_source(2, 2), quiescence_ok=False),
    ]
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            for spec in specs:
                reply = client.submit(spec, check=True)
                assert reply["ok"], reply
                assert canonical_json(deterministic_body(reply["result"])) \
                    == canonical_json(serial_reference(spec))


def test_cache_hit_on_resubmission(tmp_path):
    # Hundreds of states the first time; the cached answer costs O(1),
    # well under 100 ms, however much the first search explored.
    spec = JobSpec(source=protocol_source(2, 3), quiescence_ok=False)
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            first = client.submit(spec, check=True)
            assert first["cached"] is False
            assert first["result"]["states"] > 100
            before = client.stats()["states"]["explored"]
            start = time.perf_counter()
            second = client.submit(spec, check=True)
            elapsed = time.perf_counter() - start
            assert second["cached"] is True
            assert elapsed < 0.100, f"cached answer took {elapsed:.3f} s"
            assert second["key"] == first["key"]
            # Byte-identical body, and no exploration happened for it.
            assert canonical_json(second["result"]) \
                == canonical_json(first["result"])
            stats = client.stats()
            assert stats["states"]["explored"] == before
            assert stats["cache"]["hits"] >= 1


def test_alpha_renamed_and_reformatted_source_hits_cache(tmp_path):
    reformatted = "// a leading comment\n" + \
        ALPHA_RENAMED_OK.replace("    ", "\t")
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            first = client.submit(JobSpec(source=OK_SOURCE), check=True)
            renamed = client.submit(JobSpec(source=reformatted), check=True)
            assert renamed["ir_hash"] == first["ir_hash"]
            assert renamed["key"] == first["key"]
            assert renamed["cached"] is True


def test_differing_bounds_and_modes_miss_cache(tmp_path):
    base = JobSpec(source=OK_SOURCE)
    variants = [
        JobSpec(source=OK_SOURCE, max_states=17),
        JobSpec(source=OK_SOURCE, max_depth=9),
        JobSpec(source=OK_SOURCE, reduce="por,sym"),
        JobSpec(source=OK_SOURCE, check_deadlock=False),
    ]
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            first = client.submit(base, check=True)
            keys = {first["key"]}
            for spec in variants:
                reply = client.submit(spec, check=True)
                assert reply["cached"] is False, spec
                keys.add(reply["key"])
            assert len(keys) == len(variants) + 1  # all distinct


def test_same_key_race_coalesces_to_one_job(tmp_path):
    # One worker, occupied by a slow job: the two identical submissions
    # behind it cannot be answered from the cache, so the second MUST
    # coalesce onto the first's in-flight future (deterministically —
    # requests on one connection are read and keyed in order).
    blocker = JobSpec(source=protocol_source(2, 3), quiescence_ok=False)
    racer = JobSpec(source=OK_SOURCE)
    with daemon_process(tmp_path, workers=1) as daemon:
        with ServeClient(daemon.socket) as client:
            replies = client.submit_many([blocker, racer, racer])
            assert all(r["ok"] for r in replies)
            a, b = replies[1], replies[2]
            assert canonical_json(a["result"]) == canonical_json(b["result"])
            assert canonical_json(deterministic_body(a["result"])) \
                == canonical_json(serial_reference(racer))
            stats = client.stats()
            assert stats["jobs"]["coalesced"] == 1
            # The racing pair cost exactly one exploration.
            assert stats["jobs"]["completed"] == 2


def test_compile_error_reply(tmp_path):
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            reply = client.submit(JobSpec(source="process p { out(; }"))
            assert reply["ok"] is False
            assert reply["kind"] == "compile"
            assert reply["error"]


def test_unknown_job_field_is_a_bad_request(tmp_path):
    # A field JobSpec does not have (``parallel``, which older clients
    # sent) is refused by name, and the daemon keeps serving.
    stale = dict(JobSpec(source=OK_SOURCE).to_wire(), parallel=2)
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            reply = client.submit(stale)
            assert reply["ok"] is False
            assert reply["kind"] == "bad-request", reply
            assert "'parallel'" in reply["error"], reply["error"]
            assert client.submit(JobSpec(source=OK_SOURCE), check=True)["ok"]


def test_unknown_store_is_a_bad_request(tmp_path):
    # Only the collapse and plain stores exist: any other store name,
    # the removed disk store included, is refused by name instead of
    # silently running as collapse, and the daemon keeps serving.
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            for store in ("disk", "bogus"):
                wire = dict(JobSpec(source=OK_SOURCE).to_wire(), store=store)
                reply = client.submit(wire)
                assert reply["ok"] is False
                assert reply["kind"] == "bad-request", reply
                assert repr(store) in reply["error"], reply["error"]
            assert client.submit(JobSpec(source=OK_SOURCE), check=True)["ok"]


def test_mistyped_job_fields_are_bad_requests(tmp_path):
    # A field whose value has the wrong type is refused by name before
    # any worker runs the job (a string bound used to reach the
    # explorer and come back as an "internal" traceback), and the
    # daemon keeps serving.
    mistyped = {
        "source": 5, "filename": None, "process": 7, "reduce": ["por"],
        "store": 4, "max_states": "many", "max_depth": "deep",
        "max_objects": True, "env_budget": 2.5, "check_deadlock": "yes",
        "quiescence_ok": 1, "int_domain": ["0", "1"], "array_sizes": 3,
    }
    wire = JobSpec(source=OK_SOURCE).to_wire()
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            for name, value in mistyped.items():
                reply = client.submit(dict(wire, **{name: value}))
                assert reply["ok"] is False, (name, reply)
                assert reply["kind"] == "bad-request", (name, reply)
                assert repr(name) in reply["error"], (name, reply["error"])
            assert client.submit(JobSpec(source=OK_SOURCE), check=True)["ok"]


def test_daemon_environment_does_not_pick_the_engine(tmp_path):
    # ESP_ENGINE is the test suite's matrix switch, not a daemon
    # setting: a daemon started with it answers exactly as a clean one,
    # even with a value (native) that Machine refuses.
    specs = [JobSpec(source=OK_SOURCE),
             JobSpec(source=OK_SOURCE, process="consumer")]
    bodies = []
    for extra_env in ({}, {"ESP_ENGINE": "native"}):
        with daemon_process(tmp_path, extra_env=extra_env) as daemon:
            with ServeClient(daemon.socket) as client:
                replies = client.submit_many(specs)
        assert all(reply["ok"] for reply in replies), replies
        bodies.append([canonical_json(deterministic_body(reply["result"]))
                       for reply in replies])
    assert bodies[0] == bodies[1]


def test_daemon_on_a_socket_path_makes_no_temp_dir(tmp_path, monkeypatch):
    # Only the default socket needs a directory of the daemon's own.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))

    def made():
        return [n for n in os.listdir(scratch) if n.startswith("esp-serve-")]

    with daemon_process(tmp_path, workers=1) as daemon:
        with ServeClient(daemon.socket) as client:
            assert client.stats()["spool"] is None
            assert client.submit(JobSpec(source=OK_SOURCE), check=True)["ok"]
            assert made() == []
    assert made() == []


def test_lex_and_nesting_errors_reply_as_compile_diagnostics(tmp_path):
    # A non-ASCII digit and too-deep nesting used to escape the front end
    # as ValueError / RecursionError and come back as "bad-request".
    deep = "process p { $x: int = " + "(" * 200 + "1" + ")" * 200 + "; }"
    cases = {
        "process p { $x: int = ²; }": "<esp>:1:23: unexpected character '²'",
        "process p { $x: int = 1²; }": "<esp>:1:23: malformed number '1²'",
        deep: "<esp>:1:",
    }
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            for source, prefix in cases.items():
                reply = client.submit(JobSpec(source=source))
                assert reply["ok"] is False
                assert reply["kind"] == "compile", reply
                assert reply["error"].startswith(prefix), reply["error"]
            assert reply["error"].endswith("nesting too deep")


def test_persistent_cache_dir_survives_daemon_restart(tmp_path):
    cache_dir = tmp_path / "cache"
    spec = JobSpec(source=OK_SOURCE)
    with daemon_process(tmp_path, cache_dir=cache_dir) as daemon:
        with ServeClient(daemon.socket) as client:
            first = client.submit(spec, check=True)
            assert first["cached"] is False
    assert list(cache_dir.glob("*.json")), "disk tier not written"
    with daemon_process(tmp_path, cache_dir=cache_dir) as daemon:
        with ServeClient(daemon.socket) as client:
            again = client.submit(spec, check=True)
            assert again["cached"] is True
            assert canonical_json(again["result"]) \
                == canonical_json(first["result"])
            assert client.stats()["cache"]["disk_hits"] == 1


def test_stats_counters_shape(tmp_path):
    with daemon_process(tmp_path) as daemon:
        with ServeClient(daemon.socket) as client:
            client.submit(JobSpec(source=OK_SOURCE), check=True)
            client.submit(JobSpec(source=OK_SOURCE), check=True)
            stats = client.stats()
    assert stats["queue_depth"] == 0
    assert stats["jobs"]["submitted"] == 2
    assert stats["jobs"]["completed"] == 1
    assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
    assert stats["workers"]["alive"] == 2
    assert stats["keys"]["memo_hits"] == 1
    assert stats["recent_jobs"] and \
        stats["recent_jobs"][0]["verdict"] == "ok"
    json.dumps(stats)  # the whole snapshot must be JSON-able


@pytest.mark.slow
def test_worker_sigkill_mid_job_retries_cleanly(tmp_path):
    # Full exploration (~1.5 s, no early stop): a wide-open window to
    # SIGKILL the only worker while the job runs.
    spec = JobSpec(source=protocol_source(4, 5))
    with daemon_process(tmp_path, workers=1) as daemon:
        with ServeClient(daemon.socket) as client:
            victim = client.stats()["workers"]["pids"][0]
            outcome = {}

            def submit():
                with ServeClient(daemon.socket) as submitter:
                    outcome["reply"] = submitter.submit(spec)

            thread = threading.Thread(target=submit)
            thread.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["inflight"] == 1 and stats["workers"]["idle"] == 0:
                    break
                time.sleep(0.02)
            time.sleep(0.3)  # well inside the job
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=120)
            assert not thread.is_alive()

            reply = outcome["reply"]
            assert reply["ok"], reply
            # The retry, on a respawned worker, gives the exact serial
            # answer.
            assert reply["worker"]["attempt"] == 1
            assert canonical_json(deterministic_body(reply["result"])) \
                == canonical_json(serial_reference(spec))
            stats = client.stats()
            assert stats["jobs"]["retried"] == 1
            assert stats["workers"]["respawned"] == 1
            assert stats["workers"]["alive"] == 1


@pytest.mark.slow
def test_shutdown_under_load_leaves_no_orphans_or_files(tmp_path):
    """The leak check: kill the daemon while jobs are queued and
    running; nothing may survive — no processes carrying the daemon's
    command line, no socket file, no spool directory, no stray
    esp-serve tempdirs."""
    tempdir_before = {
        name for name in os.listdir(tempfile.gettempdir())
        if name.startswith("esp-serve-")
    }
    specs = []
    for i in range(12):
        source = protocol_source(2 + i % 2, 3)
        specs.append(JobSpec(source=source, quiescence_ok=False,
                             store="plain" if i % 3 == 0 else "collapse",
                             max_states=50_000 + i))
    with daemon_process(tmp_path, workers=2) as daemon:
        with ServeClient(daemon.socket) as client:
            spool = client.stats()["spool"]

            def flood():
                try:
                    with ServeClient(daemon.socket) as flooder:
                        flooder.submit_many(specs)
                except Exception:
                    pass  # shutdown races the flood, by design

            thread = threading.Thread(target=flood)
            thread.start()
            # Let the queue fill and workers get busy before pulling
            # the plug mid-load.
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["queue_depth"] > 0 or stats["inflight"] > 1:
                    break
                time.sleep(0.02)
            marker = daemon.socket
            assert processes_matching(marker), "daemon not running?"
            client.shutdown()
        daemon.proc.wait(timeout=60)
        thread.join(timeout=30)
        assert not thread.is_alive()

    # No process still carries the daemon's command line (workers
    # inherit it).
    for _ in range(100):
        if not processes_matching(marker):
            break
        time.sleep(0.05)
    assert processes_matching(marker) == []
    assert not os.path.exists(daemon.socket)
    assert spool is None or not os.path.exists(spool)
    tempdir_after = {
        name for name in os.listdir(tempfile.gettempdir())
        if name.startswith("esp-serve-")
    }
    assert tempdir_after - tempdir_before == set()
