"""Concurrency differential soak for ``espc serve``.

N concurrent clients flood one daemon with a mixed corpus — the
examples, the retransmission protocol family, hand-built chains, and
derandomized hypothesis programs — with every job duplicated across
clients so cache hits, in-flight coalescing, and same-key races all
actually happen.  The contract under that load:

* every reply's whole result (verdict, state/transition counts, full
  violation text with traces, and stats) is byte-identical to a serial
  ``espc verify``-equivalent run of the same spec in this process;
* two replies for the same cache key are byte-identical to each other,
  no matter which client got the cached copy and which raced;
* each distinct cache key was explored exactly once — the daemon's
  books must show ``submitted == completed + cache hits + coalesced``
  with ``completed == len(unique keys)``.
"""

from __future__ import annotations

import random
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.api import compile_source
from repro.serve.client import ServeClient
from repro.serve.keys import JobSpec, cache_key, canonical_ir_hash
from repro.vmmc.retransmission import protocol_source
from tests.serve_util import (
    canonical_json,
    chain_source,
    daemon_process,
    serial_reference,
)
from tests.strategies import esp_programs

ESP_DIR = Path(__file__).resolve().parent.parent / "examples" / "esp"

CLIENTS = 4
COPIES = 3  # each spec submitted this many times across clients


def _corpus() -> list[JobSpec]:
    specs = []
    # Leg 1: the examples corpus (vmmc capped like the reduction suite).
    for name in ("add5.esp", "appendix_b.esp", "retransmission.esp"):
        source = (ESP_DIR / name).read_text()
        specs.append(JobSpec(source=source, filename=name))
    specs.append(JobSpec(source=(ESP_DIR / "vmmc.esp").read_text(),
                         filename="vmmc.esp", max_states=2_000))
    # Leg 2: the retransmission family, plain and reduced
    # (quiescence_ok=False turns protocol termination into a deadlock
    # verdict: violation traces included).
    family = [(1, 2), (2, 3), (3, 4)]
    for window, messages in family:
        source = protocol_source(window, messages)
        specs.append(JobSpec(source=source, quiescence_ok=False))
        specs.append(JobSpec(source=source, quiescence_ok=False,
                             reduce="por,sym"))
    # Leg 3: chains with ok and violating verdicts at several sizes,
    # and one under the per-process memory-safety harness.
    for n in (2, 4, 6):
        specs.append(JobSpec(source=chain_source(n)))
        specs.append(JobSpec(source=chain_source(n, assert_bound=1)))
    specs.append(JobSpec(source=chain_source(5), process="consumer"))
    return specs


@pytest.mark.slow
def test_concurrent_clients_match_serial_verify(tmp_path):
    specs = _corpus()
    references = {
        id(spec): canonical_json(serial_reference(spec)) for spec in specs
    }
    unique_keys = {
        cache_key(canonical_ir_hash(compile_source(spec.source,
                                                   spec.filename)), spec)
        for spec in specs
    }

    # Duplicate and deal across clients (deterministic shuffle): the
    # same spec lands on different connections, so identical keys race.
    jobs = [spec for spec in specs for _ in range(COPIES)]
    random.Random(7).shuffle(jobs)
    lanes = [jobs[i::CLIENTS] for i in range(CLIENTS)]

    with daemon_process(tmp_path, workers=3) as daemon:
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def client_lane(lane_id: int, lane: list[JobSpec]) -> None:
            try:
                with ServeClient(daemon.socket, timeout=600) as client:
                    results[lane_id] = list(
                        zip(lane, client.submit_many(lane, window=8))
                    )
            except BaseException as err:  # surfaced below
                errors.append(err)

        threads = [
            threading.Thread(target=client_lane, args=(i, lane))
            for i, lane in enumerate(lanes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
            assert not thread.is_alive(), "soak client wedged"
        assert not errors, errors

        by_key: dict[str, str] = {}
        total = 0
        for lane in results.values():
            for spec, reply in lane:
                total += 1
                assert reply["ok"], reply
                body = canonical_json(reply["result"])
                # Byte-identical to the serial ground truth ...
                assert body == references[id(spec)], (
                    f"daemon diverged from serial verify for "
                    f"{spec.filename} (key {reply['key'][:12]})"
                )
                # ... and to every other reply for the same key, cached,
                # coalesced, or freshly explored alike.
                assert by_key.setdefault(reply["key"], body) == body
        assert total == len(jobs)

        with ServeClient(daemon.socket) as client:
            stats = client.stats()
        jobs_stats = stats["jobs"]
        assert jobs_stats["submitted"] == len(jobs)
        # Exactly one exploration per distinct key: everything else was
        # answered from the cache or coalesced onto an in-flight job.
        assert jobs_stats["completed"] == len(unique_keys)
        assert jobs_stats["failed"] == 0 and jobs_stats["retried"] == 0
        assert jobs_stats["submitted"] == (
            jobs_stats["completed"] + jobs_stats["coalesced"]
            + stats["cache"]["hits"]
        )
        assert stats["cache"]["hits"] > 0  # the duplicates did hit


# -- hypothesis leg: every generated program, daemon vs serial -----------------


@pytest.fixture(scope="module")
def hypothesis_daemon(tmp_path_factory):
    with daemon_process(tmp_path_factory.mktemp("serve-hyp"),
                        workers=2) as daemon:
        yield daemon


@pytest.mark.slow
@settings(max_examples=40, deadline=None, derandomize=True)
@given(esp_programs())
def test_generated_programs_daemon_matches_serial(hypothesis_daemon, source):
    # One long-lived daemon serves every generated program, so each
    # answer also shows that no earlier job leaked into a later one.
    spec = JobSpec(source=source, quiescence_ok=False)
    with ServeClient(hypothesis_daemon.socket) as client:
        reply = client.submit(spec, check=True)
    assert reply["ok"], reply
    assert canonical_json(reply["result"]) \
        == canonical_json(serial_reference(spec))
