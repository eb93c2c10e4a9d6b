"""Load benchmark for the ``espc serve`` daemon.

One real daemon subprocess (the same CLI entry point users run), one
flood: thousands of queued verification jobs drawn from a mixed-size
corpus — tiny chains, the retransmission protocol family, and
bound/mode variants — with every distinct job repeated many times so
the content-addressed cache and in-flight coalescing carry most of the
load, exactly the service's intended regime.

Reported per run (written to ``BENCH_serve.json``, keyed by mode like
BENCH_engine.json):

* end-to-end job latency p50/p99 (client-measured, pipelined over one
  connection — queueing time included, which is the point of a load
  test);
* throughput in jobs/sec over the whole flood;
* cache hit rate and coalesce count, cross-checked against the
  daemon's own books (``submitted == completed + hits + coalesced``);
* states explored, to show the flood cost exactly one exploration per
  distinct cache key.

Gate (enforced in both modes): a warm-cache resubmission of an
already-verified program answers in O(1) — under
``CACHE_HIT_BUDGET_SECONDS`` (100 ms) with zero new states explored —
no matter how much state the original exploration visited.

``ESP_BENCH_SMOKE=1`` scales the flood down (~60 jobs) for CI; the
full run queues ~3000.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from benchmarks.harness import Table
from repro.serve.client import ServeClient
from repro.serve.keys import JobSpec, job_key
from repro.vmmc.retransmission import protocol_source
from tests.serve_util import chain_source, daemon_process

_SMOKE = bool(os.environ.get("ESP_BENCH_SMOKE"))
_BENCH_PATH = pathlib.Path(__file__).with_name("BENCH_serve.json")

CACHE_HIT_BUDGET_SECONDS = 0.100
N_JOBS = 60 if _SMOKE else 3000
WORKERS = 2 if _SMOKE else 3
WINDOW = 64  # pipelining depth on the flood connection


def _distinct_specs() -> list[JobSpec]:
    """The distinct-job pool: mixed state-space sizes (5 to ~6000
    states) and mixed key-changing knobs, so the flood exercises cache
    misses of every cost class, not just one."""
    specs = []
    chain_sizes = (2, 3, 4) if _SMOKE else (2, 3, 4, 6, 8, 10)
    for n in chain_sizes:
        specs.append(JobSpec(source=chain_source(n)))
        specs.append(JobSpec(source=chain_source(n, assert_bound=1)))
    family = [(1, 2), (2, 2)] if _SMOKE else [(1, 2), (2, 2), (2, 3), (3, 4)]
    for window, messages in family:
        source = protocol_source(window, messages)
        specs.append(JobSpec(source=source, quiescence_ok=False))
        specs.append(JobSpec(source=source, quiescence_ok=False,
                             reduce="por,sym"))
    if not _SMOKE:
        # Same sources, different bounds or store: cheap extra keys.
        specs.append(JobSpec(source=chain_source(6), max_depth=64))
        specs.append(JobSpec(source=chain_source(8), max_states=500))
        specs.append(JobSpec(source=protocol_source(2, 3),
                             quiescence_ok=False, store="plain"))
    return specs


def _write_rows(section: str, rows: dict) -> None:
    mode = "smoke" if _SMOKE else "full"
    merged = {}
    if _BENCH_PATH.exists():
        merged = json.loads(_BENCH_PATH.read_text())
    merged.setdefault(mode, {})[section] = rows
    _BENCH_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def test_serve_load(tmp_path):
    pool = _distinct_specs()
    distinct_keys = {job_key(spec) for spec in pool}
    # Deterministic mixed flood: every distinct job repeated until the
    # target job count, shuffled so repeats interleave (forcing the
    # coalesce path while a first copy is still in flight).
    jobs = [pool[i % len(pool)] for i in range(N_JOBS)]
    random.Random(11).shuffle(jobs)

    with daemon_process(tmp_path, workers=WORKERS) as daemon:
        with ServeClient(daemon.socket, timeout=1200) as client:
            start = time.perf_counter()
            timed = client.submit_many(jobs, window=WINDOW, with_timing=True)
            wall = time.perf_counter() - start
            for reply, _ in timed:
                assert reply["ok"], reply
            stats = client.stats()

            # -- the warm-cache O(1) gate -------------------------------
            # The most expensive program in the pool is long since
            # cached; resubmitting it must not explore anything.
            biggest = pool[-1]
            explored_before = stats["states"]["explored"]
            warm_start = time.perf_counter()
            warm = client.submit(biggest, check=True)
            warm_elapsed = time.perf_counter() - warm_start
            assert warm["cached"] is True, "flood did not warm the cache?"
            assert client.stats()["states"]["explored"] == explored_before
            assert warm_elapsed < CACHE_HIT_BUDGET_SECONDS, (
                f"warm-cache resubmission took {warm_elapsed * 1000:.1f} ms "
                f"(budget {CACHE_HIT_BUDGET_SECONDS * 1000:.0f} ms)")

    latencies = sorted(seconds for _, seconds in timed)
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    jobs_stats = stats["jobs"]
    hit_rate = stats["cache"]["hits"] / max(jobs_stats["submitted"], 1)

    # The daemon's books must balance: every submission was either
    # explored once, answered from the cache, or coalesced in flight —
    # and each distinct key cost exactly one exploration.
    assert jobs_stats["submitted"] == N_JOBS
    assert jobs_stats["failed"] == 0
    assert jobs_stats["completed"] == len(distinct_keys)
    assert jobs_stats["submitted"] == (
        jobs_stats["completed"] + jobs_stats["coalesced"]
        + stats["cache"]["hits"])

    rows = dict(
        jobs=N_JOBS,
        distinct_keys=len(distinct_keys),
        workers=WORKERS,
        wall_seconds=round(wall, 3),
        throughput_jobs_per_sec=round(N_JOBS / max(wall, 1e-9), 1),
        latency_p50_ms=round(p50 * 1000, 2),
        latency_p99_ms=round(p99 * 1000, 2),
        cache_hits=stats["cache"]["hits"],
        cache_hit_rate=round(hit_rate, 3),
        coalesced=jobs_stats["coalesced"],
        states_explored=stats["states"]["explored"],
        warm_cache_seconds=round(warm_elapsed, 4),
        warm_cache_budget_seconds=CACHE_HIT_BUDGET_SECONDS,
    )
    table = Table(
        "espc serve under load: mixed flood over one daemon",
        ["jobs", "keys", "jobs/s", "p50 ms", "p99 ms",
         "hit rate", "coalesced", "warm hit ms"],
    )
    table.add(N_JOBS, len(distinct_keys), rows["throughput_jobs_per_sec"],
              rows["latency_p50_ms"], rows["latency_p99_ms"],
              f"{hit_rate:.1%}", jobs_stats["coalesced"],
              f"{warm_elapsed * 1000:.1f}")
    table.note(f"gate: warm-cache resubmission < "
               f"{CACHE_HIT_BUDGET_SECONDS * 1000:.0f} ms, zero new states "
               "(enforced in both modes)")
    table.show()
    _write_rows("load", rows)
