"""The benchmark's own arithmetic: percentiles, per-job medians,
calibration, open-loop timing and the span recorder.

Nothing here imports ``repro``: the calibration loop must measure the
host, not the system under test, and the arithmetic is tested on its
own (``test_harness.py``).
"""

from __future__ import annotations

import gc
import math
import random
import time
from statistics import median

# -- percentiles --------------------------------------------------------------

# A percentile is reported only when at least this many samples lie
# beyond it; below that, the rank sits on a handful of values and the
# figure moves with whichever jobs happened to land there.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND):
    """The ``q``-quantile (0 < q < 1) of ``values`` by nearest rank,
    with the number of samples that lie beyond its rank.

    Raises :class:`TooFewSamples` when fewer than ``min_beyond``
    samples lie beyond the rank.  Infinite values (failed or refused
    requests) sort last, so they count as infinitely late."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it "
            f"(need {min_beyond})")
    return ordered[rank - 1], beyond


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_of_medians(samples_by_job: dict) -> float:
    """Geometric mean, over distinct jobs, of each job's median time.
    A pooled percentile would sit on whichever gap in job sizes its
    rank falls into; per-job medians weigh every distinct job once."""
    return geomean(median(samples) for samples in samples_by_job.values())


# -- calibration ---------------------------------------------------------------

# Work per calibration repetition; about 1.5 ms on an uncontended core.
CALIB_ITERATIONS = 3000
CALIB_REPS = 3
# The reference speed host-time metrics are scaled to: the calibration
# repetition's time on an uncontended core.  Scaled times read as "what
# this job would take on a host where one repetition takes this long".
REF_CALIB_MS = 1.5
# How much job times move with the loop's time, as a log-log slope.
# On a 2-vCPU host, verify and firmware jobs slowed by the loop's
# slowdown to a power of about 0.75: regressing job times on bracketing
# calibration samples gave 0.45-0.66 (an underestimate, as the samples
# are noisy), and 0.75 gave the steadiest runs; 1.0 over-corrects.
CALIB_ELASTICITY = 0.75


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value, link):
        self.value = value
        self.link = link


def _calib_step(cell, table, i):
    key = i & 127
    table[key] = table.get(key, 0) + cell.value
    return _Cell((cell.value * 31 + key) & 0xFFFF, cell)


def calibration_work(iterations: int = CALIB_ITERATIONS) -> int:
    """A fixed pure-Python loop of the operations an interpreter spends
    its time on: calls, attribute and dict access, small allocations."""
    table: dict = {}
    cell = _Cell(1, None)
    items = []
    for i in range(iterations):
        cell = _calib_step(cell, table, i)
        items.append((i, cell.value))
        if len(items) > 64:
            items = items[32:]
    return cell.value + len(table)


def calibration_samples(reps: int) -> list[float]:
    """Time ``reps`` repetitions of the loop (ms).  The collector is
    paused so the loop times the host, not the size of the heap the
    previous job left behind (the loop makes no cycles, so nothing it
    allocates waits for the collector)."""
    out = []
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            calibration_work()
            out.append((time.perf_counter() - start) * 1000.0)
    finally:
        gc.enable()
    return out


class Calibrator:
    """Runs the calibration loop in a gap between jobs.

    Contention on a shared host slows execution rather than
    descheduling the process, and it comes and goes within a run, so
    the loop's time just before and just after a job tracks how fast
    the host ran that job; see :func:`scale_factor`.  (A run-wide
    factor, or a loop over a working set too big for the caches,
    tracked the jobs worse.)"""

    def __init__(self, sample=calibration_samples, reps: int = CALIB_REPS,
                 ref_ms: float = REF_CALIB_MS):
        self.sample = sample
        self.reps = reps
        self.ref_ms = ref_ms
        self.samples: list[float] = []

    def gap(self) -> list[float]:
        out = self.sample(self.reps)
        self.samples.extend(out)
        return out

    def bracket(self, before: list[float], after: list[float]) -> float:
        """The scale factor of a job measured between two gaps."""
        return scale_factor(before + after, self.ref_ms)

    def calib_ms(self) -> float:
        return median(self.samples)


def scale_factor(samples, ref_ms: float = REF_CALIB_MS,
                 elasticity: float = CALIB_ELASTICITY) -> float:
    """Multiply a host time measured while the calibration loop took
    ``median(samples)`` by this to express it at the reference speed."""
    return (ref_ms / median(samples)) ** elasticity


# -- open loop -----------------------------------------------------------------


def poisson_due_times(seed: int, rate_per_s: float, count: int,
                      start: float = 0.0) -> list[float]:
    """Seeded Poisson arrival times (seconds from ``start``)."""
    rng = random.Random(seed)
    due, t = [], start
    for _ in range(count):
        t += rng.expovariate(rate_per_s)
        due.append(t)
    return due


def open_loop_latencies(due, sent, done):
    """Latency of each request from its *due* time (not its send time),
    so a stall that delays later sends is charged to them, and the
    generator's lateness (send minus due).  ``done`` is None for a
    failed or refused request, which counts as infinitely late."""
    latency, lateness = [], []
    for d, s, f in zip(due, sent, done):
        latency.append(math.inf if f is None else f - d)
        lateness.append(s - d)
    return latency, lateness


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: each span has a name, a start, an end,
    its parent span and the id of the job it belongs to; counts are
    added at the same boundaries.  Disabled, it only calls through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.job = None

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"id": index, "parent": parent, "job": self.job,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover
    (children of sequential code are disjoint intervals)."""
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (
                span["end"] - span["start"])
    return {span["id"]: (span["end"] - span["start"])
            - child_time.get(span["id"], 0.0) for span in spans}


def coverage(spans, job_span_name: str = "job") -> tuple[float, float]:
    """The share of all job-span time that falls inside the jobs'
    direct child (layer) spans, and the lowest such share of any one
    job."""
    covered: dict[int, float] = {}
    jobs = {}
    for span in spans:
        if span["name"] == job_span_name:
            jobs[span["id"]] = span["end"] - span["start"]
    for span in spans:
        if span["parent"] in jobs:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"])
    total = sum(jobs.values())
    if not total:
        return 0.0, 0.0
    shares = [covered.get(i, 0.0) / d for i, d in jobs.items() if d > 0]
    return sum(covered.values()) / total, min(shares)
