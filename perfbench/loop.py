"""The closed loop shared by the ``verify`` and ``firmware`` workloads:
one in-process job at a time, a calibration gap between jobs, whole
rounds of a seeded shuffle of a fixed job list.

A job is any object with ``name``, ``cls``, ``run(tracer) -> outcome``,
``check(outcome) -> bool`` and ``counts(outcome) -> dict``.  Checking
and counting happen outside the timed region.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict

from harness import Tracer, coverage, geomean, geomean_of_medians, \
    median, self_times


class ClosedLoop:
    def __init__(self, jobs, seed: int, seconds: float, trace: bool,
                 calibrator):
        self.jobs = list(jobs)
        self.cls_of = {job.name: job.cls for job in self.jobs}
        self.order = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.calibrator = calibrator
        self.tracer = Tracer(enabled=False)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0  # jobs whose output did not match the reference
        self.errors: list[str] = []
        # Untraced job times (scaled to the reference speed), per job.
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        # Traced runs only: the layers' self time (scaled, ms), in all
        # and per job.
        self.layer_ms: dict[str, float] = defaultdict(float)
        self.job_layer_ms: dict[tuple, float] = defaultdict(float)
        self.outcomes: dict[str, object] = {}
        self.untraced_total = 0.0
        self.traced_total = 0.0

    def next_round(self) -> list:
        """The next round: every job once, in a seeded shuffle."""
        batch = list(self.jobs)
        self.order.shuffle(batch)
        return batch

    def run(self) -> None:
        gc.collect()
        before = self.calibrator.gap()
        started = time.perf_counter()
        while True:
            for index, job in enumerate(self.next_round()):
                if not self.trace:
                    before = self._pass(job, False, before)
                    continue
                # Traced run: the job runs untraced and traced back to
                # back, in alternating order, so the pair shares the
                # host's speed and the difference is the tracing cost.
                for traced in ((False, True) if index % 2 == 0
                               else (True, False)):
                    before = self._pass(job, traced, before)
            self.rounds += 1
            if time.perf_counter() - started >= self.seconds:
                break

    def _pass(self, job, traced: bool, before: list) -> list:
        """Run ``job`` once between two calibration gaps, check its
        output and book its time; returns the closing gap."""
        tracer = self.tracer
        tracer.enabled = traced
        self.attempted += 1
        tracer.job = f"{job.name}#{self.attempted}"
        mark = len(tracer.spans)
        start = time.perf_counter()
        outcome = tracer.call("job", job.run, tracer)
        elapsed = time.perf_counter() - start
        # Every job starts from a collected heap, so what the collector
        # does inside it does not depend on which job ran before.
        gc.collect()
        after = self.calibrator.gap()
        scaled = elapsed * self.calibrator.bracket(before, after)
        self._check(job, outcome)
        if traced:
            self.traced_total += scaled
            self._layers(job.name, tracer.spans[mark:], scaled / elapsed)
            for key, value in job.counts(outcome).items():
                tracer.add(key, value)
        else:
            self.untraced_total += scaled
            self.raw[job.name].append(elapsed)
            self.scaled[job.name].append(scaled)
        return after

    def _check(self, job, outcome) -> None:
        self.outcomes[job.name] = outcome
        try:
            ok = job.check(outcome)
        except Exception as err:  # a malformed outcome is a wrong one
            ok, reason = False, repr(err)
        else:
            reason = "output differs from its reference"
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{job.name}: {reason}")

    def _layers(self, job: str, spans, factor: float) -> None:
        own = self_times(spans)
        for span in spans:
            if span["name"] != "job":
                ms = own[span["id"]] * 1000 * factor
                self.layer_ms[span["name"]] += ms
                self.job_layer_ms[(job, span["name"])] += ms

    # -- results ------------------------------------------------------------------

    def jobs_per_s(self) -> float:
        """Jobs over summed job time, for one round of the job list at
        each job's median time (one slow repetition of a long job does
        not swing the run)."""
        return len(self.scaled) / sum(median(ts)
                                      for ts in self.scaled.values())

    def job_geomean_ms(self) -> float:
        return geomean_of_medians(self.scaled) * 1000

    def class_geomean_ms(self, cls: str) -> float:
        """Geometric mean of the per-job medians of one job class."""
        medians = [median(ts) for name, ts in self.scaled.items()
                   if self.cls_of[name] == cls]
        return geomean(medians) * 1000 if medians else 0.0

    def per_round(self, value: float) -> float:
        """A traced total expressed per round of the job list."""
        return value / max(self.rounds, 1)

    def count(self, name: str) -> float:
        return self.per_round(self.tracer.counts.get(name, 0))

    def layer(self, name: str) -> float:
        """A layer's self time per round (ms, scaled)."""
        return self.per_round(self.layer_ms.get(name, 0.0))

    def job_layer(self, job: str, name: str) -> float:
        """One job's self time in one layer, per round (ms, scaled)."""
        return self.per_round(self.job_layer_ms.get((job, name), 0.0))

    def trace_overhead_pct(self) -> float:
        return (self.traced_total / self.untraced_total - 1.0) * 100.0

    def coverage_pct(self) -> tuple[float, float]:
        total, lowest = coverage(self.tracer.spans)
        return total * 100.0, lowest * 100.0
