"""A minimal deterministic discrete-event engine.

Time is in microseconds (float).  Events scheduled at equal times fire
in scheduling (FIFO insertion) order, so runs are fully reproducible.

The queue groups events into per-timestamp FIFO buckets: scheduling
into an existing bucket is O(1) and only *distinct* timestamps touch
the heap, so heavily synchronised workloads (N NICs whose quanta end
at the same instant) do less heap work — and no per-event closure is
allocated.  Event order is exactly the historical (time, sequence)
order: buckets only change how the queue is stored, never what fires
when.

``run_until`` evaluates its stop predicate once per ``batch_events``
events.  The default, 1, evaluates it before every event, which the
2-node harnesses and the golden traces depend on.  At fabric scale the
convergence predicate walks every node's endpoints, so evaluating it
per event is the hot path; a larger batch amortises it.  Event *order*
does not depend on the batch size — one seed still yields
byte-identical stats — only where the predicate may first be observed
true does (a run can overshoot by at most one batch; a run that then
drains to quiescence ends in the same state either way, which is why
per-node counters do not depend on the batch size).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable


class Simulator:
    """The event queue and clock shared by all simulated components."""

    def __init__(self, batch_events: int = 1):
        if batch_events < 1:
            raise ValueError(f"batch_events must be >= 1, got {batch_events}")
        self.batch_events = batch_events
        self.now = 0.0
        self.events_processed = 0
        # Distinct live timestamps, as a heap ...
        self._times: list[float] = []
        # ... each owning a FIFO bucket of (fn, args) entries.
        self._buckets: dict[float, deque] = {}
        # The bucket currently being dispatched (always the earliest:
        # nothing in the heap is <= _ready_time, because same-time
        # schedules append here directly).
        self._ready: deque = deque()
        self._ready_time = 0.0
        self._count = 0

    def schedule(self, delay_us: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after ``delay_us`` microseconds."""
        if delay_us < 0:
            raise ValueError(f"negative delay {delay_us}")
        time = self.now + delay_us
        self._count += 1
        if self._ready and time == self._ready_time:
            # Joins the in-flight bucket, after everything already in
            # it — FIFO order among equal timestamps is preserved no
            # matter when (or from where) the event was scheduled.
            self._ready.append((fn, args))
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque(((fn, args),))
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args))

    def at(self, time_us: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute time ``time_us``."""
        self.schedule(max(0.0, time_us - self.now), fn, *args)

    def _peek_time(self) -> float | None:
        """The timestamp of the next event, or None when drained."""
        if self._ready:
            return self._ready_time
        if self._times:
            return self._times[0]
        return None

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        ready = self._ready
        if not ready:
            if not self._times:
                return False
            time = heapq.heappop(self._times)
            self._ready = ready = self._buckets.pop(time)
            self._ready_time = time
        fn, args = ready.popleft()
        self._count -= 1
        self.now = self._ready_time
        self.events_processed += 1
        fn(*args)
        return True

    def run(self, until_us: float | None = None,
            max_events: int = 10_000_000) -> None:
        """Drain the queue (optionally up to a time horizon)."""
        for _ in range(max_events):
            time = self._peek_time()
            if time is None:
                return
            if until_us is not None and time > until_us:
                self.now = until_us
                return
            self.step()
        raise RuntimeError(f"simulation exceeded {max_events} events")

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 10_000_000,
                  until_us: float | None = None) -> bool:
        """Run until ``predicate()`` holds; returns False when the queue
        drained first, or when the ``until_us`` deadline passed (the
        soak harness's non-convergence watchdog).

        The predicate is evaluated once per ``batch_events`` events; see
        the module docstring for the (unchanged) determinism contract.
        """
        remaining = max_events
        batch = self.batch_events
        times = self._times
        buckets = self._buckets
        while True:
            if predicate():
                return True
            limit = batch if batch < remaining else remaining
            processed = 0
            # The inner loop is the hot path: dispatch straight off the
            # buckets, no per-event predicate or method calls.
            while processed < limit:
                ready = self._ready
                if not ready:
                    if not times:
                        break
                    time = times[0]
                    if until_us is not None and time > until_us:
                        break
                    heapq.heappop(times)
                    self._ready = ready = buckets.pop(time)
                    self._ready_time = time
                elif until_us is not None and self._ready_time > until_us:
                    break
                fn, args = ready.popleft()
                self._count -= 1
                self.now = self._ready_time
                self.events_processed += 1
                fn(*args)
                processed += 1
            remaining -= processed
            if processed < limit:
                # The batch ended early: drained, or horizon reached.
                # A satisfied predicate returns at the current clock —
                # only an *unsatisfied* one advances to the horizon, so
                # the watchdog clamp never masquerades as the
                # convergence time.
                if until_us is None:
                    return predicate()
                if predicate():
                    return True
                if until_us > self.now:
                    self.now = until_us
                return predicate()
            if remaining <= 0:
                if predicate():
                    return True
                raise RuntimeError(
                    f"simulation exceeded {max_events} events"
                )

    def pending(self) -> int:
        """Unfired events — including the not-yet-dispatched remainder
        of the bucket a ``run_until`` stopped inside."""
        return self._count
