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

``run_until`` is the one dispatch loop.  It checks its stop predicate
before every event, so a run stops on the exact event that made the
predicate true and ``now`` is that event's time; predicates must
therefore be cheap (the fabric's convergence check is a counter).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable


class Simulator:
    """The event queue and clock shared by all simulated components."""

    def __init__(self):
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

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 10_000_000,
                  until_us: float | None = None) -> bool:
        """Run until ``predicate()`` holds, checking it before every
        event; returns False when the queue drained first, or when the
        ``until_us`` deadline passed (the soak harness's
        non-convergence watchdog).  Draining the queue with
        ``run_until(lambda: False)`` is the plain "run everything"."""
        times = self._times
        buckets = self._buckets
        for _ in range(max_events):
            if predicate():
                return True
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
        else:
            if predicate():
                return True
            raise RuntimeError(f"simulation exceeded {max_events} events")
        # Drained, or the horizon reached.  Only an unsatisfied
        # predicate advances the clock to the horizon, so the watchdog
        # clamp never masquerades as the convergence time; a
        # time-dependent predicate sees the clamped clock.
        if until_us is not None and until_us > self.now:
            self.now = until_us
        return predicate()

    def pending(self) -> int:
        """Unfired events — including the not-yet-dispatched remainder
        of the bucket a ``run_until`` stopped inside."""
        return self._count
