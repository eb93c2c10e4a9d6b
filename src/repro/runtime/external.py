"""External channels: the ESP ↔ host-code interface (§4.5).

ESP exposes a *single* external interface mechanism — channels — for
both C (execution) and SPIN (verification).  In this reproduction the
"C side" is Python code implementing the same two-function protocol
the paper requires of C programmers:

* for an **external writer** channel (host code sends into ESP), the
  bridge answers ``is_ready()`` with the 1-based index of the
  interface pattern that is ready (0 = nothing), exactly like the
  paper's ``UserReqIsReady``; ``take(entry_name)`` then produces the
  argument tuple for that pattern's binders, like ``UserReqSend``'s
  out-parameters in reverse;
* for an **external reader** channel (ESP sends to host code), the
  bridge answers ``can_accept()`` and receives ``accept(entry_name,
  args)`` with the values extracted by the matching pattern —
  patterns minimise the ESP-object handling host code must do (§4.5).

Subclass or instantiate with callables.  Bridges may optionally
implement ``snapshot()``/``restore(state)`` so the verifier can
include environment state in the explored state vector.
"""

from __future__ import annotations

from collections import deque
from typing import Callable


class ExternalWriter:
    """Host-side writer for one external channel (host → ESP)."""

    def __init__(self, entries: list[str]):
        self.entries = list(entries)

    def is_ready(self) -> int:
        """1-based index of the ready pattern; 0 when nothing to send."""
        raise NotImplementedError

    def take(self, entry_name: str) -> tuple:
        """Consume and return the binder arguments for ``entry_name``."""
        raise NotImplementedError

    def offers(self) -> list[tuple[str, tuple | None]]:
        """All messages the host *could* send right now, as ``(entry
        name, args)`` pairs (used by the verifier to branch; execution
        uses only the first).  Default: derived from ``is_ready``
        without consuming, with ``args`` None.

        ``args`` None means the arguments cannot be previewed: the
        entry is offered on its shape to every waiting receiver whose
        pattern it could match, and the values ``take()`` then supplies
        are checked at delivery (a mismatch is a runtime error).  A
        tuple is the arguments themselves, one per binder of the entry
        in pattern order: a tuple that is short, or holds a value that
        does not convert to its binder's type, is undeliverable, so
        the message stays offered and is never taken."""
        index = self.is_ready()
        if index == 0:
            return []
        return [(self.entries[index - 1], None)]

    def snapshot(self):
        return None

    def restore(self, state) -> None:
        pass


class ExternalReader:
    """Host-side reader for one external channel (ESP → host)."""

    def __init__(self, entries: list[str]):
        self.entries = list(entries)

    def can_accept(self) -> bool:
        return True

    def accept(self, entry_name: str, args: tuple) -> None:
        raise NotImplementedError

    def snapshot(self):
        return None

    def restore(self, state) -> None:
        pass


class QueueWriter(ExternalWriter):
    """A convenient writer fed from a Python-side queue of
    ``(entry_name, args)`` pairs."""

    def __init__(self, entries: list[str]):
        super().__init__(entries)
        self.queue: deque[tuple[str, tuple]] = deque()

    def post(self, entry_name: str, *args) -> None:
        if entry_name not in self.entries:
            raise ValueError(f"unknown interface entry '{entry_name}'")
        self.queue.append((entry_name, tuple(args)))

    def is_ready(self) -> int:
        if not self.queue:
            return 0
        entry_name, _ = self.queue[0]
        return self.entries.index(entry_name) + 1

    def take(self, entry_name: str) -> tuple:
        queued_name, args = self.queue.popleft()
        assert queued_name == entry_name
        return args

    def offers(self) -> list[tuple[str, tuple]]:
        if not self.queue:
            return []
        entry_name, args = self.queue[0]
        return [(entry_name, args)]

    def snapshot(self):
        return tuple(self.queue)

    def restore(self, state) -> None:
        self.queue = deque(state)


class CollectorReader(ExternalReader):
    """A reader that records everything ESP sends (tests, workloads)."""

    def __init__(self, entries: list[str], capacity: int | None = None,
                 on_message: Callable | None = None):
        super().__init__(entries)
        self.received: list[tuple[str, tuple]] = []
        self.capacity = capacity
        self.on_message = on_message

    def can_accept(self) -> bool:
        return self.capacity is None or len(self.received) < self.capacity

    def accept(self, entry_name: str, args: tuple) -> None:
        self.received.append((entry_name, args))
        if self.on_message is not None:
            self.on_message(entry_name, args)

    def snapshot(self):
        return tuple(self.received)

    def restore(self, state) -> None:
        self.received = list(state)


class CallbackReader(ExternalReader):
    """A reader delegating to a callable — the usual device-register
    style hookup (``accept(fn)`` plays the role of a C helper)."""

    def __init__(self, entries: list[str], callback: Callable,
                 ready: Callable[[], bool] | None = None):
        super().__init__(entries)
        self.callback = callback
        self.ready = ready

    def can_accept(self) -> bool:
        return True if self.ready is None else bool(self.ready())

    def accept(self, entry_name: str, args: tuple) -> None:
        self.callback(entry_name, args)


class CallbackWriter(ExternalWriter):
    """A writer delegating to callables (poll/take)."""

    def __init__(self, entries: list[str], poll: Callable[[], int],
                 take: Callable[[str], tuple]):
        super().__init__(entries)
        self._poll = poll
        self._take = take

    def is_ready(self) -> int:
        return self._poll()

    def take(self, entry_name: str) -> tuple:
        return self._take(entry_name)
