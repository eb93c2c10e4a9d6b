"""The ESP runtime: heap, interpreter, channels, scheduler, externals."""

from repro.runtime.external import (
    CallbackReader,
    CallbackWriter,
    CollectorReader,
    ExternalReader,
    ExternalWriter,
    QueueWriter,
)
from repro.runtime.heap import Heap
from repro.runtime.machine import (
    ExternalAccept,
    ExternalDeliver,
    Machine,
    Rendezvous,
    create_machine,
)
from repro.runtime.scheduler import (
    RunResult,
    Scheduler,
    create_scheduler,
)
from repro.runtime.values import HeapObject, Ref

__all__ = [
    "Machine",
    "Scheduler",
    "create_machine",
    "create_scheduler",
    "RunResult",
    "Heap",
    "HeapObject",
    "Ref",
    "Rendezvous",
    "ExternalDeliver",
    "ExternalAccept",
    "ExternalWriter",
    "ExternalReader",
    "QueueWriter",
    "CollectorReader",
    "CallbackReader",
    "CallbackWriter",
]
