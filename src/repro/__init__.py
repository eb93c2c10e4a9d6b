"""repro — a reproduction of "ESP: A Language for Programmable Devices"
(Kumar, Mandelbaum, Yu & Li, PLDI 2001).

Subpackages:

* :mod:`repro.lang` — the ESP frontend (lexer, parser, types, patterns);
* :mod:`repro.ir` — IR, lowering, and the optimizer (§6.1);
* :mod:`repro.runtime` — heap, interpreter, scheduler, external bridges;
* :mod:`repro.verify` — the model-checking verifier (the SPIN role, §5);
* :mod:`repro.backends` — C and Promela code generation (Figure 4);
* :mod:`repro.sim` — the discrete-event Myrinet NIC substrate;
* :mod:`repro.vmmc` — the VMMC firmware case study (§2, §4.6, §6.2);
* :mod:`repro.tools` — the ``espc`` CLI and LoC accounting.
"""

from repro.api import compile_source, compile_source_with_stats
from repro.ir.pipeline import OptLevel
from repro.runtime import (
    CollectorReader,
    Machine,
    QueueWriter,
    Scheduler,
    create_machine,
    create_scheduler,
)

__version__ = "1.0.0"

__all__ = [
    "compile_source",
    "compile_source_with_stats",
    "OptLevel",
    "Machine",
    "Scheduler",
    "create_machine",
    "create_scheduler",
    "QueueWriter",
    "CollectorReader",
    "__version__",
]
