"""The ESP verifier: the SPIN role of Figure 4, reimplemented over ESP
semantics (exhaustive, bit-state, and simulation modes; deadlock,
assertion, invariant, and memory-safety checking)."""

from repro.verify.bitstate import BitstateExplorer, BitstateStore
from repro.verify.counterexample import (
    ReplayError,
    format_trace,
    replay_path,
    replay_violation,
    report,
    shortest,
)
from repro.verify.coupled import CoupledSystem, Link
from repro.verify.environment import (
    ChoiceWriter,
    ScriptWriter,
    SinkReader,
    default_verification_bridges,
    entry_arg_choices,
    enumerate_values,
)
from repro.verify.explorer import Explorer, ExploreResult
from repro.verify.liveness import (
    LivenessResult,
    check_always_eventually,
    check_no_goal_free_cycles,
    process_runs,
)
from repro.verify.memsafety import (
    MemSafetyReport,
    build_isolated_machine,
    isolate_process,
    verify_process,
)
from repro.verify.properties import (
    Invariant,
    Violation,
    max_live_objects,
    process_never_at,
    refcounts_match_references,
)
from repro.verify.simulate import SimulationResult, Simulator
from repro.verify.state import canonical_state, is_quiescent, pack_state

__all__ = [
    "Explorer",
    "ExploreResult",
    "LivenessResult",
    "check_always_eventually",
    "check_no_goal_free_cycles",
    "process_runs",
    "CoupledSystem",
    "Link",
    "BitstateExplorer",
    "BitstateStore",
    "Simulator",
    "SimulationResult",
    "Violation",
    "Invariant",
    "max_live_objects",
    "refcounts_match_references",
    "process_never_at",
    "ChoiceWriter",
    "ScriptWriter",
    "SinkReader",
    "default_verification_bridges",
    "entry_arg_choices",
    "enumerate_values",
    "verify_process",
    "isolate_process",
    "build_isolated_machine",
    "MemSafetyReport",
    "canonical_state",
    "pack_state",
    "is_quiescent",
    "format_trace",
    "report",
    "shortest",
    "replay_path",
    "replay_violation",
    "ReplayError",
]
