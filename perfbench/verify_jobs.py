"""The ``verify`` workload: a fixed corpus of model-checking jobs, each
from source text to verdict (parse, check, lower, build the machine,
explore), checked against a hand-written table of verdicts and, for
plain exhaustive searches, exact state and transition counts."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.pipeline import compile_ir
from repro.lang.parser import parse
from repro.lang.program import frontend_from_ast
from repro.runtime.machine import Machine
from repro.verify import memsafety
from repro.verify.bitstate import BitstateExplorer
from repro.verify.environment import (
    ChoiceWriter,
    SinkReader,
    default_verification_bridges,
)
from repro.verify.explorer import Explorer
from repro.verify.memsafety import build_isolated_machine
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE
from repro.vmmc.retransmission import protocol_source

import programs

# -- the corpus ---------------------------------------------------------------

# Per-process environment bounds for the VMMC firmware (§5.3).
PLANS = {
    "sm1": dict(int_domain=(0, 40, 5000), env_budget=3),
    "receiver": dict(int_domain=(0, 1), env_budget=3),
    "pageTable": dict(int_domain=(0, 1), env_budget=4),
    "completer": dict(int_domain=(0, 1)),
    "acker": dict(int_domain=(0, 1)),
}

# Seeded memory bugs in sm1: (text replaced, replacement, object-table
# size, a phrase the violation message must contain).
SEEDED_BUGS = {
    "leak_chunk_buffer": (
        "out( chunkC, { dest, chunk, msgid, last, buf });\n"
        "                unlink( buf);",
        "out( chunkC, { dest, chunk, msgid, last, buf });",
        4, "object table exhausted"),
    "double_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n"
        "            unlink( ibuf);",
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n"
        "            unlink( ibuf);\n            unlink( ibuf);",
        12, "free"),
    "use_after_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n"
        "            unlink( ibuf);",
        "unlink( ibuf);\n"
        "            out( chunkC, { dest, size, msgid, 1, ibuf });",
        12, "use after free"),
}

# The reference table.  Verdicts follow from how each model is built:
# the clean protocol and firmware are memory safe and deadlock free,
# each seeded bug is a memory violation, and a chain that sends 2 past
# an ``assert( x <= 1)`` fails it.  Plain exhaustive searches must
# also match these state/transition counts (the paper's §5.3 regime).
COUNTS = {
    "vmmc sm1": (5713, 14422),
    "vmmc receiver": (361, 952),
    "vmmc pageTable": (561, 2040),
    "vmmc completer": (13, 76),
    "vmmc acker": (5, 8),
    "retrans w1m2": (138, 319),
    "retrans w2m2": (512, 1223),
    "retrans w2m3": (873, 2153),
    "retrans w3m4": (3013, 7605),
    "pipeline s4m3": (32, 48),
    "pipeline s8m3": (140, 286),
    "pipeline s12m4": (1186, 3308),
    "compute s3m2w20": (12, 14),
    "compute s4m3w20": (32, 48),
}


# One small job of each kind, run once untimed before measuring.
WARM_UP = ("vmmc acker", "vmmc acker por,sym", "vmmc sm1 double_free",
           "retrans w2m2 bitstate", "retrans w1m2 por,sym", "pipeline s4m3",
           "chain3 assert")


@dataclass
class VerifyJob:
    name: str
    cls: str
    source: str
    mode: str = "plain"  # "plain" | "por,sym" | "bitstate"
    process: str | None = None
    plan: dict = field(default_factory=dict)
    max_objects: int = 24
    harness: str = "default"  # external bridges of a whole program
    expect_kind: str | None = None  # violation kind, None when clean
    expect_phrase: str = ""
    counts_ref: tuple[int, int] | None = None

    def run(self, tracer):
        tree = tracer.call("lang.parse", parse, self.source, self.name)
        front = tracer.call("lang.check", frontend_from_ast, tree)
        if self.process is not None:
            machine, _report = tracer.call(
                "runtime.build", build_isolated_machine, front, self.process,
                max_objects=self.max_objects, **self.plan)
        else:
            program, _opt = traced_compile(tracer, front)
            machine = tracer.call("runtime.build", Machine, program,
                                  externals=self._externals(program))
        result = tracer.call("verify.explore", self._explore, machine)
        return {"result": result, "bytes": len(self.source)}

    def _externals(self, program):
        if self.harness == "retransmission":
            return {
                "timeoutC": ChoiceWriter(["Timeout"], [("Timeout", (0,))]),
                "allDoneC": SinkReader(["Done"]),
                "dropC": SinkReader(["Drop"]),
            }
        return default_verification_bridges(program)

    def _explore(self, machine):
        stop = self.expect_kind is not None
        if self.mode == "bitstate":
            return BitstateExplorer(machine, stop_at_first=stop).explore()
        reduce = None if self.mode == "plain" else self.mode
        return Explorer(machine, max_states=100_000, stop_at_first=stop,
                        reduce=reduce).explore()

    def check(self, outcome) -> bool:
        result = outcome["result"]
        if self.expect_kind is None:
            if result.violations:
                return False
        else:
            if not result.violations:
                return False
            violation = result.violations[0]
            if violation.kind != self.expect_kind or \
                    self.expect_phrase not in violation.message:
                return False
        if self.counts_ref is not None:
            return (result.states, result.transitions) == self.counts_ref
        return True

    def counts(self, outcome) -> dict:
        result = outcome["result"]
        stats = getattr(result, "stats", None) or {}
        out = {"lang.source_bytes": outcome["bytes"]}
        states = getattr(result, "states", None)
        if states is None:  # bit-state search stores no states
            states = result.states_stored
        out["verify.states"] = states
        out["verify.transitions"] = result.transitions
        out["verify.transitions_pruned"] = getattr(
            result, "transitions_pruned", 0)
        memory = getattr(result, "memory_bytes", 0)
        if memory:
            out["verify.store_bytes"] = memory
            out["verify.stored_states"] = states
        interp = stats.get("interp", {})
        for name in ("instructions", "context_switches", "transfers"):
            out[f"runtime.{name}"] = interp.get(name, 0)
        snap = stats.get("snapshot", {})
        out["verify.snap_reused"] = snap.get("proc_records_reused", 0)
        out["verify.snap_built"] = snap.get("proc_records_built", 0)
        tables = stats.get("store", {}).get("tables", {}).values()
        out["verify.intern_hits"] = sum(t.get("hits", 0) for t in tables)
        out["verify.intern_misses"] = sum(t.get("misses", 0) for t in tables)
        return out


def corpus() -> list[VerifyJob]:
    jobs = []
    for process, plan in PLANS.items():
        name = f"vmmc {process}"
        jobs.append(VerifyJob(name, "vmmc", VMMC_ESP_SOURCE, process=process,
                              plan=plan, counts_ref=COUNTS[name]))
        jobs.append(VerifyJob(f"{name} por,sym", "vmmc", VMMC_ESP_SOURCE,
                              mode="por,sym", process=process, plan=plan))
    for bug, (old, new, max_objects, phrase) in SEEDED_BUGS.items():
        if old not in VMMC_ESP_SOURCE:
            raise RuntimeError(f"seeded bug {bug!r} no longer applies")
        jobs.append(VerifyJob(
            f"vmmc sm1 {bug}", "vmmc", VMMC_ESP_SOURCE.replace(old, new),
            process="sm1", plan=PLANS["sm1"], max_objects=max_objects,
            expect_kind="memory", expect_phrase=phrase))
    for window, messages in ((1, 2), (2, 2), (2, 3), (3, 4)):
        name = f"retrans w{window}m{messages}"
        source = protocol_source(window, messages)
        jobs.append(VerifyJob(name, "retrans", source,
                              harness="retransmission",
                              counts_ref=COUNTS[name]))
        jobs.append(VerifyJob(f"{name} por,sym", "retrans", source,
                              mode="por,sym", harness="retransmission"))
        if (window, messages) in ((2, 2), (2, 3)):
            jobs.append(VerifyJob(f"{name} bitstate", "retrans", source,
                                  mode="bitstate", harness="retransmission"))
    for stages, messages in ((4, 3), (8, 3), (12, 4)):
        name = f"pipeline s{stages}m{messages}"
        jobs.append(VerifyJob(name, "pipeline",
                              programs.relay_pipeline(stages, messages),
                              counts_ref=COUNTS[name]))
    for stages, messages, work in ((3, 2, 20), (4, 3, 20)):
        name = f"compute s{stages}m{messages}w{work}"
        jobs.append(VerifyJob(name, "pipeline",
                              programs.compute_pipeline(stages, messages,
                                                        work),
                              counts_ref=COUNTS[name]))
    for n in (3, 6, 10):
        jobs.append(VerifyJob(f"chain{n} assert", "chain",
                              programs.chain(n, assert_bound=1),
                              expect_kind="assertion"))
    return jobs


def traced_compile(tracer, front, *args):
    """``compile_ir`` inside an ``ir.compile`` span, counting the
    instructions left after optimisation and the rewrites made."""
    program, opt = tracer.call("ir.compile", compile_ir, front, *args)
    tracer.add("ir.instrs", sum(after for _before, after
                                in opt.per_process_instrs.values()))
    tracer.add("ir.rewrites", opt.total())
    return program, opt


def install_traced_compile(tracer) -> None:
    """Let a traced run see the IR compile that
    :func:`build_isolated_machine` runs internally, by wrapping the
    public ``compile_ir`` it calls."""
    memsafety.compile_ir = lambda front, *args: traced_compile(
        tracer, front, *args)


def uninstall_traced_compile() -> None:
    memsafety.compile_ir = compile_ir
