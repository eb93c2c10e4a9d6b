"""Content-addressed cache keys for verification jobs.

A verification result is a pure function of the *lowered program* and
the exploration parameters, so repeat submissions can be answered from
a cache keyed by ``(canonical-IR hash, property set, reduce modes,
state/depth bounds)`` — the same content-addressed discipline
:mod:`repro.backends.c.build` applies to native artifacts.

The canonical-IR encoding deliberately ignores everything that cannot
change the explored state graph:

* **formatting and comments** — erased by the frontend; two sources
  that parse to the same program hash identically;
* **local variable names** — every local (and pattern binder) is
  replaced by a de Bruijn-style index assigned at its first occurrence
  in the process's final instruction stream, so alpha-renamed programs
  hash identically (the checker's ``unique_name`` alpha-renaming gives
  each binder a stable handle to number);
* **source spans** — never encoded;
* **optimizer-internal tables** — ``slot_of``/``canon_order`` are
  derived from the instruction stream and skipped.

Channel names, record field names, union tags, and interface entry
names are *kept*: they are part of the program's external interface
(messages and verdict text mention them).  Two jobs differing in any
property, reduction mode, or bound get different keys.

Caveat, documented in docs/SERVE.md: a cached result's violation text
was rendered from the *first* submission's source, so an alpha-renamed
resubmission that hits the cache sees counterexamples quoting the
original spelling (spans and variable names may differ, verdicts and
state counts never do).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass

from repro.ir import nodes as ir
from repro.ir.nodes import IRProgram
from repro.lang import ast
from repro.verify.reduction import parse_reduce
from repro.verify.state import pack_state

# Bump when the canonical encoding (or anything that feeds the key)
# changes shape: stale cache entries are then simply never hit again.
KEY_VERSION = "esp-serve-key-1"

_SKIPPED_FIELDS = frozenset({"span", "spans", "type"})

# IRProcess fields derived from the instruction stream (or that only
# name things): never part of the canonical encoding.
_SKIPPED_PROC_FIELDS = frozenset(
    {"name", "pid", "locals", "slot_of", "canon_order", "slots_resolved"}
)


class _VarNumbering:
    """De Bruijn-style numbering: unique name -> first-occurrence index."""

    __slots__ = ("ids",)

    def __init__(self):
        self.ids: dict[str, int] = {}

    def id_of(self, name: str) -> int:
        ids = self.ids
        vid = ids.get(name)
        if vid is None:
            vid = len(ids)
            ids[name] = vid
        return vid


def _var_handle(node) -> str:
    """The checker's alpha-renamed handle for a binder/use (falls back
    to the source name for nodes the checker never touched, e.g.
    external-interface patterns)."""
    unique = getattr(node, "unique_name", None)
    return unique if unique is not None else node.name


def _encode(obj, vids: _VarNumbering):
    """A marshal-able canonical tree of one IR/AST/type value."""
    if obj is None or isinstance(obj, (bool, int, str, bytes, float)):
        return obj
    if isinstance(obj, ast.Var):
        return ("Var", vids.id_of(_var_handle(obj)))
    if isinstance(obj, ast.PBind):
        return ("PBind", vids.id_of(_var_handle(obj)))
    if isinstance(obj, (list, tuple)):
        return tuple(_encode(item, vids) for item in obj)
    if isinstance(obj, dict):
        return tuple(
            sorted((_encode(k, vids), _encode(v, vids)) for k, v in obj.items())
        )
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if dataclasses.is_dataclass(obj):
        cls = type(obj)
        parts: list = [cls.__name__]
        for f in dataclasses.fields(cls):
            if f.name in _SKIPPED_FIELDS:
                continue
            parts.append(_encode(getattr(obj, f.name), vids))
        return tuple(parts)
    raise TypeError(
        f"cannot canonically encode {type(obj).__name__!r} for a cache key"
    )


def _encode_instr(instr: ir.Instr, vids: _VarNumbering):
    if isinstance(instr, ir.Decl):
        # ``var`` is a bare unique name, not an ast.Var: number it here
        # so a Decl's binder and its later uses share one id.
        return (
            "Decl",
            vids.id_of(instr.var),
            _encode(instr.expr, vids),
            _encode(instr.var_type, vids),
        )
    return _encode(instr, vids)


def _encode_process(proc: ir.IRProcess):
    vids = _VarNumbering()
    body = tuple(_encode_instr(instr, vids) for instr in proc.instrs)
    extras: list = []
    for f in dataclasses.fields(ir.IRProcess):
        if f.name in _SKIPPED_PROC_FIELDS or f.name in ("instrs",):
            continue
        if f.name == "channel_bits":
            # Bit positions are assignment-order artifacts; only the
            # channel *set* matters (and it is implied by the body).
            continue
        extras.append((f.name, _encode(getattr(proc, f.name), vids)))
    return ("proc", body, tuple(extras))


def canonical_ir(program: IRProgram) -> tuple:
    """The canonical tree of a lowered program (see module docstring)."""
    channels = tuple(
        sorted(
            (name, _encode(info, _VarNumbering()))
            for name, info in program.channels.items()
        )
    )
    interfaces = tuple(
        sorted(
            (
                channel,
                tuple(
                    sorted(
                        (entry, _encode(pattern, _VarNumbering()))
                        for entry, pattern in entries.items()
                    )
                ),
            )
            for channel, entries in program.interfaces.items()
        )
    )
    consts = tuple(sorted(program.consts.items()))
    procs = tuple(_encode_process(p) for p in program.processes)
    return (KEY_VERSION, procs, channels, interfaces, consts)


def canonical_ir_bytes(program: IRProgram) -> bytes:
    """Stable bytes of the canonical tree (marshal format 2, via
    :func:`repro.verify.state.pack_state` — identical across runs and
    processes)."""
    return pack_state(canonical_ir(program))


def canonical_ir_hash(program: IRProgram) -> str:
    """Hex content address of the lowered program."""
    return hashlib.sha256(canonical_ir_bytes(program)).hexdigest()


# ---------------------------------------------------------------------------
# Job specifications
# ---------------------------------------------------------------------------


def normalize_reduce(reduce: str | None) -> str | None:
    """Canonical spelling of a reduction spec ("por,sym" order-free;
    None for no reduction).  An unknown mode raises ``ValueError``."""
    options = parse_reduce(reduce)
    return options.label if options else None


# JobSpec fields by the type their values must have.
_TEXT_FIELDS = ("source", "filename")
_OPTIONAL_TEXT_FIELDS = ("process", "reduce")
# Bound fields by their least meaningful value (null lifts the bound).
_BOUND_FIELDS = {"max_states": 1, "max_depth": 0, "max_objects": 0,
                 "env_budget": 0}
_FLAG_FIELDS = ("check_deadlock", "quiescence_ok")
_INT_LIST_FIELDS = ("int_domain", "array_sizes")


def _is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` is no bound)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field_error(name: str, expected: str, value) -> ValueError:
    return ValueError(f"job field {name!r} must be {expected}, "
                      f"not {value!r}")


@dataclass(frozen=True)
class JobSpec:
    """One verification request, as submitted over the wire.

    ``process`` switches to the per-process memory-safety harness of
    §5.3, whose extra bounds (``int_domain``, ``array_sizes``,
    ``max_objects``, ``env_budget``) then join the key.
    """

    source: str
    filename: str = "<esp>"
    process: str | None = None
    max_states: int | None = 200_000
    max_depth: int | None = None
    reduce: str | None = None
    check_deadlock: bool = True
    quiescence_ok: bool = True
    int_domain: tuple[int, ...] = (0, 1)
    array_sizes: tuple[int, ...] = (1,)
    max_objects: int | None = 24
    env_budget: int | None = None

    def __post_init__(self):
        for name in _TEXT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, str):
                raise _field_error(name, "a string", value)
        for name in _OPTIONAL_TEXT_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise _field_error(name, "a string or null", value)
        for name, least in _BOUND_FIELDS.items():
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= least):
                raise _field_error(name, f"an integer >= {least} or null",
                                   value)
        for name in _FLAG_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise _field_error(name, "true or false", value)
        for name in _INT_LIST_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, tuple) and value
                    and all(_is_int(item) for item in value)):
                raise _field_error(name, "a non-empty list of integers",
                                   value)
        if min(self.array_sizes) < 0:
            raise _field_error("array_sizes", "a list of sizes >= 0",
                               self.array_sizes)
        normalize_reduce(self.reduce)

    def properties(self) -> tuple[str, ...]:
        """The property set this job checks, for the cache key."""
        props = ["safety"]
        if self.check_deadlock:
            props.append("deadlock" + ("" if self.quiescence_ok
                                       else "-strict"))
        if self.process is not None:
            props.append("memory")
        return tuple(sorted(props))

    def to_wire(self) -> dict:
        """The JSON-able request body (tuples become lists)."""
        body = dataclasses.asdict(self)
        body["int_domain"] = list(self.int_domain)
        body["array_sizes"] = list(self.array_sizes)
        return body

    @classmethod
    def from_wire(cls, body: dict) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(body) - known
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        if "source" not in body:
            raise ValueError("job is missing 'source'")
        kwargs = dict(body)
        for name in _INT_LIST_FIELDS:
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


def cache_key(ir_hash: str, spec: JobSpec) -> str:
    """The content address of a job's *result*.

    Everything that can change the verdict, the counterexamples, or
    the reported state/transition counts is folded in.
    """
    h = hashlib.sha256()
    parts = (
        KEY_VERSION,
        ir_hash,
        repr(spec.properties()),
        repr(normalize_reduce(spec.reduce)),
        repr(spec.max_states),
        repr(spec.max_depth),
        repr(spec.process),
        repr(spec.int_domain if spec.process is not None else None),
        repr(spec.array_sizes if spec.process is not None else None),
        repr(spec.max_objects if spec.process is not None else None),
        repr(spec.env_budget if spec.process is not None else None),
    )
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()
