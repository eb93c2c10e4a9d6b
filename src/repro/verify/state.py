"""Canonical global-state encoding for the verifier.

A global state is a snapshot of every process (PC, locals, block
reason) plus the heap and the external-environment state (§5.1).  Heap
objectIds depend on allocation order, so two semantically identical
states can differ in raw ids; we canonicalise by renumbering objects
in deterministic root-traversal order (process order, then local name
order), which makes loop states hash equal and keeps state spaces
small — the same role the objectId tables play in the paper's SPIN
translation (§5.2).

Objects that are live but unreachable from any root (leaked memory)
are appended in allocation order: leaks therefore *grow* the state
vector, so a leaking loop never closes a cycle and eventually trips
the bounded object table — which is how the verifier catches leaks.
"""

from __future__ import annotations

import marshal
import pickle

from repro.runtime.interp import Status
from repro.runtime.machine import Machine
from repro.runtime.values import Ref, UNSET

# The shared ``("ref", k)`` token of canonical heap slot ``k``: every
# encoded reference to slot ``k`` is this one tuple, so the visited
# store keeps (and measures) it once.
_REF_TOKENS: list[tuple] = []


def ref_token(k: int) -> tuple:
    """The shared encoding of a reference to canonical heap slot ``k``."""
    tokens = _REF_TOKENS
    while len(tokens) <= k:
        tokens.append(("ref", len(tokens)))
    return tokens[k]


class HeapWalk:
    """The canonical heap renumbering every state keyer shares.

    References are numbered in the order the walk first meets them;
    each reached object is recorded once, in ``entries``, as ``(slot,
    kind, tag, mutable, refcount, data)`` (``(slot, "dangling")`` when
    it is freed or unknown).  ``refs`` counts the references encoded,
    so a caller can tell whether an entry it built holds any."""

    __slots__ = ("objects", "remap", "entries", "refs")

    def __init__(self, objects: dict):
        self.objects = objects
        self.remap: dict[int, int] = {}
        self.entries: list[tuple] = []
        self.refs = 0

    def ref(self, value: Ref) -> tuple:
        """The canonical token of one reference, numbering (and
        recording) its object on first sight."""
        self.refs += 1
        remap = self.remap
        oid = value.oid
        canonical = remap.get(oid)
        if canonical is not None:
            return _REF_TOKENS[canonical]
        canonical = len(remap)
        remap[oid] = canonical
        token = ref_token(canonical)
        entries = self.entries
        obj = self.objects.get(oid)
        if obj is None or not obj.live:
            entries.append((canonical, "dangling"))
            return token
        placeholder = len(entries)
        entries.append(None)  # reserve position
        ref = self.ref
        data = tuple([ref(v) if v.__class__ is Ref else v for v in obj.data])
        entries[placeholder] = (
            canonical, obj.kind, obj.tag, obj.mutable, obj.refcount, data
        )
        return token

    def values(self, values) -> tuple:
        """Frame slots or message values in order: an unset slot (or a
        dead one the caller blanked to None) is None, a reference its
        token."""
        ref = self.ref
        return tuple([
            None if v is UNSET else ref(v) if v.__class__ is Ref else v
            for v in values
        ])

    def process(self, ps, frame) -> tuple:
        """The flat entry ``(pc, status, values, block)`` of one process,
        ``values`` being ``frame`` (its own, or a copy with dead slots
        blanked) in slot order — see :func:`canonical_state`."""
        b = ps.block
        block = None
        if b is not None:
            # Block values first: their references take the first slots.
            block = (b.kind, b.channel, b.port_index, b.fused,
                     self.values(b.values) if b.values is not None else None,
                     tuple([e.index for e in b.arms]))
        return (ps.pc, ps.status.value, self.values(frame), block)

    def leaks(self) -> None:
        """Record the live objects no root reached, in allocation order:
        leaks grow the state vector (see the module docstring)."""
        objects = self.objects
        if objects:
            remap = self.remap
            for oid in sorted(objects):
                if oid not in remap and objects[oid].live:
                    self.ref(Ref(oid))


def canonical_state(machine) -> tuple:
    """A hashable, canonical encoding of the machine's global state:
    ``(procs, heap, ext)``.

    Each process is one flat entry ``(pc, status, values, block)``:
    ``values`` is the frame in slot order — slots are assigned in
    sorted-name order (:mod:`repro.ir.slots`), so a position always
    stands for the same local of that process — with None for an unset
    slot (no ESP value is None) and heap references renumbered by
    :class:`HeapWalk`.

    Objects providing their own ``canonical_state`` method (e.g. a
    :class:`repro.verify.coupled.CoupledSystem`) are delegated to —
    unless they *are* a plain Machine, whose method-less path is below.
    """
    own = getattr(machine, "canonical_state", None)
    if own is not None and not isinstance(machine, Machine):
        return own()
    walk = HeapWalk(machine.heap.objects)
    procs = []
    for ps in machine.processes:
        local = interned(ps)
        if local is not None:
            # Ref-free: it consumes no canonical heap slot.
            procs.append(local.entry)
        else:
            procs.append(walk.process(ps, ps.frame))
    walk.leaks()
    return (tuple(procs), tuple(walk.entries), machine.external_state())


class Interned:
    """The last field of a snapshot record that a search's transition
    cache interned (:class:`repro.verify.explorer.TransitionCache`;
    :meth:`Machine.snapshot` leaves the field None).

    ``entry`` is the process's :meth:`HeapWalk.process` entry, which
    holds no heap reference.  Equal local states of a process share
    one interned record, so what a keyer derives from the local state
    alone is made once and kept here: the collapse store's table
    index (``index``), the symmetry keyer's projection (``sym``) and
    the reducer's blocking-point id (``point``), each None until first
    use.  Those belong to one search's store and reducer, so a search
    starts from records of its own (:func:`fresh_records`)."""

    __slots__ = ("entry", "index", "sym", "point")

    def __init__(self, entry: tuple):
        self.entry = entry
        self.index = None
        self.sym = None
        self.point = None


def interned(ps) -> Interned | None:
    """The :class:`Interned` of ``ps``'s local state while its current
    snapshot record is an interned one, else None."""
    if ps._record_version == ps.version:
        return ps._record[5]
    return None


def fresh_records(machine) -> None:
    """Mark every process's snapshot record stale, so the next snapshot
    builds new ones.  A search calls this first: the keyer results an
    :class:`Interned` record keeps belong to the search that made it."""
    for ps in machine.processes:
        ps._record_version = -1


# Serialization format tags for pack_state.
_MARSHAL = b"M"
_PICKLE = b"P"


def pack_state(state: tuple) -> bytes:
    """Serialize a canonical state to compact, *stable* bytes.

    The same canonical state packs to the same bytes in every process
    and every run, so the bytes can feed digests that must not change
    between runs — :class:`~repro.verify.collapse.StateKeyer`'s and the
    serve cache keys — which ``hash()`` cannot, since Python randomizes
    string hashing per process.
    ``marshal`` covers everything :func:`canonical_state` emits; an
    external bridge snapshot holding exotic objects falls back to
    pickle (still deterministic for plain data).

    Marshal format 2 deliberately: formats >= 3 back-reference repeated
    *objects*, so two equal states would pack differently depending on
    whether their strings happen to share identity (interned vs. built
    at run time) — exactly the instability
    this function exists to remove."""
    try:
        return _MARSHAL + marshal.dumps(state, 2)
    except ValueError:
        return _PICKLE + pickle.dumps(state, protocol=4)


def is_quiescent(machine) -> bool:
    """True when every process is blocked or done (the firmware would
    be spinning in its idle loop)."""
    return all(ps.status is not Status.READY for ps in machine.processes)
