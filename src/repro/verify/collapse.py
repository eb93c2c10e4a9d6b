"""SPIN-style collapse compression for the verifier's visited store.

SPIN's COLLAPSE mode observes that a global state is a vector of
mostly-repeating components: each process's local state and each heap
object recur across millions of global states, so storing them once in
a component table and representing a visited state as a short tuple of
small table indices compresses the store by orders of magnitude —
without approximation, since interning is injective (equal component
iff equal index).  We apply the same split to ESP's canonical states:

* one table of per-process canonical entries (shared by all processes:
  two processes in the same local state share one slot);
* one table of canonical heap-object entries, plus a second-level
  table interning the whole heap *vector* (the tuple of object
  indices), since most transitions leave the heap untouched;
* one table of external-environment snapshots.

A visited state is then a packed array of indices (4 bytes each); the
collapse store is exact, so state counts are identical to the plain
set-of-canonical-states store (property-tested in
``tests/test_collapse.py``).

:class:`StateKeyer` is the probabilistic counterpart used where exact
storage is not required: a 16-byte keyed blake2b digest of the state,
assembled *incrementally* from cached per-component digests — the
bit-state store's hash functions build on it.
"""

from __future__ import annotations

import struct
import sys
from array import array
from hashlib import blake2b

from repro.runtime.machine import Machine, _pid_of
from repro.verify.state import (
    HeapWalk,
    canonical_state,
    interned,
    pack_state,
)

_U32 = struct.Struct("<I")
_DIGEST_SIZE = 16


def deep_size(obj, seen: set[int]) -> int:
    """Actual byte footprint of ``obj`` per ``sys.getsizeof``, counting
    every distinct sub-object once across *all* calls sharing ``seen``
    — structurally shared tuples (and interned small ints/strings) are
    therefore charged exactly once, which is what they cost."""
    key = id(obj)
    if key in seen:
        return 0
    seen.add(key)
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            size += deep_size(item, seen)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            size += deep_size(k, seen) + deep_size(v, seen)
    return size


class ComponentTable:
    """Interns components into dense indices and tracks hit rates plus
    the actual payload bytes of first-seen components."""

    __slots__ = ("name", "index_of", "payload_bytes", "hits", "misses")

    def __init__(self, name: str):
        self.name = name
        self.index_of: dict = {}
        self.payload_bytes = 0
        self.hits = 0
        self.misses = 0

    def intern(self, comp, size_seen: set[int]) -> int:
        index = self.index_of.get(comp)
        if index is None:
            index = len(self.index_of)
            self.index_of[comp] = index
            self.misses += 1
            self.payload_bytes += deep_size(comp, size_seen)
        else:
            self.hits += 1
        return index

    def stats(self) -> dict:
        return {
            "components": len(self.index_of),
            "hits": self.hits,
            "misses": self.misses,
            "payload_bytes": self.payload_bytes,
        }


class MachineCollapseStore:
    """Collapse-compressed visited store for plain :class:`Machine`
    canonical states ``(procs, heap_entries, ext)``."""

    kind = "collapse"

    __slots__ = ("procs", "objects", "vectors", "exts", "_seen",
                 "_key_bytes", "_size_seen")

    def __init__(self):
        self.procs = ComponentTable("process")
        self.objects = ComponentTable("heap-object")
        self.vectors = ComponentTable("heap-vector")
        self.exts = ComponentTable("external")
        self._seen: set = set()
        self._key_bytes = 0
        self._size_seen: set[int] = set()

    def add(self, state) -> bool:
        """Intern the state's components; True when the state is new."""
        procs, heap, ext = state
        sizes = self._size_seen
        intern_proc = self.procs.intern
        indices = [intern_proc(p, sizes) for p in procs]
        intern_obj = self.objects.intern
        indices.append(self.vectors.intern(
            tuple([intern_obj(e, sizes) for e in heap]), sizes))
        indices.append(self.exts.intern(ext, sizes))
        key = array("I", indices).tobytes()
        seen = self._seen
        if key in seen:
            return False
        seen.add(key)
        self._key_bytes += sys.getsizeof(key)
        return True

    def contains(self, state) -> bool:
        """Non-mutating membership test (no component is interned): a
        state whose components are not all in the tables cannot have
        been added.  The reduced explorer probes chain states with
        this before deciding whether to keep chasing."""
        procs, heap, ext = state
        indices = []
        lookup_proc = self.procs.index_of.get
        for p in procs:
            index = lookup_proc(p)
            if index is None:
                return False
            indices.append(index)
        lookup_obj = self.objects.index_of.get
        vector = []
        for entry in heap:
            index = lookup_obj(entry)
            if index is None:
                return False
            vector.append(index)
        vector_index = self.vectors.index_of.get(tuple(vector))
        if vector_index is None:
            return False
        ext_index = self.exts.index_of.get(ext)
        if ext_index is None:
            return False
        indices.append(vector_index)
        indices.append(ext_index)
        return array("I", indices).tobytes() in self._seen

    def add_current(self, machine, base=None):
        """Fused :func:`repro.verify.state.canonical_state` + :meth:`add`
        over the machine's *current* state: canonicalisation and
        interning happen in one pass, and a process whose current record
        the transition cache interned contributes the table index kept
        in its :class:`~repro.verify.state.Interned` without re-encoding
        (or even re-hashing) its entry.  Produces exactly the key
        ``add(canonical_state(machine))`` would.

        Returns ``(is_new, token)``.  For a new state the token is a
        mutable ``[snapshot, proc_indices, all_ref_free]`` triple whose
        first slot the caller must bind to :meth:`Machine.snapshot` of
        this same state; passing it back as ``base`` while the machine
        sits one transition away from that snapshot (its ``_sync_state``)
        re-encodes only the processes dirtied by the transition — the
        others keep their indices from the parent state.  That shortcut
        is sound only while every inherited per-process entry is free of
        heap references (ref entries consume globally-ordered remap
        slots), which is what the third slot tracks."""
        sizes = self._size_seen
        intern_proc = self.procs.intern
        objects = machine.heap.objects
        walk = None
        ref_free = True
        if (base is not None and base[2]
                and base[0] is machine._sync_state and base[0] is not None):
            # One transition away from the base state: only the dirtied
            # processes can differ, in pid order for remap determinism.
            indices = list(base[1])
            procs = sorted(machine._dirty_procs, key=_pid_of)
        else:
            procs = machine.processes
            indices = [0] * len(procs)
        for ps in procs:
            local = interned(ps)
            if local is not None:
                # Ref-free, so it takes no slot of the walk.
                index = local.index
                if index is None:
                    index = local.index = intern_proc(local.entry, sizes)
                indices[ps.pid] = index
                continue
            if walk is None:
                walk = HeapWalk(objects)
            refs = walk.refs
            indices[ps.pid] = intern_proc(walk.process(ps, ps.frame), sizes)
            if walk.refs != refs:
                ref_free = False
        proc_count = len(indices)

        if walk is not None or objects:
            if walk is None:
                walk = HeapWalk(objects)
            walk.leaks()
            intern_obj = self.objects.intern
            vector = tuple([intern_obj(e, sizes) for e in walk.entries])
        else:
            vector = ()
        indices.append(self.vectors.intern(vector, sizes))
        indices.append(self.exts.intern(machine.external_state(), sizes))
        key = array("I", indices).tobytes()
        seen = self._seen
        if key in seen:
            return False, None
        seen.add(key)
        self._key_bytes += sys.getsizeof(key)
        return True, [None, indices[:proc_count], ref_free]

    def __len__(self) -> int:
        return len(self._seen)

    def memory_bytes(self) -> int:
        """Actual footprint: component payloads + table dicts + the
        per-state index keys + the visited set itself."""
        total = self._key_bytes + sys.getsizeof(self._seen)
        for table in (self.procs, self.objects, self.vectors, self.exts):
            total += table.payload_bytes + sys.getsizeof(table.index_of)
        return total

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "states": len(self._seen),
            "key_bytes": self._key_bytes,
            "memory_bytes": self.memory_bytes(),
            "tables": {
                table.name: table.stats()
                for table in (self.procs, self.objects, self.vectors,
                              self.exts)
            },
        }


class GenericCollapseStore:
    """Collapse store for machines with their own canonical encoding
    (e.g. :class:`repro.verify.coupled.CoupledSystem`): the top two
    tuple levels are interned element-wise, so a coupled system shares
    per-machine canonical states across global states."""

    kind = "collapse-generic"

    __slots__ = ("table", "_seen", "_key_bytes", "_size_seen")

    _DEPTH = 2

    def __init__(self):
        self.table = ComponentTable("component")
        self._seen: set = set()
        self._key_bytes = 0
        self._size_seen: set[int] = set()

    def _collapse(self, value, depth: int):
        if depth and type(value) is tuple:
            return tuple(self._collapse(v, depth - 1) for v in value)
        return self.table.intern(value, self._size_seen)

    def add(self, state) -> bool:
        key = self._collapse(state, self._DEPTH)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._key_bytes += deep_size(key, self._size_seen)
        return True

    def _lookup(self, value, depth: int):
        if depth and type(value) is tuple:
            key = tuple(self._lookup(v, depth - 1) for v in value)
            return None if any(k is None for k in key) else key
        return self.table.index_of.get(value)

    def contains(self, state) -> bool:
        """Non-mutating membership test (see
        :meth:`MachineCollapseStore.contains`)."""
        key = self._lookup(state, self._DEPTH)
        return key is not None and key in self._seen

    def add_current(self, machine, base=None):
        return self.add(canonical_state(machine)), None

    def __len__(self) -> int:
        return len(self._seen)

    def memory_bytes(self) -> int:
        return (self._key_bytes + sys.getsizeof(self._seen)
                + self.table.payload_bytes + sys.getsizeof(self.table.index_of))

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "states": len(self._seen),
            "key_bytes": self._key_bytes,
            "memory_bytes": self.memory_bytes(),
            "tables": {self.table.name: self.table.stats()},
        }


class PlainStore:
    """Uncompressed visited store (a set of full canonical states) with
    actual-footprint accounting; the differential reference for the
    collapse stores."""

    kind = "plain"

    __slots__ = ("_seen", "_bytes", "_size_seen")

    def __init__(self):
        self._seen: set = set()
        self._bytes = 0
        self._size_seen: set[int] = set()

    def add(self, state) -> bool:
        if state in self._seen:
            return False
        self._seen.add(state)
        self._bytes += deep_size(state, self._size_seen)
        return True

    def contains(self, state) -> bool:
        return state in self._seen

    def add_current(self, machine, base=None):
        return self.add(canonical_state(machine)), None

    def __len__(self) -> int:
        return len(self._seen)

    def memory_bytes(self) -> int:
        return self._bytes + sys.getsizeof(self._seen)

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "states": len(self._seen),
            "memory_bytes": self.memory_bytes(),
        }


def make_visited_store(machine, kind="collapse"):
    """The visited store for ``machine``: collapse compression by
    default, shaped by whether the machine uses the plain-Machine
    canonical encoding; ``kind="plain"`` selects the uncompressed
    reference store.  ``kind`` may also be a ready store instance
    (anything with ``add_current``), which is how bit-state search
    passes its :class:`repro.verify.bitstate.BitstateStore`."""
    if hasattr(kind, "add_current"):
        return kind
    if kind == "plain":
        return PlainStore()
    if kind != "collapse":
        raise ValueError(f"unknown visited-store kind {kind!r}")
    if isinstance(machine, Machine):
        return MachineCollapseStore()
    return GenericCollapseStore()


# ---------------------------------------------------------------------------
# Incremental state digests (bit-state hashing)
# ---------------------------------------------------------------------------


class StateKeyer:
    """16-byte content digests of canonical states, assembled from
    cached per-component digests: a state whose processes are mostly
    unchanged re-hashes only 16-byte digests, not the components.

    Digests depend only on content (keyed blake2b over
    :func:`pack_state` bytes), so every run computes the same digest
    for the same state — the bit-state store derives its seeded hash
    functions from it.  Two distinct states colliding requires a
    128-bit blake2b collision."""

    __slots__ = ("_digests", "machine_shape", "_key")

    def __init__(self, seed: int = 0, machine_shape: bool = True):
        self._digests: dict = {}
        self.machine_shape = machine_shape
        self._key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")

    def _component(self, comp) -> bytes:
        digest = self._digests.get(comp)
        if digest is None:
            digest = blake2b(pack_state(comp),
                             digest_size=_DIGEST_SIZE).digest()
            self._digests[comp] = digest
        return digest

    def digest(self, state) -> bytes:
        h = blake2b(digest_size=_DIGEST_SIZE, key=self._key)
        if self.machine_shape:
            procs, heap, ext = state
            component = self._component
            h.update(_U32.pack(len(procs)))
            for p in procs:
                h.update(component(p))
            h.update(_U32.pack(len(heap)))
            for e in heap:
                h.update(component(e))
            h.update(component(ext))
        else:
            # Unknown canonical shape: hash the packed state directly
            # (no per-state caching, so memory stays flat).
            h.update(pack_state(state))
        return h.digest()
