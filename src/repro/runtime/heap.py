"""The ESP heap: explicit reference counting with safety checking.

Implements the paper's memory-management scheme (§4.4):

* allocation sets the reference count to 1;
* ``link`` increments, ``unlink`` decrements; at zero the object is
  freed and ``unlink`` recurses into the objects it points to;
* embedding an object into a new aggregate links it (the aggregate
  now references it), and overwriting a mutable slot unlinks the old
  occupant, so the count always equals the number of references;
* every access checks liveness — use-after-free, double-free, and
  negative counts raise :class:`MemorySafetyError`;
* an optional bounded objectId table mirrors the SPIN translation
  (§5.2): running out of ids flags a leak, which is how the verifier
  catches memory leaks.
"""

from __future__ import annotations

from repro.errors import MemorySafetyError
from repro.runtime.values import HeapObject, Ref, Value


class HeapCounters:
    """Operation counts, consumed by the device simulator's cost model."""

    __slots__ = ("allocations", "frees", "links", "unlinks")

    def __init__(self):
        self.allocations = 0
        self.frees = 0
        self.links = 0
        self.unlinks = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.allocations, self.frees, self.links, self.unlinks)


class CowCounters:
    """Copy-on-write effectiveness counters for the verifier's
    snapshot/restore hot path (`espc verify --stats`)."""

    __slots__ = ("records_built", "records_reused", "restores_undone",
                 "restores_rebuilt", "restores_fast")

    def __init__(self):
        self.records_built = 0       # heap-object records re-encoded
        self.records_reused = 0      # records shared from the base dict
        self.restores_undone = 0     # same-generation restores (undo dirty)
        self.restores_rebuilt = 0    # cross-generation restores
        self.restores_fast = 0       # restores with nothing to undo

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _record_of(obj: HeapObject) -> tuple:
    """The immutable, structurally-shareable record of one object."""
    return (obj.kind, obj.tag, obj.mutable, obj.refcount, obj.live,
            tuple(obj.data))


def _object_of(oid: int, rec: tuple) -> HeapObject:
    kind, tag, mutable, refcount, live, data = rec
    obj = HeapObject(oid, kind, list(data), mutable, tag)
    obj.refcount = refcount
    obj.live = live
    return obj


class Heap:
    """All heap objects of one machine."""

    def __init__(self, max_objects: int | None = None):
        self.objects: dict[int, HeapObject] = {}
        self.next_oid = 1
        self.max_objects = max_objects
        self.counters = HeapCounters()
        self.cow = CowCounters()
        # Copy-on-write bookkeeping: `_touched` holds the oids whose
        # object changed since `_base_records` (the record dict handed
        # out by the last snapshot_records/restore_records) was current.
        self._touched: set[int] = set()
        self._base_records: dict[int, tuple] | None = None

    def touch(self, oid: int) -> None:
        """Mark an object dirty: its record must be re-encoded by the
        next snapshot.  Every in-place mutation outside this class
        (e.g. a store into a mutable slot) must call this."""
        self._touched.add(oid)

    # -- allocation ------------------------------------------------------------

    def _new_oid(self) -> int:
        # Live objects are a subset of ``objects``, so only a table at
        # the bound needs its live objects counted.
        bound = self.max_objects
        if (bound is not None and len(self.objects) >= bound
                and self.live_count() >= bound):
            raise MemorySafetyError(
                f"object table exhausted ({self.max_objects} objects live); "
                "this usually indicates a memory leak"
            )
        oid = self.next_oid
        self.next_oid += 1
        return oid

    def alloc(self, kind: str, data: list, mutable: bool,
              tag: str | None = None) -> Ref:
        """Allocate a new object with refcount 1.  ``data`` children must
        already carry their embedding reference (the evaluator manages
        fresh-vs-borrowed accounting)."""
        oid = self._new_oid()
        self.objects[oid] = HeapObject(oid, kind, data, mutable, tag)
        self.counters.allocations += 1
        self._touched.add(oid)
        return Ref(oid)

    # -- access -----------------------------------------------------------------

    def get(self, ref: Ref) -> HeapObject:
        """Fetch a live object; a freed or unknown object is a safety error."""
        obj = self.objects.get(ref.oid)
        if obj is None:
            if self.was_freed(ref.oid):
                raise MemorySafetyError(f"use after free of object {ref.oid}")
            raise MemorySafetyError(f"access to unknown object {ref.oid}")
        if not obj.live:
            raise MemorySafetyError(f"use after free of object {ref.oid}")
        return obj

    def live_count(self) -> int:
        return sum(1 for obj in self.objects.values() if obj.live)

    def live_objects(self) -> list[HeapObject]:
        return [obj for obj in self.objects.values() if obj.live]

    # -- reference counting -------------------------------------------------------

    def link(self, ref: Ref) -> None:
        obj = self.get(ref)
        obj.refcount += 1
        self.counters.links += 1
        self._touched.add(ref.oid)

    def unlink(self, ref: Ref) -> None:
        obj = self.objects.get(ref.oid)
        if obj is None or not obj.live:
            raise MemorySafetyError(
                f"unlink of {'unknown' if obj is None else 'already freed'} "
                f"object {ref.oid} (double free)"
            )
        self.counters.unlinks += 1
        self._touched.add(ref.oid)
        obj.refcount -= 1
        if obj.refcount < 0:
            raise MemorySafetyError(f"negative reference count on object {ref.oid}")
        if obj.refcount == 0:
            self._free(obj)

    def _free(self, obj: HeapObject) -> None:
        obj.live = False
        self.counters.frees += 1
        for child in obj.data:
            if isinstance(child, Ref):
                self.unlink(child)
        # The slot is reclaimed: drop the payload so leaks are visible as
        # live objects, matching the bounded objectId table of §5.2.
        self.objects.pop(obj.oid, None)
        self._touched.add(obj.oid)

    # -- deep operations ------------------------------------------------------------

    def deep_copy(self, ref: Ref, mutable: bool | None = None) -> Ref:
        """Allocate a recursive copy (the semantics of ``cast`` and of
        cross-heap message delivery in copy mode)."""
        obj = self.get(ref)
        new_mutable = obj.mutable if mutable is None else mutable
        data = []
        for v in obj.data:
            if isinstance(v, Ref):
                data.append(self.deep_copy(v, mutable))
            else:
                data.append(v)
        return self.alloc(obj.kind, data, new_mutable, obj.tag)

    def set_mutability_deep(self, ref: Ref, mutable: bool) -> None:
        """Flip flavor in place (elided cast); caller checked uniqueness."""
        obj = self.get(ref)
        obj.mutable = mutable
        self._touched.add(ref.oid)
        for child in obj.children():
            self.set_mutability_deep(child, mutable)

    def exclusively_owned(self, ref: Ref) -> bool:
        """True when the object and all descendants have refcount 1, so
        an elided cast may mutate flavor in place."""
        obj = self.get(ref)
        if obj.refcount != 1:
            return False
        return all(self.exclusively_owned(c) for c in obj.children())

    def to_python(self, value: Value):
        """Convert a value to plain Python data (for the external C
        interface bridge and for debugging/printing)."""
        if not isinstance(value, Ref):
            return value
        obj = self.get(value)
        if obj.kind == "record":
            return tuple(self.to_python(v) for v in obj.data)
        if obj.kind == "union":
            return (obj.tag, self.to_python(obj.data[0]))
        return [self.to_python(v) for v in obj.data]

    def was_freed(self, oid: int) -> bool:
        """Oids are handed out in increasing order and a freed object
        leaves ``objects``, so an oid below ``next_oid`` that is not
        there was freed."""
        return 0 < oid < self.next_oid and oid not in self.objects

    # -- copy-on-write snapshots ------------------------------------------------

    def snapshot_records(self) -> tuple[dict[int, tuple], int]:
        """Immutable per-object records of the whole heap, structurally
        shared with the previous snapshot: only objects touched since
        then are re-encoded.  The returned dict is owned by the heap
        and must never be mutated by the caller."""
        base = self._base_records
        touched = self._touched
        cow = self.cow
        if base is None:
            base = {oid: _record_of(obj) for oid, obj in self.objects.items()}
            cow.records_built += len(base)
        elif touched:
            base = dict(base)
            objects = self.objects
            for oid in touched:
                obj = objects.get(oid)
                if obj is None:
                    base.pop(oid, None)
                else:
                    base[oid] = _record_of(obj)
                    cow.records_built += 1
            cow.records_reused += len(base) - len(touched & base.keys())
        else:
            cow.records_reused += len(base)
        self._base_records = base
        if touched:
            self._touched = set()
        return base, self.next_oid

    def restore_records(self, records: dict[int, tuple],
                        next_oid: int) -> None:
        """Restore the heap to a :meth:`snapshot_records` state.  When
        restoring to the generation we branched from, only this
        branch's touched objects are undone; across generations, an
        object whose current record *is* the target record is skipped."""
        objects = self.objects
        base = self._base_records
        touched = self._touched
        cow = self.cow
        if records is base:
            if touched:
                cow.restores_undone += 1
                for oid in touched:
                    rec = records.get(oid)
                    if rec is None:
                        objects.pop(oid, None)
                    else:
                        objects[oid] = _object_of(oid, rec)
                self._touched = set()
            else:
                cow.restores_fast += 1
        else:
            cow.restores_rebuilt += 1
            for oid in [o for o in objects if o not in records]:
                del objects[oid]
            if base is not None:
                current = base.get
                for oid, rec in records.items():
                    if (oid in objects and oid not in touched
                            and current(oid) is rec):
                        continue
                    objects[oid] = _object_of(oid, rec)
            else:
                for oid, rec in records.items():
                    objects[oid] = _object_of(oid, rec)
            self._base_records = records
            self._touched = set()
        self.next_oid = next_oid
