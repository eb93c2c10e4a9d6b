"""Dedicated unit tests for the heap (refcounts, deep operations,
bounded tables, conversion)."""

import pytest

from repro.errors import MemorySafetyError
from repro.runtime.heap import Heap
from repro.runtime.values import Ref


def test_alloc_sets_refcount_one():
    heap = Heap()
    ref = heap.alloc("record", [1, 2], mutable=False)
    assert heap.get(ref).refcount == 1
    assert heap.live_count() == 1


def test_link_unlink_cycle():
    heap = Heap()
    ref = heap.alloc("array", [0], mutable=True)
    heap.link(ref)
    heap.unlink(ref)
    assert heap.get(ref).refcount == 1
    heap.unlink(ref)
    assert heap.live_count() == 0


def test_unlink_recurses_into_children():
    heap = Heap()
    child = heap.alloc("array", [7], mutable=False)
    parent = heap.alloc("record", [child], mutable=False)
    # parent embeds child: caller is responsible for the embed link.
    heap.link(child)
    heap.unlink(child)  # drop our handle; parent keeps it alive
    assert heap.live_count() == 2
    heap.unlink(parent)
    assert heap.live_count() == 0


def test_double_free_raises():
    heap = Heap()
    ref = heap.alloc("array", [], mutable=False)
    heap.unlink(ref)
    with pytest.raises(MemorySafetyError, match="double free"):
        heap.unlink(ref)


def test_use_after_free_raises():
    heap = Heap()
    ref = heap.alloc("array", [1], mutable=False)
    heap.unlink(ref)
    with pytest.raises(MemorySafetyError, match="use after free"):
        heap.get(ref)


def test_link_after_free_raises():
    heap = Heap()
    ref = heap.alloc("array", [1], mutable=False)
    heap.unlink(ref)
    with pytest.raises(MemorySafetyError):
        heap.link(ref)


def test_unknown_object_raises():
    heap = Heap()
    with pytest.raises(MemorySafetyError, match="unknown object"):
        heap.get(Ref(999))


def test_restoring_an_older_snapshot_rewinds_freed_and_unknown_oids():
    # Whether an absent oid was freed is derived from ``next_oid`` and
    # the object table, so a restore must rewind that answer too.
    heap = Heap()
    freed_before = heap.alloc("array", [1], mutable=False)
    freed_after = heap.alloc("array", [2], mutable=False)
    heap.unlink(freed_before)
    snapshot = heap.snapshot_records()
    heap.unlink(freed_after)
    allocated_after = heap.alloc("array", [3], mutable=False)
    heap.restore_records(*snapshot)
    with pytest.raises(MemorySafetyError,
                       match="^access to unknown object 3$"):
        heap.get(allocated_after)
    with pytest.raises(MemorySafetyError,
                       match="^use after free of object 1$"):
        heap.get(freed_before)
    assert heap.get(freed_after).data == [2]


def test_bounded_table_exhaustion():
    heap = Heap(max_objects=2)
    heap.alloc("array", [], mutable=False)
    heap.alloc("array", [], mutable=False)
    with pytest.raises(MemorySafetyError, match="object table exhausted"):
        heap.alloc("array", [], mutable=False)


def test_bounded_table_frees_make_room():
    heap = Heap(max_objects=1)
    a = heap.alloc("array", [], mutable=False)
    heap.unlink(a)
    heap.alloc("array", [], mutable=False)  # must not raise


def test_deep_copy_independent():
    heap = Heap()
    inner = heap.alloc("array", [1, 2], mutable=True)
    outer = heap.alloc("record", [inner, 5], mutable=True)
    copy = heap.deep_copy(outer)
    inner_copy = heap.get(copy).data[0]
    assert inner_copy != inner
    heap.get(inner).data[0] = 99
    assert heap.get(inner_copy).data[0] == 1


def test_deep_copy_flips_mutability():
    heap = Heap()
    inner = heap.alloc("array", [1], mutable=True)
    outer = heap.alloc("record", [inner], mutable=True)
    frozen = heap.deep_copy(outer, mutable=False)
    assert not heap.get(frozen).mutable
    assert not heap.get(heap.get(frozen).data[0]).mutable


def test_exclusively_owned():
    heap = Heap()
    inner = heap.alloc("array", [1], mutable=False)
    outer = heap.alloc("record", [inner], mutable=False)
    assert heap.exclusively_owned(outer)
    heap.link(inner)  # someone else references inner
    assert not heap.exclusively_owned(outer)


def test_set_mutability_deep():
    heap = Heap()
    inner = heap.alloc("array", [1], mutable=True)
    outer = heap.alloc("union", [inner], mutable=True, tag="t")
    heap.set_mutability_deep(outer, False)
    assert not heap.get(outer).mutable
    assert not heap.get(inner).mutable


def test_to_python_conversions():
    heap = Heap()
    arr = heap.alloc("array", [1, 2, 3], mutable=False)
    rec = heap.alloc("record", [arr, True], mutable=False)
    uni = heap.alloc("union", [rec], mutable=False, tag="wrap")
    assert heap.to_python(uni) == ("wrap", ([1, 2, 3], True))
    assert heap.to_python(42) == 42


def test_counters_track_operations():
    heap = Heap()
    ref = heap.alloc("array", [0], mutable=False)
    heap.link(ref)
    heap.unlink(ref)
    heap.unlink(ref)
    c = heap.counters
    assert (c.allocations, c.links, c.unlinks, c.frees) == (1, 1, 2, 1)
