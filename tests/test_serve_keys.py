"""Property tests for the serve cache key (:mod:`repro.serve.keys`).

The cache is only sound if the key is exactly as blind as the verifier:
two sources that explore the same state graph must collide (alpha
renaming, reformatting, comment shuffling — all erased by the frontend
or the canonical encoding), and two jobs that could answer differently
must not (any property, reduction mode, or bound difference).  Both
directions are checked over the derandomized hypothesis program corpus
plus targeted templates.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.lang.parser import parse
from repro.lang.pretty import print_program
from repro.serve.cache import ResultCache
from repro.serve.keys import JobSpec, cache_key, canonical_ir_hash
from tests.strategies import esp_programs


def _hash(source: str) -> str:
    return canonical_ir_hash(compile_source(source))


# -- sources that must collide -------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(esp_programs())
def test_reformatted_program_same_hash(source):
    # parse -> pretty-print -> reparse erases every formatting choice
    # the author made; the canonical IR hash must not see any of it.
    reformatted = print_program(parse(source, "<orig>"))
    assert _hash(reformatted) == _hash(source)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(esp_programs(), st.data())
def test_comment_shuffled_program_same_hash(source, data):
    lines = source.split("\n")
    noisy = []
    for i, line in enumerate(lines):
        if data.draw(st.booleans(), label=f"comment-before-{i}"):
            noisy.append(f"// noise {i}")
        if line and data.draw(st.booleans(), label=f"block-after-{i}"):
            line = line + f"  /* shuffled {i} */"
        noisy.append(line)
    assert _hash("\n".join(noisy)) == _hash(source)


_NAME = st.from_regex(r"v[a-z0-9]{1,8}", fullmatch=True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_NAME, min_size=3, max_size=3, unique=True))
def test_alpha_renamed_locals_same_hash(names):
    def render(a, b, c):
        return (
            "channel ch: int\n"
            f"process p {{ ${a} = 1; out( ch, {a} + {a}); }}\n"
            f"process q {{ ${c} = 0; in( ch, ${b}); "
            f"assert( {b} + {c} <= 2); }}\n"
        )

    baseline = render("x", "y", "z")
    renamed = render(*names)
    assert _hash(renamed) == _hash(baseline)
    # ... and a cache entry stored under the original source's key is
    # found by the renamed resubmission.
    cache = ResultCache()
    spec = JobSpec(source=baseline)
    key = cache_key(_hash(baseline), spec)
    cache.put(key, {"verdict": "ok"})
    renamed_key = cache_key(_hash(renamed),
                            dataclasses.replace(spec, source=renamed))
    assert cache.get(renamed_key) == {"verdict": "ok"}


# -- sources that must NOT collide ---------------------------------------------


def test_semantic_changes_change_hash():
    # The asserted value is loop-carried so the optimizer cannot fold
    # the assertion away (a *foldable* assert legitimately vanishes
    # from the lowered IR — and then identical hashes are correct).
    base = ("channel ch: int\n"
            "process p { $i = 0; while (i < 2) { out( ch, i); "
            "i = i + 1; } }\n"
            "process q { $j = 0; while (j < 2) { in( ch, $x); "
            "assert( x <= 1); j = j + 1; } }\n")
    variants = [
        base.replace("i < 2", "i < 3").replace("j < 2", "j < 3"),  # sizes
        base.replace("x <= 1", "x <= 0"),             # assertion bound
        base.replace("channel ch", "channel other")
            .replace("( ch", "( other"),              # channel name (kept!)
        base + "process r { skip; }\n",               # extra process
    ]
    hashes = {_hash(base)}
    for variant in variants:
        hashes.add(_hash(variant))
    assert len(hashes) == len(variants) + 1


# -- spec fields that must (not) move the key ----------------------------------

_SOURCE = ("channel ch: int\n"
           "process p { out( ch, 1); }\n"
           "process q { in( ch, $x); }\n")

# Every mutation that may change the verdict, the counterexamples, or
# the reported counts: each must produce a distinct cache key.
_KEY_CHANGING = [
    {"max_states": 17},
    {"max_states": None},
    {"max_depth": 9},
    {"reduce": "por"},
    {"reduce": "sym"},
    {"reduce": "por,sym"},
    {"check_deadlock": False},
    {"quiescence_ok": False},
    {"process": "p"},           # property set gains "memory"
]

# Proven result-neutral: identical results for every value, so they
# must coalesce onto one key.
_KEY_NEUTRAL = [
    {"store": "plain"},
    {"filename": "elsewhere.esp"},
]


def test_key_changing_fields_each_produce_distinct_keys():
    ir_hash = _hash(_SOURCE)
    base = JobSpec(source=_SOURCE)
    keys = {cache_key(ir_hash, base)}
    for mutation in _KEY_CHANGING:
        spec = dataclasses.replace(base, **mutation)
        keys.add(cache_key(ir_hash, spec))
    assert len(keys) == len(_KEY_CHANGING) + 1


def test_result_neutral_fields_share_the_key():
    ir_hash = _hash(_SOURCE)
    base_key = cache_key(ir_hash, JobSpec(source=_SOURCE))
    for mutation in _KEY_NEUTRAL:
        spec = dataclasses.replace(JobSpec(source=_SOURCE), **mutation)
        assert cache_key(ir_hash, spec) == base_key, mutation


def test_memsafety_bounds_join_the_key_only_with_a_process():
    ir_hash = _hash(_SOURCE)
    # Without --process the §5.3 bounds are inert and must not split
    # the key ...
    a = cache_key(ir_hash, JobSpec(source=_SOURCE, int_domain=(0, 1)))
    b = cache_key(ir_hash, JobSpec(source=_SOURCE, int_domain=(0, 1, 2)))
    assert a == b
    # ... with it, every bound is part of the explored space.
    keys = {
        cache_key(ir_hash, JobSpec(source=_SOURCE, process="p")),
        cache_key(ir_hash, JobSpec(source=_SOURCE, process="p",
                                   int_domain=(0, 1, 2))),
        cache_key(ir_hash, JobSpec(source=_SOURCE, process="p",
                                   array_sizes=(1, 2))),
        cache_key(ir_hash, JobSpec(source=_SOURCE, process="p",
                                   max_objects=7)),
        cache_key(ir_hash, JobSpec(source=_SOURCE, process="p",
                                   env_budget=3)),
    }
    assert len(keys) == 5


@settings(max_examples=40, deadline=None, derandomize=True)
@given(esp_programs())
def test_hash_is_stable_across_compilations(source):
    # Recompiling the identical source must always yield the identical
    # hash — no dict-order or id() leakage into the canonical tree.
    assert _hash(source) == _hash(source)


def test_reduce_spelling_is_normalized():
    ir_hash = _hash(_SOURCE)
    a = cache_key(ir_hash, JobSpec(source=_SOURCE, reduce="por,sym"))
    b = cache_key(ir_hash, JobSpec(source=_SOURCE, reduce="sym,por"))
    assert a == b


@pytest.mark.parametrize("field, value", [
    ("max_states", 0), ("max_states", -1), ("max_depth", -1),
    ("max_objects", -1), ("env_budget", -1), ("int_domain", []),
    ("array_sizes", []), ("array_sizes", [1, -1]),
])
def test_out_of_range_job_fields_are_refused_by_name(field, value):
    # A search under any of these checks nothing (or finds a memory
    # violation in no states), and the daemon caches every "ok"; it
    # answers the ValueError as a bad-request naming the field.
    wire = dict(JobSpec(source=_SOURCE, process="p").to_wire(),
                **{field: value})
    with pytest.raises(ValueError, match=repr(field)):
        JobSpec.from_wire(wire)
