"""Nondeterministic environment models for verification.

The paper's verification flow needs programmer-supplied ``test.SPIN``
code that "generates external events such as network message arrival"
(Figure 4, §5).  This module provides the reusable pieces:

* :func:`enumerate_values` — all values of an ESP type over bounded
  scalar/array domains (the finite abstraction that keeps state spaces
  tractable);
* :class:`ChoiceWriter` — an external writer that *always* offers a
  fixed set of messages; the explorer branches over each choice (an
  always-ready nondeterministic environment process);
* :class:`SinkReader` — an external reader that accepts anything and
  remembers nothing (so output does not blow up the state space);
* :class:`ScriptWriter` — offers a fixed finite sequence, for
  directed scenarios.
"""

from __future__ import annotations

import itertools

from repro.lang import ast
from repro.lang.types import ArrayType, BoolType, IntType, RecordType, Type, UnionType
from repro.runtime.external import ExternalReader, ExternalWriter

# The most argument choices the default environment offers per
# interface entry.
MAX_MESSAGES_PER_ENTRY = 8


def enumerate_values(
    t: Type,
    int_domain: tuple[int, ...] = (0, 1),
    array_sizes: tuple[int, ...] = (1,),
    limit: int = 64,
) -> list:
    """All Python-encoded values of type ``t`` over bounded domains.

    Encoding matches :meth:`Machine.build_value`: records are tuples,
    unions are ``(tag, value)`` pairs, arrays are lists.
    """
    values = list(itertools.islice(_gen(t, int_domain, array_sizes), limit))
    return values


def _gen(t: Type, ints, sizes):
    if isinstance(t, IntType):
        yield from ints
        return
    if isinstance(t, BoolType):
        yield False
        yield True
        return
    if isinstance(t, RecordType):
        pools = [list(_gen(ft, ints, sizes)) for _, ft in t.fields]
        for combo in itertools.product(*pools):
            yield tuple(combo)
        return
    if isinstance(t, UnionType):
        for tag, tag_type in t.tags:
            for inner in _gen(tag_type, ints, sizes):
                yield (tag, inner)
        return
    if isinstance(t, ArrayType):
        for size in sizes:
            pools = [list(_gen(t.element, ints, sizes))] * size
            for combo in itertools.product(*pools):
                yield list(combo)
        return
    raise TypeError(f"cannot enumerate {t}")


def entry_arg_choices(pattern: ast.Pattern, int_domain=(0, 1),
                      array_sizes=(1,), limit: int = 16) -> list[tuple]:
    """Enumerate binder-argument tuples for one interface entry over
    bounded domains (the messages a host *could* send through it)."""
    binder_types = []

    def collect(p: ast.Pattern):
        if isinstance(p, ast.PBind):
            binder_types.append(p.type)
        elif isinstance(p, ast.PRecord):
            for item in p.items:
                collect(item)
        elif isinstance(p, ast.PUnion):
            collect(p.value)

    collect(pattern)
    pools = [
        enumerate_values(t, int_domain, array_sizes, limit=limit)
        for t in binder_types
    ]
    return list(itertools.islice(itertools.product(*pools), limit))


def default_verification_bridges(
    program,
    int_domain: tuple[int, ...] = (0, 1),
    array_sizes: tuple[int, ...] = (1,),
) -> dict[str, ExternalWriter | ExternalReader]:
    """A default environment for whole-program verification: every
    external-writer channel gets an always-ready :class:`ChoiceWriter`
    offering each interface entry with binder arguments enumerated over
    the bounded domains, every external-reader channel an
    accept-anything :class:`SinkReader`.  This is what lets ``espc
    verify`` explore a program with external interfaces without a
    hand-written test harness."""
    bridges: dict[str, ExternalWriter | ExternalReader] = {}
    for channel, info in program.channels.items():
        if info.external == "writer":
            entries = list(info.pattern_names)
            choices: list[tuple[str, tuple]] = []
            for entry_name in entries:
                pattern = program.interfaces[channel][entry_name]
                for args in entry_arg_choices(
                    pattern, int_domain, array_sizes,
                    limit=MAX_MESSAGES_PER_ENTRY,
                ):
                    choices.append((entry_name, args))
            bridges[channel] = ChoiceWriter(entries, choices)
        elif info.external == "reader":
            bridges[channel] = SinkReader(list(info.pattern_names))
    return bridges


class ChoiceWriter(ExternalWriter):
    """An always-ready environment: every call to :meth:`offers`
    returns the full choice set, so the explorer branches over all of
    them; the environment itself is stateless (snapshot ``None``),
    which keeps loop states identical and the space finite."""

    def __init__(self, entries: list[str], choices: list[tuple[str, tuple]]):
        super().__init__(entries)
        self.choices = list(choices)

    def is_ready(self) -> int:
        if not self.choices:
            return 0
        return self.entries.index(self.choices[0][0]) + 1

    def offers(self) -> list[tuple[str, tuple]]:
        return list(self.choices)

    def take(self, entry_name: str, args=None) -> tuple:
        # Stateless: the chosen args travel inside the move itself.
        for name, choice_args in self.choices:
            if name == entry_name:
                return choice_args
        raise KeyError(entry_name)


class BudgetChoiceWriter(ExternalWriter):
    """A :class:`ChoiceWriter` with a message budget: the environment
    offers the full choice set until ``budget`` messages have been
    consumed, then goes quiet.

    Processes with monotonically growing counters (sequence numbers,
    message ids) have unbounded state spaces under an always-ready
    environment; a finite budget turns per-process verification into
    *bounded* verification — every behaviour within an N-message
    horizon is still covered exhaustively (cf. §5.3's remark that
    state explosion limits what can be checked)."""

    def __init__(self, entries: list[str], choices: list[tuple[str, tuple]],
                 budget: int):
        super().__init__(entries)
        self.choices = list(choices)
        self.budget = budget
        self.consumed = 0

    def is_ready(self) -> int:
        if self.consumed >= self.budget or not self.choices:
            return 0
        return self.entries.index(self.choices[0][0]) + 1

    def offers(self) -> list[tuple[str, tuple]]:
        if self.consumed >= self.budget:
            return []
        return list(self.choices)

    def take(self, entry_name: str, args=None) -> tuple:
        self.consumed += 1
        for name, choice_args in self.choices:
            if name == entry_name:
                return choice_args
        raise KeyError(entry_name)

    def snapshot(self):
        return self.consumed

    def restore(self, state) -> None:
        self.consumed = state


class ScriptWriter(ExternalWriter):
    """Offers a fixed sequence of messages, one at a time, in order —
    a directed test scenario.  State is the script position."""

    def __init__(self, entries: list[str], script: list[tuple[str, tuple]]):
        super().__init__(entries)
        self.script = list(script)
        self.position = 0

    def is_ready(self) -> int:
        if self.position >= len(self.script):
            return 0
        return self.entries.index(self.script[self.position][0]) + 1

    def offers(self) -> list[tuple[str, tuple]]:
        if self.position >= len(self.script):
            return []
        return [self.script[self.position]]

    def take(self, entry_name: str, args=None) -> tuple:
        name, choice_args = self.script[self.position]
        assert name == entry_name
        self.position += 1
        return choice_args

    def snapshot(self):
        return self.position

    def restore(self, state) -> None:
        self.position = state


class SinkReader(ExternalReader):
    """Accepts any message and forgets it (stateless environment
    output; keeps the state space independent of output history)."""

    def __init__(self, entries: list[str]):
        super().__init__(entries)
        self.accepted = 0  # monotonic counter, not part of snapshots

    def can_accept(self) -> bool:
        return True

    def accept(self, entry_name: str, args: tuple) -> None:
        self.accepted += 1
