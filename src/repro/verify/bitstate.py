"""Bit-state hashing mode (§5.1).

For state spaces too large for exhaustive search, SPIN's bit-state
(supertrace) mode stores only hash bits of visited states in a fixed
bitmap: dramatically less memory, at the price of possibly treating an
unvisited state as visited (a hash collision) and therefore missing
part of the space.  Here that mode is a visited store,
:class:`BitstateStore`, of the one depth-first
:class:`~repro.verify.explorer.Explorer`: plain and reduced search run
unchanged over it, and :class:`BitstateExplorer` is that explorer with
the store plugged in.  A state sets ``k`` bits, one per hash function
(k=2 by default, like SPIN's double-hash default).

The hash functions are keyed by an explicit ``seed`` and built on
process-independent keyed blake2b, not Python's ``hash`` — the
built-in randomizes string hashing per interpreter process, so bitmaps
(and therefore which states a partial search visits) would silently
differ run-to-run.  Same seed, same search, every time.  States are
digested through :class:`~repro.verify.collapse.StateKeyer`, whose
per-component digest cache makes hashing cost proportional to what
*changed* since the previous state, not to state size — the same trick
the collapse store uses.  Every state the store sees, a
:class:`~repro.verify.coupled.CoupledSystem`'s included, has the one
``(procs, heap, ext)`` shape the keyer digests.
"""

from __future__ import annotations

from hashlib import blake2b

from repro.runtime.machine import Machine
from repro.verify.collapse import StateKeyer
from repro.verify.explorer import Explorer
from repro.verify.properties import Invariant
from repro.verify.state import canonical_state


class BitstateStore:
    """A visited store that keeps ``hash_count`` bits per state in a
    bitmap of ``bitmap_bits`` bits.  A state counts as visited when all
    its bits are set, so a collision skips a state that was never
    visited; the fill factor in :meth:`stats` shows how likely that
    is — SPIN reports the same hint."""

    __slots__ = ("bitmap_bits", "hash_count", "_bitmap", "_bits_set",
                 "_states", "_keyer", "_salt_keys")

    def __init__(self, bitmap_bits: int = 1 << 20, hash_count: int = 2,
                 seed: int = 0):
        self.bitmap_bits = bitmap_bits
        self.hash_count = hash_count
        self._bitmap = bytearray(bitmap_bits // 8 + 1)
        self._bits_set = 0
        self._states = 0
        self._keyer = StateKeyer()
        self._salt_keys = [
            ((seed * 1_000_003 + salt) & 0xFFFFFFFFFFFFFFFF).to_bytes(
                8, "little")
            for salt in range(hash_count)
        ]

    def _positions(self, state) -> list[int]:
        """The bitmap positions of the state's hash bits."""
        base = self._keyer.digest(state)
        return [
            int.from_bytes(blake2b(base, digest_size=8, key=salt_key)
                           .digest(), "little") % self.bitmap_bits
            for salt_key in self._salt_keys
        ]

    def add(self, state) -> bool:
        """Set the state's bits; True when at least one was clear."""
        bitmap = self._bitmap
        new = False
        for position in self._positions(state):
            mask = 1 << (position & 7)
            if not bitmap[position >> 3] & mask:
                bitmap[position >> 3] |= mask
                self._bits_set += 1
                new = True
        if new:
            self._states += 1
        return new

    def contains(self, state) -> bool:
        bitmap = self._bitmap
        return all(bitmap[position >> 3] & (1 << (position & 7))
                   for position in self._positions(state))

    def add_current(self, machine, base=None):
        return self.add(canonical_state(machine)), None

    def memory_bytes(self) -> int:
        return len(self._bitmap)

    def stats(self) -> dict:
        return {
            "states": self._states,
            "bitmap_bits": self.bitmap_bits,
            "hash_count": self.hash_count,
            "bits_set": self._bits_set,
            "fill_factor": self._bits_set / self.bitmap_bits,
            "memory_bytes": self.memory_bytes(),
        }


class BitstateExplorer(Explorer):
    """The :class:`Explorer` over a fresh :class:`BitstateStore`
    (SPIN's supertrace mode); ``explore()`` returns an
    :class:`~repro.verify.explorer.ExploreResult`."""

    def __init__(
        self,
        machine: Machine,
        invariants: list[Invariant] | None = None,
        bitmap_bits: int = 1 << 20,
        hash_count: int = 2,
        max_depth: int | None = None,
        stop_at_first: bool = True,
        seed: int = 0,
        reduce: str | None = None,
    ):
        super().__init__(
            machine, invariants, max_depth=max_depth,
            stop_at_first=stop_at_first, reduce=reduce,
            store=BitstateStore(bitmap_bits, hash_count, seed),
        )
