"""Runtime values for ESP.

``int`` and ``bool`` are represented by Python ints/bools.  Aggregates
live on the heap (:mod:`repro.runtime.heap`) and are referenced by
:class:`Ref` values carrying an objectId — exactly the representation
the Promela backend uses (§5.2), which keeps the interpreter, the
verifier, and both backends in agreement.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Ref:
    """A reference to a heap object by objectId."""

    oid: int

    def __repr__(self) -> str:
        return f"<obj {self.oid}>"


Value = int | bool | Ref


class _UnsetType:
    """Sentinel filling frame slots whose local is not bound yet.

    State encodings write None for an unset slot (no ESP value is
    None), so a frame with holes is told apart exactly as a dict that
    simply omitted the name would be.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<unset>"


UNSET = _UnsetType()


def is_ref(v: Value) -> bool:
    return isinstance(v, Ref)


class HeapObject:
    """One heap cell: a record, union, or array.

    * record — ``data`` is the field-value list (positional);
    * union — ``tag`` is the valid tag name, ``data`` is ``[value]``;
    * array — ``data`` is the element list.

    ``refcount`` counts the allocation reference plus object-to-object
    references plus explicit ``link`` calls (§4.4).  ``live`` goes
    False on free; any later touch is a use-after-free.
    """

    __slots__ = ("oid", "kind", "mutable", "refcount", "live", "data", "tag")

    def __init__(self, oid: int, kind: str, data: list, mutable: bool,
                 tag: str | None = None):
        self.oid = oid
        self.kind = kind  # "record" | "union" | "array"
        self.data = data
        self.mutable = mutable
        self.tag = tag
        self.refcount = 1
        self.live = True

    def children(self) -> list[Ref]:
        return [v for v in self.data if isinstance(v, Ref)]

    def __repr__(self) -> str:
        flag = "#" if self.mutable else ""
        if self.kind == "union":
            inner = f"{self.tag} |> {self.data[0]!r}"
        else:
            inner = ", ".join(repr(v) for v in self.data)
        status = "" if self.live else " FREED"
        return f"{flag}{self.kind}<{self.oid} rc={self.refcount}{status}>{{{inner}}}"
