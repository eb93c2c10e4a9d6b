"""Channel pattern analysis (paper §4.2).

ESP dispatches messages by pattern: a channel together with a receive
pattern defines a *port* that may have many writers but exactly one
reader.  To support this efficiently the compiler requires that, per
channel:

1. all receive patterns are pairwise **disjoint** — an object matches
   at most one pattern;
2. the patterns are **exhaustive** — an object matches at least one
   pattern;
3. each pattern (port) is used by **one process only**.

This module canonicalises patterns into shapes, checks the three
properties, and assigns port indexes consumed by lowering, the
runtime, and both backends.

Exhaustiveness is checked statically over union tags.  Equality
constraints on integers (``@``, literals) cannot be statically
exhaustive over an unbounded domain; following the paper's runtime
semantics ("an object has to match exactly one pattern") such channels
get a *dynamic* exhaustiveness obligation: the runtime and verifier
flag a no-match delivery as an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PatternError
from repro.lang import ast
from repro.lang.types import RecordType, Type, UnionType
from repro.lang.typecheck import CheckedProgram, InUse


# ---------------------------------------------------------------------------
# Canonical shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Base class of canonical pattern shapes."""


@dataclass(frozen=True)
class Wild(Shape):
    """Matches anything (binders and store targets)."""

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class Eq(Shape):
    """Matches a known constant (literal, const, or the process id)."""

    value: int | bool

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class EqUnknown(Shape):
    """An equality constraint whose value is not known statically.

    Conservatively overlaps with everything except a different union
    tag; such patterns can only be used when every other pattern on the
    channel is distinguished elsewhere.
    """

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True)
class Rec(Shape):
    items: tuple[Shape, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.items) + "}"


@dataclass(frozen=True)
class Uni(Shape):
    tag: str
    value: Shape

    def __str__(self) -> str:
        return "{" + f"{self.tag} |> {self.value}" + "}"


def shape_of(pattern: ast.Pattern, consts: dict, pid: int | None) -> Shape:
    """Canonicalise a checked pattern.  ``pid`` resolves ``@``; it is
    None for external-interface patterns (where ``@`` is not allowed)."""
    if isinstance(pattern, ast.PBind):
        return Wild()
    if isinstance(pattern, ast.PEq):
        if getattr(pattern, "is_store", False):
            return Wild()
        return _shape_of_expr(pattern.expr, consts, pid)
    if isinstance(pattern, ast.PRecord):
        return Rec(tuple(shape_of(i, consts, pid) for i in pattern.items))
    if isinstance(pattern, ast.PUnion):
        return Uni(pattern.tag, shape_of(pattern.value, consts, pid))
    raise PatternError(f"unhandled pattern {type(pattern).__name__}", pattern.span)


def _shape_of_expr(expr: ast.Expr, consts: dict, pid: int | None) -> Shape:
    if isinstance(expr, ast.IntLit):
        return Eq(expr.value)
    if isinstance(expr, ast.BoolLit):
        return Eq(expr.value)
    if isinstance(expr, ast.ProcessId):
        return Eq(pid) if pid is not None else EqUnknown()
    if isinstance(expr, ast.Var) and expr.name in consts:
        return Eq(consts[expr.name])
    return EqUnknown()


# ---------------------------------------------------------------------------
# Disjointness
# ---------------------------------------------------------------------------


def shapes_disjoint(a: Shape, b: Shape) -> bool:
    """True when no value can match both shapes."""
    if isinstance(a, Uni) and isinstance(b, Uni):
        if a.tag != b.tag:
            return True
        return shapes_disjoint(a.value, b.value)
    if isinstance(a, Rec) and isinstance(b, Rec):
        if len(a.items) != len(b.items):
            return True
        return any(shapes_disjoint(x, y) for x, y in zip(a.items, b.items))
    if isinstance(a, Eq) and isinstance(b, Eq):
        return a.value != b.value
    # Wild or EqUnknown against anything of the same constructor overlaps;
    # mismatched constructors (Uni vs Rec etc.) cannot occur on a well-typed
    # channel, treat as overlapping to be conservative.
    return False


# ---------------------------------------------------------------------------
# Exhaustiveness
# ---------------------------------------------------------------------------


@dataclass
class Coverage:
    """Result of the exhaustiveness check for one channel."""

    exhaustive: bool
    dynamic: bool  # True when coverage relies on runtime equality checks
    missing: list[str] = field(default_factory=list)


def check_exhaustive(message_type: Type, shapes: list[Shape]) -> Coverage:
    """Static exhaustiveness over union tags; equality constraints make
    coverage dynamic (see module docstring)."""
    return _cover(message_type, shapes, path="msg")


def _cover(t: Type, shapes: list[Shape], path: str) -> Coverage:
    if not shapes:
        return Coverage(False, False, [path])
    if any(isinstance(s, Wild) for s in shapes):
        return Coverage(True, False)
    if isinstance(t, UnionType):
        missing: list[str] = []
        dynamic = False
        for tag, tag_type in t.tags:
            sub = [s.value for s in shapes if isinstance(s, Uni) and s.tag == tag]
            inner = _cover(tag_type, sub, f"{path}.{tag}")
            dynamic = dynamic or inner.dynamic
            if not inner.exhaustive:
                missing.extend(inner.missing)
        return Coverage(not missing, dynamic, missing)
    if isinstance(t, RecordType):
        recs = [s for s in shapes if isinstance(s, Rec)]
        eqs = [s for s in shapes if isinstance(s, (Eq, EqUnknown))]
        if not recs:
            # Only equality constraints at a record position: dynamic.
            return Coverage(bool(eqs), True) if eqs else Coverage(False, False, [path])
        dynamic = bool(eqs)
        # A record is covered when, treating components independently,
        # some pattern is wild-dominant; precise multi-column coverage is
        # approximated: a single all-covering pattern per column suffices
        # only if one pattern row is wild in all columns, else dynamic.
        for rec in recs:
            if all(isinstance(item, Wild) for item in rec.items):
                return Coverage(True, dynamic)
        # Rows distinguished by equality columns (e.g. {@, $x} per process):
        # coverage depends on runtime values.
        return Coverage(True, True)
    # Base types: equality constraints only -> dynamic; wild handled above.
    return Coverage(True, True)


# ---------------------------------------------------------------------------
# Ports
# ---------------------------------------------------------------------------


@dataclass
class Port:
    """A channel/pattern pair with its single reader.

    ``reader`` is a process name, or None when the reader is external
    (the pattern came from an external-interface entry).
    """

    channel: str
    index: int
    shape: Shape
    reader: str | None
    entry_name: str | None = None
    uses: list[InUse] = field(default_factory=list)


@dataclass
class PatternAnalysis:
    """Per-channel ports plus coverage results."""

    ports: dict[str, list[Port]]
    coverage: dict[str, Coverage]


def analyze(checked: CheckedProgram, require_exhaustive: bool = True) -> PatternAnalysis:
    """Run the full pattern analysis over a type-checked program.

    Raises :class:`PatternError` on violations of the three port rules;
    additionally stamps every ``in`` use's pattern node with its
    ``port_index`` for lowering.  ``require_exhaustive=False`` is used
    when a process is verified in isolation (§5.3): its peers' patterns
    are gone, and the environment only offers messages that match the
    remaining ports.
    """
    ports: dict[str, list[Port]] = {}
    coverage: dict[str, Coverage] = {}
    for channel, info in checked.channels.items():
        uses = checked.in_uses[channel]
        channel_ports: list[Port] = []
        for use in uses:
            shape = shape_of(use.pattern, checked.consts, use.pid)
            existing = None
            for port in channel_ports:
                if port.shape == shape:
                    existing = port
                    break
            if existing is not None:
                if existing.reader != use.process:
                    raise PatternError(
                        f"pattern {shape} on channel '{channel}' is used by "
                        f"'{existing.reader or 'external'}' and "
                        f"'{use.process or 'external'}'; each pattern may be "
                        "used by one process only",
                        use.pattern.span,
                    )
                existing.uses.append(use)
                use.pattern.port_index = existing.index
                continue
            for port in channel_ports:
                if not shapes_disjoint(port.shape, shape):
                    raise PatternError(
                        f"patterns {port.shape} and {shape} on channel "
                        f"'{channel}' overlap; channel patterns must be disjoint",
                        use.pattern.span,
                    )
            port = Port(
                channel=channel,
                index=len(channel_ports),
                shape=shape,
                reader=use.process,
                entry_name=use.entry_name,
                uses=[use],
            )
            use.pattern.port_index = port.index
            channel_ports.append(port)
        ports[channel] = channel_ports
        if uses:
            coverage[channel] = check_exhaustive(
                info.message_type, [p.shape for p in channel_ports]
            )
            if require_exhaustive and not coverage[channel].exhaustive:
                raise PatternError(
                    f"patterns on channel '{channel}' are not exhaustive; "
                    f"uncovered: {', '.join(coverage[channel].missing)}",
                    uses[0].pattern.span,
                )
        else:
            coverage[channel] = Coverage(True, False)
    return PatternAnalysis(ports=ports, coverage=coverage)
