"""Source files, positions, and spans for diagnostics."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

# Positions are slotted records with a plain ``__init__`` and the
# field-wise hash, repr and equality of a frozen dataclass.  They are
# never mutated after construction.


@dataclass(slots=True, unsafe_hash=True)
class Position:
    """A 1-based line/column position inside a source file."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Span:
    """A contiguous region of a source file, used in diagnostics.

    A span keeps its file name and its two byte offsets; ``start`` and
    ``end`` look their line and column up when read, which only
    diagnostics do.  The lexer and parser build a span for every token
    and node from offsets into a :class:`SourceFile`, whose line table
    answers the lookups; ``Span(filename, start, end)`` with two
    :class:`Position` records keeps those records instead.  Spans compare
    and hash by file name and positions, like the records they print
    as, and are never mutated."""

    __slots__ = ("filename", "start_offset", "end_offset", "_lines")

    def __init__(self, filename: str, start, end, lines=None):
        if lines is None:  # start and end are Positions
            lines = _Positions({start.offset: start, end.offset: end})
            start, end = start.offset, end.offset
        self.filename = filename
        self.start_offset = start
        self.end_offset = end
        self._lines = lines

    @property
    def start(self) -> Position:
        return self._lines.position(self.start_offset)

    @property
    def end(self) -> Position:
        return self._lines.position(self.end_offset)

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"

    def __repr__(self) -> str:
        return (f"Span(filename={self.filename!r}, start={self.start!r}, "
                f"end={self.end!r})")

    def __eq__(self, other):
        if not isinstance(other, Span):
            return NotImplemented
        return (self.filename == other.filename
                and self.start_offset == other.start_offset
                and self.end_offset == other.end_offset
                and (self._lines is other._lines
                     or (self.start == other.start and self.end == other.end)))

    def __hash__(self) -> int:
        return hash((self.filename, self.start_offset, self.end_offset))

    def merge(self, other: "Span") -> "Span":
        """The smallest span covering both ``self`` and ``other``."""
        first = self if self.start_offset <= other.start_offset else other
        last = self if self.end_offset >= other.end_offset else other
        if first._lines is last._lines:
            return Span(self.filename, first.start_offset, last.end_offset,
                        first._lines)
        return Span(self.filename, first.start, last.end)


class _Positions(dict):
    """The line table of a span built from two positions: its offsets."""

    __slots__ = ()
    position = dict.__getitem__


class SourceFile:
    """An ESP source file: text plus the machinery for line/column lookup."""

    def __init__(self, text: str, filename: str = "<esp>"):
        self.text = text
        self.filename = filename
        starts = [0]
        nl = text.find("\n")
        while nl >= 0:
            starts.append(nl + 1)
            nl = text.find("\n", nl + 1)
        self._line_starts = starts

    def position(self, offset: int) -> Position:
        """Translate a byte offset into a line/column position."""
        line = bisect_right(self._line_starts, offset)
        return Position(line, offset - self._line_starts[line - 1] + 1, offset)

    def span(self, start_offset: int, end_offset: int) -> Span:
        """Build a span from a pair of byte offsets."""
        return Span(self.filename, start_offset, end_offset, self)

    def line_text(self, line: int) -> str:
        """The text of a 1-based line, without its newline."""
        start = self._line_starts[line - 1]
        end = self._line_starts[line] - 1 if line < len(self._line_starts) else len(self.text)
        return self.text[start:end]

    def caret_diagnostic(self, span: Span, message: str) -> str:
        """Render ``message`` with the offending line and a caret marker."""
        start = span.start
        line = self.line_text(start.line)
        caret = " " * (start.column - 1) + "^"
        return f"{span}: {message}\n  {line}\n  {caret}"
