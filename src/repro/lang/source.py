"""Source files, positions, and spans for diagnostics."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

# Positions and spans are slotted records with a plain ``__init__``: the
# lexer builds one span and up to two positions per token, and a frozen
# dataclass pays an ``object.__setattr__`` call per field for that.  They
# are never mutated after construction; ``unsafe_hash`` gives them the
# field-wise hash (and ``dataclasses.fields``, repr and equality) of the
# frozen records they replace.


@dataclass(slots=True, unsafe_hash=True)
class Position:
    """A 1-based line/column position inside a source file."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(slots=True, unsafe_hash=True)
class Span:
    """A contiguous region of a source file, used in diagnostics."""

    filename: str
    start: Position
    end: Position

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"

    def merge(self, other: "Span") -> "Span":
        """The smallest span covering both ``self`` and ``other``."""
        first = self.start if self.start.offset <= other.start.offset else other.start
        last = self.end if self.end.offset >= other.end.offset else other.end
        return Span(self.filename, first, last)


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
        return Span(self.filename, self.position(start_offset), self.position(end_offset))

    def line_text(self, line: int) -> str:
        """The text of a 1-based line, without its newline."""
        start = self._line_starts[line - 1]
        end = self._line_starts[line] - 1 if line < len(self._line_starts) else len(self.text)
        return self.text[start:end]

    def caret_diagnostic(self, span: Span, message: str) -> str:
        """Render ``message`` with the offending line and a caret marker."""
        line = self.line_text(span.start.line)
        caret = " " * (span.start.column - 1) + "^"
        return f"{span}: {message}\n  {line}\n  {caret}"
