"""Error hierarchy and diagnostics for the ESP toolchain.

Every user-facing failure in the frontend, middle end, runtime, and
verifier derives from :class:`ESPError`.  Errors raised against source
code carry a :class:`repro.lang.source.Span` so the CLI can print
caret diagnostics.
"""

from __future__ import annotations


class ESPError(Exception):
    """Base class for every error produced by the ESP toolchain."""

    def __init__(self, message: str, span=None):
        self.message = message
        self.span = span
        super().__init__(self.format())

    def format(self) -> str:
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


class LexError(ESPError):
    """Raised by the lexer on malformed input."""


class ParseError(ESPError):
    """Raised by the parser on a syntax error."""


class TypeError_(ESPError):
    """Raised by the type checker.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class PatternError(ESPError):
    """Raised when channel patterns are not disjoint/exhaustive, or a
    pattern is claimed by more than one process."""


class ProgramError(ESPError):
    """Raised by whole-program checks (duplicate names, bad external
    declarations, unknown channels, ...)."""


class LoweringError(ESPError):
    """Raised when the AST cannot be lowered to IR."""


class ESPRuntimeError(ESPError):
    """Raised during execution of an ESP program."""


class MemorySafetyError(ESPRuntimeError):
    """A memory-safety violation: use-after-free, double-free,
    negative refcount, or object-table exhaustion (leak)."""


class AssertionFailure(ESPRuntimeError):
    """An ESP ``assert`` evaluated to false."""
