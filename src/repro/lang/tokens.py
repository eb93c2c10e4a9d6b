"""Token kinds and the token record produced by the ESP lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.lang.source import Span


class TokenKind(enum.Enum):
    """Every lexical category in ESP's C-style concrete syntax."""

    # Members are singletons compared by identity; hashing by identity
    # keeps the parser's kind-keyed tables off Enum's Python-level hash.
    __hash__ = object.__hash__

    # Literals and identifiers
    IDENT = "identifier"
    INT = "integer literal"

    # Keywords
    KW_TYPE = "type"
    KW_CHANNEL = "channel"
    KW_PROCESS = "process"
    KW_EXTERNAL = "external"
    KW_INTERFACE = "interface"
    KW_CONST = "const"
    KW_RECORD = "record"
    KW_UNION = "union"
    KW_ARRAY = "array"
    KW_OF = "of"
    KW_INT = "int"
    KW_BOOL = "bool"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_ALT = "alt"
    KW_CASE = "case"
    KW_IN = "in"
    KW_OUT = "out"
    KW_LINK = "link"
    KW_UNLINK = "unlink"
    KW_CAST = "cast"
    KW_ASSERT = "assert"
    KW_SKIP = "skip"
    KW_PRINT = "print"
    KW_BREAK = "break"

    # Punctuation
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    DOLLAR = "$"
    HASH = "#"
    AT = "@"
    DOT = "."
    ELLIPSIS = "..."
    TRIANGLE = "|>"
    ARROW = "->"

    # Operators
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    SHL = "<<"
    SHR = ">>"

    EOF = "end of input"


KEYWORDS = {
    "type": TokenKind.KW_TYPE,
    "channel": TokenKind.KW_CHANNEL,
    "process": TokenKind.KW_PROCESS,
    "external": TokenKind.KW_EXTERNAL,
    "interface": TokenKind.KW_INTERFACE,
    "const": TokenKind.KW_CONST,
    "record": TokenKind.KW_RECORD,
    "union": TokenKind.KW_UNION,
    "array": TokenKind.KW_ARRAY,
    "of": TokenKind.KW_OF,
    "int": TokenKind.KW_INT,
    "bool": TokenKind.KW_BOOL,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "alt": TokenKind.KW_ALT,
    "case": TokenKind.KW_CASE,
    "in": TokenKind.KW_IN,
    "out": TokenKind.KW_OUT,
    "link": TokenKind.KW_LINK,
    "unlink": TokenKind.KW_UNLINK,
    "cast": TokenKind.KW_CAST,
    "assert": TokenKind.KW_ASSERT,
    "skip": TokenKind.KW_SKIP,
    "print": TokenKind.KW_PRINT,
    "break": TokenKind.KW_BREAK,
}


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """A single lexeme: its kind, raw text, decoded value, and span.

    Slotted and never mutated, like :class:`~repro.lang.source.Span`."""

    kind: TokenKind
    text: str
    span: Span
    value: int | None = None  # decoded value for INT tokens

    def __str__(self) -> str:
        if self.kind is TokenKind.IDENT:
            return f"identifier '{self.text}'"
        if self.kind is TokenKind.INT:
            return f"integer {self.text}"
        return f"'{self.text}'" if self.text else self.kind.value
