"""The reference ESP scanner: the original character-at-a-time lexer
and binary-search line lookup, kept verbatim as the oracle that
``tests/test_front_end.py`` checks the production scanner against.

Nothing in ``src/`` imports this module.  It builds the production
:class:`~repro.lang.tokens.Token`, :class:`~repro.lang.source.Span` and
:class:`~repro.lang.source.Position` records through their public
constructors, so a token stream from either scanner can be compared
field by field.

Known defect kept on purpose: integer literals are scanned with
``str.isdigit``, so non-ASCII digits (``²``, ``٣``) reach ``int()``
and either crash or lex as a different number.  The oracle test leaves
such texts out; ``tests/test_lexer.py`` pins the corrected behaviour.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.source import Position, Span
from repro.lang.tokens import KEYWORDS, Token, TokenKind

# Multi-character operators, longest first so maximal munch works.
_MULTI = [
    ("...", TokenKind.ELLIPSIS),
    ("|>", TokenKind.TRIANGLE),
    ("->", TokenKind.ARROW),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND),
    ("||", TokenKind.OR),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
]

_SINGLE = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
    "$": TokenKind.DOLLAR,
    "#": TokenKind.HASH,
    "@": TokenKind.AT,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "^": TokenKind.CARET,
}


class ReferenceSource:
    """The original line table: one pass over every character, then a
    hand-written binary search per position."""

    def __init__(self, text: str, filename: str = "<esp>"):
        self.text = text
        self.filename = filename
        self._line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self._line_starts.append(i + 1)

    def position(self, offset: int) -> Position:
        """Translate a byte offset into a line/column position."""
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return Position(lo + 1, offset - self._line_starts[lo] + 1, offset)

    def span(self, start_offset: int, end_offset: int) -> Span:
        """Build a span from a pair of byte offsets."""
        return Span(self.filename, self.position(start_offset), self.position(end_offset))


class Lexer:
    """Single-pass scanner over a :class:`ReferenceSource`."""

    def __init__(self, source: ReferenceSource):
        self.source = source
        self.text = source.text
        self.pos = 0

    def tokenize(self) -> list[Token]:
        """Scan the whole file, returning tokens ending with EOF."""
        tokens = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    def _span(self, start: int, end: int):
        return self.source.span(start, end)

    def _skip_trivia(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif text.startswith("//", self.pos):
                nl = text.find("\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif text.startswith("/*", self.pos):
                close = text.find("*/", self.pos + 2)
                if close < 0:
                    raise LexError(
                        "unterminated block comment",
                        self._span(self.pos, n),
                    )
                self.pos = close + 2
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        text, n = self.text, len(self.text)
        start = self.pos
        if start >= n:
            return Token(TokenKind.EOF, "", self._span(start, start))

        ch = text[start]
        if ch.isalpha() or ch == "_":
            return self._lex_word(start)
        if ch.isdigit():
            return self._lex_number(start)

        for literal, kind in _MULTI:
            if text.startswith(literal, start):
                self.pos = start + len(literal)
                return Token(kind, literal, self._span(start, self.pos))

        kind = _SINGLE.get(ch)
        if kind is not None:
            self.pos = start + 1
            return Token(kind, ch, self._span(start, self.pos))

        raise LexError(f"unexpected character {ch!r}", self._span(start, start + 1))

    def _lex_word(self, start: int) -> Token:
        text, n = self.text, len(self.text)
        end = start
        while end < n and (text[end].isalnum() or text[end] == "_"):
            end += 1
        self.pos = end
        word = text[start:end]
        kind = KEYWORDS.get(word, TokenKind.IDENT)
        return Token(kind, word, self._span(start, end))

    def _lex_number(self, start: int) -> Token:
        text, n = self.text, len(self.text)
        end = start
        if text.startswith(("0x", "0X"), start):
            end = start + 2
            while end < n and text[end] in "0123456789abcdefABCDEF":
                end += 1
            if end == start + 2:
                raise LexError("malformed hex literal", self._span(start, end))
            value = int(text[start:end], 16)
        else:
            while end < n and text[end].isdigit():
                end += 1
            value = int(text[start:end])
        if end < n and (text[end].isalpha() or text[end] == "_"):
            raise LexError(
                f"malformed number {text[start:end + 1]!r}",
                self._span(start, end + 1),
            )
        self.pos = end
        return Token(TokenKind.INT, text[start:end], self._span(start, end), value)


def reference_tokenize(text: str, filename: str = "<esp>") -> list[Token]:
    """Lex ``text`` with the reference scanner."""
    return Lexer(ReferenceSource(text, filename)).tokenize()
