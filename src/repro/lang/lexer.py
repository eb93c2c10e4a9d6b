"""The ESP lexer.

Turns source text into a list of :class:`~repro.lang.tokens.Token`.
ESP uses a C-style surface syntax extended with the paper's sigils:
``$`` (declaration / pattern binder), ``#`` (mutable flavor), ``|>``
(union tag), ``@`` (process id), ``->`` (array fill), and ``...``
(elided fill tail, accepted and ignored inside braces).

Comments are ``//`` to end of line and ``/* ... */`` (non-nesting).
Integer literals are decimal or ``0x`` hexadecimal.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.source import SourceFile
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


class Lexer:
    """Single-pass scanner over a :class:`SourceFile`."""

    def __init__(self, source: SourceFile):
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


def tokenize(text: str, filename: str = "<esp>") -> list[Token]:
    """Convenience wrapper: lex ``text`` into a token list."""
    return Lexer(SourceFile(text, filename)).tokenize()
