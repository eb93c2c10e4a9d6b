"""The ESP lexer.

Turns source text into a list of :class:`~repro.lang.tokens.Token`.
ESP uses a C-style surface syntax extended with the paper's sigils:
``$`` (declaration / pattern binder), ``#`` (mutable flavor), ``|>``
(union tag), ``@`` (process id), ``->`` (array fill), and ``...``
(elided fill tail, accepted and ignored inside braces).

Comments are ``//`` to end of line and ``/* ... */`` (non-nesting).
Integer literals are ASCII decimal or ``0x`` hexadecimal.

One compiled pattern, matched at the current offset, skips whitespace
and comments and takes the next identifier, number or operator by
maximal munch.  Text the pattern does not take — end of input, an
identifier starting with a non-ASCII letter, and every lexical error —
goes through :meth:`Lexer._irregular`, which reports errors with their
exact message and span.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.source import Position, SourceFile, Span
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_TRIVIA = r"""
    (?: [ \t\r\n]+(?![ \t\r\n])           # whitespace, as one maximal run
      | //[^\n]*(?:\n|\Z)                 # line comment, with its newline
      | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/    # block comment, to the first */
    )*
"""

# Every alternative can end in only one place, so a failed match
# backtracks in linear time before falling back to ``_irregular``.
# Numbers refuse a following word character (``12ab``, ``0x1g``, ``1²``)
# and a lone ``/`` refuses ``*`` and ``/``, leaving those to the
# error path.
_SCAN = re.compile(_TRIVIA + r"""
    (?: (?P<word> [A-Za-z_]\w* )
      | (?P<int> 0[xX][0-9a-fA-F]+(?!\w) | [0-9]+(?!\w) )
      | (?P<op> \.\.\. | \|> | -> | == | != | <= | >= | && | \|\| | << | >>
               | /(?![*/]) | [{}()\[\],;:$\#@.=+\-*%<>!&|^] )
    )
""", re.VERBOSE)
_SKIP_TRIVIA = re.compile(_TRIVIA, re.VERBOSE)
_WORD_TAIL = re.compile(r"\w*")
_DIGITS = re.compile(r"[0-9]*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")

_WORD, _INT = 1, 2  # group numbers in _SCAN; 3 is an operator

# Punctuation and operators: every kind whose value is its own spelling
# and not a word (keywords, identifiers, literals and EOF are words).
_OPERATORS = {kind.value: kind for kind in TokenKind if not kind.value[0].isalpha()}


class Lexer:
    """Single-pass scanner over a :class:`SourceFile`."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.text = source.text

    def tokenize(self) -> list[Token]:
        """Scan the whole file, returning tokens ending with EOF."""
        text, filename = self.text, self.source.filename
        scan, operators, keywords = _SCAN.match, _OPERATORS, KEYWORDS
        ident, integer, eof = TokenKind.IDENT, TokenKind.INT, TokenKind.EOF
        tokens: list[Token] = []
        append = tokens.append
        pos = line_start = 0
        line = 1
        last = Position(1, 1, 0)  # end of the previous token
        while True:
            m = scan(text, pos)
            if m is None:
                token = self._irregular(pos)
                append(token)
                if token.kind is eof:
                    return tokens
                last = token.span.end
                pos, line = last.offset, last.line
                line_start = pos - last.column + 1
                continue
            group = m.lastindex
            lexeme = m[group]
            end = m.end()
            start = end - len(lexeme)
            if start != pos:  # trivia: tokens themselves never span lines
                newlines = text.count("\n", pos, start)
                if newlines:
                    line += newlines
                    line_start = text.rindex("\n", pos, start) + 1
                first = Position(line, start - line_start + 1, start)
            else:
                first = last
            last = Position(line, end - line_start + 1, end)
            span = Span(filename, first, last)
            if group == _WORD:
                append(Token(keywords.get(lexeme, ident), lexeme, span))
            elif group == _INT:
                base = 16 if lexeme[1:2] in ("x", "X") else 10
                append(Token(integer, lexeme, span, int(lexeme, base)))
            else:
                append(Token(operators[lexeme], lexeme, span))
            pos = end

    def _irregular(self, pos: int) -> Token:
        """The token at ``pos`` (after trivia) that ``_SCAN`` leaves out —
        end of input, a word starting with a non-ASCII letter, a number
        followed by a numeric character that is not a digit (``1½``) —
        or the lexical error there."""
        text, n, span = self.text, len(self.text), self.source.span
        start = _SKIP_TRIVIA.match(text, pos).end()
        if start >= n:
            return Token(TokenKind.EOF, "", span(start, start))
        if text.startswith("/*", start):
            raise LexError("unterminated block comment", span(start, n))
        ch = text[start]
        if ch.isalpha() or ch == "_":
            end = _WORD_TAIL.match(text, start).end()
            word = text[start:end]
            return Token(KEYWORDS.get(word, TokenKind.IDENT), word, span(start, end))
        if "0" <= ch <= "9":
            if text.startswith(("0x", "0X"), start):
                end = _HEX_DIGITS.match(text, start + 2).end()
                if end == start + 2:
                    raise LexError("malformed hex literal", span(start, end))
                value = int(text[start:end], 16)
            else:
                end = _DIGITS.match(text, start).end()
                value = int(text[start:end])
            after = text[end:end + 1]
            if after and (after.isalpha() or after == "_" or after.isdigit()):
                raise LexError(
                    f"malformed number {text[start:end + 1]!r}", span(start, end + 1)
                )
            return Token(TokenKind.INT, text[start:end], span(start, end), value)
        raise LexError(f"unexpected character {ch!r}", span(start, start + 1))


def tokenize(text: str, filename: str = "<esp>") -> list[Token]:
    """Convenience wrapper: lex ``text`` into a token list."""
    return Lexer(SourceFile(text, filename)).tokenize()
