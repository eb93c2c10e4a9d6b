"""The ESP lexer.

Turns source text into a list of :class:`~repro.lang.tokens.Token`.
ESP uses a C-style surface syntax extended with the paper's sigils:
``$`` (declaration / pattern binder), ``#`` (mutable flavor), ``|>``
(union tag), ``@`` (process id), ``->`` (array fill), and ``...``
(elided fill tail, accepted and ignored inside braces).

Comments are ``//`` to end of line and ``/* ... */`` (non-nesting).
Integer literals are ASCII decimal or ``0x`` hexadecimal.

One compiled pattern skips whitespace and comments and takes the next
identifier, number or operator by maximal munch, or else the text the
scanner leaves out; ``findall`` runs it over the whole file, so the
scanner's Python loop only builds tokens.  What it leaves out — the end
of input after trailing trivia, an identifier starting with a non-ASCII
letter, and every lexical error — goes through
:meth:`Lexer._irregular`, which reports errors with their exact message
and span.  Tokens carry offset spans: line and column are looked up
only when a diagnostic prints them.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.source import SourceFile, Span
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_TRIVIA = r"""
    (?: [ \t\r\n]+(?![ \t\r\n])           # whitespace, as one maximal run
      | //[^\n]*(?:\n|\Z)                 # line comment, with its newline
      | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/    # block comment, to the first */
    )*
"""

# Groups: trivia, then exactly one of word, number, operator and other.
# Every alternative can end in only one place, so a failed match
# backtracks in linear time.  Numbers refuse a following word character
# (``12ab``, ``0x1g``, ``1²``) and a lone ``/`` refuses ``*`` and ``/``,
# leaving those to ``other``.  ``other`` takes a word that starts with a
# non-ASCII letter whole (so the scan stays in step with the identifier
# ``_irregular`` makes of it), else any one character, so every match
# starts where the last one ended.  Past the last token, trailing trivia
# backtracks into ``other`` too, and ``_irregular`` finds the end there.
_SCAN = re.compile("(" + _TRIVIA + r""")
    (?: ( [A-Za-z_]\w* )
      | ( 0[xX][0-9a-fA-F]+(?!\w) | [0-9]+(?!\w) )
      | ( \.\.\. | \|> | -> | == | != | <= | >= | && | \|\| | << | >>
          | /(?![*/]) | [{}()\[\],;:$\#@.=+\-*%<>!&|^] )
      | ( [^\W\d_]\w* | (?s:.) )
    )
""", re.VERBOSE)
_SKIP_TRIVIA = re.compile(_TRIVIA, re.VERBOSE)
_WORD_TAIL = re.compile(r"\w*")
_DIGITS = re.compile(r"[0-9]*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")

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
        text, source = self.text, self.source
        filename = source.filename
        findall, operators, keywords = _SCAN.findall, _OPERATORS, KEYWORDS
        ident, integer = TokenKind.IDENT, TokenKind.INT
        tokens: list[Token] = []
        append = tokens.append
        pos = 0
        while True:
            for trivia, word, number, op, other in findall(text, pos):
                start = pos + len(trivia)
                if word:
                    pos = start + len(word)
                    append(Token(keywords.get(word, ident), word,
                                 Span(filename, start, pos, source)))
                elif op:
                    pos = start + len(op)
                    append(Token(operators[op], op,
                                 Span(filename, start, pos, source)))
                elif number:
                    pos = start + len(number)
                    base = 16 if number[1:2] in ("x", "X") else 10
                    append(Token(integer, number,
                                 Span(filename, start, pos, source),
                                 int(number, base)))
                else:
                    token = self._irregular(start)
                    append(token)
                    if token.kind is TokenKind.EOF:
                        return tokens
                    pos = start + len(other)
                    if token.span.end_offset != pos:  # out of step: rescan
                        pos = token.span.end_offset
                        break
            else:  # the text ends right after the last token
                append(self._irregular(pos))
                return tokens

    def _irregular(self, pos: int) -> Token:
        """The token at ``pos`` (after trivia) that ``_SCAN`` leaves to
        ``other`` — end of input, a word starting with a non-ASCII
        letter, a number followed by a numeric character that is not a
        digit (``1½``) — or the lexical error there."""
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
