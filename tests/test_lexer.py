"""Unit tests for the ESP lexer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind as K


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def test_empty_input_yields_only_eof():
    tokens = tokenize("")
    assert [t.kind for t in tokens] == [K.EOF]


def test_keywords_are_distinguished_from_identifiers():
    assert kinds("process processes") == [K.KW_PROCESS, K.IDENT]


def test_all_keywords_lex():
    from repro.lang.tokens import KEYWORDS

    for word, kind in KEYWORDS.items():
        assert kinds(word) == [kind], word


def test_integer_literals_decimal():
    tokens = tokenize("0 7 54677 1024")
    assert [t.value for t in tokens[:-1]] == [0, 7, 54677, 1024]


def test_integer_literals_hex():
    tokens = tokenize("0x10 0xff 0XAB")
    assert [t.value for t in tokens[:-1]] == [16, 255, 171]


def test_malformed_hex_rejected():
    with pytest.raises(LexError):
        tokenize("0x")


def test_malformed_number_rejected():
    with pytest.raises(LexError):
        tokenize("12abc")


def test_identifier_character_after_hex_literal_rejected():
    # Like "12ab": one malformed number, not INT 0x1 followed by IDENT g.
    for source in ("0x1g", "0xffz", "0x1_"):
        with pytest.raises(LexError) as info:
            tokenize(f"x = {source};")
        assert f"malformed number {source!r}" in str(info.value)
        span = info.value.span
        assert (span.start.offset, span.end.offset) == (4, 4 + len(source))


def test_identifier_with_underscores_and_digits():
    tokens = tokenize("_foo bar_2 Send")
    assert [t.text for t in tokens[:-1]] == ["_foo", "bar_2", "Send"]


def test_sigils():
    assert kinds("$ # @ |> -> ...") == [
        K.DOLLAR, K.HASH, K.AT, K.TRIANGLE, K.ARROW, K.ELLIPSIS,
    ]


def test_triangle_not_confused_with_pipe_gt():
    # `|>` must lex as one token, `| >` as two.
    assert kinds("|>") == [K.TRIANGLE]
    assert kinds("| >") == [K.PIPE, K.GT]


def test_arrow_not_confused_with_minus_gt():
    assert kinds("->") == [K.ARROW]
    assert kinds("- >") == [K.MINUS, K.GT]


def test_comparison_operators_maximal_munch():
    assert kinds("<= >= == != < > =") == [
        K.LE, K.GE, K.EQ, K.NE, K.LT, K.GT, K.ASSIGN,
    ]


def test_shift_operators():
    assert kinds("<< >>") == [K.SHL, K.SHR]


def test_logical_operators():
    assert kinds("&& || ! & |") == [K.AND, K.OR, K.NOT, K.AMP, K.PIPE]


def test_line_comment_skipped():
    assert kinds("a // comment with symbols |> $\nb") == [K.IDENT, K.IDENT]


def test_block_comment_skipped():
    assert kinds("a /* multi\nline */ b") == [K.IDENT, K.IDENT]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("a ? b")


def test_spans_track_lines_and_columns():
    tokens = tokenize("ab\n  cd")
    assert tokens[0].span.start.line == 1
    assert tokens[0].span.start.column == 1
    assert tokens[1].span.start.line == 2
    assert tokens[1].span.start.column == 3


def test_paper_fragment_lexes():
    text = "in( userReqC, { send |> { $dest, $vAddr, $size}});"
    ks = kinds(text)
    assert K.TRIANGLE in ks
    assert ks.count(K.DOLLAR) == 3


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_integer_roundtrip(n):
    token = tokenize(str(n))[0]
    assert token.kind is K.INT
    assert token.value == n


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=12))
def test_property_alpha_words_lex_as_single_token(word):
    tokens = tokenize(word)
    assert len(tokens) == 2  # word + EOF


@given(st.lists(st.sampled_from(["+", "-", "*", "/", "(", ")", "{", "}", ";", ",", "12", "x"]), max_size=30))
def test_property_token_concatenation_with_spaces(parts):
    # Joining arbitrary valid tokens with spaces must always lex, and
    # produce exactly one token per part.
    text = " ".join(parts)
    tokens = tokenize(text)
    assert len(tokens) == len(parts) + 1


@pytest.mark.parametrize("digit", ["²", "٣", "①"])
def test_non_ascii_digit_is_an_unexpected_character(digit):
    # str.isdigit() accepts these, int() rejects or re-reads them;
    # integer literals are ASCII digits only.
    with pytest.raises(LexError) as info:
        tokenize(f"$x: int = {digit};")
    assert info.value.message == f"unexpected character {digit!r}"
    span = info.value.span
    assert (span.start.offset, span.end.offset) == (10, 11)
    assert str(span) == "<esp>:1:11"


@pytest.mark.parametrize("literal", ["1²", "7٣", "0x1²"])
def test_non_ascii_digit_after_a_number_is_malformed(literal):
    with pytest.raises(LexError) as info:
        tokenize(f"x = {literal};")
    assert info.value.message == f"malformed number {literal!r}"
    span = info.value.span
    assert (span.start.offset, span.end.offset) == (4, 4 + len(literal))


def test_lex_errors_keep_message_and_span():
    cases = {
        "a /* never closed": ("unterminated block comment", 2, 17),
        "x = 0x;": ("malformed hex literal", 4, 6),
        "x = 12ab;": ("malformed number '12a'", 4, 7),
        "a\n ? b": ("unexpected character '?'", 3, 4),
        "a\u00a0b": ("unexpected character '\\xa0'", 1, 2),
    }
    for text, (message, start, end) in cases.items():
        with pytest.raises(LexError) as info:
            tokenize(text)
        span = info.value.span
        assert (info.value.message, span.start.offset, span.end.offset) == \
            (message, start, end), text
    with pytest.raises(LexError) as info:
        tokenize("a\n ? b")
    assert str(info.value) == "<esp>:2:2: unexpected character '?'"


def test_token_records_compare_hash_and_print_like_values():
    first, second = tokenize("x x")[:2]
    again = tokenize("x x")[0]
    assert first == again and hash(first) == hash(again)
    assert first != second and first.span != second.span
    assert first.span.merge(second.span) == second.span.merge(first.span)
    assert str(first.span.merge(second.span)) == "<esp>:1:1"
    assert repr(first.span.start) == "Position(line=1, column=1, offset=0)"
    assert repr(first) == (
        "Token(kind=<TokenKind.IDENT: 'identifier'>, text='x', "
        "span=Span(filename='<esp>', start=Position(line=1, column=1, offset=0), "
        "end=Position(line=1, column=2, offset=1)), value=None)"
    )
