"""Front-end contract: tokens, ASTs, spans and generated code.

Two checks pin the lexer and parser to byte-identical output:

* **Golden.** ``tests/goldens/front_end.json`` records, for every
  example program, the VMMC firmware and the retransmission protocol
  at windows 1-3 x messages 2-4: the token count, the sha256 of the
  token dump (kind, text, value, both positions), the sha256 of an AST
  dump that includes every node's span, the sha256 of ``generate_c``
  and ``canonical_ir_hash``.  Regenerate only after an intentional
  change to the language's surface or the C backend:

      PYTHONPATH=src:. python tests/test_front_end.py

* **Oracle.** ``tests/front_end_reference.py`` keeps the original
  character-at-a-time scanner.  A Hypothesis test mutates corpus texts
  (insertions, deletions and swaps, biased towards comment openers,
  hex prefixes, multi-character operators, tabs, CR, NBSP and
  non-ASCII letters) and requires the production scanner to produce
  the same token stream or the same ``LexError`` message and span.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.api import compile_source
from repro.backends.c.codegen import generate_c
from repro.errors import LexError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.serve.keys import canonical_ir_hash
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE
from repro.vmmc.retransmission import protocol_source
from tests.front_end_reference import reference_tokenize

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "front_end.json"
EXAMPLES_DIR = ROOT / "examples" / "esp"


def corpus() -> dict[str, tuple[str, str]]:
    """name -> (text, filename) for every pinned source."""
    sources = {}
    for path in sorted(EXAMPLES_DIR.glob("*.esp")):
        name = f"examples/esp/{path.name}"
        sources[name] = (path.read_text(), name)
    sources["vmmc_firmware"] = (VMMC_ESP_SOURCE, "vmmc.esp")
    for window in (1, 2, 3):
        for messages in (2, 3, 4):
            name = f"retransmission_w{window}m{messages}"
            sources[name] = (protocol_source(window, messages), f"{name}.esp")
    return sources


def _span_row(span) -> tuple:
    return (span.filename,
            span.start.line, span.start.column, span.start.offset,
            span.end.line, span.end.column, span.end.offset)


def token_row(token) -> tuple:
    return (token.kind.name, token.text, token.value) + _span_row(token.span)


def _tree(obj):
    if isinstance(obj, ast.Node):
        return (type(obj).__name__, _span_row(obj.span)) + tuple(
            (f.name, _tree(getattr(obj, f.name)))
            for f in dataclasses.fields(obj) if f.name != "span"
        )
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,) + tuple(_tree(item) for item in obj)
    return obj


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(text: str, filename: str) -> dict:
    tokens = tokenize(text, filename)
    program = compile_source(text, filename)
    return {
        "tokens": len(tokens),
        "tokens_sha256": _sha(repr([token_row(t) for t in tokens])),
        "ast_sha256": _sha(repr(_tree(parse(text, filename)))),
        "c_sha256": _sha(generate_c(program)),
        "canonical_ir_hash": canonical_ir_hash(program),
    }


def _render(rows: dict) -> str:
    return json.dumps(rows, sort_keys=True, indent=1) + "\n"


def test_front_end_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    sources = corpus()
    assert sorted(golden) == sorted(sources)
    for name, (text, filename) in sources.items():
        assert record(text, filename) == golden[name], name


# -- oracle: the production scanner against the reference ---------------------

_CORPUS_TEXTS = [text for text, _ in corpus().values()]

_FRAGMENTS = [
    "/*", "*/", "//", "/", "*", "0x", "0X", "0x1", "|>", "|", ">", "...",
    "..", ".", "->", "-", "==", "=", "!=", "<=", ">=", "<<", ">>", "&&",
    "||", "\t", "\r", "\r\n", "\n", " ", "\u00a0", "é", "ß", "Ω", "ж",
    "ǅ", "ª", "½", "_", "x", "9", "0", "12", "?", "'", "\"", "`", "~",
    "\\", "$", "#", "@", "{", "}", "(", ")", ";", ",",
]


def _has_non_ascii_digit(text: str) -> bool:
    return any(ch.isdigit() and not ch.isascii() for ch in text)


@st.composite
def mutated_texts(draw):
    text = draw(st.sampled_from(_CORPUS_TEXTS))
    pieces = st.one_of(st.sampled_from(_FRAGMENTS),
                       st.characters(blacklist_categories=("Cs",)))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        op = draw(st.sampled_from(("insert", "delete", "swap")))
        if op == "insert":
            text = text[:at] + draw(pieces) + text[at:]
        elif op == "delete":
            width = draw(st.integers(min_value=1, max_value=4))
            text = text[:at] + text[at + width:]
        elif at + 1 < len(text):
            text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
    return text


def _lex_outcome(lex, text: str):
    try:
        return "tokens", [token_row(t) for t in lex(text, "mut.esp")]
    except LexError as err:
        return "error", err.message, _span_row(err.span)


@settings(max_examples=400)
@given(mutated_texts())
def test_scanner_matches_reference_on_mutated_corpus(text):
    if _has_non_ascii_digit(text):
        return
    assert _lex_outcome(tokenize, text) == _lex_outcome(reference_tokenize, text)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
def test_scanner_matches_reference_on_fragment_soup(text):
    assert _lex_outcome(tokenize, text) == _lex_outcome(reference_tokenize, text)


def test_scanner_matches_reference_on_corpus():
    for text in _CORPUS_TEXTS:
        assert _lex_outcome(tokenize, text) == _lex_outcome(reference_tokenize, text)


if __name__ == "__main__":  # regeneration entry point (see docstring)
    GOLDEN.write_text(_render(
        {name: record(text, filename) for name, (text, filename) in corpus().items()}
    ))
    print(f"wrote {GOLDEN.relative_to(Path.cwd())}")
