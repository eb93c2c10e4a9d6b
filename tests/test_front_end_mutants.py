"""Front-end outcome on mutated texts, pinned byte for byte.

``tests/goldens/front_end_mutants.json`` records what the whole front
end makes of about 400 seeded mutants of the example programs, the VMMC
firmware and the retransmission protocol at window 2 x messages 2.  A
mutant deletes, duplicates or swaps lines, or replaces one integer
literal or one identifier (ROADMAP item 3's operators), so most mutants
stop at a diagnostic and the rest compile to programs the unmutated
corpus never reaches.

Per mutant the golden holds either

* the diagnostic: its class, message and full span row; or
* the token count, the sha256 of the token dump and of the AST dump
  with every span (as ``tests/test_front_end.py`` dumps them),
  ``canonical_ir_hash``, every ``OptStats`` field and the sha256 of
  ``generate_c``.

Regenerate only after an intentional change to what the front end
accepts, reports or produces:

    PYTHONPATH=src:. python tests/test_front_end_mutants.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from pathlib import Path

from repro.backends.c.codegen import generate_c
from repro.errors import ESPError
from repro.ir.pipeline import compile_ir
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.program import frontend_from_ast
from repro.lang.tokens import KEYWORDS
from repro.serve.keys import canonical_ir_hash
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE
from repro.vmmc.retransmission import protocol_source
from tests.test_front_end import _sha, _span_row, _tree, token_row

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "front_end_mutants.json"
EXAMPLES_DIR = ROOT / "examples" / "esp"

SEED = 27
# Mutants per source: fewer of the larger texts, to keep the test near 3 s.
MUTANTS = {
    "add5.esp": 80,
    "appendix_b.esp": 80,
    "retransmission.esp": 60,
    "vmmc.esp": 30,
    "vmmc_firmware.esp": 30,
    "retransmission_w2m2.esp": 120,
}

_INT = re.compile(r"\b(?:0[xX][0-9a-fA-F]+|[0-9]+)\b")
_IDENT = re.compile(r"\b[A-Za-z_]\w*\b")
_INTS = ("0", "1", "2", "3", "7", "16", "255", "0x10", "65536",
         "0x7fffffff", "9007199254740993")


def sources() -> dict[str, str]:
    """filename -> text for every source that is mutated."""
    texts = {path.name: path.read_text()
             for path in sorted(EXAMPLES_DIR.glob("*.esp"))}
    texts["vmmc_firmware.esp"] = VMMC_ESP_SOURCE
    texts["retransmission_w2m2.esp"] = protocol_source(2, 2)
    return texts


def mutate(text: str, rng: random.Random) -> str:
    """One line- or literal-level mutation of ``text``."""
    op = rng.choice(("delete", "duplicate", "swap", "integer", "identifier"))
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    if op == "delete":
        del lines[at]
    elif op == "duplicate":
        lines.insert(at, lines[at])
    elif op == "swap":
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        pattern = _INT if op == "integer" else _IDENT
        matches = [m for m in pattern.finditer(text)
                   if op == "integer" or m[0] not in KEYWORDS]
        m = rng.choice(matches)
        if op == "integer":
            new = rng.choice(_INTS)
        else:
            new = rng.choice(matches)[0]
        return text[:m.start()] + new + text[m.end():]
    return "\n".join(lines)


def mutants() -> list[tuple[str, str]]:
    """(name, text) for every mutant, in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for filename, text in sources().items():
        for index in range(MUTANTS[filename]):
            mutant = text
            for _ in range(rng.choice((1, 1, 2))):
                mutant = mutate(mutant, rng)
            out.append((f"{filename}#{index}", mutant))
    return out


def outcome(text: str, filename: str) -> dict:
    """The diagnostic the front end reports for ``text``, or what it
    produces when the text compiles."""
    try:
        tokens = tokenize(text, filename)
        tree = parse(text, filename)
        ast_sha256 = _sha(repr(_tree(tree)))
        program, stats = compile_ir(frontend_from_ast(tree))
        row = {
            "tokens": len(tokens),
            "tokens_sha256": _sha(repr([token_row(t) for t in tokens])),
            "ast_sha256": ast_sha256,
            "canonical_ir_hash": canonical_ir_hash(program),
            "opt_stats": dataclasses.asdict(stats),
            "c_sha256": _sha(generate_c(program)),
        }
    except ESPError as err:
        row = {
            "error": type(err).__name__,
            "message": err.message,
            "span": None if err.span is None else _span_row(err.span),
        }
    return json.loads(json.dumps(row))


def record() -> dict:
    return {name: outcome(text, name.split("#")[0]) for name, text in mutants()}


def test_front_end_matches_golden_on_mutants():
    golden = json.loads(GOLDEN.read_text())
    rows = record()
    assert sorted(golden) == sorted(rows)
    mismatched = [name for name in rows if rows[name] != golden[name]]
    assert not mismatched, mismatched


if __name__ == "__main__":  # regeneration entry point (see docstring)
    GOLDEN.write_text(json.dumps(record(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(Path.cwd())}")
