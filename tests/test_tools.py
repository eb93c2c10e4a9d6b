"""Tests for the espc CLI and the LoC accounting tools."""

import re

import pytest

from repro.tools.cli import main
from repro.tools.loc import (
    count_python,
    count_source,
    split_esp_declarations,
    vmmc_code_size_comparison,
)

GOOD = """
channel c: int
process p { out( c, 41); }
process q { in( c, $x); print(x + 1); }
"""

BAD_SYNTAX = "process p { out( c, ; }"
BAD_TYPES = "channel c: int process p { out( c, true); }"


@pytest.fixture
def esp_file(tmp_path):
    path = tmp_path / "pgm.esp"
    path.write_text(GOOD)
    return str(path)


# -- espc subcommands ----------------------------------------------------------


def test_check_ok(esp_file, capsys):
    assert main(["check", esp_file]) == 0
    out = capsys.readouterr().out
    assert "2 process(es)" in out


def test_check_reports_syntax_error(tmp_path, capsys):
    path = tmp_path / "bad.esp"
    path.write_text(BAD_SYNTAX)
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_reports_type_error(tmp_path, capsys):
    path = tmp_path / "bad.esp"
    path.write_text(BAD_TYPES)
    assert main(["check", str(path)]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_errors_carry_caret_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.esp"
    path.write_text("channel c: int\nprocess p { out( c, true); }\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "^" in err                       # caret marker
    assert "out( c, true);" in err          # offending line shown


def test_emit_c_writes_file(esp_file, tmp_path, capsys):
    out_path = tmp_path / "pgm.c"
    assert main(["emit-c", esp_file, "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert "esp_step_0" in text
    assert "esp_main_loop" in text


def test_emit_c_stdout(esp_file, capsys):
    assert main(["emit-c", esp_file]) == 0
    assert "esp_alloc" in capsys.readouterr().out


def test_emit_spin_writes_file(esp_file, tmp_path):
    out_path = tmp_path / "pgm.pml"
    assert main(["emit-spin", esp_file, "-o", str(out_path)]) == 0
    assert "proctype p()" in out_path.read_text()


def test_run_executes(esp_file, capsys):
    assert main(["run", esp_file]) == 0
    out = capsys.readouterr().out
    assert "q: 42" in out
    assert "transfer" in out


def test_verify_whole_program(esp_file, capsys):
    assert main(["verify", esp_file]) == 0
    assert "states" in capsys.readouterr().out


def test_verify_finds_violation(tmp_path, capsys):
    path = tmp_path / "bad.esp"
    path.write_text("""
channel c: int
process p { out( c, 1); assert(false); }
process q { in( c, $x); print(x); }
""")
    assert main(["verify", str(path)]) == 1
    assert "assertion" in capsys.readouterr().out


def test_verify_violation_output_is_identical_across_runs(tmp_path, capsys):
    # The retransmission protocol with a seeded duplicate-delivery bug:
    # a second run prints the same bytes, bar the elapsed time.
    from repro.vmmc.retransmission import buggy_source

    path = tmp_path / "buggy.esp"
    path.write_text(buggy_source("duplicate_delivery", window=1, messages=2))
    elapsed = re.compile(r"\d+\.\d+s")
    outputs = []
    for _ in range(2):
        assert main(["verify", str(path)]) == 1
        outputs.append(elapsed.sub("T", capsys.readouterr().out))
    assert "violation" in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["verify", "submit"])
def test_jobs_flag_is_rejected(esp_file, command, capsys):
    # There is one exhaustive explorer and no --jobs flag: argparse
    # refuses it with its one-line usage error.
    with pytest.raises(SystemExit) as exit_info:
        main([command, esp_file, "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_submit_store_flag_is_rejected(esp_file, capsys):
    # A daemon job runs on the default visited store, as espc verify
    # does; submit has no flag to pick another.
    with pytest.raises(SystemExit) as exit_info:
        main(["submit", esp_file, "--store", "plain"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --store plain" in capsys.readouterr().err


def test_verify_process_memory_safety(tmp_path, capsys):
    path = tmp_path / "worker.esp"
    path.write_text("""
type dataT = array of int
channel inC: dataT
channel outC: int
process worker { while (true) { in( inC, $d); out( outC, d[0]); unlink( d); } }
process peer { out( inC, { 1 -> 0 }); in( outC, $x); print(x); }
""")
    assert main(["verify", str(path), "--process", "worker"]) == 0
    assert "memory safety of 'worker'" in capsys.readouterr().out


def test_verify_process_names_the_file(tmp_path, capsys):
    # The per-process check locates a violation and a compile error in
    # the file it was given, as the whole-program check does, and the
    # compile error carries its source line and caret.
    path = tmp_path / "bad.esp"
    path.write_text("channel c: int\n"
                    "process p { out( c, 1); }\n"
                    "process q { in( c, $x); assert( x == 2); }\n")
    assert main(["verify", str(path), "--process", "q"]) == 1
    assert f"[assertion] {path}:3:25: assertion failed" \
        in capsys.readouterr().out
    path.write_text("channel c: int\nprocess p { out( c, true); }\n")
    assert main(["verify", str(path), "--process", "p"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2:21: type mismatch" in err
    assert "process p { out( c, true); }" in err and "^" in err


def test_stats(esp_file, capsys):
    assert main(["stats", esp_file]) == 0
    out = capsys.readouterr().out
    assert "folds" in out
    assert "instructions" in out


def test_missing_file(capsys):
    assert main(["check", "/nonexistent.esp"]) == 2


@pytest.mark.parametrize("command", ["check", "submit"])
@pytest.mark.parametrize("unreadable", ["directory", "non-utf-8"])
def test_unreadable_source_is_one_error_line(tmp_path, command, unreadable,
                                             capsys):
    path = tmp_path / "pgm.esp"
    if unreadable == "directory":
        path.mkdir()
        reason = "Is a directory"
    else:
        path.write_bytes(b"process p { \xff }\n")
        reason = "can't decode byte 0xff"
    # submit reads its file before it connects: nothing listens here.
    flags = (["--socket", str(tmp_path / "none.sock")]
             if command == "submit" else [])
    assert main([command, str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"espc: error: cannot read {path}: ")
    assert reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["emit-c", "emit-spin", "pretty"])
def test_unwritable_output_is_one_error_line(esp_file, tmp_path, command,
                                             capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, esp_file, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"espc: error: cannot write {out}: Is a directory\n"


def test_serve_refuses_a_cache_dir_that_is_a_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.touch()
    sock = tmp_path / "s.sock"
    assert main(["serve", "--socket", str(sock), "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err == (f"espc: error: cannot use cache directory {cache}: "
                   "not a directory\n")
    assert not sock.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


@pytest.mark.parametrize("argv", [
    ["verify", "--max-states", "0"],
    ["verify", "--max-states", "-1"],
    ["verify", "--process", "q", "--max-states", "0"],
    ["submit", "--max-states", "0"],
    ["submit", "--max-depth", "-1"],
    ["emit-spin", "--instances", "0"],
], ids=["verify-states-0", "verify-states-negative", "process-states-0",
        "submit-states-0", "submit-depth-negative", "emit-spin-instances-0"])
def test_out_of_range_bounds_are_usage_errors(esp_file, argv, capsys):
    # A bound that admits no search, or an emit-spin model that starts
    # no process, can only give a vacuous "ok"; argparse refuses it.
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], esp_file, *argv[1:]])
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err


# -- LoC accounting -----------------------------------------------------------------


def test_count_source_comments_blanks():
    report = count_source("code();\n// c\n\n/* a\nb */\nmore();")
    assert (report.code, report.comment, report.blank) == (2, 3, 1)


def test_count_python_docstrings():
    report = count_python('"""doc\nstring"""\nx = 1\n# note\n')
    assert report.code == 1
    assert report.comment == 3


def test_split_declarations_vs_process_code():
    decl, proc = split_esp_declarations(
        "type t = int\nchannel c: int\nprocess p {\n$x = 1;\n}\n"
    )
    assert decl == 2
    assert proc == 3


def test_vmmc_comparison_structure():
    comparison = vmmc_code_size_comparison()
    assert comparison["paper"]["orig_c_lines"] == 15600
    ours = comparison["ours"]
    assert ours["esp_decl_lines"] + ours["esp_process_lines"] == ours["esp_lines"]


def test_pretty_subcommand_roundtrips(esp_file, tmp_path, capsys):
    out_path = tmp_path / "pretty.esp"
    assert main(["pretty", esp_file, "-o", str(out_path)]) == 0
    # The reformatted file still checks.
    assert main(["check", str(out_path)]) == 0


# -- the on-disk ESP corpus -------------------------------------------------------


CORPUS = __import__("pathlib").Path(__file__).resolve().parent.parent / "examples" / "esp"


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.esp")))
def test_corpus_file_checks(name):
    assert main(["check", str(CORPUS / name)]) == 0


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.esp")))
def test_corpus_file_emits_both_targets(name, tmp_path, capsys):
    assert main(["emit-c", str(CORPUS / name),
                 "-o", str(tmp_path / "out.c")]) == 0
    assert main(["emit-spin", str(CORPUS / name),
                 "-o", str(tmp_path / "out.pml")]) == 0
    assert "esp_main_loop" in (tmp_path / "out.c").read_text()
    assert "proctype" in (tmp_path / "out.pml").read_text()


def test_corpus_vmmc_matches_module_source():
    from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE

    on_disk = (CORPUS / "vmmc.esp").read_text()
    assert VMMC_ESP_SOURCE.strip() in on_disk
