"""Cross-backend differential conformance suite for the execution
engines.

The compiled (closure-threaded) engine is the default; the AST walker
is the reference semantics.  This suite holds the two to *full
fidelity* — not just final answers but the complete observable
surface: print traces, instruction/context-switch/transfer counters,
refcount events (allocations, frees, links, unlinks), canonical final
states (PCs + locals + heap), runtime errors, deadlock verdicts, and
verifier state/transition counts.  Any divergence is a bug in the
compiled engine by definition.

Four legs:

* every program in ``examples/esp`` (execution + verification),
* random well-typed programs from :func:`tests.strategies.esp_programs`
  (``derandomize=True`` pins the corpus, so failures are reproducible
  and shrink to minimal programs),
* the same two corpora against the *loaded* native engine — the C
  backend compiled to a shared object and driven through the batched
  quantum protocol (``--engine native``),
* the C backend's semantics model: the generated firmware binary from
  ``test_differential`` must agree with every engine on the same
  input scripts (four-way agreement),
* external offers whose arguments the writer cannot preview (``None``)
  or supplies short or unconvertible: every engine applies the same
  rule (see ``repro.runtime.external.ExternalWriter.offers``).

Debugging a divergence: re-run the failing program with
``--engine ast`` (or ``engine="ast"``) to confirm which side moved;
see docs/ENGINE.md.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CollectorReader,
    Machine,
    QueueWriter,
    Scheduler,
    compile_source,
    create_machine,
    create_scheduler,
)
from repro.backends.c import generate_c
from repro.backends.c.build import find_cc
from repro.errors import ESPError
from repro.lang.source import Span
from repro.runtime.external import CallbackWriter
from repro.runtime.machine import ENGINES
from repro.sim.fabric import FabricConfig, run_fabric
from repro.tools import cli
from repro.verify.environment import default_verification_bridges
from repro.verify.explorer import Explorer
from repro.verify.state import canonical_state
from repro.vmmc.retransmission import run_over_faulty_link
from tests.strategies import esp_programs
from tests.test_differential import GCC, HARNESS, PROGRAM, script_items

ESP_DIR = Path(__file__).resolve().parent.parent / "examples" / "esp"
EXAMPLES = sorted(p.name for p in ESP_DIR.glob("*.esp"))

# Per-example exploration caps: identical caps on both engines make a
# truncated exploration a valid differential (deterministic DFS visits
# the same prefix); vmmc is too large to exhaust in a unit test.
STATE_CAPS = {"vmmc.esp": 2_000}
TRANSFER_CAP = 2_000

assert EXAMPLES, "examples/esp corpus missing"

needs_cc = pytest.mark.skipif(find_cc() is None,
                              reason="no C compiler available")

# The native engine batches whole quanta inside the shared object, so
# it does not expose snapshot/restore (no verifier leg) or a canonical
# Python heap image (no final_state); everything else is held to exact
# agreement with the AST walker.  On error outcomes the run stops at a
# point mid-quantum where Python-side bookkeeping counters are not
# meaningful, so only the trace and the error itself are compared.
_NATIVE_KEYS = ("trace", "outcome", "statuses", "counters", "heap_events")
_NATIVE_ERROR_KEYS = ("trace", "outcome")


def _execution_fingerprint(source: str, engine: str, filename: str = "<diff>"):
    """Everything observable about one deterministic run.

    External channels get the default verification bridges (always-
    ready choice writers / sink readers), so examples with interfaces
    run unmodified; the stack policy picks moves deterministically, so
    both engines see the same schedule and must produce the same
    fingerprint.
    """
    program = compile_source(source, filename)
    trace: list[tuple[str, tuple]] = []
    machine = Machine(
        program,
        externals=default_verification_bridges(program),
        engine=engine,
        print_handler=lambda name, values: trace.append((name, tuple(values))),
    )
    try:
        result = Scheduler(machine).run(max_transfers=TRANSFER_CAP)
        outcome = (result.reason, result.transfers, result.instructions)
    except ESPError as err:
        outcome = ("error", type(err).__name__, str(err))
    c = machine.counters
    return {
        "trace": trace,
        "outcome": outcome,
        "statuses": tuple(ps.status.value for ps in machine.processes),
        "counters": (c.instructions, c.context_switches, c.transfers,
                     c.alt_blocks, c.matches, c.prints),
        "heap_events": machine.heap.counters.snapshot(),
        "final_state": canonical_state(machine),
    }


def _verification_fingerprint(source: str, engine: str, max_states=None,
                              filename: str = "<diff>"):
    """The verifier's complete verdict under one engine."""
    program = compile_source(source, filename)
    machine = Machine(
        program, externals=default_verification_bridges(program), engine=engine
    )
    kwargs = {} if max_states is None else {"max_states": max_states}
    result = Explorer(machine, quiescence_ok=False, stop_at_first=False,
                      **kwargs).explore()
    return {
        "verdict": (result.states, result.transitions, result.ok,
                    result.complete),
        "violations": sorted((v.kind, v.message) for v in result.violations),
    }


def _assert_same(fps: dict) -> None:
    """Compare per-engine fingerprints key by key for readable diffs."""
    baseline_engine = "ast"
    baseline = fps[baseline_engine]
    for engine, fp in fps.items():
        for key in baseline:
            assert fp[key] == baseline[key], (
                f"engine '{engine}' diverges from '{baseline_engine}' "
                f"on {key}: {fp[key]!r} != {baseline[key]!r}"
            )


# -- leg 1: the examples corpus ------------------------------------------------


@pytest.mark.parametrize("example", EXAMPLES)
def test_examples_execution_parity(example):
    source = (ESP_DIR / example).read_text()
    fps = {engine: _execution_fingerprint(source, engine, example)
           for engine in ENGINES}
    _assert_same(fps)


@pytest.mark.parametrize("example", EXAMPLES)
def test_examples_verifier_parity(example):
    source = (ESP_DIR / example).read_text()
    cap = STATE_CAPS.get(example)
    fps = {engine: _verification_fingerprint(source, engine, cap, example)
           for engine in ENGINES}
    _assert_same(fps)


# -- leg 2: random programs (pinned corpus, shrink-friendly) -------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(esp_programs())
def test_random_programs_execution_parity(source):
    fps = {engine: _execution_fingerprint(source, engine)
           for engine in ENGINES}
    try:
        _assert_same(fps)
    except AssertionError as err:
        raise AssertionError(f"{err}\nprogram:\n{source}") from None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(esp_programs())
def test_random_programs_verifier_parity(source):
    # Generated over-waiting consumers deadlock; quiescence_ok=False in
    # the fingerprint turns those into violations, so the deadlock
    # *verdict* (not just the state count) is part of the contract.
    fps = {engine: _verification_fingerprint(source, engine)
           for engine in ENGINES}
    try:
        _assert_same(fps)
    except AssertionError as err:
        raise AssertionError(f"{err}\nprogram:\n{source}") from None


# -- leg 3: the loaded native engine -------------------------------------------


def _native_fingerprint(source: str, filename: str = "<diff>"):
    """The native engine's observable surface for one deterministic run
    (same schedule as `_execution_fingerprint`, minus final_state)."""
    program = compile_source(source, filename)
    trace: list[tuple[str, tuple]] = []
    machine = create_machine(
        program,
        externals=default_verification_bridges(program),
        engine="native",
        print_handler=lambda name, values: trace.append((name, tuple(values))),
    )
    try:
        result = create_scheduler(machine).run(max_transfers=TRANSFER_CAP)
        outcome = (result.reason, result.transfers, result.instructions)
    except ESPError as err:
        outcome = ("error", type(err).__name__, str(err))
    c = machine.counters
    return {
        "trace": trace,
        "outcome": outcome,
        "statuses": tuple(ps.status.value for ps in machine.processes),
        "counters": (c.instructions, c.context_switches, c.transfers,
                     c.alt_blocks, c.matches, c.prints),
        "heap_events": machine.heap.counters.snapshot(),
    }


def _assert_native_matches_ast(source: str, filename: str = "<diff>"):
    ast = _execution_fingerprint(source, "ast", filename)
    native = _native_fingerprint(source, filename)
    keys = (_NATIVE_ERROR_KEYS if native["outcome"][0] == "error"
            else _NATIVE_KEYS)
    for key in keys:
        assert native[key] == ast[key], (
            f"native engine diverges from 'ast' on {key}: "
            f"{native[key]!r} != {ast[key]!r}"
        )


@needs_cc
@pytest.mark.parametrize("example", EXAMPLES)
def test_examples_native_parity(example):
    _assert_native_matches_ast((ESP_DIR / example).read_text(), example)


@needs_cc
@settings(max_examples=200, deadline=None, derandomize=True)
@given(esp_programs())
def test_random_programs_native_parity(source):
    try:
        _assert_native_matches_ast(source)
    except AssertionError as err:
        raise AssertionError(f"{err}\nprogram:\n{source}") from None


# -- leg 4: four-way agreement with the C backend ------------------------------


@pytest.fixture(scope="module")
def c_binary(tmp_path_factory):
    if GCC is None:
        pytest.skip("no C compiler available")
    tmp = tmp_path_factory.mktemp("engine_diff")
    (tmp / "pgm.c").write_text(generate_c(compile_source(PROGRAM)))
    (tmp / "harness.c").write_text(HARNESS)
    binary = tmp / "pgm"
    subprocess.run(
        [GCC, "-O1", "-o", str(binary), str(tmp / "pgm.c"),
         str(tmp / "harness.c")],
        check=True, capture_output=True, text=True,
    )
    return str(binary)


def _engine_outputs(script, engine):
    req = QueueWriter(["Compute", "Reset"])
    drain = CollectorReader(["D"])
    for item in script:
        if item[0] == "C":
            req.post("Compute", item[1], item[2])
        else:
            req.post("Reset", item[1])
    machine = create_machine(compile_source(PROGRAM),
                             externals={"reqC": req, "outC": drain},
                             engine=engine)
    create_scheduler(machine).run()
    return [args[0] for _, args in drain.received]


def _c_outputs(c_binary, script):
    lines = []
    for item in script:
        if item[0] == "C":
            lines.append(f"C {item[1]} {item[2]}")
        else:
            lines.append(f"R {item[1]}")
    result = subprocess.run(
        [c_binary], input="\n".join(lines) + "\n",
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    return [int(x) for x in result.stdout.split()]


@given(st.lists(script_items, min_size=0, max_size=12))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_four_way_agreement(c_binary, script):
    ast = _engine_outputs(script, "ast")
    compiled = _engine_outputs(script, "compiled")
    assert compiled == ast, f"engines diverge on script {script}"
    if find_cc() is not None:  # native leg degrades to three-way
        native = _engine_outputs(script, "native")
        assert native == ast, f"native engine diverges on script {script}"
    assert _c_outputs(c_binary, script) == ast, (
        f"C firmware diverges on script {script}"
    )


def test_engine_default(monkeypatch):
    # DEFAULT_ENGINE selects the engine of a machine built without
    # one; an explicit argument wins.
    monkeypatch.setattr("repro.runtime.machine.DEFAULT_ENGINE", "ast")
    program = compile_source(PROGRAM)
    assert Machine(program).engine == "ast"
    assert Machine(program, engine="compiled").engine == "compiled"
    monkeypatch.setattr("repro.runtime.machine.DEFAULT_ENGINE", "compiled")
    assert Machine(program).engine == "compiled"
    with pytest.raises(ValueError):
        Machine(program, engine="jit")


@pytest.fixture
def built_engines(monkeypatch):
    """The engine of every Machine built while the test runs, with the
    default pinned to ``compiled`` so that an engine argument dropped on
    the way down shows up as a ``compiled`` machine."""
    monkeypatch.setattr("repro.runtime.machine.DEFAULT_ENGINE", "compiled")
    engines = []
    init = Machine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self.engine)

    monkeypatch.setattr(Machine, "__init__", recording_init)
    return engines


def test_firmware_runs_build_only_the_named_engine(built_engines):
    report = run_over_faulty_link(messages=2, engine="ast")
    assert report.converged
    assert built_engines == ["ast", "ast"]
    built_engines.clear()
    report = run_fabric(FabricConfig(nodes=4, messages=2), engine="ast")
    assert report.converged
    assert built_engines == ["ast"] * 4


def test_verify_process_flag_builds_the_named_engine(built_engines):
    vmmc = str(ESP_DIR / "vmmc.esp")
    assert cli.main(["verify", vmmc, "--process", "completer",
                     "--engine", "ast"]) == 0
    assert built_engines == ["ast"]


# -- leg 5: external offers with unknown or malformed arguments ----------------

OFFERS_PROGRAM = """
type addT = record of { a: int, b: int }
type reqT = union of { add: addT, neg: int }
channel inC: reqT
channel outC: int
external interface feed(out inC) { Add({ add |> { $a, $b } }), Neg({ neg |> $v }) };
external interface drain(in outC) { D($v) };
process adder { while (true) { in( inC, { add |> { $x, $y } }); out( outC, x + y); } }
process negator { while (true) { in( inC, { neg |> $v }); out( outC, 0 - v); } }
"""

OFFER_ENGINES = list(ENGINES) + (["native"] if find_cc() is not None else [])


def _offers_fingerprint(engine: str, writer) -> dict:
    drain = CollectorReader(["D"])
    machine = create_machine(compile_source(OFFERS_PROGRAM, "offers.esp"),
                             externals={"inC": writer, "outC": drain},
                             engine=engine)
    try:
        result = create_scheduler(machine).run(max_transfers=TRANSFER_CAP)
        outcome = (result.reason, result.transfers, result.instructions)
    except ESPError as err:
        outcome = ("error", type(err).__name__, str(err))
    c = machine.counters
    return {
        "received": sorted(args for _, args in drain.received),
        "outcome": outcome,
        "counters": (c.instructions, c.context_switches, c.transfers,
                     c.alt_blocks, c.matches, c.idle_polls),
        "heap_events": machine.heap.counters.snapshot(),
    }


def _poll_take_writer(script):
    """A writer with only the paper's is_ready/take protocol, so its
    offers() reports unknown arguments (None)."""
    pending = list(script)
    entries = ["Add", "Neg"]

    def take(entry_name):
        name, args = pending.pop(0)
        assert name == entry_name
        return args

    return CallbackWriter(
        entries,
        poll=lambda: entries.index(pending[0][0]) + 1 if pending else 0,
        take=take,
    )


def test_unknown_offer_arguments_are_routed_by_shape_on_every_engine():
    script = [("Add", (1, 2)), ("Neg", (5,)), ("Add", (3, 4))]
    fps = {engine: _offers_fingerprint(engine, _poll_take_writer(script))
           for engine in OFFER_ENGINES}
    assert fps["ast"]["received"] == [(-5,), (3,), (7,)]
    assert fps["ast"]["outcome"][:2] == ("idle", 6)
    _assert_same(fps)


@pytest.mark.parametrize("entry, args", [
    ("Add", (1,)),          # one argument short
    ("Neg", ()),            # no arguments for a binder
    ("Neg", ("x",)),        # not an int
    ("Add", (1, [2])),      # not an int
])
def test_short_or_unconvertible_offer_is_undeliverable_on_every_engine(
        entry, args):
    fps = {}
    for engine in OFFER_ENGINES:
        feed = QueueWriter(["Add", "Neg"])
        feed.post(entry, *args)
        fps[engine] = _offers_fingerprint(engine, feed)
        assert len(feed.queue) == 1, f"{engine} consumed the offer"
    assert fps["ast"]["received"] == []
    assert fps["ast"]["outcome"][:2] == ("idle", 0)
    _assert_same(fps)


# -- run-time array sizes above the static limit --------------------------------

_OVERSIZED_FILL = """\
process p {
    $n = 0x100000 + 1;
    $a: #array of int = #{ n -> 0, ... };
    print( a[0]);
}
"""


def test_oversized_runtime_fill_is_one_spanned_error_on_every_engine():
    # The typechecker bounds only fill sizes it can fold; a size
    # computed at run time one past MAX_ARRAY_SIZE must end in the same
    # diagnostic on every engine, before anything is allocated.  The
    # span itself must match too: the CLI renders its source line and
    # caret from it.
    errors = {}
    for engine in OFFER_ENGINES:
        machine = create_machine(compile_source(_OVERSIZED_FILL, "fill.esp"),
                                 engine=engine)
        with pytest.raises(ESPError) as info:
            create_scheduler(machine).run()
        errors[engine] = (type(info.value).__name__, str(info.value),
                          info.value.span)
    name, text, span = errors["ast"]
    assert (name, text) == (
        "ESPRuntimeError",
        "fill.esp:3:25: array size 1048577 exceeds the limit of 1048576 "
        "elements",
    )
    assert isinstance(span, Span)
    assert len(set(errors.values())) == 1, errors
