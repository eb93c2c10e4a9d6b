"""``espc`` — the ESP compiler driver (Figure 4).

Subcommands::

    espc check   pgm.esp            # parse + type check + pattern analysis
    espc emit-c  pgm.esp [-o out.c] # generate the C firmware file
    espc emit-spin pgm.esp [-o out.pml] [--instances N]
    espc run     pgm.esp [--max-transfers N] [--policy stack|fifo|random]
    espc verify  pgm.esp [--process NAME] [--max-states N]
    espc stats   pgm.esp            # optimizer statistics
    espc sim     [--messages N] [--faults SEED:rates] [--stats-json]
    espc serve   --socket S [--workers N] [--cache-dir D]
    espc submit  pgm.esp --socket S [verify flags] [--stats-json]

``run`` executes through the interpreter; external channels are not
available from the CLI (wire them up through the Python API).
``verify`` without ``--process`` explores the whole program; with it,
the per-process memory-safety check of §5.3 runs.
``sim`` runs the verified retransmission protocol end-to-end as
firmware on the simulated NIC pair, optionally over a faulty link
(``--faults SEED:drop=0.05,dup=0.02,...``, see docs/FAULTS.md); it
exits non-zero when the run does not converge or a payload is lost,
duplicated, or reordered.
``serve`` runs the verification daemon (job queue, forked worker pool,
content-addressed result cache — docs/SERVE.md); ``submit`` sends one
verification job to a running daemon and prints the verdict exactly
as ``espc verify`` would have.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.lang.source import SourceFile

from repro.api import compile_source_with_stats
from repro.backends.c import generate_c
from repro.backends.spin import generate_promela
from repro.errors import ESPError
from repro.backends.c.build import NativeBuildError, NativeBuildUnavailable
from repro.runtime.machine import ALL_ENGINES, Machine, create_machine
from repro.lang.program import frontend
from repro.runtime.scheduler import create_scheduler
from repro.verify.environment import default_verification_bridges
from repro.verify.explorer import Explorer
from repro.verify.memsafety import verify_process
from repro.verify.properties import Violation


_SOURCES: dict[str, str] = {}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        raise ESPError(f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ESPError(f"cannot read {path}: {err}") from err
    _SOURCES[path] = text
    return text


def _diagnose(err: ESPError) -> str:
    """Render an error with a caret pointing at the offending source."""
    span = getattr(err, "span", None)
    if span is not None and span.filename in _SOURCES:
        source = SourceFile(_SOURCES[span.filename], span.filename)
        return source.caret_diagnostic(span, err.message)
    return err.format()


def cmd_check(args) -> int:
    front = frontend(_read(args.file), args.file)
    print(f"ok: {len(front.checked.processes)} process(es), "
          f"{len(front.checked.channels)} channel(s)")
    for warning in front.warnings:
        print(f"warning: {warning}")
    return 0


def cmd_emit_c(args) -> int:
    program, _stats, _front = compile_source_with_stats(_read(args.file), args.file)
    code = generate_c(program, emit_main=args.main)
    _write_out(args.output, code)
    return 0


def cmd_emit_spin(args) -> int:
    front = frontend(_read(args.file), args.file)
    spec = generate_promela(front, instances=args.instances)
    _write_out(args.output, spec)
    return 0


def cmd_run(args) -> int:
    program, _stats, _front = compile_source_with_stats(
        _read(args.file), args.file
    )
    machine = create_machine(
        program, engine=args.engine,
        print_handler=lambda name, values: print(f"{name}:", *values),
    )
    result = create_scheduler(machine, policy=args.policy).run(
        max_transfers=args.max_transfers
    )
    print(f"[{result.reason}] {result.transfers} transfer(s), "
          f"{result.instructions} instruction(s)")
    return 0


def cmd_verify(args) -> int:
    if args.engine == "native":
        raise ESPError(
            "the native engine does not support verification "
            "(no snapshot/restore); use --engine compiled"
        )
    reduce = None if args.reduce in (None, "none") else args.reduce
    if args.process:
        report = verify_process(frontend(_read(args.file), args.file),
                                args.process, max_states=args.max_states,
                                reduce=reduce, engine=args.engine)
        print(report.summary())
        ok = report.ok
        result = report.result
        violations = result.violations
    else:
        program, _stats, _front = compile_source_with_stats(
            _read(args.file), args.file
        )
        machine = Machine(
            program, externals=default_verification_bridges(program),
            engine=args.engine,
        )
        result = Explorer(machine, max_states=args.max_states,
                          reduce=reduce).explore()
        print(result.summary())
        ok = result.ok
        violations = result.violations
    for violation in violations:
        print(violation)
    if args.stats_json:
        import json

        print(json.dumps(result.stats, sort_keys=True))
    elif args.stats:
        _print_stats(result.stats)
    return 0 if ok else 1


def _print_stats(stats: dict, indent: str = "") -> None:
    """Render the explorer's nested counter dict as aligned lines."""
    scalars = {k: v for k, v in stats.items()
               if not isinstance(v, (dict, list))}
    width = max((len(k) for k in scalars), default=0)
    for key in sorted(scalars):
        print(f"{indent}{key + ':':<{width + 1}} {scalars[key]}")
    for key in sorted(k for k, v in stats.items() if isinstance(v, dict)):
        print(f"{indent}{key}:")
        _print_stats(stats[key], indent + "  ")
    for key in sorted(k for k, v in stats.items() if isinstance(v, list)):
        print(f"{indent}{key}:")
        for item in stats[key]:
            if isinstance(item, dict):
                name = item.get("name")
                print(f"{indent}  - {name}" if name is not None
                      else f"{indent}  -")
                _print_stats({k: v for k, v in item.items() if k != "name"},
                             indent + "    ")
            else:
                print(f"{indent}  - {item}")


def cmd_sim(args) -> int:
    from repro.sim.faults import FaultPlan

    plan = None
    if args.faults:
        try:
            plan = FaultPlan.parse(args.faults)
        except ValueError as err:
            print(f"espc: error: {err}", file=sys.stderr)
            return 2
    fabric = args.topology is not None or args.scenario is not None
    if fabric:
        from repro.sim.fabric import FabricConfig, run_fabric
        from repro.sim.switch import SwitchConfig

        try:
            config = FabricConfig(
                nodes=args.topology if args.topology is not None else 2,
                scenario=args.scenario or "pairwise",
                # Fabric scenarios multiply the message count by the
                # flow count, so the per-flow default is small.
                messages=args.messages if args.messages is not None else 8,
                messages_back=(args.messages or 8)
                if args.bidirectional else 0,
                seed=args.seed,
                window=args.window,
                chunk_bytes=args.chunk_bytes,
                timeout_us=args.timeout_us,
                deadline_us=args.deadline_us,
                switch=SwitchConfig(
                    port_mb_s=args.port_mb_s,
                    buffer_bytes=args.buffer_bytes
                    if args.buffer_bytes is not None else 262_144,
                    port_cap_bytes=args.port_cap_bytes,
                ),
            )
        except ValueError as err:
            print(f"espc: error: {err}", file=sys.stderr)
            return 2
        report = run_fabric(config, plan=plan, engine=args.engine)
    else:
        from repro.vmmc.retransmission import run_over_faulty_link

        messages = args.messages if args.messages is not None else 200
        report = run_over_faulty_link(
            messages=messages,
            messages_back=messages if args.bidirectional else 0,
            plan=plan,
            window=args.window,
            chunk_bytes=args.chunk_bytes,
            timeout_us=args.timeout_us,
            deadline_us=args.deadline_us,
            engine=args.engine,
        )
    ok = report.converged and report.exactly_once_in_order()
    if args.stats_json:
        import json

        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print(report.summary())
        if not report.exactly_once_in_order():
            print("delivery check FAILED: payloads lost, duplicated, "
                  "or reordered")
    return 0 if ok else 1


def cmd_serve(args) -> int:
    from repro.serve.daemon import ServeDaemon, serve_until_stopped

    daemon = ServeDaemon(
        socket_path=args.socket,
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_cache_entries=args.max_cache_entries,
    )
    print(f"espc serve: listening on {daemon.socket_path} "
          f"({args.workers} worker(s), cache "
          f"{'disk+memory' if args.cache_dir else 'memory'})",
          file=sys.stderr)
    stats = serve_until_stopped(daemon)
    if args.stats_json:
        import json

        print(json.dumps(stats, sort_keys=True))
    else:
        _print_stats(stats)
    return 0


def _render_result_summary(body: dict, cached: bool) -> str:
    status = ("ok" if not body["violations"]
              else f"{len(body['violations'])} violation(s)")
    cached_tag = " [cached]" if cached else ""
    return (
        f"{body['states']} states, {body['transitions']} transitions "
        f"expanded ({body['transitions_pruned']} pruned), "
        f"depth {body['max_depth']}{cached_tag} [{status}]"
    )


def cmd_submit(args) -> int:
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.keys import JobSpec

    if args.file is None and not args.shutdown:
        print("espc: error: submit needs a file (or --shutdown)",
              file=sys.stderr)
        return 2
    spec = None
    if args.file is not None:
        spec = JobSpec(
            source=_read(args.file),
            filename=args.file,
            process=args.process,
            max_states=args.max_states,
            max_depth=args.max_depth,
            reduce=None if args.reduce in (None, "none") else args.reduce,
        )
    try:
        with ServeClient(args.socket, timeout=args.timeout) as client:
            reply = None if spec is None else client.submit(spec)
            server_stats = client.stats() if args.stats_json else None
            if args.shutdown:
                client.shutdown()
    except (OSError, ServeError) as err:
        print(f"espc: error: cannot reach daemon on {args.socket}: {err}",
              file=sys.stderr)
        return 2
    if reply is None:
        return 0
    if not reply.get("ok"):
        print(f"espc: error: {reply.get('error', reply)}", file=sys.stderr)
        return 2
    body = reply["result"]
    print(_render_result_summary(body, reply.get("cached", False)))
    for violation in body["violations"]:
        print(Violation(**violation))
    if args.stats_json:
        import json

        print(json.dumps(
            {
                "cached": reply.get("cached", False),
                "coalesced": reply.get("coalesced", False),
                "key": reply.get("key"),
                "ir_hash": reply.get("ir_hash"),
                "result": body,
                "server": server_stats,
            },
            sort_keys=True,
        ))
    return 0 if not body["violations"] else 1


def cmd_pretty(args) -> int:
    from repro.lang.parser import parse
    from repro.lang.pretty import print_program

    program = parse(_read(args.file), args.file)
    _write_out(args.output, print_program(program))
    return 0


def cmd_stats(args) -> int:
    _program, stats, _front = compile_source_with_stats(_read(args.file), args.file)
    print(f"folds:              {stats.folds}")
    print(f"copies propagated:  {stats.copies_propagated}")
    print(f"dead removed:       {stats.dead_removed}")
    print(f"outs fused:         {stats.outs_fused}")
    print(f"casts elided:       {stats.casts_elided}")
    print(f"cross-proc consts:  {stats.crossproc_binders}")
    for name, (before, after) in stats.per_process_instrs.items():
        print(f"  {name}: {before} -> {after} instructions")
    return 0


def _write_out(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as err:
            raise ESPError(f"cannot write {path}: {err.strerror}") from err
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _add_engine_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine", choices=ALL_ENGINES, default=None,
        help="execution engine: 'compiled' lowers each process to a "
             "table of closures (default); 'ast' walks the instruction "
             "tree directly and serves as the reference semantics; "
             "'native' compiles the generated C to a shared object and "
             "runs it in-process (requires a C compiler; not available "
             "for verify) — see docs/ENGINE.md",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="espc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type-check")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("emit-c", help="generate the C firmware file")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--main", action="store_true", help="emit a standalone main()")
    p.set_defaults(fn=cmd_emit_c)

    p = sub.add_parser("emit-spin", help="generate the Promela model")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--instances", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_emit_spin)

    p = sub.add_parser("run", help="execute through the interpreter")
    p.add_argument("file")
    p.add_argument("--max-transfers", type=int, default=100_000)
    p.add_argument("--policy", choices=("stack", "fifo", "random"), default="stack")
    _add_engine_flag(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="model-check the program")
    p.add_argument("file")
    p.add_argument("--process", help="verify one process's memory safety")
    p.add_argument("--max-states", type=_positive_int, default=200_000)
    p.add_argument(
        "--reduce", choices=("por", "sym", "por,sym", "none"), default=None,
        help="state-space reduction: partial-order (ample sets + "
             "singleton chaining), process-symmetry canonicalization, "
             "or both; --stats/--stats-json report ample hits, chained "
             "states, and symmetry collisions (default: none)",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print visited-store, interpreter, and snapshot counters "
             "after the run",
    )
    p.add_argument(
        "--stats-json", action="store_true",
        help="like --stats, but as one JSON object on stdout",
    )
    _add_engine_flag(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "sim",
        help="run the retransmission firmware over the (faulty) "
             "simulated link, or an N-node switched fabric "
             "(--topology/--scenario; docs/FABRIC.md)",
    )
    p.add_argument("--topology", type=_positive_int, default=None,
                   metavar="N",
                   help="run an N-node switched fabric instead of the "
                        "2-node point-to-point link (N=2 keeps the "
                        "point-to-point wire)")
    p.add_argument("--scenario", default=None,
                   choices=("pairwise", "incast", "all_to_all",
                            "hot_receiver", "churn"),
                   help="fabric traffic pattern (default pairwise; "
                        "implies --topology 2 if not given)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario seed (churn flow selection; fault "
                        "randomness is seeded by --faults)")
    p.add_argument("--buffer-bytes", type=_positive_int, default=None,
                   help="switch shared packet buffer (default 262144)")
    p.add_argument("--port-mb-s", type=float, default=None,
                   help="switch port speed in MB/s (default: the wire "
                        "speed from the cost model)")
    p.add_argument("--port-cap-bytes", type=_positive_int, default=None,
                   help="per-port share of the switch buffer (default: "
                        "half the shared buffer)")
    p.add_argument("--messages", type=_positive_int, default=None,
                   help="payloads per sender (default 200 for the "
                        "2-node link, 8 per fabric flow)")
    p.add_argument("--bidirectional", action="store_true",
                   help="side 1 pushes the same number of payloads back "
                        "(fabric: pairwise reverse flows)")
    p.add_argument("--window", type=_positive_int, default=8)
    p.add_argument("--chunk-bytes", type=_positive_int, default=1024)
    p.add_argument("--timeout-us", type=float, default=150.0,
                   help="initial retransmission timeout (doubles on "
                        "expiry, resets on ack progress)")
    p.add_argument("--deadline-us", type=float, default=None,
                   help="non-convergence watchdog (default scales with "
                        "--messages)")
    p.add_argument(
        "--faults", metavar="SEED:RATES", default=None,
        help="deterministic fault plan, e.g. "
             "'42:drop=0.05,dup=0.02,reorder=0.01,corrupt=0.01,"
             "delay=0.05,dma_stall=0.01'",
    )
    p.add_argument("--stats-json", action="store_true",
                   help="print the full run report as one JSON object "
                        "(byte-identical for identical plans)")
    _add_engine_flag(p)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser(
        "serve",
        help="run the verification daemon (job queue + worker pool + "
             "content-addressed result cache; docs/SERVE.md)",
    )
    p.add_argument("--socket", default="./esp-serve.sock",
                   help="Unix socket path to listen on "
                        "(default ./esp-serve.sock)")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="forked verification workers (default 2)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent result-cache directory (default: "
                        "memory-only; entries die with the daemon)")
    p.add_argument("--max-cache-entries", type=_positive_int, default=1024,
                   help="memory-tier LRU size (evicted entries stay on "
                        "disk when --cache-dir is set)")
    p.add_argument("--stats-json", action="store_true",
                   help="print the final observability counters (queue "
                        "depth, cache hits/misses, evictions, per-job "
                        "state counts) as one JSON object on exit")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="send one verification job to a running espc serve daemon",
    )
    p.add_argument("file", nargs="?",
                   help="ESP source to verify (optional with --shutdown)")
    p.add_argument("--socket", default="./esp-serve.sock",
                   help="daemon socket (default ./esp-serve.sock)")
    p.add_argument("--process", help="verify one process's memory safety")
    p.add_argument("--max-states", type=_positive_int, default=200_000)
    p.add_argument("--max-depth", type=_non_negative_int, default=None)
    p.add_argument("--reduce", choices=("por", "sym", "por,sym", "none"),
                   default=None)
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the daemon's reply")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the daemon to shut down (after the job, "
                        "if a file was given)")
    p.add_argument("--stats-json", action="store_true",
                   help="print the job result plus the daemon's "
                        "observability counters as one JSON object")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("stats", help="optimizer statistics")
    p.add_argument("file")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("pretty", help="reformat ESP source")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_pretty)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (`espc verify x.esp | head`).  Point
        # stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ESPError as err:
        print(f"espc: error: {_diagnose(err)}", file=sys.stderr)
        return 2
    except (NativeBuildUnavailable, NativeBuildError) as err:
        print(f"espc: error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"espc: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
