"""The benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verify|firmware|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints every metric by name with its
unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything the
run writes (temporary files, native build caches, daemon sockets, span
files) stays under ``.perfbench/`` in the checkout.  See README.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

COLD_STARTS = 5
SERVE_SETUPS = 5

# name -> unit, for the final line.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_geomean_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "lang.parse_ms": "ms", "lang.check_ms": "ms", "lang.source_kb": "kB",
    "ir.compile_ms": "ms", "ir.instrs": "count", "ir.rewrites": "count",
    "backends.cc_s": "s", "backends.load_ms": "ms",
    "backends.cache_hits": "count",
    "runtime.build_ms": "ms", "runtime.native_run_ms": "ms",
    "runtime.native_transfers_per_s": "1/s", "runtime.instructions": "count",
    "runtime.context_switches": "count", "runtime.transfers": "count",
    "verify.explore_ms": "ms", "verify.states": "count",
    "verify.transitions": "count", "verify.transitions_pruned": "count",
    "verify.states_per_s": "1/s", "verify.sm1_states_per_s": "1/s",
    "verify.store_bytes_per_state": "B", "verify.snapshot_reuse_ratio": "ratio",
    "verify.intern_hit_ratio": "ratio", "verify.prune_ratio": "ratio",
    "sim.baseline_job_ms": "ms", "sim.esp_job_ms": "ms",
    "sim.fabric_job_ms": "ms", "sim.events": "count",
    "sim.events_per_s": "1/s", "sim.sim_us": "sim_us",
    "sim.switch_drops": "count", "sim.retransmissions": "count",
    "vmmc.esp_cycles_per_msg": "cycles", "vmmc.fastpath_taken_ratio": "ratio",
    "serve.hit_p50_ms": "ms", "serve.hit_p99_ms": "ms",
    "serve.variant_p50_ms": "ms", "serve.miss_p50_ms": "ms",
    "serve.cache_hit_ratio": "ratio", "serve.memo_hit_ratio": "ratio",
    "serve.coalesced": "count", "serve.failed": "count",
    "serve.retried": "count", "serve.states_explored": "count",
    "serve.queue_depth_max": "count",
    "bench.calib_ms": "ms", "bench.late_p99_ms": "ms",
    "bench.trace_overhead_pct": "%", "bench.coverage_pct": "%",
}


class Result:
    """What a workload measured."""

    def __init__(self):
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        # Reported by name and unit, but not on the final line: metrics
        # only this workload exercises, raw (unscaled) times, counts.
        self.extras: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spans: list[dict] | None = None  # traced runs only
        # The raw samples behind the metrics, for the results file.
        self.samples: dict = {}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- shared set-up --------------------------------------------------------------


def cold_starts(workload: str, work: str) -> tuple[list, list]:
    """Time ``COLD_STARTS`` fresh processes importing the system and
    warming its caches.  Each is scaled by the calibration loop it ran
    itself.  Returns the scaled times and the children's reports; the
    last cold start's native cache is left in place for the run."""
    from harness import scale_factor

    env = dict(os.environ)
    scaled, reports = [], []
    for index in range(COLD_STARTS):
        cache = os.path.join(work, f"native{index}")
        os.makedirs(cache)
        env["ESP_NATIVE_CACHE"] = cache
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cold.py"), workload],
            env=env, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["raw_s"] = wall - report["calib_s"]
        report["factor"] = scale_factor(report["calib_ms"])
        scaled.append(report["raw_s"] * report["factor"])
        reports.append(report)
        if index + 1 < COLD_STARTS:
            shutil.rmtree(cache)
    os.environ["ESP_NATIVE_CACHE"] = cache
    return scaled, reports


def pin_to_one_core() -> None:
    """Run the benchmark and its cold starts on one core, so the
    calibration loop always measures the core the jobs run on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control: calibration is then per host


def closed_loop_result(loop, setup: list, reports: list, res: Result,
                       trace: bool) -> None:
    from harness import geomean_of_medians, median

    res.attempted = loop.attempted
    res.failed = loop.failed
    res.errors = loop.errors
    if not trace:
        res.e2e["setup_s"] = median(setup)
        res.e2e["jobs_per_s"] = loop.jobs_per_s()
        res.e2e["job_geomean_ms"] = loop.job_geomean_ms()
        res.e2e["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res.e2e["ok_ratio"] = (loop.attempted - loop.failed) / loop.attempted
        res.extras["raw.jobs_per_s"] = (
            len(loop.raw) / sum(median(ts) for ts in loop.raw.values()),
            "jobs/s", "unscaled")
        res.extras["raw.job_geomean_ms"] = (
            geomean_of_medians(loop.raw) * 1000, "ms", "unscaled")
        res.extras["raw.setup_s"] = (
            median([r["raw_s"] for r in reports]), "s", "unscaled")
        res.extras["rounds"] = (loop.rounds, "count", "whole rounds run")
        res.extras["calib_ms"] = (loop.calibrator.calib_ms(), "ms",
                                  "median calibration repetition")
        res.samples = {"raw_s": loop.raw, "scaled_s": loop.scaled,
                       "calib_ms": loop.calibrator.samples}
    layers = res.layers
    layers["bench.calib_ms"] = loop.calibrator.calib_ms()
    if trace:
        res.spans = loop.tracer.spans
        layers["bench.trace_overhead_pct"] = loop.trace_overhead_pct()
        total, lowest = loop.coverage_pct()
        layers["bench.coverage_pct"] = total
        res.extras["bench.coverage_min_pct"] = (
            lowest, "%", "lowest share of one job inside layer spans")


# -- workloads ----------------------------------------------------------------------


def run_verify(args, work: str, res: Result, calibrator) -> None:
    setup, reports = cold_starts("verify", work)
    import verify_jobs
    from loop import ClosedLoop

    jobs = verify_jobs.corpus()
    loop = ClosedLoop(jobs, args.seed, args.seconds, bool(args.trace),
                      calibrator)
    _warm_up(loop, [j for j in jobs if j.name in verify_jobs.WARM_UP])
    if args.trace:
        verify_jobs.install_traced_compile(loop.tracer)
    try:
        loop.run()
    finally:
        verify_jobs.uninstall_traced_compile()
    closed_loop_result(loop, setup, reports, res, bool(args.trace))
    if args.trace:
        L, c = res.layers, loop.count
        L["lang.parse_ms"] = loop.layer("lang.parse")
        L["lang.check_ms"] = loop.layer("lang.check")
        L["lang.source_kb"] = c("lang.source_bytes") / 1024.0
        L["ir.compile_ms"] = loop.layer("ir.compile")
        L["ir.instrs"] = c("ir.instrs")
        L["ir.rewrites"] = c("ir.rewrites")
        L["runtime.build_ms"] = loop.layer("runtime.build")
        for name in ("instructions", "context_switches", "transfers"):
            L[f"runtime.{name}"] = c(f"runtime.{name}")
        explore = loop.layer("verify.explore")
        L["verify.explore_ms"] = explore
        for name in ("states", "transitions", "transitions_pruned"):
            L[f"verify.{name}"] = c(f"verify.{name}")
        L["verify.states_per_s"] = _ratio(c("verify.states"), explore / 1000)
        sm1 = loop.job_layer("vmmc sm1", "verify.explore")
        L["verify.sm1_states_per_s"] = _ratio(
            verify_jobs.COUNTS["vmmc sm1"][0], sm1 / 1000)
        L["verify.store_bytes_per_state"] = _ratio(
            c("verify.store_bytes"), c("verify.stored_states"))
        L["verify.snapshot_reuse_ratio"] = _ratio(
            c("verify.snap_reused"),
            c("verify.snap_reused") + c("verify.snap_built"))
        L["verify.intern_hit_ratio"] = _ratio(
            c("verify.intern_hits"),
            c("verify.intern_hits") + c("verify.intern_misses"))
        L["verify.prune_ratio"] = _ratio(
            c("verify.transitions_pruned"),
            c("verify.transitions") + c("verify.transitions_pruned"))


def run_firmware(args, work: str, res: Result, calibrator) -> None:
    from harness import median

    setup, reports = cold_starts("firmware", work)
    import firmware_jobs
    from loop import ClosedLoop

    native = firmware_jobs.native_programs()
    jobs = firmware_jobs.corpus(native, os.environ["ESP_NATIVE_CACHE"])
    loop = ClosedLoop(jobs, args.seed, args.seconds, bool(args.trace),
                      calibrator)
    _warm_up(loop, [j for j in jobs if j.cls in ("fabric", "native")
                    or isinstance(j, firmware_jobs.FaultyLinkJob)
                    or j.name == firmware_jobs.SIM_LATENCY_JOB])
    loop.run()
    closed_loop_result(loop, setup, reports, res, bool(args.trace))
    out = loop.outcomes
    res.extras["sim_latency_4b_us"] = (
        out[firmware_jobs.SIM_LATENCY_JOB].latency_us, "sim_us",
        "Fig. 5(a) vmmcESP one-way latency at 4 B")
    res.extras["sim_bandwidth_1k_mb_s"] = (
        out[firmware_jobs.SIM_BANDWIDTH_JOB].bandwidth_mb_s, "sim_MB/s",
        "Fig. 5(b) vmmcESP bandwidth at 1 KB, 40 messages")
    res.extras["sim_fabric_goodput_mb_s"] = (
        out[firmware_jobs.SIM_GOODPUT_JOB].goodput_mb_s(), "sim_MB/s",
        "64-node incast under its seeded fault plan")
    if args.trace:
        L, c = res.layers, loop.count
        L["backends.cc_s"] = median([r["cc_s"] * r["factor"]
                                     for r in reports])
        L["backends.load_ms"] = loop.layer("backends.load")
        L["backends.cache_hits"] = c("backends.cache_hits")
        run_ms = loop.layer("runtime.native_run")
        L["runtime.native_run_ms"] = run_ms
        # Only the native jobs report runtime counts in this workload.
        L["runtime.native_transfers_per_s"] = _ratio(
            c("runtime.transfers"), run_ms / 1000)
        for name in ("instructions", "context_switches", "transfers"):
            L[f"runtime.{name}"] = c(f"runtime.{name}")
        L["sim.baseline_job_ms"] = loop.class_geomean_ms("baseline")
        L["sim.esp_job_ms"] = loop.class_geomean_ms("esp")
        L["sim.fabric_job_ms"] = loop.class_geomean_ms("fabric")
        L["sim.events"] = c("sim.events")
        event_ms = sum(
            loop.job_layer(job.name, f"sim.{job.cls}") for job in jobs
            if isinstance(job, (firmware_jobs.FaultyLinkJob,
                                firmware_jobs.FabricJob)))
        L["sim.events_per_s"] = _ratio(c("sim.events"), event_ms / 1000)
        L["sim.sim_us"] = c("sim.sim_us")
        L["sim.switch_drops"] = c("sim.switch_drops")
        L["sim.retransmissions"] = c("sim.retransmissions")
        L["vmmc.esp_cycles_per_msg"] = _ratio(c("vmmc.esp_cycles"),
                                              c("vmmc.esp_messages"))
        L["vmmc.fastpath_taken_ratio"] = _ratio(c("vmmc.fastpath_taken"),
                                                c("vmmc.fastpath_tried"))


def _warm_up(loop, jobs) -> None:
    """Run each job once, untimed, so lazy caches fill before timing."""
    for job in jobs:
        if not job.check(job.run(loop.tracer)):
            raise RuntimeError(f"warm-up job {job.name} gave a wrong result")


def run_serve(args, work: str, res: Result, calibrator) -> None:
    import serve_load
    from harness import TooFewSamples, geomean, median, tail_percentile

    hot = serve_load.hot_set()
    setups = []
    daemon = conn = None
    try:
        for index in range(SERVE_SETUPS):
            if daemon is not None:
                conn.close()
                daemon.stop()
            daemon, conn, seconds = serve_load.start_and_warm(
                ROOT, work, index, hot)
            setups.append(seconds)
        before = serve_load.stats(conn)
        run = serve_load.measure(conn, hot, args.seed, args.seconds,
                                 bool(args.trace), calibrator)
        after = serve_load.stats(conn)
        peak_mb = daemon.peak_rss_mb(after)
    finally:
        if conn is not None:
            conn.close()
        if daemon is not None:
            daemon.stop()

    count, ok, flood = run["count"], run["ok"], run["flood"]
    completed = sum(n for n, _w, _g, _t in flood)
    res.attempted = count + completed
    res.failed = (count - sum(ok)) + sum(n - g for n, _w, g, _t in flood)
    if res.failed:
        res.errors.append(f"{res.failed} replies failed or differed from "
                          "their source's verdict")

    def rate(traced: bool) -> float:
        return (sum(n for n, _w, _g, t in flood if t == traced)
                / sum(w for _n, w, _g, t in flood if t == traced))

    by_class = {cls: [lat * 1000 for c, lat in zip(run["classes"],
                                                    run["latency"])
                      if c == cls] for cls, _share in serve_load.MIX}
    late_ms = [x * 1000 for x in run["lateness"]]
    all_ms = [x * 1000 for x in run["latency"]]
    most = run["most"]
    res.spans = run["spans"]
    res.samples = {"flood": flood, "calib_ms": run["gaps"],
                   "classes": run["classes"], "latency_ms": all_ms}
    if not args.trace:
        res.e2e["setup_s"] = median(setups)
        res.e2e["jobs_per_s"] = rate(False)
        res.e2e["job_geomean_ms"] = geomean(median(v)
                                            for v in by_class.values())
        res.e2e["peak_rss_mb"] = peak_mb
        res.e2e["ok_ratio"] = (res.attempted - res.failed) / res.attempted
        res.extras["latency_p50_ms"] = (median(all_ms), "ms",
                                        f"open loop, n={len(all_ms)}")
        try:
            p99, beyond = tail_percentile(all_ms, 0.99)
            res.extras["latency_p99_ms"] = (
                p99, "ms", f"open loop, n={len(all_ms)}, {beyond} beyond")
        except TooFewSamples as err:
            res.extras["latency_p99_ms"] = (None, "ms", f"not reported: {err}")
        res.extras["open_loop_requests"] = (count, "count",
                                            f"at {serve_load.RATE_PER_S}/s")
        res.extras["calib_ms"] = (calibrator.calib_ms(), "ms",
                                  "median calibration repetition, "
                                  "not applied")
    L = res.layers
    L["serve.hit_p50_ms"] = median(by_class["hit"])
    try:
        p99, beyond = tail_percentile(by_class["hit"], 0.99)
        res.extras["serve.hit_p99_n"] = (len(by_class["hit"]), "count",
                                         f"{beyond} beyond p99")
    except TooFewSamples as err:
        p99 = 0.0
        res.extras["serve.hit_p99_n"] = (len(by_class["hit"]), "count",
                                         f"p99 not reported: {err}")
    L["serve.hit_p99_ms"] = p99
    L["serve.variant_p50_ms"] = median(by_class["variant"])
    L["serve.miss_p50_ms"] = median(by_class["miss"])
    submitted = after["jobs"]["submitted"] - before["jobs"]["submitted"]
    L["serve.cache_hit_ratio"] = _ratio(
        after["cache"]["hits"] - before["cache"]["hits"], submitted)
    L["serve.memo_hit_ratio"] = _ratio(
        after["keys"]["memo_hits"] - before["keys"]["memo_hits"], submitted)
    for name in ("coalesced", "failed", "retried"):
        L[f"serve.{name}"] = after["jobs"][name] - before["jobs"][name]
    L["serve.states_explored"] = (after["states"]["explored"]
                                  - before["states"]["explored"])
    L["serve.queue_depth_max"] = most
    try:
        L["bench.late_p99_ms"], _beyond = tail_percentile(late_ms, 0.99)
    except TooFewSamples:
        L["bench.late_p99_ms"] = 0.0
    res.extras["bench.late_p50_ms"] = (median(late_ms), "ms",
                                       "open-loop generator lateness")
    L["bench.calib_ms"] = calibrator.calib_ms()
    if args.trace:
        L["bench.trace_overhead_pct"] = (rate(False) / rate(True) - 1) * 100


# -- main -----------------------------------------------------------------------------


WORKLOADS = {"verify": run_verify, "firmware": run_firmware,
             "serve": run_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no system under test at {SRC}/repro",
              file=sys.stderr)
        return 2

    work = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ.pop("ESP_ENGINE", None)  # every engine choice is explicit
    os.environ.pop("ESP_NATIVE_CACHE", None)
    sys.path.insert(0, SRC)
    from harness import Calibrator

    if args.workload != "serve":
        # serve's time is spent in four processes on both cores; one
        # loop on one core cannot speak for it, so it is not scaled.
        pin_to_one_core()
    res = Result()
    try:
        WORKLOADS[args.workload](args, work, res, Calibrator())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, res)


def report(args, res: Result) -> int:
    if args.trace:
        metrics = {name: (res.layers.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: (res.e2e[name], unit)
                   for name, unit in END_TO_END.items()}
    title = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"== perfbench {title} ==")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value!r:>24} {unit}")
    for name, (value, unit, note) in res.extras.items():
        print(f"  {name:34s} {value!r:>24} {unit}  ({note})")
    for error in res.errors:
        print(f"  ERROR {error}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as f:
        json.dump({"metrics": {k: v for k, (v, _u) in metrics.items()},
                   "extras": {k: v for k, (v, _u, _n)
                              in res.extras.items()},
                   "samples": res.samples}, f, indent=1)
    if res.spans is not None:
        with open(os.path.join(OUT, "results", stem + "-spans.json"),
                  "w") as f:
            json.dump({"spans": res.spans}, f)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
