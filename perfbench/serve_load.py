"""The ``serve`` workload: one ``espc serve`` daemon, an open-loop phase
of seeded Poisson arrivals over one connection, then a closed-loop
pipelined flood.  Requests mix resubmissions of a warmed hot set, text
variants of hot jobs (comments, whitespace, renamed locals) and small
programs the daemon has never seen; every reply's verdict must equal
the verdict its source is known to have."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import selectors
import socket
import subprocess
import sys
import time

from repro.serve.keys import JobSpec
from repro.vmmc.retransmission import protocol_source

import programs
from harness import open_loop_latencies, poisson_due_times

RATE_PER_S = 100.0
OPEN_LOOP_SHARE = 0.75  # of --seconds; the flood gets the rest
# The two phases are cut into this many segments and interleaved, so
# each samples the whole run rather than one stretch of it.
SEGMENTS = 5
FLOOD_WINDOW = 32
MIX = (("hit", 0.80), ("variant", 0.15), ("miss", 0.05))
BLOCK = 20  # requests per stratum of the mix
WORKERS = min(2, os.cpu_count() or 1)


# -- the request corpus ----------------------------------------------------------


class HotJob:
    """A hot-set program with the verdict it is known to have.  ``make``
    is its source text, or a function that builds the text with a given
    local-variable prefix (so variants can rename locals)."""

    def __init__(self, name, make, violation: str | None, reduce=None):
        self.name = name
        self.make = make
        self.violation = violation
        self.reduce = reduce
        self.source = make("x") if callable(make) else make

    def spec(self, source: str) -> dict:
        return JobSpec(source=source, reduce=self.reduce).to_wire()


def hot_set() -> list[HotJob]:
    jobs = []
    for n in (2, 4, 6, 8):
        jobs.append(HotJob(f"chain{n}",
                           lambda var, n=n: programs.chain(n, var=var), None))
    for n in (3, 5):
        jobs.append(HotJob(
            f"chain{n} assert",
            lambda var, n=n: programs.chain(n, assert_bound=1, var=var),
            "assertion"))
    jobs.append(HotJob("pipeline s4m3", lambda var: programs.relay_pipeline(
        4, 3, var=var), None))
    jobs.append(HotJob("pipeline s6m2", lambda var: programs.relay_pipeline(
        6, 2, var=var), None))
    jobs.append(HotJob("compute s3m2w20", lambda var: programs.compute_pipeline(
        3, 2, 20, var=var), None))
    # The correct protocol is verified clean (§5.3); its text has no
    # generator parameter for local names, so its variants only add
    # comments and whitespace.
    jobs.append(HotJob("retrans w1m2", protocol_source(1, 2), None))
    jobs.append(HotJob("retrans w1m2 por,sym", protocol_source(1, 2), None,
                       reduce="por,sym"))
    jobs.append(HotJob("retrans w2m2", protocol_source(2, 2), None))
    return jobs


def text_variant(job: HotJob, k: int, rng: random.Random) -> str:
    """A text the daemon has never seen that compiles to the same
    program: renamed locals where possible, a comment and some
    whitespace."""
    source = job.make(f"v{k}_") if callable(job.make) else job.source
    lines = source.split("\n")
    at = rng.randrange(len(lines))
    lines.insert(at, f"// variant {k}")
    pad = rng.randrange(len(lines))
    lines[pad] = "  " + lines[pad] + " " * rng.randrange(1, 4)
    return "\n".join(lines)


class Request:
    __slots__ = ("cls", "body", "violation")

    def __init__(self, cls: str, body: dict, violation: str | None):
        self.cls = cls
        self.body = body
        self.violation = violation


class _Cycle:
    """Seeded round-robin over items: every item once per lap, each lap
    in a fresh shuffle."""

    def __init__(self, rng: random.Random, items: list):
        self.rng = rng
        self.items = list(items)
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class RequestMaker:
    """Seeded stream of requests; variants and misses are unique texts.

    The mix is stratified: every block of ``BLOCK`` requests holds the
    classes in exactly the ``MIX`` proportions, and hits and variants
    each cycle through the hot set, so every run sends the same mix and
    only the order, the arrival times and the texts vary with the seed.
    Makers that share ``counter`` never repeat a variant or a miss.
    """

    def __init__(self, seed, hot: list[HotJob], counter=None):
        self.rng = random.Random(seed)
        self.block = _Cycle(self.rng, [cls for cls, share in MIX
                                       for _ in range(round(share * BLOCK))])
        self.hits = _Cycle(self.rng, hot)
        self.variants = _Cycle(self.rng, hot)
        self.counter = counter if counter is not None else itertools.count(1)

    def next(self) -> Request:
        k = next(self.counter)
        cls = self.block.next()
        if cls == "miss":
            n = 2 + k % 4
            base = 100 + k
            bound = base + 1 if k % 2 else None
            source = programs.chain(n, assert_bound=bound, base=base)
            violation = "assertion" if programs.chain_violates(
                n, bound, base) else None
            return Request(cls, JobSpec(source=source).to_wire(), violation)
        if cls == "hit":
            job = self.hits.next()
            return Request(cls, job.spec(job.source), job.violation)
        job = self.variants.next()
        return Request(cls, job.spec(text_variant(job, k, self.rng)),
                       job.violation)


def reply_ok(reply: dict, violation: str | None) -> bool:
    if not reply.get("ok"):
        return False
    result = reply["result"]
    if violation is None:
        return result["verdict"] == "ok"
    return (result["verdict"] == "violations"
            and result["violations"][0]["kind"] == violation)


# -- the daemon and a JSON-lines connection ---------------------------------------


class Connection:
    """One pipelined connection speaking the daemon's JSON-lines
    protocol (docs/SERVE.md)."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.sock, selectors.EVENT_READ)
        self.buffer = b""

    def send(self, body: dict) -> None:
        self.sock.sendall((json.dumps(body) + "\n").encode())

    def poll(self, timeout: float) -> list[dict]:
        """Replies that arrive within ``timeout`` seconds."""
        if not self.selector.select(timeout):
            return []
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("daemon closed the connection")
        self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n")
        return [json.loads(line) for line in lines if line]

    def request(self, body: dict, timeout: float = 60.0) -> dict:
        self.send(body)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for reply in self.poll(0.05):
                return reply
        raise TimeoutError(f"no reply to {body.get('op')}")

    def close(self) -> None:
        self.selector.close()
        self.sock.close()


class Daemon:
    """An ``espc serve`` subprocess (the entry point users run)."""

    def __init__(self, root: str, work: str, index: int):
        self.socket = os.path.relpath(os.path.join(work, f"d{index}.sock"),
                                      root)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.log = open(os.path.join(work, f"d{index}.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--socket", self.socket, "--workers", str(WORKERS)],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT)

    def connect(self, timeout: float = 60.0) -> Connection:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                conn = Connection(self.socket)
                if conn.request({"op": "ping"}).get("pong"):
                    return conn
                conn.close()
            except (OSError, ConnectionError):
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("espc serve did not come up")
            time.sleep(0.005)

    def peak_rss_mb(self, stats: dict) -> float:
        """Peak RSS of the daemon plus its workers."""
        total_kb = 0
        for pid in [self.proc.pid] + list(stats["workers"]["pids"]):
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    conn = Connection(self.socket)
                    conn.request({"op": "shutdown"}, timeout=10)
                    conn.close()
                except (OSError, ConnectionError, TimeoutError):
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self.log.close()


def start_and_warm(root: str, work: str, index: int, hot: list[HotJob]):
    """Spawn a daemon, wait for its first ping, submit the hot set once.
    Returns the daemon, its connection and the set-up time (seconds)."""
    start = time.perf_counter()
    daemon = Daemon(root, work, index)
    try:
        conn = daemon.connect()
        for job in hot:
            reply = conn.request({"op": "submit",
                                  "spec": job.spec(job.source)})
            if not reply_ok(reply, job.violation):
                raise RuntimeError(f"hot job {job.name} answered {reply}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, conn, time.perf_counter() - start


# -- the two phases --------------------------------------------------------------


def open_loop(conn: Connection, maker: RequestMaker, offsets: list,
              spans: list | None):
    """Send one request at each due time (seconds from now); returns
    per request its class, latency from due time (inf when it failed)
    and lateness, whether it was answered correctly, and the most
    requests outstanding at once."""
    count = len(offsets)
    requests = [maker.next() for _ in range(count)]
    sent = [0.0] * count
    done: list = [None] * count
    ok = [False] * count
    outstanding = most = 0
    start = time.perf_counter() + 0.05
    due = [start + d for d in offsets]
    give_up = due[-1] + 60.0
    i = answered = 0
    while answered < count:
        now = time.perf_counter()
        while i < count and due[i] <= now:
            conn.send({"op": "submit", "spec": requests[i].body, "rid": i})
            sent[i] = time.perf_counter()
            i += 1
            outstanding += 1
            most = max(most, outstanding)
        if now > give_up:
            break  # unanswered requests stay failed (infinitely late)
        # Whole milliseconds, rounded down: the selector rounds its
        # timeout up to the next one, which would make sends late.
        wait = math.floor((due[i] - now) * 1000) / 1000 if i < count else 0.5
        replies = conn.poll(max(0.0, wait))
        stamp = time.perf_counter()
        for reply in replies:
            rid = reply["rid"]
            done[rid] = stamp
            ok[rid] = reply_ok(reply, requests[rid].violation)
            answered += 1
            outstanding -= 1
    for index in range(count):
        if not ok[index]:
            done[index] = None
    latency, lateness = open_loop_latencies(due, sent, done)
    if spans is not None:
        for index, req in enumerate(requests):
            spans.append({"id": len(spans), "parent": None,
                          "job": f"open-{len(spans)}",
                          "name": f"serve.{req.cls}",
                          "start": due[index], "end": done[index]})
    classes = [req.cls for req in requests]
    return classes, latency, lateness, ok, most


def flood(conn: Connection, maker: RequestMaker, seconds: float,
          spans: list | None):
    """Closed-loop pipelined flood for ``seconds``: keep
    ``FLOOD_WINDOW`` requests in flight.  Returns (completed, wall,
    correct)."""
    inflight: dict[int, tuple] = {}
    start = time.perf_counter()
    stop_at = start + seconds
    rid = completed = correct = 0
    while True:
        now = time.perf_counter()
        while now < stop_at and len(inflight) < FLOOD_WINDOW:
            req = maker.next()
            conn.send({"op": "submit", "spec": req.body, "rid": rid})
            inflight[rid] = (req, time.perf_counter())
            rid += 1
        if not inflight:
            break
        for reply in conn.poll(1.0):
            req, sent = inflight.pop(reply["rid"])
            completed += 1
            correct += reply_ok(reply, req.violation)
            if spans is not None:
                spans.append({"id": len(spans), "parent": None,
                              "job": f"flood-{len(spans)}",
                              "name": f"serve.{req.cls}", "start": sent,
                              "end": time.perf_counter()})
        if time.perf_counter() > stop_at + 60.0:
            raise TimeoutError("flood did not drain")
    return completed, time.perf_counter() - start, correct


def stats(conn: Connection) -> dict:
    reply = conn.request({"op": "stats"})
    if not reply.get("ok"):
        raise RuntimeError(f"stats failed: {reply}")
    return reply["stats"]


def measure(conn: Connection, hot: list[HotJob], seed: int,
            seconds: float, trace: bool, calibrator) -> dict:
    """Both phases, cut into ``SEGMENTS`` interleaved segments with a
    calibration gap (daemon idle) between each.  Each phase draws from
    its own request maker, so the open loop's mix is exact.  In a
    traced run every other flood segment records spans, for the
    tracing overhead."""
    counter = itertools.count(1)
    opener = RequestMaker(f"{seed}/open", hot, counter)
    flooder = RequestMaker(f"{seed}/flood", hot, counter)
    # Whole blocks, so the open loop sends exactly the MIX proportions.
    count = BLOCK * max(1, round(RATE_PER_S * seconds * OPEN_LOOP_SHARE
                                 / BLOCK))
    due = poisson_due_times(seed, RATE_PER_S, count)
    flood_s = seconds * (1 - OPEN_LOOP_SHARE) / SEGMENTS
    out = {"count": count, "classes": [], "latency": [], "lateness": [],
           "ok": [], "most": 0, "flood": [], "gaps": [calibrator.gap()],
           "spans": [] if trace else None}
    cuts = [count * k // SEGMENTS for k in range(SEGMENTS + 1)]
    for k in range(SEGMENTS):
        lo, hi = cuts[k], cuts[k + 1]
        base = due[lo - 1] if lo else 0.0
        classes, latency, lateness, ok, most = open_loop(
            conn, opener, [d - base for d in due[lo:hi]], out["spans"])
        out["classes"] += classes
        out["latency"] += latency
        out["lateness"] += lateness
        out["ok"] += ok
        out["most"] = max(out["most"], most)
        traced = trace and k % 2 == 1
        completed, wall, correct = flood(
            conn, flooder, flood_s, out["spans"] if traced else None)
        out["flood"].append((completed, wall, correct, traced))
        out["gaps"].append(calibrator.gap())
    return out
