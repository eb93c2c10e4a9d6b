"""The ``espc serve`` daemon: an asyncio job server over a Unix socket.

One process owns the listening socket, the result cache, and a pool of
forked verification workers (:mod:`repro.serve.worker`).  Clients speak
newline-delimited JSON (docs/SERVE.md); a connection may pipeline many
requests — each carries a client-chosen ``rid`` that the response
echoes, and responses arrive in completion order.

The submit path is where the content-addressed discipline pays off:

1. the daemon compiles the source (memoized by exact text, so a warm
   resubmission never re-parses) and derives ``(ir_hash, cache_key)``;
2. a cache hit returns the stored result immediately — O(1), no state
   exploration, no worker involved;
3. a miss with the same key already *in flight* coalesces: the second
   client awaits the first client's job, so two clients racing on one
   key cost one exploration and receive identical bytes;
4. otherwise the job queues and the next idle worker runs it.

Crash discipline: a worker that dies mid-job (SIGKILL, OOM) breaks its
pipe; the daemon reaps it, respawns a replacement, and retries the job
(bounded by ``max_retries``).

Shutdown — whether by the ``shutdown`` op, SIGTERM, or SIGINT — must
leave nothing behind: queued jobs are failed with ``shutting-down``,
workers get a stop message then SIGTERM then SIGKILL (the escalation is
bounded, so a wedged job cannot hang the exit), every worker process is
``join``-ed (no zombies), the socket file is unlinked, and the
directory the daemon made for its default socket is removed.  Only an
explicitly configured ``cache_dir`` survives, by design: it is the
persistent tier of the result cache.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import tempfile
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.errors import ESPError
from repro.serve.cache import ResultCache
from repro.serve.keys import JobSpec, cache_key, canonical_ir_hash
from repro.serve.worker import worker_main

# How many (source text -> ir_hash) entries the keying memo retains.
KEY_MEMO_ENTRIES = 4096

# Shutdown escalation budget per stage (stop message, SIGTERM, SIGKILL).
_REAP_TIMEOUT = 5.0

# Ring of recently finished jobs kept for --stats-json observability.
_RECENT_JOBS = 32


@dataclass
class _Job:
    """One queued-or-running verification (shared by coalesced clients)."""

    id: int
    spec: JobSpec
    key: str
    ir_hash: str
    future: asyncio.Future
    attempts: int = 0
    waiters: int = 1


@dataclass
class _Worker:
    proc: multiprocessing.process.BaseProcess
    conn: object  # multiprocessing.Connection
    job: _Job | None = None
    jobs_done: int = 0
    reader: asyncio.Task | None = field(default=None, repr=False)

    @property
    def pid(self) -> int:
        return self.proc.pid


class ServeDaemon:
    """The job server.  Construct, then ``await run()`` (or use
    :func:`serve_until_stopped` from synchronous code)."""

    def __init__(
        self,
        socket_path: str | os.PathLike | None = None,
        workers: int = 2,
        cache_dir: str | os.PathLike | None = None,
        max_cache_entries: int = 1024,
        max_retries: int = 2,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("espc serve requires fork-capable platform")
        # First, so that an unusable cache directory is refused before
        # anything else exists.
        self.cache = ResultCache(cache_dir, max_entries=max_cache_entries)
        # The default socket lives in a temporary directory of its own,
        # removed at shutdown; a given socket path needs none.
        self.spool = None
        if socket_path is None:
            self.spool = tempfile.mkdtemp(prefix="esp-serve-")
            socket_path = os.path.join(self.spool, "daemon.sock")
        self.socket_path = str(socket_path)
        self.workers_configured = workers
        self.max_retries = max_retries

        self._ctx = multiprocessing.get_context("fork")
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._queue: deque[_Job] = deque()
        self._inflight: dict[str, _Job] = {}
        self._stop = asyncio.Event()
        self._stopping = False
        self._next_job_id = 0
        # source text -> ir_hash (bounded LRU): the warm-resubmission
        # fast path skips the compiler entirely.
        self._key_memo: OrderedDict[tuple[str, str], str] = OrderedDict()

        # Counters surfaced by the `stats` op / `--stats-json`.
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_retried = 0
        self.jobs_coalesced = 0
        self.workers_respawned = 0
        self.memo_hits = 0
        self.states_explored = 0
        self.transitions_explored = 0
        self._recent: deque[dict] = deque(maxlen=_RECENT_JOBS)

    # -- keying -------------------------------------------------------------------

    def _ir_hash(self, spec: JobSpec) -> str:
        memo_key = (spec.source, spec.filename)
        cached = self._key_memo.get(memo_key)
        if cached is not None:
            self._key_memo.move_to_end(memo_key)
            self.memo_hits += 1
            return cached
        from repro.api import compile_source

        ir_hash = canonical_ir_hash(compile_source(spec.source, spec.filename))
        if len(self._key_memo) >= KEY_MEMO_ENTRIES:
            self._key_memo.popitem(last=False)
        self._key_memo[memo_key] = ir_hash
        return ir_hash

    # -- worker pool --------------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        # Not daemonic: _stop_workers reaps every worker itself (stop
        # message, then SIGTERM, then SIGKILL, each followed by a join),
        # so multiprocessing's exit-time terminate of daemonic children
        # would have nothing to do.  Orphan safety comes from the pipe,
        # not the daemon flag — a worker whose daemon dies sees EOF on
        # its next recv and exits.
        proc = self._ctx.Process(
            target=worker_main, args=(child_conn,), daemon=False
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc=proc, conn=parent_conn)
        worker.reader = asyncio.ensure_future(self._read_loop(worker))
        self._workers.append(worker)
        self._idle.append(worker)
        return worker

    async def _read_loop(self, worker: _Worker) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                msg = await loop.run_in_executor(None, worker.conn.recv)
            except (EOFError, OSError):
                break
            self._on_reply(worker, msg)
        await self._on_worker_death(worker)

    def _on_reply(self, worker: _Worker, msg: dict) -> None:
        job = worker.job
        worker.job = None
        worker.jobs_done += 1
        if worker in self._workers and worker not in self._idle:
            self._idle.append(worker)
        self._dispatch()
        if job is None or msg.get("id") != job.id:
            return  # stale reply after a retry handed the job elsewhere
        self._finish_job(job, msg)

    def _finish_job(self, job: _Job, msg: dict) -> None:
        self._inflight.pop(job.key, None)
        if msg.get("ok"):
            body = msg["result"]
            worker_info = body.pop("worker", None)
            # The cached body is the deterministic part only; per-worker
            # observability rides on the response, never into the cache.
            self.cache.put(job.key, body)
            self.jobs_completed += 1
            self.states_explored += body.get("states", 0)
            self.transitions_explored += body.get("transitions", 0)
            self._recent.append({
                "key": job.key[:12],
                "verdict": body.get("verdict"),
                "states": body.get("states"),
                "transitions": body.get("transitions"),
                "attempts": job.attempts,
                "waiters": job.waiters,
            })
            reply = {"ok": True, "result": body, "cached": False,
                     "worker": worker_info}
        else:
            self.jobs_failed += 1
            reply = {"ok": False, "kind": msg.get("kind", "internal"),
                     "error": msg.get("error", "worker error")}
        if not job.future.done():
            job.future.set_result(reply)

    async def _on_worker_death(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: worker.proc.join(_REAP_TIMEOUT)
        )
        if worker in self._workers:
            self._workers.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
        job, worker.job = worker.job, None
        if self._stopping:
            if job is not None and not job.future.done():
                job.future.set_result(
                    {"ok": False, "kind": "shutting-down",
                     "error": "daemon shutting down"}
                )
                self._inflight.pop(job.key, None)
            return
        self.workers_respawned += 1
        self._spawn_worker()
        if job is not None:
            job.attempts += 1
            if job.attempts > self.max_retries:
                self._inflight.pop(job.key, None)
                self.jobs_failed += 1
                if not job.future.done():
                    job.future.set_result({
                        "ok": False, "kind": "worker-crash",
                        "error": (f"worker died {job.attempts} time(s) "
                                  f"running job {job.key[:12]}"),
                    })
            else:
                self.jobs_retried += 1
                self._queue.appendleft(job)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._idle and self._queue and not self._stopping:
            worker = self._idle.pop()
            job = self._queue.popleft()
            worker.job = job
            try:
                worker.conn.send({
                    "op": "job", "id": job.id,
                    "spec": job.spec.to_wire(), "attempt": job.attempts,
                })
            except (BrokenPipeError, OSError):
                # The read loop notices the dead pipe and retries the job.
                worker.job = job
                return

    # -- request handling ---------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _serve_request(self, line: bytes, writer: asyncio.StreamWriter,
                             write_lock: asyncio.Lock) -> None:
        rid = None
        try:
            req = json.loads(line)
            rid = req.get("rid")
            reply = await self._handle_request(req)
        except Exception as err:  # malformed request: report, keep serving
            reply = {"ok": False, "kind": "bad-request", "error": str(err)}
        if rid is not None:
            reply["rid"] = rid
        blob = json.dumps(reply, sort_keys=True) + "\n"
        async with write_lock:
            try:
                writer.write(blob.encode())
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the result is cached regardless

    async def _handle_request(self, req: dict) -> dict:
        op = req.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "shutdown":
            self._stop.set()
            return {"ok": True, "stopping": True}
        if op == "submit":
            return await self._submit(req)
        return {"ok": False, "kind": "bad-request",
                "error": f"unknown op {op!r}"}

    async def _submit(self, req: dict) -> dict:
        if self._stopping:
            return {"ok": False, "kind": "shutting-down",
                    "error": "daemon shutting down"}
        self.jobs_submitted += 1
        try:
            spec = JobSpec.from_wire(req["spec"])
            ir_hash = self._ir_hash(spec)
        except ESPError as err:
            return {"ok": False, "kind": "compile", "error": err.format()}
        except (KeyError, TypeError, ValueError) as err:
            return {"ok": False, "kind": "bad-request", "error": str(err)}
        key = cache_key(ir_hash, spec)
        tags = {"key": key, "ir_hash": ir_hash}

        body = self.cache.get(key)
        if body is not None:
            return {"ok": True, "result": body, "cached": True, **tags}

        job = self._inflight.get(key)
        if job is not None:
            # Same key already queued or running: coalesce onto it.
            self.jobs_coalesced += 1
            job.waiters += 1
            reply = await asyncio.shield(job.future)
            return {**reply, "coalesced": True, **tags}

        self._next_job_id += 1
        job = _Job(
            id=self._next_job_id, spec=spec, key=key, ir_hash=ir_hash,
            future=asyncio.get_running_loop().create_future(),
        )
        self._inflight[key] = job
        self._queue.append(job)
        self._dispatch()
        reply = await asyncio.shield(job.future)
        return {**reply, **tags}

    # -- lifecycle ----------------------------------------------------------------

    async def run(self) -> None:
        """Serve until the stop event fires, then tear down cleanly."""
        for _ in range(self.workers_configured):
            self._spawn_worker()
        server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path
        )
        try:
            await self._stop.wait()
        finally:
            self._stopping = True
            server.close()
            await server.wait_closed()
            self._fail_pending()
            await self._stop_workers()
            self._cleanup_files()

    def stop(self) -> None:
        """Request shutdown (safe to call from signal handlers on the
        loop thread)."""
        self._stop.set()

    def _fail_pending(self) -> None:
        while self._queue:
            job = self._queue.popleft()
            self._inflight.pop(job.key, None)
            if not job.future.done():
                job.future.set_result(
                    {"ok": False, "kind": "shutting-down",
                     "error": "daemon shutting down"}
                )

    async def _stop_workers(self) -> None:
        for worker in list(self._workers):
            try:
                worker.conn.send({"op": "stop"})
            except (BrokenPipeError, OSError):
                pass
        # Reap synchronously: the reader threads blocked in recv() are
        # freed by each worker's exit (pipe EOF), so the only thing the
        # blocked loop could miss here is work we no longer accept.
        workers = list(self._workers)
        for worker in workers:
            worker.proc.join(_REAP_TIMEOUT)
            if worker.proc.is_alive():
                worker.proc.terminate()  # SIGTERM -> worker sys.exit(0)
                worker.proc.join(_REAP_TIMEOUT)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(_REAP_TIMEOUT)
        readers = [w.reader for w in workers if w.reader is not None]
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
        for worker in workers:
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
        self._idle.clear()

    def _cleanup_files(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        if self.spool is not None:
            shutil.rmtree(self.spool, ignore_errors=True)

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "socket": self.socket_path,
            "spool": self.spool,
            "queue_depth": len(self._queue),
            "inflight": len(self._inflight),
            "workers": {
                "configured": self.workers_configured,
                "alive": sum(1 for w in self._workers if w.proc.is_alive()),
                "idle": len(self._idle),
                "respawned": self.workers_respawned,
                "pids": [w.pid for w in self._workers],
                "jobs_done": [w.jobs_done for w in self._workers],
            },
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "retried": self.jobs_retried,
                "coalesced": self.jobs_coalesced,
            },
            "cache": self.cache.stats(),
            "keys": {
                "memo_entries": len(self._key_memo),
                "memo_hits": self.memo_hits,
            },
            "states": {
                "explored": self.states_explored,
                "transitions": self.transitions_explored,
            },
            "recent_jobs": list(self._recent),
        }


def serve_until_stopped(daemon: ServeDaemon,
                        install_signal_handlers: bool = True) -> dict:
    """Run ``daemon`` on a fresh event loop until it stops; returns the
    final stats snapshot (what ``espc serve --stats-json`` prints)."""
    import signal

    async def _main() -> dict:
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, daemon.stop)
                except (NotImplementedError, RuntimeError):
                    pass
        stats_task = asyncio.ensure_future(_final_stats())
        await daemon.run()
        return await stats_task

    async def _final_stats() -> dict:
        await daemon._stop.wait()
        return daemon.stats()

    return asyncio.run(_main())
