"""Verification-as-a-service (``espc serve``).

The paper's pitch is that ESP makes firmware verification *routine*;
at production scale that means serving verification requests, not
one-shot CLI runs.  This package contains the daemon and its parts:

* :mod:`repro.serve.keys` — canonical-IR hashing and the
  content-addressed cache key of a verification job;
* :mod:`repro.serve.cache` — the result cache (memory LRU over a
  content-addressed disk spool);
* :mod:`repro.serve.worker` — the forked verification worker, which
  runs each job from scratch, as a one-shot ``espc verify`` would;
* :mod:`repro.serve.daemon` — the asyncio job server;
* :mod:`repro.serve.client` — the blocking JSON-lines client used by
  ``espc submit`` and the tests.

See docs/SERVE.md for the protocol and the cache-key definition.
"""

from repro.serve.keys import JobSpec, cache_key, canonical_ir_hash
from repro.serve.cache import ResultCache
from repro.serve.daemon import ServeDaemon, serve_until_stopped
from repro.serve.client import ServeClient, ServeError, wait_for_server

__all__ = [
    "JobSpec",
    "cache_key",
    "canonical_ir_hash",
    "ResultCache",
    "ServeDaemon",
    "serve_until_stopped",
    "ServeClient",
    "ServeError",
    "wait_for_server",
]
