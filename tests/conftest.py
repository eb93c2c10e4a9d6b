"""Shared test configuration.

Hypothesis runs derandomized so the suite is deterministic run-to-run
(the property tests still cover the full shrunk example corpus).

``ESP_ENGINE`` is the suite's engine matrix switch: CI's ``ast`` and
``native`` legs set it, and it becomes
:data:`repro.runtime.machine.DEFAULT_ENGINE`, the engine of every
machine a test builds in this process without naming one.  Daemons and
CLI subprocesses that tests start keep the library's default."""

import os

from hypothesis import HealthCheck, settings

from repro.runtime import machine

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

machine.DEFAULT_ENGINE = os.environ.get("ESP_ENGINE") or machine.DEFAULT_ENGINE
