"""Compiling generated C to a loadable shared object (the native engine).

The native engine (docs/ENGINE.md, "native") compiles each program's
generated C file into a ``.so`` once and memoizes the artifact in a
user cache directory, content-addressed by a hash of the generated
source plus the exact toolchain invocation — so repeat runs (and every
benchmark iteration after the first) skip the C compiler entirely and
pay only a ``dlopen``.

Nothing here imports the code generator; this module only answers two
questions: *which* C compiler to use, and *where* the artifact for a
given source lives.

Compiler discovery order:

1. ``ESP_NATIVE_CC`` — an explicit compiler path/name.  Setting it to
   something that does not resolve makes the build unavailable, which
   is how the no-compiler degradation path is tested on hosts that do
   have a toolchain.
2. ``gcc``, ``cc``, ``clang`` on ``PATH``, first hit wins.

Cache directory: ``ESP_NATIVE_CACHE`` > ``$XDG_CACHE_HOME/esp-repro/
native`` > ``~/.cache/esp-repro/native``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

# Bump when the generated-code <-> host ABI changes (exported symbol
# set, event encoding, counter layout); stale cache entries are then
# simply never hit again.
ABI_VERSION = "esp-native-1"

CFLAGS = ("-O2", "-fPIC", "-shared", "-DESP_NATIVE")


class NativeBuildUnavailable(RuntimeError):
    """No C compiler is available: the native engine cannot be used."""


class NativeBuildError(RuntimeError):
    """The C compiler was found but rejected the generated source."""


def find_cc() -> str | None:
    """The C compiler the native engine will use, or None."""
    explicit = os.environ.get("ESP_NATIVE_CC")
    if explicit is not None:
        return shutil.which(explicit)
    for name in ("gcc", "cc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def require_cc() -> str:
    cc = find_cc()
    if cc is None:
        raise NativeBuildUnavailable(
            "no C compiler found for --engine native (install gcc, or point "
            "ESP_NATIVE_CC at one); use --engine compiled instead"
        )
    return cc


def cache_dir() -> Path:
    override = os.environ.get("ESP_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "esp-repro" / "native"


def artifact_key(source: str, cc: str) -> str:
    """Content address of the built artifact: any change to the
    generated source, the compiler, the flags, or the ABI yields a new
    key, so cache entries are immutable once written."""
    h = hashlib.sha256()
    for part in (ABI_VERSION, cc, " ".join(CFLAGS), source):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def build_shared(source: str) -> Path:
    """Compile ``source`` to a shared object, or return the cached one.

    The build is atomic (compile to a temp name, ``os.replace`` into
    place), so concurrent processes racing on the same key at worst
    compile twice and agree on the result.
    """
    cc = require_cc()
    key = artifact_key(source, cc)
    cache = cache_dir()
    artifact = cache / f"{key}.so"
    if artifact.exists():
        return artifact
    cache.mkdir(parents=True, exist_ok=True)
    c_path = cache / f"{key}.c"
    c_path.write_text(source)
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp_name, str(c_path)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"{cc} failed on generated code ({c_path}):\n"
                + proc.stderr[-4000:]
            )
        os.replace(tmp_name, artifact)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return artifact
