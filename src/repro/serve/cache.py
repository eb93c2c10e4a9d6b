"""The daemon's result cache: a memory LRU over a content-addressed
disk spool.

Results are JSON documents keyed by :func:`repro.serve.keys.cache_key`
— immutable once written, exactly like the native engine's ``.so``
artifacts (:mod:`repro.backends.c.build`): a key change means a
content change, so entries are never updated in place.  The disk tier
is written atomically (temp file + ``os.replace``), so two daemons (or
a daemon and a crashed predecessor) sharing one spool directory at
worst write the same bytes twice.

The memory tier is a plain LRU bounded by entry count; evicted entries
stay on disk, so an eviction costs a re-read, never a re-verification.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path

from repro.errors import ESPError


class ResultCache:
    """Two-tier (memory LRU + disk) content-addressed result cache."""

    def __init__(self, directory: str | os.PathLike | None = None,
                 max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                reason = ("not a directory" if isinstance(err, FileExistsError)
                          else err.strerror)
                raise ESPError(
                    f"cannot use cache directory {directory}: {reason}"
                ) from err
        self.max_entries = max_entries
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        if self.directory is not None:
            path = self._path(key)
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                entry = None
            if entry is not None:
                self.disk_hits += 1
                self.hits += 1
                self._admit(key, entry, write_disk=False)
                return entry
        self.misses += 1
        return None

    def put(self, key: str, result: dict) -> None:
        self._admit(key, result, write_disk=True)

    def _admit(self, key: str, result: dict, write_disk: bool) -> None:
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = result
        self._entries.move_to_end(key)
        if write_disk and self.directory is not None:
            blob = json.dumps(result, sort_keys=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.directory),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(blob)
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        if key in self._entries:
            return True
        return (self.directory is not None and self._path(key).exists())

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
        }
