"""Content-addressed result cache for the serve daemon.

A timing report is a pure function of (netlist content, technology,
analysis options), so the daemon caches reports under the SHA-256 of
exactly that triple.  Reports are held as their encoded JSON text: a
reply splices the text in unchanged, so a hit costs no encode, and a
report takes less than half the memory it takes as Python dicts.  Two layers:

* an in-memory LRU bounded by a byte budget (the summed length of the
  texts it holds; per process) serving warm queries with a dict lookup;
* an optional on-disk layer (``<dir>/<sha>.json``) surviving restarts,
  written with :func:`repro.core.report.atomic_write_text` -- a SIGKILL
  mid-write leaves either the old file or no file, never a torn one.

A disk entry that fails to parse (however it got damaged) is treated as
a miss and deleted.  Degraded reports whose coverage was cut short by a
*deadline* are never stored: a later query with more time budget must
be able to do better.

Keys mix in the report schema version: a report is a function of the
schema that shapes it, so after a schema bump a persistent cache
directory can never serve stale-schema payloads -- old entries live
under old-version keys and are simply never addressed again.  Belt and
braces, a disk entry whose recorded ``schema_version`` disagrees with
the running one is evicted on read.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict

from ..core.report import REPORT_SCHEMA_VERSION, atomic_write_text

__all__ = ["ResultCache", "cache_key"]

#: Default byte budget of the in-memory layer: about twenty-five reports
#: of a 20k-device design, or thousands of small ones.
DEFAULT_MEMORY_BUDGET = 16 * 1024 * 1024


def cache_key(design: str, tech_json: dict, options: dict) -> str:
    """SHA-256 over the canonical (netlist, technology, options) triple.

    ``design`` identifies the netlist content: a ``.sim`` text, or (as
    the daemon passes it) the SHA-256 of the text a design was loaded
    from, with its edits since then in ``options``.  ``options`` must be
    JSON-serializable; keys are sorted so dict construction order never
    changes the hash.  The report schema version is part of the hashed
    state: bumping the schema retires every previously cached payload at
    once.
    """
    blob = json.dumps(
        {
            "sim": design,
            "tech": tech_json,
            "options": options,
            "schema": REPORT_SCHEMA_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """LRU of report texts within a byte budget, optionally on disk too.

    Thread-safe: the daemon's handler threads share one instance.
    ``memory_budget`` bounds the summed length of the texts the memory
    layer holds; the least recently used go first, and a text longer
    than the whole budget is not held in memory at all.  The disk layer
    keeps everything it is given.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
    ) -> None:
        if memory_budget < 1:
            raise ValueError("memory_budget must be >= 1")
        self.directory = os.fspath(directory) if directory is not None else None
        self.memory_budget = memory_budget
        self._memory: OrderedDict[str, str] = OrderedDict()
        self._memory_bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt_evictions = 0
        self.stale_evictions = 0
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str) -> str | None:
        """The cached report text for ``key``, or None."""
        with self._lock:
            text = self._memory.get(key)
            if text is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return text
        if self.directory is not None:
            text = self._read_disk(key)
            if text is not None:
                with self._lock:
                    self._remember(key, text)
                    self.hits += 1
                    self.disk_hits += 1
                return text
        with self._lock:
            self.misses += 1
        return None

    def _read_disk(self, key: str) -> str | None:
        """A disk entry's text; damaged or stale-schema entries are dropped."""
        try:
            with open(self._path(key)) as handle:
                text = handle.read().rstrip("\n")
            payload = json.loads(text)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._unlink(key)
            with self._lock:
                self.corrupt_evictions += 1
            return None
        if self._stale(payload):
            # Written by a different schema version (keys normally
            # prevent this; a hand-copied or legacy entry cannot).
            self._unlink(key)
            with self._lock:
                self.stale_evictions += 1
            return None
        return text

    def _unlink(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    @staticmethod
    def _stale(payload) -> bool:
        """True for a disk entry stamped with a different schema version."""
        if not isinstance(payload, dict):
            return False
        version = payload.get("schema_version")
        return version is not None and version != REPORT_SCHEMA_VERSION

    def put(self, key: str, text: str) -> None:
        """Store a report's JSON text in memory and (if configured) on disk."""
        with self._lock:
            self._remember(key, text)
        if self.directory is not None:
            try:
                atomic_write_text(self._path(key), text + "\n")
            except OSError:
                pass  # a read-only disk layer degrades to memory-only

    def _remember(self, key: str, text: str) -> None:
        held = self._memory.pop(key, None)
        if held is not None:
            self._memory_bytes -= len(held)
        self._memory[key] = text
        self._memory_bytes += len(text)
        while self._memory_bytes > self.memory_budget:
            _key, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= len(evicted)

    def stats(self) -> dict:
        """Hit/miss counters and sizes for ``/stats``."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries_memory": len(self._memory),
                "bytes_memory": self._memory_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "corrupt_evictions": self.corrupt_evictions,
                "stale_evictions": self.stale_evictions,
                "hit_rate": (self.hits / total) if total else None,
                "persistent": self.directory is not None,
            }
