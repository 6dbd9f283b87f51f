"""The content-addressed verdict cache (SQLite WAL, campaign idioms).

One file maps cache keys (:func:`repro.service.keys.cache_key`) to full
verdict documents, plus a content-addressed artifact table holding the
replayable counterexample/lasso sub-documents by their own SHA-256 —
``GET /v1/artifacts/{hash}`` serves straight from it, and two verdicts
that shrank to the same witness share one artifact row.

Byte-identity contract: :meth:`VerdictCache.get` returns exactly the
document :meth:`VerdictCache.put` stored (the canonical JSON text is
the stored representation), so a cached re-verify serialises
byte-identically to the cold run that populated it — the property the
``serve-smoke`` CI job and ``bench_service`` gate assert.

Same durability idioms as :mod:`repro.campaign.store`, opened through
the same :func:`~repro.util.sqlite_store.open_store`: WAL journaling,
``synchronous=NORMAL``, a busy timeout, one transaction per mutation —
any number of readers and writers (the serve executor's worker
processes all write here) can share the file.

Obs counters (PR 7 recorder, no-op when no recorder is active):
``cache/hit``, ``cache/miss``, ``cache/store``.
"""

from __future__ import annotations

import json
import os
import time

from typing import Any, Dict, List, Optional

from repro.obs.recorder import active as _obs_active
from repro.service.keys import code_version
from repro.util.errors import UsageError, unknown_choice
from repro.util.hashing import canonical_fingerprint, canonical_json
from repro.util.sqlite_store import open_store

#: Bump on any incompatible schema or key-contract change.
CACHE_SCHEMA_VERSION = 1

#: ``verify()`` cache modes: disabled entirely, read-only (hits served,
#: misses computed but not stored), or read-write (the service default).
CACHE_MODES = ("off", "read", "readwrite")

#: Default cache path; ``REPRO_CACHE_DB`` overrides it process-wide
#: (the campaign worker pool inherits it through the environment).
DEFAULT_CACHE_DB = "verdicts.db"
CACHE_DB_ENV = "REPRO_CACHE_DB"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS verdicts (
    key        TEXT PRIMARY KEY,
    scenario   TEXT NOT NULL,
    backend    TEXT NOT NULL,
    code       TEXT NOT NULL,
    document   TEXT NOT NULL,
    created_at REAL NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS verdicts_code ON verdicts(code);
CREATE INDEX IF NOT EXISTS verdicts_scenario ON verdicts(scenario, backend);
CREATE TABLE IF NOT EXISTS artifacts (
    hash     TEXT PRIMARY KEY,
    kind     TEXT NOT NULL,
    document TEXT NOT NULL
);
"""


def check_cache_mode(mode: str) -> str:
    """Validate a cache mode (:class:`UsageError` on anything else)."""
    if mode not in CACHE_MODES:
        raise unknown_choice("cache mode", mode, CACHE_MODES)
    return mode


def default_cache_path(path: Optional[str] = None) -> str:
    """Resolve the cache path: explicit argument, then the
    ``REPRO_CACHE_DB`` environment variable, then ``verdicts.db``."""
    if path:
        return path
    return os.environ.get(CACHE_DB_ENV, "").strip() or DEFAULT_CACHE_DB


def artifact_hash(document: Dict[str, Any]) -> str:
    """The content address of one replayable artifact document."""
    return canonical_fingerprint(document)


class VerdictCache:
    """One verdict cache file (see module docstring)."""

    def __init__(self, path: str, create: bool = True):
        if not create and not os.path.exists(path):
            raise UsageError(f"no verdict cache at {path!r}")
        self.path = path
        self._conn = open_store(
            path, _SCHEMA, CACHE_SCHEMA_VERSION, "verdict cache"
        )

    @classmethod
    def open(cls, path: Optional[str] = None) -> "VerdictCache":
        """Open (creating if absent) the cache at ``path`` — resolved
        through :func:`default_cache_path`."""
        return cls(default_cache_path(path), create=True)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "VerdictCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the read path ------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored verdict document for ``key``, or ``None``.

        Counts ``cache/hit`` / ``cache/miss`` on the active recorder
        and bumps the row's ``hits`` column (observability only; the
        returned document is exactly the stored one).
        """
        row = self._conn.execute(
            "SELECT document FROM verdicts WHERE key = ?", (key,)
        ).fetchone()
        recorder = _obs_active()
        if row is None:
            if recorder is not None:
                recorder.count("cache/miss")
            return None
        if recorder is not None:
            recorder.count("cache/hit")
        with self._conn:
            self._conn.execute(
                "UPDATE verdicts SET hits = hits + 1 WHERE key = ?", (key,)
            )
        return json.loads(row["document"])

    def artifact(self, hash_: str) -> Optional[Dict[str, Any]]:
        """The artifact document stored under ``hash_``, or ``None``."""
        row = self._conn.execute(
            "SELECT document FROM artifacts WHERE hash = ?", (hash_,)
        ).fetchone()
        return None if row is None else json.loads(row["document"])

    def artifact_hashes(self, key: str) -> List[str]:
        """Content addresses of the artifacts embedded in the verdict
        stored under ``key`` (empty when no violation was witnessed)."""
        document = self._conn.execute(
            "SELECT document FROM verdicts WHERE key = ?", (key,)
        ).fetchone()
        if document is None:
            return []
        loaded = json.loads(document["document"])
        return [
            artifact_hash(loaded[field])
            for field in ("counterexample", "lasso")
            if field in loaded
        ]

    # -- the write path -----------------------------------------------------

    def put(
        self,
        key: str,
        document: Dict[str, Any],
        code: Optional[str] = None,
    ) -> None:
        """Store one verdict document under ``key`` (idempotent:
        re-storing a key replaces the row — verdicts are deterministic
        functions of their key, so the document can only be equal).

        The embedded counterexample/lasso sub-documents are also
        indexed content-addressed in the artifact table.  Counts
        ``cache/store``.
        """
        artifacts = [
            (artifact_hash(document[field]), field, canonical_json(document[field]))
            for field in ("counterexample", "lasso")
            if field in document
        ]
        with self._conn:
            self._conn.execute(
                "INSERT INTO verdicts "
                "(key, scenario, backend, code, document, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET document = excluded.document",
                (
                    key,
                    str(document.get("scenario", "?")),
                    str(document.get("backend", "?")),
                    code if code is not None else code_version(),
                    canonical_json(document),
                    time.time(),
                ),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO artifacts (hash, kind, document) "
                "VALUES (?, ?, ?)",
                artifacts,
            )
        recorder = _obs_active()
        if recorder is not None:
            recorder.count("cache/store")

    # -- maintenance --------------------------------------------------------

    def gc(self, keep_code: Optional[str] = None) -> int:
        """Evict verdicts whose code-version component differs from
        ``keep_code`` (default: the current :func:`code_version`), then
        drop artifacts no surviving verdict references.  Returns the
        number of verdict rows evicted."""
        keep = keep_code if keep_code is not None else code_version()
        with self._conn:
            evicted = self._conn.execute(
                "DELETE FROM verdicts WHERE code != ?", (keep,)
            ).rowcount
            referenced = set()
            for row in self._conn.execute("SELECT document FROM verdicts"):
                loaded = json.loads(row["document"])
                for field in ("counterexample", "lasso"):
                    if field in loaded:
                        referenced.add(artifact_hash(loaded[field]))
            for row in self._conn.execute("SELECT hash FROM artifacts"):
                if row["hash"] not in referenced:
                    self._conn.execute(
                        "DELETE FROM artifacts WHERE hash = ?", (row["hash"],)
                    )
        return evicted

    def stats(self) -> Dict[str, Any]:
        """Cache-wide counts: verdicts, artifacts, hits served, and a
        per-code-version breakdown (stale entries are visible here
        before ``gc`` evicts them)."""
        verdicts = self._conn.execute(
            "SELECT COUNT(*) AS n, COALESCE(SUM(hits), 0) AS hits "
            "FROM verdicts"
        ).fetchone()
        artifacts = self._conn.execute(
            "SELECT COUNT(*) AS n FROM artifacts"
        ).fetchone()
        by_code = {
            row["code"]: row["n"]
            for row in self._conn.execute(
                "SELECT code, COUNT(*) AS n FROM verdicts "
                "GROUP BY code ORDER BY code"
            )
        }
        return {
            "path": self.path,
            "verdicts": verdicts["n"],
            "artifacts": artifacts["n"],
            "hits": verdicts["hits"],
            "by_code": by_code,
            "current_code": code_version(),
        }
