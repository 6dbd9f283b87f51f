"""The one way this repository opens a versioned SQLite store file.

The campaign store (:mod:`repro.campaign.store`) and the verdict cache
(:mod:`repro.service.cache`) share the same durability idioms: a 30 s
busy timeout, ``sqlite3.Row`` rows, WAL journaling with
``synchronous=NORMAL``, and a ``meta`` table whose ``schema_version``
row must match the code's.  :func:`open_store` does all of that once.
"""

from __future__ import annotations

import sqlite3

from typing import Callable, Optional

from repro.util.errors import UsageError


def open_store(
    path: str,
    schema: str,
    version: int,
    kind: str,
    create: bool = True,
    migrate: Optional[Callable[[sqlite3.Connection], None]] = None,
) -> sqlite3.Connection:
    """Connect to the store at ``path`` and check its schema version.

    ``create`` runs ``schema`` (idempotent ``CREATE ... IF NOT EXISTS``
    statements that include a ``meta (key, value)`` table) and seeds
    ``meta.schema_version`` when it is absent.  ``migrate`` runs after
    the version is read.  A file that is not SQLite, lacks the schema,
    or carries another version is closed again and reported as a
    :class:`~repro.util.errors.UsageError` saying it is not a ``kind``.
    """
    conn = sqlite3.connect(path, timeout=30.0)
    conn.row_factory = sqlite3.Row
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        if create:
            with conn:
                conn.executescript(schema)
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(version)),
                )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if migrate is not None:
            migrate(conn)
    except sqlite3.DatabaseError as exc:
        conn.close()
        raise UsageError(f"{path!r} is not a {kind}: {exc}") from None
    found = None if row is None else row["value"]
    if found != str(version):
        conn.close()
        raise UsageError(
            f"{path!r} is not a {kind} (schema version "
            f"{found!r}, expected {version!r})"
        )
    return conn
