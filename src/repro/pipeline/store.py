"""Disk-backed, content-addressed stage-artifact store.

:class:`DiskArtifactCache` is the persistent sibling of the in-memory
:class:`~repro.pipeline.cache.ArtifactCache`: same ``lookup``/``store``
contract (so a :class:`~repro.pipeline.Pipeline` accepts either), but
entries live as sharded pickle files under a root directory, so

* warm re-runs of a sweep survive process restarts,
* every ``explore`` worker process and every ``repro serve`` instance
  sharing the root also shares the cache (writes are atomic renames;
  readers never see partial files),
* the store can be shipped to workers and journals by path alone.

Layout: a cache key (stage name, CDFG content fingerprint, per-stage
config subset) is digested to sha256; the entry is stored at
``<root>/<digest[:2]>/<digest[2:]>.pkl``, giving 256 shard directories
that keep listings cheap at hundreds of thousands of entries.

Bookkeeping lives in a WAL-mode SQLite index (``<root>/index.db``), one
row per entry with its size and a recency sequence number:

* ``len()`` is ``SELECT COUNT(*)``, not a tree scan;
* LRU recency is a sequence number: every hit and store moves the
  entry's row one past the newest row, in one atomic statement;
* eviction runs as one ``BEGIN IMMEDIATE`` transaction that claims the
  oldest rows before touching the filesystem, so two writers hitting
  ``max_entries`` together evict *disjoint* victims and never each
  other's fresh entry;
* :meth:`gc` reconciles index and tree in one pass (adopting entries no
  index knows — e.g. a tree written before the index existed — and
  dropping rows whose files vanished), which is what lets a server run
  indefinitely against the same root.

The tree is the truth: membership (``in``) is file-based, and a stale
or mismatched index is rebuilt from the tree.  A corrupt or torn entry
(a killed writer, a non-POSIX filesystem) is treated as a miss and
deleted.  Every process holds its own index connection, re-opened after
``fork`` and never pickled.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import tempfile
import time
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.pipeline.cache import CacheKey, CacheStats


@runtime_checkable
class StageStore(Protocol):
    """What a :class:`~repro.pipeline.Pipeline` needs from any artifact
    store — the in-memory :class:`~repro.pipeline.cache.ArtifactCache`
    and the on-disk :class:`DiskArtifactCache` both satisfy it.
    """

    stats: CacheStats

    def lookup(self, key: CacheKey) -> "dict[str, object] | None":
        """The artifacts stored under ``key``, or ``None`` on a miss."""

    def store(self, key: CacheKey, artifacts: "dict[str, object]") -> None:
        """Persist ``artifacts`` under ``key``."""

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""

#: Bump when the on-disk entry format changes incompatibly; part of the
#: digest, so old trees are simply never hit instead of misread.
STORE_FORMAT = 2

#: Bump when the index schema changes incompatibly; a mismatched index
#: is dropped and rebuilt from the entry tree (the tree is the truth).
INDEX_FORMAT = 1

INDEX_NAME = "index.db"


def wal_connect(path: "str | os.PathLike", *, timeout: float = 30.0,
                check_same_thread: bool = True) -> sqlite3.Connection:
    """A SQLite connection configured for concurrent serving workloads.

    WAL journal (readers never block the writer), ``NORMAL`` synchronous
    (WAL makes that crash-safe for committed transactions), a generous
    busy timeout, and manual transaction control — the configuration
    both the artifact index and the :mod:`repro.serve` lease queue run
    on, so every store-adjacent database behaves the same way under
    multi-process contention.
    """
    conn = sqlite3.connect(path, timeout=timeout, isolation_level=None,
                           check_same_thread=check_same_thread)
    # Switching a new file to WAL takes an exclusive lock, and SQLite
    # reports a racing opener (two pool workers opening a fresh store)
    # as locked at once instead of waiting in the busy handler.
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            break
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                conn.close()
                raise
            time.sleep(0.01)
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA busy_timeout={}".format(int(timeout * 1000)))
    return conn


_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    digest TEXT PRIMARY KEY,
    size INTEGER NOT NULL,
    seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS entries_by_seq ON entries(seq);
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v INTEGER NOT NULL
);
INSERT OR IGNORE INTO meta (k, v) VALUES ('format', {format});
""".format(format=INDEX_FORMAT)

#: Insert-or-refresh one row as the most recently used.  One statement
#: is one atomic transaction, and writers are serialized, so the next
#: sequence number is read and used under the same write lock.
_TOUCH = """
INSERT INTO entries (digest, size, seq)
VALUES (?, ?, COALESCE((SELECT MAX(seq) FROM entries), 0) + 1)
ON CONFLICT(digest) DO UPDATE SET size=excluded.size, seq=excluded.seq
"""


class DiskArtifactCache:
    """Persistent ``{cache key -> artifact dict}`` store under ``root``,
    bounded to ``max_entries`` by an exact, SQLite-indexed LRU."""

    def __init__(self, root: str | os.PathLike, max_entries: int = 4096,
                 ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    # -- key mapping -----------------------------------------------------

    @staticmethod
    def digest(key: CacheKey) -> str:
        """Stable content digest of a stage cache key."""
        payload = f"v{STORE_FORMAT}:{key!r}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: CacheKey) -> Path:
        """The sharded file path an entry for ``key`` lives at."""
        return self._path_for_digest(self.digest(key))

    def _path_for_digest(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}.pkl"

    # -- connection management -------------------------------------------

    def _db(self) -> sqlite3.Connection:
        """This process's connection, (re)opened lazily after a fork."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            self._conn = self._open_index()
            self._conn_pid = pid
        return self._conn

    def _open_index(self) -> sqlite3.Connection:
        # The serving tier touches the index from the event loop's I/O
        # and maintenance executor threads; statement execution is
        # serialized by the sqlite3 module itself.
        conn = wal_connect(self.index_path, timeout=30.0,
                           check_same_thread=False)
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT v FROM meta WHERE k='format'").fetchone()
        if row is None or row[0] != INDEX_FORMAT:
            # Stale schema: rebuild from the tree, which stays the truth.
            conn.executescript(
                "DROP TABLE IF EXISTS entries; DROP TABLE IF EXISTS meta;")
            conn.executescript(_SCHEMA)
        return conn

    def close(self) -> None:
        """Release this process's index connection (entries stay put)."""
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    # -- index bookkeeping -----------------------------------------------

    def _touch_row(self, digest: str, size: int) -> None:
        """Mark ``digest`` most-recently-used, inserting it if no index
        row exists yet (an entry written before the index existed)."""
        self._db().execute(_TOUCH, (digest, size))

    # -- ArtifactCache contract ------------------------------------------

    def lookup(self, key: CacheKey) -> dict[str, object] | None:
        digest = self.digest(key)
        path = self._path_for_digest(digest)
        try:
            with open(path, "rb") as handle:
                artifacts = pickle.load(handle)
                size = os.fstat(handle.fileno()).st_size
        except FileNotFoundError:
            artifacts = None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # Torn write or stale format: drop the entry, treat as a miss.
            self._unlink(path)
            artifacts = None
        if artifacts is None:
            # Keep the index agreeing with the tree so len() and
            # eviction stay exact.
            self._db().execute("DELETE FROM entries WHERE digest=?",
                               (digest,))
            self.stats.misses += 1
            return None
        self._touch_row(digest, size)
        self.stats.hits += 1
        return artifacts

    def _write_entry(self, path: Path, artifacts: dict[str, object]) -> int:
        """Atomically persist one entry; returns its size in bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(dict(artifacts), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                size = handle.tell()
            os.replace(tmp, path)
        except BaseException:
            self._unlink(tmp)
            raise
        return size

    def store(self, key: CacheKey, artifacts: dict[str, object]) -> None:
        digest = self.digest(key)
        size = self._write_entry(self._path_for_digest(digest), artifacts)
        self._touch_row(digest, size)
        self._evict_lru(protect=digest)

    def clear(self) -> None:
        self._db().execute("DELETE FROM entries")
        for path in self._entries():
            self._unlink(path)
        self.stats = CacheStats()

    def __len__(self) -> int:
        return self._db().execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0]

    def __contains__(self, key: CacheKey) -> bool:
        # File-based: the tree is the truth, and gc() adopts what the
        # index does not know yet.
        return self.path_for(key).exists()

    # -- internals -------------------------------------------------------

    def _entries(self):
        return self.root.glob("??/*.pkl")

    @staticmethod
    def _unlink(path: "str | Path") -> None:
        """Remove ``path``; already gone (a racing evictor or writer got
        there first) is not an error."""
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- transactional LRU eviction --------------------------------------

    def _evict_lru(self, protect: str | None = None) -> None:
        """Claim and delete the oldest rows past ``max_entries``.

        The claim (row delete) commits before any file is unlinked, so
        concurrent evictors never pick the same victim; a file already
        gone when we unlink it is a no-op, not an error.  ``protect`` is
        the entry this writer just stored, which is never the victim.
        """
        conn = self._db()
        conn.execute("BEGIN IMMEDIATE")
        try:
            count = conn.execute(
                "SELECT COUNT(*) FROM entries").fetchone()[0]
            excess = count - self.max_entries
            if excess <= 0:
                conn.execute("COMMIT")
                return
            rows = conn.execute(
                "SELECT digest FROM entries WHERE digest != ?"
                " ORDER BY seq ASC LIMIT ?",
                (protect or "", excess)).fetchall()
            victims = [digest for (digest,) in rows]
            conn.executemany("DELETE FROM entries WHERE digest=?",
                             [(d,) for d in victims])
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        for digest in victims:
            self._unlink(self._path_for_digest(digest))
            self.stats.evictions += 1

    # -- garbage collection ----------------------------------------------

    def gc(self) -> dict[str, int]:
        """Reconcile the index with the entry tree.

        Adopts files the index does not know (a tree written before the
        index existed, or a rebuilt index), drops rows whose files
        vanished, then re-applies the LRU bound.  Returns counters:
        ``{"entries": ..., "adopted": ..., "dropped": ..., "evicted": ...}``.
        """
        conn = self._db()
        on_disk: dict[str, Path] = {}
        for path in self._entries():
            on_disk[path.parent.name + path.stem] = path
        indexed = {digest for (digest,) in
                   conn.execute("SELECT digest FROM entries")}
        dropped = sorted(indexed - set(on_disk))
        adopted = sorted(set(on_disk) - indexed)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany("DELETE FROM entries WHERE digest=?",
                             [(d,) for d in dropped])
            for digest in adopted:
                try:
                    size = on_disk[digest].stat().st_size
                except OSError:
                    continue
                conn.execute(_TOUCH, (digest, size))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        evictions_before = self.stats.evictions
        self._evict_lru()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {"entries": len(self), "adopted": len(adopted),
                "dropped": len(dropped),
                "evicted": self.stats.evictions - evictions_before}

    def total_bytes(self) -> int:
        """Sum of indexed entry sizes."""
        return self._db().execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0]

    # -- multiprocessing -------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        # Workers share the directory, not the in-process counters, and
        # connections never cross process boundaries.
        return {"root": self.root, "max_entries": self.max_entries}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.root = state["root"]
        self.max_entries = state["max_entries"]
        self.stats = CacheStats()
        self._conn = None
        self._conn_pid = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DiskArtifactCache({str(self.root)!r}, "
                f"max_entries={self.max_entries})")
