"""Shared JSONL resume-journal helpers (the PR-4 explore format).

One journal is an append-only JSONL file: a meta line ``{"format": N,
"kind": "<kind>"}`` followed by one record per completed unit of work,
``{"key": "<content key>", ...payload}``.  Appends go through a
:class:`JournalWriter` with two durability levels:

* ``"record"`` — every append is flushed *and* fsynced before
  returning, so even a machine crash loses at most the record being
  written.  This is the serve crash-recovery contract.
* ``"batch"`` — group commit: every append is still written and
  flushed (a killed *process* loses nothing), but the fsync happens
  only every ``batch_records`` appends or ``batch_seconds`` of wall
  clock, and on :meth:`~JournalWriter.close`.  A machine crash can
  lose at most one batch.  This is the default for the optimizer and
  explorer journals, where records are a cache of recomputable work
  and per-record fsyncs dominate cheap evaluations.

Either way the file stays torn-tail safe: records are single lines,
and loading tolerates a torn tail (or any other garbage line) by
skipping it.  Both the exploration sweep journal and the optimizer
evaluation journal are instances of this format.

Journals only ever grow, so long-running services compact them:
:func:`compact_journal` rewrites one in place (atomic replace), keeping
the last record per key and dropping superseded duplicates, torn tails,
and garbage.  ``repro journal compact`` is the CLI face; the
:mod:`repro.serve` maintenance pass calls it on every job journal.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

JOURNAL_FORMAT = 1

DURABILITY_LEVELS = ("record", "batch")

#: Group-commit defaults: fsync at most this many records / this much
#: wall-clock behind the last append.
BATCH_RECORDS = 64
BATCH_SECONDS = 0.25


def load_journal(path: Path) -> dict[str, dict]:
    """Records by content key; tolerates torn/garbage lines and re-keyed
    duplicates (last record wins, matching append order)."""
    records: dict[str, dict] = {}
    if not path.exists():
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed run
            if not isinstance(record, dict) or "key" not in record:
                continue  # meta line
            records[str(record["key"])] = record
    return records


def _check_durability(durability: str) -> None:
    if durability not in DURABILITY_LEVELS:
        raise ValueError(
            f"unknown journal durability {durability!r}; "
            f"expected one of {DURABILITY_LEVELS}")


class JournalWriter:
    """Append records to one journal under a durability policy.

    Wraps the raw file handle so the two fsync disciplines (see module
    docstring) share one call site.  Also usable as a context manager;
    :meth:`close` always drains the pending batch first.
    """

    def __init__(self, handle, *, durability: str = "record",
                 batch_records: int = BATCH_RECORDS,
                 batch_seconds: float = BATCH_SECONDS) -> None:
        _check_durability(durability)
        self._handle = handle
        self.durability = durability
        self.batch_records = max(1, int(batch_records))
        self.batch_seconds = float(batch_seconds)
        self._pending = 0
        self._last_sync = time.monotonic()

    @property
    def pending(self) -> int:
        """Records written but not yet fsynced (always 0 for "record")."""
        return self._pending

    def append(self, key: str, payload: Mapping[str, object]) -> None:
        """Append one ``{"key": ..., **payload}`` record.

        Always writes and flushes (torn-tail safe against process
        death); fsyncs per the durability policy.
        """
        record = {"key": key, **payload}
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        self._pending += 1
        if self.durability == "record":
            self.sync()
        elif (self._pending >= self.batch_records
                or time.monotonic() - self._last_sync >= self.batch_seconds):
            self.sync()

    def sync(self) -> None:
        """Force the pending batch to disk."""
        if self._pending:
            os.fsync(self._handle.fileno())
            self._pending = 0
        self._last_sync = time.monotonic()

    def fileno(self) -> int:
        return self._handle.fileno()

    def close(self) -> None:
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_journal(path: Path, kind: str, *, durability: str = "record",
                 batch_records: int = BATCH_RECORDS,
                 batch_seconds: float = BATCH_SECONDS) -> JournalWriter:
    """Open ``path`` for appending; write the meta line when fresh and
    repair a torn (newline-less) tail left by a killed writer."""
    _check_durability(durability)  # before the file is opened or created
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    torn_tail = False
    if not fresh:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                torn_tail = handle.read(1) != b"\n"
    handle = open(path, "a", encoding="utf-8")
    if fresh:
        handle.write(json.dumps({"format": JOURNAL_FORMAT,
                                 "kind": kind}) + "\n")
        handle.flush()
    elif torn_tail:
        handle.write("\n")
        handle.flush()
    return JournalWriter(handle, durability=durability,
                         batch_records=batch_records,
                         batch_seconds=batch_seconds)


def append_record(handle: JournalWriter, key: str,
                  payload: Mapping[str, object]) -> None:
    """Append one record through ``handle``'s durability policy."""
    handle.append(key, payload)


# -- compaction ----------------------------------------------------------


@dataclass(frozen=True)
class CompactionResult:
    """What one :func:`compact_journal` pass did."""

    kept: int      #: records surviving (one per distinct key)
    dropped: int   #: superseded duplicates + garbage/torn lines removed
    bytes_before: int
    bytes_after: int

    @property
    def changed(self) -> bool:
        return self.dropped > 0 or self.bytes_after != self.bytes_before


def compact_journal(path: str | os.PathLike,
                    kind: str | None = None) -> CompactionResult:
    """Rewrite ``path`` keeping only the last record per key.

    The replacement is built in a temp file next to the journal, fsynced
    and atomically renamed over it, so a crash mid-compaction leaves
    either the old journal or the new one — never a torn hybrid.  The
    meta line is preserved (``kind`` overrides the recorded kind when
    given; a journal that never had one gets a fresh meta line).  A
    missing journal is a no-op.
    """
    path = Path(path)
    if not path.exists():
        return CompactionResult(0, 0, 0, 0)
    bytes_before = path.stat().st_size
    records: dict[str, str] = {}
    record_lines = 0
    garbage = 0
    meta_kind = kind
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                garbage += 1  # torn/garbage line: compacted away
                continue
            if not isinstance(record, dict):
                garbage += 1
                continue
            if "key" not in record:
                if "format" in record or "kind" in record:
                    if meta_kind is None \
                            and isinstance(record.get("kind"), str):
                        meta_kind = record["kind"]
                    continue  # meta line (re-emitted once below)
                garbage += 1  # keyless non-meta object: compacted away
                continue
            record_lines += 1
            records[str(record["key"])] = json.dumps(
                record, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".compact-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            meta = {"format": JOURNAL_FORMAT}
            if meta_kind is not None:
                meta["kind"] = meta_kind
            out.write(json.dumps(meta) + "\n")
            for line in records.values():
                out.write(line + "\n")
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return CompactionResult(
        kept=len(records),
        dropped=(record_lines - len(records)) + garbage,
        bytes_before=bytes_before,
        bytes_after=path.stat().st_size)
