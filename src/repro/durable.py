"""Crash-safe files: atomic replace, directory fsync and CRC-checked JSONL.

Every artifact the library persists is made crash-safe here and nowhere
else (the table in docs/ROBUSTNESS.md, "Durability contract"):

* **whole files** — model snapshots, spill metadata and the compacted
  quarantine store — are written with :func:`atomic_write`: a
  same-directory temp file, fsynced, ``os.replace``-d over the target,
  then the directory entry fsynced.  A crash at any instant leaves the
  old file or the new one, never a torn hybrid, and an aborted write
  leaves no temp file behind.
* **cache artifacts** — spilled count tiles and their CRC sidecars —
  go through the same :func:`atomic_write` with ``sync=False``: the temp
  file and the rename keep them atomic against a process crash, but
  nothing is fsynced.  A power cut may leave a tile zeroed, truncated
  or without its sidecar; every tile is CRC-checked and recounted on
  resume, so recovery is a recount, never a misread.
* **append-only logs** — the ingest write-ahead journal, the quarantine
  store, sweep checkpoints and the perf trend ledger — are JSONL with a
  CRC32 per record, appended by :class:`DurableJsonlWriter` (one fsync
  per record) and read back by :func:`read_jsonl` under one corruption
  policy: a damaged **final** line is the torn tail of a crashed append
  and is dropped silently; a damaged line anywhere else is skipped with
  a :class:`~repro.exceptions.JournalCorruptionWarning` that names it.
  The writer cuts a torn tail before its first append, so a record
  acknowledged after a crash never merges into the unreadable fragment.

The module is a leaf — it imports only the standard library and
:mod:`repro.exceptions` — so every package can persist through it
without an import cycle.  It calls ``os.fsync``, ``os.replace`` and
``tempfile.mkstemp`` through their modules, so tests can monkeypatch
them to count flushes or inject a crash between write and replace.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Union

from repro.exceptions import CheckpointError, JournalCorruptionWarning

__all__ = [
    "CRC_KEY",
    "DurableJsonlWriter",
    "atomic_write",
    "crc_of",
    "fsync_dir",
    "read_jsonl",
    "rewrite_jsonl",
    "warn_damaged",
    "with_crc",
]

PathLike = Union[str, Path]

#: Record key holding the integrity checksum; excluded from the checksum
#: itself so a record can be verified from its parsed form.
CRC_KEY = "crc"


# ----------------------------------------------------------------------
# whole files
# ----------------------------------------------------------------------

def fsync_dir(directory: PathLike) -> None:
    """Fsync a directory entry, so a rename into it is itself durable.

    Best-effort: skipped only where the platform cannot open or fsync a
    directory.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on directories
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: PathLike, write: Callable[[IO[bytes]], object], *, sync: bool = True
) -> Path:
    """Replace ``path`` crash-atomically with what ``write`` streams out.

    ``write`` receives the open binary handle of a same-directory temp
    file (so an archive can stream straight into it).  The temp file is
    flushed, fsynced and ``os.replace``-d over ``path``, then the
    directory is fsynced — two fsyncs per call.  On any exception the
    temp file is removed and the old ``path`` is left untouched.

    ``sync=False`` skips both fsyncs, for cache artifacts whose reader
    verifies and rebuilds them: the replace stays atomic against a
    process crash, but a power cut may lose or tear the new file.
    """
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        Path(temp_name).unlink(missing_ok=True)
        raise
    if sync:
        fsync_dir(path.parent)
    return path


# ----------------------------------------------------------------------
# CRC-checked JSONL
# ----------------------------------------------------------------------

def crc_of(document: Mapping) -> int:
    """CRC32 of a record's canonical JSON payload (``crc`` key excluded).

    Canonical form is compact separators + sorted keys, so the checksum
    is stable across writer and reader regardless of key order, and a
    parsed record can be re-verified without keeping the raw line.
    """
    payload = {key: value for key, value in document.items() if key != CRC_KEY}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def with_crc(document: Mapping) -> dict:
    """A copy of ``document`` carrying its :func:`crc_of` as the last key."""
    record = {key: value for key, value in document.items() if key != CRC_KEY}
    record[CRC_KEY] = crc_of(record)
    return record


def _encode(record: Mapping) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def _parse(
    line: bytes | str, *, verify_crc: bool = True, require_crc: bool = False
) -> tuple[dict | None, str | None]:
    """``(record, None)`` for an intact line, ``(None, why)`` otherwise."""
    try:
        document = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, f"not valid JSON: {exc}"
    if not isinstance(document, dict):
        return None, "not a JSON object"
    if verify_crc and (require_crc or CRC_KEY in document):
        stored = document.get(CRC_KEY)
        expected = crc_of(document)
        if stored != expected:
            return None, f"CRC mismatch (stored {stored!r}, payload {expected})"
    return document, None


def warn_damaged(path: PathLike, number: int, detail: str) -> None:
    """Report a skipped line ``number`` of the log at ``path``."""
    warnings.warn(
        f"{path}: line {number}: {detail}", JournalCorruptionWarning, stacklevel=3
    )


def read_jsonl(
    path: PathLike,
    what: str,
    *,
    verify_crc: bool = True,
    require_crc: bool = False,
    warn: bool = True,
) -> list[tuple[int, dict]]:
    """``(line number, record)`` of every intact line of a JSONL log.

    A line is damaged when it is not valid JSON, not a JSON object, or
    (with ``verify_crc``) carries a ``crc`` that does not match its
    payload — or carries none, under ``require_crc``.  A damaged final
    line is a torn tail and is dropped silently; any other damaged line
    is skipped with a :func:`warn_damaged` naming it as a corrupt
    ``what`` record (unless ``warn`` is false).  A missing file reads as
    empty; an unreadable one raises
    :class:`~repro.exceptions.CheckpointError`.
    """
    path = Path(path)
    try:
        raw_lines = path.read_bytes().splitlines()
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise CheckpointError(f"cannot read {what} journal {path}: {exc}") from exc
    numbered = [(n, line) for n, line in enumerate(raw_lines, 1) if line.strip()]
    records: list[tuple[int, dict]] = []
    for position, (number, line) in enumerate(numbered):
        document, error = _parse(
            line, verify_crc=verify_crc, require_crc=require_crc
        )
        if document is not None:
            records.append((number, document))
        elif warn and position < len(numbered) - 1:
            warn_damaged(path, number, f"corrupt {what} record skipped ({error})")
    return records


def _cut_torn_tail(path: Path) -> None:
    """Make ``path`` end on a line boundary before a record is appended.

    An unterminated final line is the tail of an append that crashed
    mid-write: cut it when it does not parse (it would read as torn
    anyway), or terminate it when it is an intact record that lost only
    its newline.
    """
    try:
        handle = path.open("rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        data = handle.read()
        start = data.rfind(b"\n") + 1
        if _parse(data[start:])[0] is not None:
            handle.write(b"\n")
        else:
            handle.truncate(start)


class DurableJsonlWriter:
    """Append-only JSONL writer: one CRC-stamped, fsynced line per record.

    Opens lazily on the first :meth:`append` (parent directories are
    created, a torn tail left by a crashed append is cut), writes one
    compact JSON line per record with a ``crc`` field added, and
    flushes + fsyncs after every line, so a crash loses at most the line
    in flight and every line that *did* land verifies.  Usable as a
    context manager.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle: IO[bytes] | None = None

    def append(self, document: Mapping) -> dict:
        """Write one record durably; returns the record as written
        (including its ``crc``)."""
        record = with_crc(document)
        if self._handle is None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                _cut_torn_tail(self.path)
                self._handle = self.path.open("ab")
            except OSError as exc:
                raise CheckpointError(
                    f"cannot open journal {self.path}: {exc}"
                ) from exc
        try:
            self._handle.write(_encode(record))
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to journal {self.path}: {exc}"
            ) from exc
        return record

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "DurableJsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def rewrite_jsonl(path: PathLike, documents: Iterable[Mapping]) -> Path:
    """Atomically replace a JSONL log with ``documents``, each stamped
    with its CRC as :class:`DurableJsonlWriter` would append it — one
    :func:`atomic_write`, so two fsyncs however many records."""
    payload = b"".join(_encode(with_crc(document)) for document in documents)
    return atomic_write(path, lambda handle: handle.write(payload))
