"""The ingest write-ahead journal and the quarantine store.

Every batch the service acknowledges is appended here — fsynced, CRC32-
stamped, sequence-numbered — *before* it enters the absorb queue, so the
journal is the source of truth for what the service has promised to
absorb.  Restart recovery is a pure replay: load the newest good model
snapshot, then re-absorb every journaled batch with ``seq`` greater than
the snapshot's, skipping sequences the quarantine store recorded as
rejected or shed.  Because ``partial_fit`` is bit-identical to a refit
on the concatenated history (docs/INCREMENTAL.md), the replayed model is
bit-identical to the uninterrupted one regardless of how the live run
grouped batches.

Both files are CRC-checked JSONL written through :mod:`repro.durable`,
so damage follows its one policy: a torn final line is the
partial-write signature of a crash and is dropped silently; damage
anywhere else (bit flips caught by CRC, malformed payloads, duplicated
sequence numbers) is skipped with a
:class:`~repro.exceptions.JournalCorruptionWarning` and the surviving
records still replay deterministically.

Status payloads travel as base64-encoded ``np.packbits`` words plus an
explicit shape, which keeps journal lines ~8× smaller than digit lists
and round-trips the matrix (and its observation mask) bit-exactly.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Union

import numpy as np

from repro.durable import DurableJsonlWriter, read_jsonl, rewrite_jsonl, warn_damaged
from repro.exceptions import CheckpointError
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "BATCH_FORMAT",
    "QUARANTINE_FORMAT",
    "IngestJournal",
    "IngestRecord",
    "QuarantineStore",
    "decode_statuses",
    "encode_statuses",
]

PathLike = Union[str, Path]

BATCH_FORMAT = "repro.ingest_batch"
QUARANTINE_FORMAT = "repro.ingest_quarantine"


# ----------------------------------------------------------------------
# status payload codec
# ----------------------------------------------------------------------

def _encode_bits(array: np.ndarray) -> str:
    return base64.b64encode(np.packbits(array, axis=None).tobytes()).decode("ascii")


def _decode_bits(payload: str, shape: tuple[int, int], dtype) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(payload.encode("ascii")), dtype=np.uint8)
    count = int(shape[0]) * int(shape[1])
    bits = np.unpackbits(raw, count=count)
    return bits.reshape(shape).astype(dtype)


def encode_statuses(statuses: StatusMatrix) -> dict:
    """JSON-safe payload for one status matrix (values + optional mask)."""
    payload = {
        "shape": [statuses.beta, statuses.n_nodes],
        "bits": _encode_bits(statuses.values),
    }
    if statuses.mask is not None:
        payload["mask_bits"] = _encode_bits(statuses.mask)
    return payload


def decode_statuses(payload: Mapping) -> StatusMatrix:
    """Inverse of :func:`encode_statuses`; raises
    :class:`~repro.exceptions.CheckpointError` on malformed payloads."""
    try:
        beta, n_nodes = (int(v) for v in payload["shape"])
        values = _decode_bits(payload["bits"], (beta, n_nodes), np.uint8)
        mask = None
        if "mask_bits" in payload:
            mask = _decode_bits(payload["mask_bits"], (beta, n_nodes), np.bool_)
        return StatusMatrix(values, mask)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed status payload: {exc}") from exc


# ----------------------------------------------------------------------
# write-ahead journal
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IngestRecord:
    """One replayable journal entry: a batch and its sequence number."""

    seq: int
    statuses: StatusMatrix

    def to_json(self) -> dict:
        return {
            "format": BATCH_FORMAT,
            "seq": self.seq,
            "batch": encode_statuses(self.statuses),
        }

    @classmethod
    def from_json(cls, document: Mapping) -> "IngestRecord":
        if document.get("format") != BATCH_FORMAT:
            raise CheckpointError(
                f"not an ingest record: format={document.get('format')!r}"
            )
        try:
            seq = int(document["seq"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed ingest record: {exc}") from exc
        return cls(seq=seq, statuses=decode_statuses(document["batch"]))


class IngestJournal:
    """Durable, append-only WAL of acknowledged cascade batches.

    :meth:`append` assigns the next sequence number, writes the record
    through :class:`~repro.durable.DurableJsonlWriter` (fsync + CRC),
    and only then returns — the acknowledgement *is* the durability
    guarantee.  Usable as a context manager.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._writer = DurableJsonlWriter(path)
        self._next_seq = self._scan_next_seq()

    def _scan_next_seq(self) -> int:
        seqs = [record.seq for _, record in _iter_records(self.path, warn=False)]
        return max(seqs, default=0) + 1

    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`append` will assign."""
        return self._next_seq

    def append(self, statuses: StatusMatrix) -> IngestRecord:
        """Durably journal one batch; returns the record (with its seq)."""
        record = IngestRecord(seq=self._next_seq, statuses=statuses)
        self._writer.append(record.to_json())
        self._next_seq += 1
        return record

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "IngestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def replay(path: PathLike, *, after_seq: int = 0) -> list[IngestRecord]:
        """Load every replayable record with ``seq > after_seq``, in
        sequence order.

        Damaged lines are skipped per the module contract (torn tail
        silently, anything else with a
        :class:`~repro.exceptions.JournalCorruptionWarning`); a sequence
        number journaled twice keeps its first occurrence and warns.
        """
        records: dict[int, IngestRecord] = {}
        for number, record in _iter_records(Path(path), warn=True):
            if record.seq in records:
                warn_damaged(
                    path,
                    number,
                    f"duplicate ingest record for seq {record.seq} skipped "
                    "(crash between fsync and acknowledgement)",
                )
                continue
            records[record.seq] = record
        return [records[seq] for seq in sorted(records) if seq > after_seq]


def _iter_records(path: Path, *, warn: bool) -> Iterator[tuple[int, IngestRecord]]:
    """``(line number, record)`` of every replayable journal line."""
    for number, document in read_jsonl(path, "ingest", warn=warn):
        try:
            yield number, IngestRecord.from_json(document)
        except CheckpointError as exc:
            if warn:
                warn_damaged(path, number, f"corrupt ingest record skipped ({exc})")


# ----------------------------------------------------------------------
# quarantine store
# ----------------------------------------------------------------------

class QuarantineStore:
    """Durable record of batches the service gave up on.

    Two kinds of entry share the file: batches whose absorb failed
    permanently (``reason="absorb-failed"``, carrying the exception and
    the ``audit="strict"``-style data-quality findings that usually
    explain it) and batches dropped by the ``shed`` backpressure policy
    (``reason="shed"``).  Replay skips every quarantined sequence, so a
    poisoned batch cannot wedge recovery in a crash loop — the journal
    keeps the bytes for forensics, the quarantine store keeps the
    verdict.

    On a poisoned or overloaded feed the file would otherwise grow one
    line per rejected batch forever; :meth:`compact` bounds it to the
    newest ``max_entries`` verdicts with one
    :func:`~repro.durable.atomic_write`, like the model snapshots.  Eviction is
    only safe for sequences recovery can no longer replay — pass the
    oldest retained snapshot's watermark as ``protect_after_seq`` so a
    verdict is never dropped while some snapshot still needs it to skip
    the batch.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._writer = DurableJsonlWriter(path)
        self._entries: dict[int, dict] = self.load(self.path)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> dict[int, dict]:
        """Live ``{seq: entry}`` view (loaded verdicts + this process's)."""
        return dict(self._entries)

    def add(
        self,
        seq: int,
        *,
        reason: str,
        error: str | None = None,
        findings: list[str] | None = None,
    ) -> None:
        entry = {
            "format": QUARANTINE_FORMAT,
            "seq": int(seq),
            "reason": reason,
            "error": error,
            "findings": findings or [],
        }
        self._writer.append(entry)
        self._entries[int(seq)] = entry

    def compact(
        self, max_entries: int, *, protect_after_seq: int | None = None
    ) -> list[int]:
        """Evict the oldest verdicts beyond ``max_entries``; returns the
        evicted sequence numbers (possibly empty).

        Entries with ``seq > protect_after_seq`` are never evicted even
        over the cap: recovery replays the journal from the oldest
        retained snapshot, and dropping a verdict it still consults
        would resurrect the very batch the service gave up on.  The
        rewrite is one :func:`~repro.durable.rewrite_jsonl` (two fsyncs):
        a crash at any point leaves either the full old file or the full
        new file, and a failed rewrite leaves the store unchanged.
        """
        if max_entries < 1:
            raise CheckpointError(
                f"quarantine max_entries must be >= 1, got {max_entries}"
            )
        if len(self._entries) <= max_entries:
            return []
        evictable = sorted(
            seq
            for seq in self._entries
            if protect_after_seq is None or seq <= protect_after_seq
        )
        excess = len(self._entries) - max_entries
        evicted = evictable[:excess]
        if not evicted:
            return []
        gone = set(evicted)
        retained = {
            seq: entry
            for seq, entry in sorted(self._entries.items())
            if seq not in gone
        }
        rewrite_jsonl(self.path, retained.values())
        # The next add reopens the new file, not the replaced inode.
        self._writer.close()
        self._entries = retained
        return evicted

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "QuarantineStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def load(path: PathLike) -> dict[int, dict]:
        """``{seq: entry}`` of every quarantined sequence (damaged lines
        skipped per the journal contract; last verdict wins)."""
        entries: dict[int, dict] = {}
        for _, document in read_jsonl(path, "quarantine"):
            if document.get("format") != QUARANTINE_FORMAT:
                continue
            try:
                entries[int(document["seq"])] = dict(document)
            except (KeyError, TypeError, ValueError):
                continue
        return entries
