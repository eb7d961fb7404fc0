"""Append-only sweep checkpoints: journal cells, resume after a crash.

A paper-scale sweep is many ``(sweep point, method, trial)`` cells, each
potentially minutes of work.  The harness journals every completed cell
to a JSONL file as soon as it is measured, so a crash (or Ctrl-C)
anywhere in the sweep loses at most the cell in flight;
``run_experiment(..., resume_from=...)`` then skips every journaled cell
and recomputes only the missing ones.  Because cell seeds are derived
independently per ``(point, replicate)``, a resumed run is bit-identical
to an uninterrupted one.

Design constraints the format serves:

* **append-only** — a crash mid-write corrupts at most the final line;
  :func:`load_checkpoint` tolerates (and drops) a truncated last line.
* **integrity-checked** — every record carries a CRC32 of its canonical
  payload, so corruption *anywhere* in the file (a mid-line bit flip,
  not just a torn tail) is detected; damaged records are skipped with a
  :class:`~repro.exceptions.JournalCorruptionWarning` and the surviving
  records still resume bit-identically.
* **idempotent** — duplicate cells (e.g. a cell journaled by both a
  crashed run and its resume) are deduplicated on load, last write wins;
  byte-identical replays of the same record are flagged as duplicates.
* **self-describing** — every line carries the experiment id, so loading
  against the wrong experiment fails loudly instead of silently mixing
  sweeps.

The fsync + CRC line format and its corruption policy live in
:mod:`repro.durable`, shared with the serve ingest journal, the
quarantine store and the perf trend ledger.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping, Union

from repro.durable import DurableJsonlWriter, crc_of, read_jsonl, warn_damaged
from repro.exceptions import CheckpointError
from repro.obs.metrics import NULL_METRICS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.evaluation.harness import MethodResult
    from repro.obs.metrics import MetricsRegistry, NullMetrics

__all__ = [
    "CellKey",
    "CheckpointJournal",
    "cell_key",
    "checkpoint_path_for",
    "load_checkpoint",
    "method_result_to_json",
    "method_result_from_json",
]

PathLike = Union[str, Path]

#: Identity of one sweep cell: (point label, replicate, method name).
CellKey = tuple[str, int, str]

_FORMAT = "repro.method_result"


def cell_key(point_label: str, replicate: int, method: str) -> CellKey:
    """The journal key of one ``(sweep point, trial, method)`` cell."""
    return (str(point_label), int(replicate), str(method))


def checkpoint_path_for(directory: PathLike, experiment_id: str) -> Path:
    """Canonical checkpoint location for one experiment under ``directory``
    (used by ``repro figure --checkpoint-dir/--resume``)."""
    return Path(directory) / f"{experiment_id}.checkpoint.jsonl"


def method_result_to_json(result: "MethodResult") -> dict:
    """Serialise one measurement to a journal line payload."""
    return {
        "format": _FORMAT,
        "experiment_id": result.experiment_id,
        "point_label": result.point_label,
        "point_value": result.point_value,
        "method": result.method,
        "replicate": result.replicate,
        "tp": result.metrics.true_positives,
        "fp": result.metrics.false_positives,
        "fn": result.metrics.false_negatives,
        "runtime_seconds": result.runtime_seconds,
        "threshold": result.threshold,
        "error": result.error,
        "attempts": result.attempts,
    }


def method_result_from_json(document: Mapping) -> "MethodResult":
    """Rebuild a :class:`~repro.evaluation.harness.MethodResult` from a
    journal line; raises :class:`CheckpointError` on malformed payloads."""
    from repro.evaluation.harness import MethodResult
    from repro.evaluation.metrics import EdgeMetrics

    if document.get("format") != _FORMAT:
        raise CheckpointError(
            f"not a checkpoint record: format={document.get('format')!r}"
        )
    try:
        threshold = document["threshold"]
        return MethodResult(
            experiment_id=str(document["experiment_id"]),
            point_label=str(document["point_label"]),
            # JSON round-trips int/float faithfully; coercing to float here
            # would make a resumed archive differ from the original on
            # integer sweep axes (e.g. network size).
            point_value=document["point_value"],
            method=str(document["method"]),
            replicate=int(document["replicate"]),
            metrics=EdgeMetrics(
                int(document["tp"]), int(document["fp"]), int(document["fn"])
            ),
            runtime_seconds=float(document["runtime_seconds"]),
            threshold=None if threshold is None else float(threshold),
            error=document.get("error"),
            attempts=int(document.get("attempts", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint record: {exc}") from exc


class CheckpointJournal:
    """Append-only JSONL journal of completed sweep cells.

    Opens lazily on the first :meth:`record`, appends one CRC32-stamped
    JSON line per measurement via :class:`DurableJsonlWriter`, and
    flushes + fsyncs after every line so a crash loses at most the line
    being written.  Usable as a context manager.

    Parameters
    ----------
    path:
        Journal location; parent directories are created on first write.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; every
        successful append increments ``checkpoint_writes_total``.
        Defaults to the no-op registry.
    """

    def __init__(
        self,
        path: PathLike,
        metrics: "MetricsRegistry | NullMetrics" = NULL_METRICS,
    ) -> None:
        self.path = Path(path)
        self._writer = DurableJsonlWriter(path)
        self._metrics = metrics

    @property
    def _handle(self) -> IO[bytes] | None:
        """Back-compat view of the underlying file handle (tests assert
        on close semantics through it)."""
        return self._writer._handle

    def record(self, result: "MethodResult") -> None:
        """Append one measurement and flush it to disk."""
        try:
            self._writer.append(method_result_to_json(result))
        except CheckpointError as exc:
            raise CheckpointError(str(exc).replace("journal", "checkpoint", 1)) from exc
        self._metrics.inc("checkpoint_writes_total")

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_checkpoint(
    path: PathLike, *, experiment_id: str | None = None
) -> dict[CellKey, "MethodResult"]:
    """Load a journal into ``{cell key: MethodResult}``.

    A missing file is an empty checkpoint (first run).  Damage follows
    the :func:`repro.durable.read_jsonl` policy: a torn **final** line —
    the partial-write signature of a crash — is dropped silently, and a
    damaged record anywhere *else* (bit flip, bad CRC, malformed
    payload) is skipped with a
    :class:`~repro.exceptions.JournalCorruptionWarning`; the surviving
    records still load, so a resume recomputes the damaged cells instead
    of refusing the whole journal.  Lines written before the checksum
    existed carry no ``crc`` and still load.  Duplicate cells keep the
    last occurrence; a byte-identical replay of an already-loaded record
    is flagged as a duplicate.  When ``experiment_id`` is given, a
    record from a different experiment raises :class:`CheckpointError`
    instead of contaminating the resume.
    """
    path = Path(path)
    cells: dict[CellKey, "MethodResult"] = {}
    payloads: dict[CellKey, int] = {}
    for number, document in read_jsonl(path, "checkpoint"):
        try:
            result = method_result_from_json(document)
        except CheckpointError as exc:
            warn_damaged(path, number, f"corrupt checkpoint record skipped ({exc})")
            continue
        if experiment_id is not None and result.experiment_id != experiment_id:
            raise CheckpointError(
                f"{path}:{number}: record belongs to experiment "
                f"{result.experiment_id!r}, expected {experiment_id!r}"
            )
        key = cell_key(result.point_label, result.replicate, result.method)
        payload_crc = crc_of(document)
        if payloads.get(key) == payload_crc:
            warn_damaged(
                path,
                number,
                f"duplicate record for cell {key} skipped (byte-identical replay)",
            )
            continue
        payloads[key] = payload_crc
        cells[key] = result
    return cells
