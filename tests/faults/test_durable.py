"""One fault battery for every persisted artifact (``repro.durable``).

Each artifact is driven through its production writer and loader, so
the table below is the durability contract of docs/ROBUSTNESS.md:

* the four CRC-checked JSONL logs (ingest WAL, quarantine store, sweep
  checkpoint, perf trend ledger) under a torn tail, a mid-file bit
  flip, a duplicate or rewritten record, and an append after a torn
  tail;
* the atomically replaced files (model snapshot, tile + sidecar, spill
  metadata, quarantine compaction) with ``os.replace`` raising between
  the temp write and the replace, and a spilled tile lost that way,
  which the next fit recounts;
* the fsyncs each operation pays, counted through ``os.fsync``: none
  for a tile, which is a cache artifact.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.stats import SufficientStats
from repro.core.tends import Tends, TendsModel
from repro.core.tiles import TiledSufficientStats, read_tile, validate_tile, write_tile
from repro.durable import DurableJsonlWriter
from repro.evaluation.checkpoint import CheckpointJournal, load_checkpoint
from repro.evaluation.harness import MethodResult
from repro.evaluation.metrics import EdgeMetrics
from repro.exceptions import JournalCorruptionWarning
from repro.graphs.generators.random_graphs import erdos_renyi_digraph
from repro.obs.metrics import MetricsRegistry
from repro.obs.trend import append_trend, load_trend
from repro.serve.journal import IngestJournal, IngestRecord, QuarantineStore
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.statuses import StatusMatrix

KEYS = [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# JSONL artifacts: write records keyed 1..5, read back {key: payload}
# ----------------------------------------------------------------------

def _batch(seed: int) -> StatusMatrix:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(6, 7), dtype=np.uint8)
    values[:, 0] = 1
    return StatusMatrix(values)


class Wal:
    """Ingest WAL: key = seq, payload = the batch's first status row."""

    name = "ingest.jsonl"

    def write(self, path, keys):
        with IngestJournal(path) as journal:
            for key in keys:
                journal.append(_batch(key))

    def rewrite(self, path, key):
        record = IngestRecord(seq=key, statuses=_batch(100 + key))
        with DurableJsonlWriter(path) as writer:
            writer.append(record.to_json())

    def append(self, path, key):
        with IngestJournal(path) as journal:
            return journal.append(_batch(key)).seq

    def load(self, path):
        return {
            record.seq: record.statuses.values[0].tolist()
            for record in IngestJournal.replay(path)
        }

    def payload(self, key):
        return _batch(key).values[0].tolist()


class Quarantine:
    """Quarantine store: key = seq, payload = the verdict's reason."""

    name = "quarantine.jsonl"

    def write(self, path, keys):
        with QuarantineStore(path) as store:
            for key in keys:
                store.add(key, reason=f"shed-{key}")

    def rewrite(self, path, key):
        with QuarantineStore(path) as store:
            store.add(key, reason=f"shed-{100 + key}")

    def append(self, path, key):
        with QuarantineStore(path) as store:
            store.add(key, reason=f"shed-{key}")
        return key

    def load(self, path):
        entries = QuarantineStore.load(path)
        return {seq: entry["reason"] for seq, entry in entries.items()}

    def payload(self, key):
        return f"shed-{key}"


def _result(replicate: int, runtime: float) -> MethodResult:
    return MethodResult(
        experiment_id="battery",
        point_label="p",
        point_value=1.0,
        method="TENDS",
        replicate=replicate,
        metrics=EdgeMetrics(replicate, 1, 2),
        runtime_seconds=runtime,
    )


class Checkpoint:
    """Sweep checkpoint: key = replicate, payload = its runtime."""

    name = "sweep.checkpoint.jsonl"

    def write(self, path, keys):
        with CheckpointJournal(path) as journal:
            for key in keys:
                journal.record(_result(key, float(key)))

    def rewrite(self, path, key):
        with CheckpointJournal(path) as journal:
            journal.record(_result(key, 100.0 + key))

    def append(self, path, key):
        self.write(path, [key])
        return key

    def load(self, path):
        return {
            key[1]: result.runtime_seconds
            for key, result in load_checkpoint(path, experiment_id="battery").items()
        }

    def payload(self, key):
        return float(key)


def _manifest(seconds: float) -> dict:
    return {
        "format": "repro.run_manifest",
        "version": 1,
        "kind": "tends.fit",
        "created_unix": 100.0,
        "config": {},
        "seeds": {},
        "environment": {},
        "git": {"revision": "abc1234"},
        "stages": {"imi": seconds},
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "result": {},
        "total_seconds": seconds,
    }


class Trend:
    """Perf trend ledger: key = label, payload = the recorded stage time."""

    name = "trend.jsonl"

    def write(self, path, keys):
        for key in keys:
            append_trend(path, _manifest(float(key)), label=str(key))

    def append(self, path, key):
        self.write(path, [key])
        return key

    def load(self, path):
        return {
            int(entry["label"]): entry["timings"]["stage:imi"]
            for entry in load_trend(path)
        }

    def payload(self, key):
        return float(key)


ARTIFACTS = {
    "wal": Wal(),
    "quarantine": Quarantine(),
    "checkpoint": Checkpoint(),
    "trend": Trend(),
}


def _lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def tear_tail(path: Path) -> None:
    """A crash mid-append: the last line is cut in half, newline and all."""
    lines = _lines(path)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])


def flip_line_2(path: Path) -> None:
    """At-rest damage to line 2 that keeps it valid JSON: only the CRC
    can tell."""
    lines = _lines(path)
    flipped = lines[1].replace(b'"format":"repro.', b'"format":"REPRO.', 1)
    assert flipped != lines[1] and json.loads(flipped)
    lines[1] = flipped
    path.write_bytes(b"".join(lines))


def replay_line_2(path: Path) -> None:
    """A crash between fsync and acknowledgement: line 2 lands twice."""
    lines = _lines(path)
    path.write_bytes(b"".join(lines) + lines[1])


#: (artifact, fault) -> (surviving keys, key 2's winner, warning regex).
#: The winner is "first" (the original record) or "last" (the rewrite).
BATTERY = {
    ("wal", "torn-tail"): ([1, 2, 3, 4], "first", None),
    ("quarantine", "torn-tail"): ([1, 2, 3, 4], "first", None),
    ("checkpoint", "torn-tail"): ([1, 2, 3, 4], "first", None),
    ("trend", "torn-tail"): ([1, 2, 3, 4], "first", None),
    ("wal", "bit-flip"): ([1, 3, 4, 5], None, r"line 2: corrupt ingest record .*CRC"),
    ("quarantine", "bit-flip"): ([1, 3, 4, 5], None, r"line 2: corrupt quarantine .*CRC"),
    ("checkpoint", "bit-flip"): ([1, 3, 4, 5], None, r"line 2: corrupt checkpoint .*CRC"),
    ("trend", "bit-flip"): ([1, 3, 4, 5], None, r"line 2: corrupt trend record .*CRC"),
    ("wal", "replayed-line"): (KEYS, "first", r"line 6: duplicate ingest record"),
    ("quarantine", "replayed-line"): (KEYS, "first", None),
    ("checkpoint", "replayed-line"): (KEYS, "first", r"line 6: duplicate record for cell"),
    ("wal", "rewritten-record"): (KEYS, "first", r"line 6: duplicate ingest record"),
    ("quarantine", "rewritten-record"): (KEYS, "last", None),
    ("checkpoint", "rewritten-record"): (KEYS, "last", None),
}


@pytest.mark.parametrize("artifact, fault", sorted(BATTERY))
def test_jsonl_fault_battery(tmp_path, artifact, fault):
    log = ARTIFACTS[artifact]
    path = tmp_path / log.name
    log.write(path, KEYS)
    if fault == "torn-tail":
        tear_tail(path)
    elif fault == "bit-flip":
        flip_line_2(path)
    elif fault == "replayed-line":
        replay_line_2(path)
    else:
        log.rewrite(path, 2)
    survivors, winner, warning = BATTERY[(artifact, fault)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = log.load(path)
    messages = [str(w.message) for w in caught]
    assert all(issubclass(w.category, JournalCorruptionWarning) for w in caught)
    if warning is None:
        assert messages == []
    else:
        assert len(messages) == 1, messages
        assert re.search(warning, messages[0]), messages
    assert sorted(loaded) == survivors
    for key in survivors:
        if key != 2:
            assert loaded[key] == log.payload(key)
    if winner == "first":
        assert loaded[2] == log.payload(2)
    elif winner == "last":
        assert loaded[2] != log.payload(2)


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_append_after_torn_tail_keeps_the_new_record(tmp_path, artifact):
    """A writer reopened after a crash mid-append cuts the torn fragment
    first, so the next record lands on a line of its own instead of
    merging into the unreadable tail (and vanishing with it)."""
    log = ARTIFACTS[artifact]
    path = tmp_path / log.name
    log.write(path, KEYS)
    tear_tail(path)
    key = log.append(path, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = log.load(path)
    assert sorted(loaded) == KEYS and key == 5
    assert loaded[5] == log.payload(5)
    assert path.read_bytes().endswith(b"\n")


def test_intact_record_missing_only_its_newline_is_kept(tmp_path):
    log = ARTIFACTS["checkpoint"]
    path = tmp_path / log.name
    log.write(path, [1, 2])
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    log.append(path, 3)
    assert sorted(log.load(path)) == [1, 2, 3]


class TestLinePolicies:
    """The per-artifact differences the one policy keeps on purpose."""

    def test_trend_rejects_a_line_without_crc(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        Trend().write(path, [1, 2, 3])
        lines = _lines(path)
        document = json.loads(lines[1])
        del document["crc"]
        lines[1] = (json.dumps(document) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with pytest.warns(JournalCorruptionWarning, match="line 2: .*CRC mismatch"):
            assert sorted(Trend().load(path)) == [1, 3]

    def test_checkpoint_accepts_lines_from_before_the_crc(self, tmp_path):
        path = tmp_path / "sweep.checkpoint.jsonl"
        Checkpoint().write(path, [1, 2])
        lines = _lines(path)
        document = json.loads(lines[0])
        del document["crc"]
        lines[0] = (json.dumps(document) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Checkpoint().load(path) == {1: 1.0, 2: 2.0}

    def test_trend_torn_tail_is_silent_but_a_foreign_line_warns(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        Trend().write(path, [1, 2])
        with DurableJsonlWriter(path) as writer:
            writer.append({"format": "other.thing"})
        Trend().write(path, [3])
        tear_tail(path)
        with pytest.warns(JournalCorruptionWarning, match="line 3: not a repro"):
            assert sorted(Trend().load(path)) == [1, 2]


# ----------------------------------------------------------------------
# atomically replaced files: os.replace raises between write and rename
# ----------------------------------------------------------------------

class CrashBeforeReplace(RuntimeError):
    """Stand-in for the process dying after the temp file is written."""


@pytest.fixture(scope="module")
def models():
    truth = erdos_renyi_digraph(10, 0.2, seed=4)
    statuses = DiffusionSimulator(truth, seed=4).run(beta=80).statuses
    estimator = Tends()
    estimator.fit(statuses.subset(range(50)))
    first = estimator.model
    estimator.partial_fit(statuses.subset(range(50, statuses.beta)))
    return first, estimator.model


def _spill_statuses() -> StatusMatrix:
    truth = erdos_renyi_digraph(12, 0.2, seed=7)
    return DiffusionSimulator(truth, seed=7).run(beta=40).statuses


def _snapshot(tmp_path, models):
    old, new = models
    path = tmp_path / "model.npz"
    old.save(path)
    return (
        lambda: new.save(path),
        lambda: TendsModel.load(path).fingerprint() == old.fingerprint(),
    )


def _tile(tmp_path, models):
    block, shape = (0, 1), (1, 3, 4)
    old = np.arange(12, dtype=np.int64).reshape(shape)
    write_tile(tmp_path, block, old)
    return (
        lambda: write_tile(tmp_path, block, old + 1),
        lambda: validate_tile(tmp_path, block, shape)
        and np.array_equal(read_tile(tmp_path, block, shape), old),
    )


def _spill(tmp_path, models):
    statuses = _spill_statuses()
    dense = SufficientStats.from_statuses(statuses).checksum()

    def count():
        return TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path / "spill"
        )

    return count, lambda: count().checksum() == dense


def _lost_tile(tmp_path, models):
    """A tile whose rename never happened — no fsync protects a tile, so
    this is also what a power cut may leave: the next fit recounts it."""
    statuses = _spill_statuses()
    dense = SufficientStats.from_statuses(statuses).checksum()
    stats = TiledSufficientStats.from_statuses(
        statuses, tile_size=5, spill_dir=tmp_path / "spill"
    )
    block = (0, 1)
    stack = np.array(stats.store.load(block))
    stats.store.drop_cache()
    for path in stats.store.directory.glob("tile-00000-00001.npy*"):
        path.unlink()

    def recounted():
        metrics = MetricsRegistry()
        resumed = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path / "spill", metrics=metrics
        )
        computed = metrics.snapshot()["counters"]["tiles_computed_total"]
        return computed == 1 and resumed.checksum() == dense

    return lambda: write_tile(stats.store.directory, block, stack), recounted


def _compaction(tmp_path, models):
    path = tmp_path / "quarantine.jsonl"
    store = QuarantineStore(path)
    for seq in range(1, 11):
        store.add(seq, reason="shed")
    return (
        lambda: store.compact(5),
        lambda: len(store) == 10 and len(QuarantineStore(path)) == 10,
    )


REPLACED = {
    "snapshot": _snapshot,
    "tile+sidecar": _tile,
    "tile-lost-before-rename": _lost_tile,
    "spill-meta": _spill,
    "quarantine-compaction": _compaction,
}


@pytest.mark.parametrize("artifact", sorted(REPLACED))
def test_replace_crash_keeps_the_old_file_and_leaves_nothing_behind(
    tmp_path, monkeypatch, models, artifact
):
    write, recovered = REPLACED[artifact](tmp_path, models)
    before = {
        path.relative_to(tmp_path): path.read_bytes()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }

    def exploding_replace(src, dst):
        raise CrashBeforeReplace(f"killed before renaming {dst}")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", exploding_replace)
        with pytest.raises(CrashBeforeReplace):
            write()
    after = {
        path.relative_to(tmp_path): path.read_bytes()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert after == before  # old bytes intact, no temp file left
    assert recovered()


# ----------------------------------------------------------------------
# fsyncs per operation
# ----------------------------------------------------------------------

def _wal_append(tmp_path, models):
    journal = IngestJournal(tmp_path / "ingest.jsonl")
    journal.append(_batch(0))
    return lambda: journal.append(_batch(1))


def _snapshot_save(tmp_path, models):
    return lambda: models[0].save(tmp_path / "model.npz")


def _tile_write(tmp_path, models):
    stack = np.zeros((1, 3, 3), dtype=np.int64)
    return lambda: write_tile(tmp_path, (0, 0), stack)


def _spill_fit(tmp_path, models):
    statuses = _spill_statuses()
    return lambda: TiledSufficientStats.from_statuses(
        statuses, tile_size=5, spill_dir=tmp_path / "spill"
    )


def _trend_append(tmp_path, models):
    return lambda: append_trend(tmp_path / "trend.jsonl", _manifest(1.0))


def _compact(tmp_path, models):
    store = QuarantineStore(tmp_path / "quarantine.jsonl")
    for seq in range(1, 21):
        store.add(seq, reason="shed")
    return lambda: store.compact(5)


def _checkpoint_record(tmp_path, models):
    journal = CheckpointJournal(tmp_path / "sweep.checkpoint.jsonl")
    return lambda: journal.record(_result(1, 1.0))


FSYNCS = {
    "wal-append": (_wal_append, 1),
    "snapshot": (_snapshot_save, 2),
    "tile": (_tile_write, 0),
    # Six tiles, and only the spill meta is synced.
    "spill-fit": (_spill_fit, 2),
    "trend-append": (_trend_append, 1),
    "quarantine-compaction": (_compact, 2),
    "checkpoint-record": (_checkpoint_record, 1),
}


@pytest.mark.parametrize("operation", sorted(FSYNCS))
def test_fsyncs_per_operation(tmp_path, monkeypatch, models, operation):
    build, expected = FSYNCS[operation]
    run = build(tmp_path, models)
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    run()
    assert len(calls) == expected
