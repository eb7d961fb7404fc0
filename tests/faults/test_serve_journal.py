"""Corruption and replay-determinism tests for the ingest WAL.

The journal inherits the checkpoint contract — torn final line silent,
anything else warned and skipped — and adds the serving guarantee on
top: whatever subset of records survives, ``IngestJournal.replay``
returns the same records in the same order every time, so recovery is
deterministic.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest

from repro.exceptions import CheckpointError, JournalCorruptionWarning
from repro.serve.journal import (
    IngestJournal,
    IngestRecord,
    QuarantineStore,
    decode_statuses,
    encode_statuses,
)
from repro.simulation.statuses import StatusMatrix


def _batch(seed: int, beta: int = 7, n_nodes: int = 9, masked: bool = False):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(beta, n_nodes), dtype=np.uint8)
    values[:, 0] = 1  # keep at least one infection per process
    mask = None
    if masked:
        mask = rng.random((beta, n_nodes)) > 0.2
        mask[:, 0] = True
    return StatusMatrix(values, mask)


class TestStatusCodec:
    @pytest.mark.parametrize("masked", [False, True])
    def test_roundtrip_is_bit_exact(self, masked):
        statuses = _batch(1, masked=masked)
        decoded = decode_statuses(encode_statuses(statuses))
        np.testing.assert_array_equal(decoded.values, statuses.values)
        if masked:
            np.testing.assert_array_equal(decoded.mask, statuses.mask)
        else:
            assert decoded.mask is None

    def test_payload_is_json_safe_and_compact(self):
        statuses = _batch(2, beta=50, n_nodes=40)
        payload = encode_statuses(statuses)
        line = json.dumps(payload)
        digits = json.dumps(statuses.values.tolist())
        assert len(line) < len(digits) / 3  # packbits + base64 vs digit list
        assert decode_statuses(json.loads(line)).values.shape == (50, 40)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"shape": [2, 2]},
            {"shape": [2], "bits": "AA=="},
            {"shape": [2, 2], "bits": 17},
        ],
    )
    def test_malformed_payload_raises_checkpoint_error(self, payload):
        with pytest.raises(CheckpointError):
            decode_statuses(payload)


class TestAppendReplay:
    def test_replay_returns_records_in_sequence_order(self, tmp_path):
        path = tmp_path / "ingest.jsonl"
        with IngestJournal(path) as journal:
            expected = [journal.append(_batch(seed)) for seed in range(5)]
        replayed = IngestJournal.replay(path)
        assert [r.seq for r in replayed] == [r.seq for r in expected] == [1, 2, 3, 4, 5]
        for got, want in zip(replayed, expected):
            np.testing.assert_array_equal(got.statuses.values, want.statuses.values)

    def test_sequence_numbers_continue_across_reopen(self, tmp_path):
        path = tmp_path / "ingest.jsonl"
        with IngestJournal(path) as journal:
            journal.append(_batch(0))
            journal.append(_batch(1))
        with IngestJournal(path) as journal:
            assert journal.next_seq == 3
            assert journal.append(_batch(2)).seq == 3

    def test_after_seq_filters_already_absorbed_records(self, tmp_path):
        path = tmp_path / "ingest.jsonl"
        with IngestJournal(path) as journal:
            for seed in range(6):
                journal.append(_batch(seed))
        assert [r.seq for r in IngestJournal.replay(path, after_seq=4)] == [5, 6]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert IngestJournal.replay(tmp_path / "never-written.jsonl") == []


class TestJournalDamage:
    def _journal(self, tmp_path, n=5):
        path = tmp_path / "ingest.jsonl"
        with IngestJournal(path) as journal:
            for seed in range(n):
                journal.append(_batch(seed))
        return path

    def test_torn_final_line_is_dropped_silently(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replayed = IngestJournal.replay(path)
        assert [r.seq for r in replayed] == [1, 2, 3, 4]

    def test_midfile_bit_flip_is_caught_by_crc_and_skipped(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip one payload byte of record 3: still valid JSON, wrong CRC.
        damaged = bytearray(lines[2])
        target = damaged.find(b'"bits"') + 10
        damaged[target] = ord("A") if damaged[target] != ord("A") else ord("B")
        lines[2] = bytes(damaged)
        path.write_bytes(b"".join(lines))
        with pytest.warns(JournalCorruptionWarning, match="line 3"):
            replayed = IngestJournal.replay(path)
        assert [r.seq for r in replayed] == [1, 2, 4, 5]

    def test_duplicated_record_keeps_first_and_warns(self, tmp_path):
        path = self._journal(tmp_path, n=3)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([lines[0], lines[1], lines[1], lines[2]]))
        with pytest.warns(JournalCorruptionWarning, match="duplicate"):
            replayed = IngestJournal.replay(path)
        assert [r.seq for r in replayed] == [1, 2, 3]
        # A reopened journal still assigns fresh sequence numbers.
        with IngestJournal(path) as journal:
            assert journal.next_seq == 4

    def test_survivors_replay_deterministically(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"not": "an ingest record"}\n'
        path.write_bytes(b"".join(lines))
        with pytest.warns(JournalCorruptionWarning):
            first = IngestJournal.replay(path)
        with pytest.warns(JournalCorruptionWarning):
            second = IngestJournal.replay(path)
        assert [r.seq for r in first] == [r.seq for r in second] == [1, 3, 4, 5]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.statuses.values, b.statuses.values)

    def test_wrong_format_line_is_skipped_with_warning(self, tmp_path):
        path = self._journal(tmp_path, n=2)
        from repro.durable import DurableJsonlWriter

        with DurableJsonlWriter(path) as writer:
            writer.append({"format": "repro.other_thing", "seq": 99})
        with pytest.warns(JournalCorruptionWarning, match="not an ingest record"):
            replayed = IngestJournal.replay(path)
        assert [r.seq for r in replayed] == [1, 2]


class TestQuarantineStore:
    def test_roundtrip_and_last_verdict_wins(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        with QuarantineStore(path) as store:
            store.add(3, reason="shed")
            store.add(7, reason="absorb-failed", error="boom",
                      findings=["all-zero (never spread) processes: 2"])
            store.add(3, reason="absorb-failed", error="later verdict")
        entries = QuarantineStore.load(path)
        assert set(entries) == {3, 7}
        assert entries[3]["reason"] == "absorb-failed"
        assert entries[7]["findings"] == ["all-zero (never spread) processes: 2"]

    def test_missing_store_is_empty(self, tmp_path):
        assert QuarantineStore.load(tmp_path / "nope.jsonl") == {}

    def test_damaged_line_is_skipped(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        with QuarantineStore(path) as store:
            store.add(1, reason="shed")
            store.add(2, reason="shed")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b"garbage that is not json\n"
        path.write_bytes(b"".join(lines))
        with pytest.warns(JournalCorruptionWarning):
            entries = QuarantineStore.load(path)
        assert set(entries) == {2}

    def test_compaction_ignores_a_stale_temp_from_a_crashed_compaction(
        self, tmp_path
    ):
        path = tmp_path / "quarantine.jsonl"
        # An earlier compaction died mid-write: its temp file holds two
        # old verdicts and a torn line.
        stale = tmp_path / "quarantine.jsonl.compact.tmp"
        with QuarantineStore(stale) as old:
            old.add(2, reason="shed")
            old.add(3, reason="shed")
        with stale.open("a") as handle:
            handle.write('{"format":"repro.ingest_quar')
        with QuarantineStore(path) as store:
            for seq in range(1, 11):
                store.add(seq, reason="shed")
            assert store.compact(5) == [1, 2, 3, 4, 5]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = QuarantineStore.load(path)
        assert set(entries) == {6, 7, 8, 9, 10}
        assert [str(w.message) for w in caught] == []

    def test_failed_compaction_leaves_no_temp_and_keeps_the_store(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "quarantine.jsonl"
        store = QuarantineStore(path)
        for seq in range(1, 11):
            store.add(seq, reason="shed")
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("disk vanished between write and rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", exploding_replace)
            with pytest.raises(OSError):
                store.compact(5)
        assert [p.name for p in tmp_path.iterdir()] == ["quarantine.jsonl"]
        assert path.read_bytes() == before
        assert len(store) == 10
        assert store.compact(5) == [1, 2, 3, 4, 5]
        store.close()
        assert set(QuarantineStore.load(path)) == {6, 7, 8, 9, 10}
