"""Perf trend ledger: append/load, CRC guard, rolling baseline, checks."""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import DataError, JournalCorruptionWarning
from repro.obs.trend import (
    TREND_FORMAT,
    append_trend,
    build_entry,
    check_trend,
    load_trend,
    memory_profile,
    rolling_baseline,
    trend_series,
)

MB = 1 << 20


def _manifest(stages, memory=None):
    document = {
        "format": "repro.run_manifest",
        "version": 1,
        "kind": "tends.fit",
        "created_unix": 100.0,
        "config": {},
        "seeds": {},
        "environment": {},
        "git": {"revision": "abc1234"},
        "stages": dict(stages),
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "result": {},
        "total_seconds": float(sum(stages.values())),
    }
    if memory is not None:
        document["memory"] = memory
    return document


def _ledger(tmp_path, runs, name="trend.jsonl"):
    """Append one entry per (stages, memory) pair; returns the path."""
    path = tmp_path / name
    for stages, memory in runs:
        append_trend(path, _manifest(stages, memory))
    return path


STEADY = ({"imi": 0.5, "search": 1.0}, {"total": {"peak_rss_bytes": 50 * MB}})


class TestEntryBuilding:
    def test_memory_profile_flattens_stage_stats(self):
        manifest = _manifest(
            {"imi": 1.0},
            {
                "imi": {
                    "alloc_bytes": 10,
                    "peak_alloc_bytes": 20,
                    "peak_rss_bytes": 30,
                },
                "odd": {"alloc_bytes": None, "peak_rss_bytes": 40},
            },
        )
        profile = memory_profile(manifest)
        assert profile["mem:imi:alloc"] == 10.0
        assert profile["mem:imi:peak_alloc"] == 20.0
        assert profile["mem:imi:peak_rss"] == 30.0
        assert "mem:odd:alloc" not in profile  # None values skipped
        assert profile["mem:odd:peak_rss"] == 40.0

    def test_build_entry_carries_provenance_and_crc(self):
        entry = build_entry(
            _manifest({"imi": 1.0}), label="bench", extra={"scale": "quick"}
        )
        assert entry["format"] == TREND_FORMAT
        assert entry["label"] == "bench"
        assert entry["kind"] == "tends.fit"
        assert entry["revision"] == "abc1234"
        assert entry["recorded_unix"] == 100.0
        assert entry["timings"]["stage:imi"] == 1.0
        assert entry["meta"] == {"scale": "quick"}
        assert isinstance(entry["crc"], int)


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        path = _ledger(tmp_path, [STEADY, STEADY])
        entries = load_trend(path)
        assert len(entries) == 2
        assert entries[0]["timings"]["total"] == 1.5
        assert entries[0]["memory"]["mem:total:peak_rss"] == float(50 * MB)

    def test_append_fsyncs_the_ledger_once(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        path = tmp_path / "trend.jsonl"
        append_trend(path, _manifest({"imi": 1.0}))
        assert synced == [path.stat().st_ino]

    def test_missing_file_is_empty_ledger(self, tmp_path):
        assert load_trend(tmp_path / "absent.jsonl") == []

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        path = _ledger(tmp_path, [STEADY, STEADY, STEADY])
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"label":null', '"label":"tampered"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(JournalCorruptionWarning, match="CRC mismatch"):
            entries = load_trend(path)
        assert len(entries) == 2

    def test_invalid_json_and_foreign_lines_skipped(self, tmp_path):
        path = _ledger(tmp_path, [STEADY])
        with path.open("a") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps({"format": "other.thing"}) + "\n")
        with pytest.warns(JournalCorruptionWarning):
            entries = load_trend(path)
        assert len(entries) == 1

    def test_verify_crc_false_keeps_tampered_lines(self, tmp_path):
        path = _ledger(tmp_path, [STEADY, STEADY])
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"label":null', '"label":"tampered"')
        path.write_text("\n".join(lines) + "\n")
        assert len(load_trend(path, verify_crc=False)) == 2


class TestRollingBaseline:
    def test_median_of_previous_window(self, tmp_path):
        runs = [
            ({"imi": 1.0}, None),
            ({"imi": 3.0}, None),
            ({"imi": 5.0}, None),
            ({"imi": 9.0}, None),  # newest: excluded from the baseline
        ]
        entries = load_trend(_ledger(tmp_path, runs))
        timings, memory = rolling_baseline(entries, window=3)
        assert timings["stage:imi"] == 3.0
        assert memory == {}

    def test_window_limits_history(self, tmp_path):
        runs = [({"imi": v}, None) for v in (100.0, 1.0, 2.0, 3.0, 9.0)]
        entries = load_trend(_ledger(tmp_path, runs))
        timings, _ = rolling_baseline(entries, window=3)
        assert timings["stage:imi"] == 2.0  # the 100.0 outlier aged out

    def test_too_short_ledger_raises(self, tmp_path):
        entries = load_trend(_ledger(tmp_path, [STEADY]))
        with pytest.raises(DataError, match="at least 2 entries"):
            rolling_baseline(entries)

    def test_invalid_window_rejected(self, tmp_path):
        entries = load_trend(_ledger(tmp_path, [STEADY, STEADY]))
        with pytest.raises(DataError, match="window"):
            rolling_baseline(entries, window=0)


class TestCheckTrend:
    def test_steady_ledger_passes(self, tmp_path):
        entries = load_trend(_ledger(tmp_path, [STEADY] * 4))
        report = check_trend(entries)
        assert report.ok

    def test_planted_timing_regression_flagged(self, tmp_path):
        runs = [STEADY] * 4 + [
            ({"imi": 1.0, "search": 2.0}, STEADY[1])  # 2x slower
        ]
        entries = load_trend(_ledger(tmp_path, runs))
        report = check_trend(entries)
        assert not report.ok
        flagged = {c.entry for c in report.regressions()}
        assert {"stage:imi", "stage:search", "total"} <= flagged

    def test_planted_memory_regression_flagged(self, tmp_path):
        grown = (STEADY[0], {"total": {"peak_rss_bytes": 120 * MB}})
        entries = load_trend(_ledger(tmp_path, [STEADY] * 4 + [grown]))
        report = check_trend(entries)
        assert not report.ok
        assert {c.entry for c in report.regressions()} == {
            "mem:total:peak_rss"
        }

    def test_memory_tolerance_is_independent(self, tmp_path):
        grown = (STEADY[0], {"total": {"peak_rss_bytes": 120 * MB}})
        entries = load_trend(_ledger(tmp_path, [STEADY] * 4 + [grown]))
        assert check_trend(entries, max_memory_growth=3.0).ok
        assert not check_trend(entries).ok

    def test_small_memory_noise_skipped(self, tmp_path):
        quiet = ({"imi": 0.5}, {"total": {"alloc_bytes": 1000}})
        noisy = ({"imi": 0.5}, {"total": {"alloc_bytes": 9000}})
        entries = load_trend(_ledger(tmp_path, [quiet] * 3 + [noisy]))
        report = check_trend(entries)
        assert report.ok
        assert any("noise floor" in s for s in report.skipped)

    def test_empty_and_short_ledgers_raise(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            check_trend([])
        entries = load_trend(_ledger(tmp_path, [STEADY]))
        with pytest.raises(DataError, match="at least 2 entries"):
            check_trend(entries)


class TestTrendSeries:
    def test_series_indexes_entries(self, tmp_path):
        runs = [({"imi": 1.0}, None), ({"imi": 2.0}, None)]
        entries = load_trend(_ledger(tmp_path, runs))
        series = trend_series(entries)
        assert series["stage:imi"] == [(0.0, 1.0), (1.0, 2.0)]
        assert series["total"] == [(0.0, 1.0), (1.0, 2.0)]

    def test_memory_section(self, tmp_path):
        entries = load_trend(_ledger(tmp_path, [STEADY, STEADY]))
        series = trend_series(entries, section="memory")
        assert series["mem:total:peak_rss"] == [
            (0.0, float(50 * MB)),
            (1.0, float(50 * MB)),
        ]

    def test_invalid_section_rejected(self):
        with pytest.raises(DataError, match="section"):
            trend_series([], section="nope")
