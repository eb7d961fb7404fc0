"""CLI observability: trace/metrics/manifest outputs, perf-check, -v flag."""

import json
import logging

import pytest

from repro.cli import main
from repro.obs.manifest import load_manifest
from repro.utils.logging import get_logger


@pytest.fixture
def statuses_file(tmp_path):
    truth = tmp_path / "truth.txt"
    statuses = tmp_path / "statuses.csv"
    assert main(["generate", "er", "--n", "25", "--seed", "7",
                 "-o", str(truth)]) == 0
    assert main(["simulate", str(truth), "--beta", "80", "--seed", "3",
                 "-o", str(statuses)]) == 0
    return statuses


@pytest.fixture(autouse=True)
def _reset_repro_logging():
    """The -v flag mutates the package logger; restore it per test."""
    logger = get_logger()
    level, handlers = logger.level, list(logger.handlers)
    yield
    logger.setLevel(level)
    logger.handlers[:] = handlers


class TestInferObservability:
    def test_trace_metrics_manifest_outputs(self, tmp_path, statuses_file):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        manifest = tmp_path / "run.json"
        code = main([
            "infer", str(statuses_file),
            "-o", str(tmp_path / "inferred.txt"),
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
            "--manifest-out", str(manifest),
        ])
        assert code == 0

        document = json.loads(trace.read_text())
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert {"tends.fit", "tends.imi", "tends.threshold",
                "tends.search"} <= names

        prom = metrics.read_text()
        assert "# TYPE repro_tends_imi_pairs_total counter" in prom

        loaded = load_manifest(manifest)
        assert loaded["kind"] == "tends.fit"
        assert loaded["metrics"]["counters"]["tends_imi_pairs_total"] == 300
        assert "tends_candidate_pairs_pruned_total" in (
            loaded["metrics"]["counters"]
        )
        assert "tends_score_evaluations_total" in (
            loaded["metrics"]["counters"]
        )
        assert loaded["extra"]["statuses"].endswith("statuses.csv")

    def test_jsonl_trace_suffix_switches_format(self, tmp_path, statuses_file):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "infer", str(statuses_file),
            "-o", str(tmp_path / "inferred.txt"),
            "--trace-out", str(trace),
        ]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        span = json.loads(lines[-1])
        assert span["name"] == "tends.fit"

    def test_trace_flag_alone_keeps_output_clean(
        self, tmp_path, statuses_file, capsys
    ):
        assert main([
            "infer", str(statuses_file),
            "-o", str(tmp_path / "inferred.txt"), "--trace",
        ]) == 0
        assert "tau" in capsys.readouterr().out

    def test_untraced_infer_writes_no_artifacts(
        self, tmp_path, statuses_file
    ):
        assert main([
            "infer", str(statuses_file),
            "-o", str(tmp_path / "inferred.txt"),
        ]) == 0
        assert not list(tmp_path.glob("*.json"))
        assert not list(tmp_path.glob("*.prom"))


class TestPerfCheck:
    def _manifest(self, tmp_path, statuses_file, name="run.json"):
        manifest = tmp_path / name
        assert main([
            "infer", str(statuses_file),
            "-o", str(tmp_path / "inferred.txt"),
            "--manifest-out", str(manifest),
        ]) == 0
        return manifest

    def test_self_comparison_passes(self, tmp_path, statuses_file, capsys):
        manifest = self._manifest(tmp_path, statuses_file)
        code = main([
            "perf-check", str(manifest), "--baseline", str(manifest),
        ])
        assert code == 0
        assert "perf-check: PASS" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, statuses_file, capsys):
        manifest = self._manifest(tmp_path, statuses_file)
        slow = json.loads(manifest.read_text())
        slow["stages"] = {k: v * 100 + 1 for k, v in slow["stages"].items()}
        slow["total_seconds"] = sum(slow["stages"].values())
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        code = main([
            "perf-check", str(slow_path), "--baseline", str(manifest),
        ])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_max_slowdown_flag_loosens_budget(self, tmp_path, statuses_file):
        manifest = self._manifest(tmp_path, statuses_file)
        fast = json.loads(manifest.read_text())
        fast["stages"] = {k: max(v, 0.02) for k, v in fast["stages"].items()}
        fast["total_seconds"] = sum(fast["stages"].values())
        slow = dict(fast)
        slow["stages"] = {k: v * 2 for k, v in fast["stages"].items()}
        slow["total_seconds"] = sum(slow["stages"].values())
        fast_path, slow_path = tmp_path / "fast.json", tmp_path / "slow.json"
        fast_path.write_text(json.dumps(fast))
        slow_path.write_text(json.dumps(slow))
        args = ["perf-check", str(slow_path), "--baseline", str(fast_path)]
        assert main(args) == 1
        assert main(args + ["--max-slowdown", "3.0"]) == 0

    def test_manifest_with_retired_kernel_field_still_compares(
        self, tmp_path, statuses_file, capsys
    ):
        # Manifests written while the counting-kernel knob existed carry
        # result.kernel (and config.kernel); they stay valid baselines.
        manifest = self._manifest(tmp_path, statuses_file)
        old = json.loads(manifest.read_text())
        assert "kernel" not in old["result"]
        old["result"]["kernel"] = "numpy"
        old["config"]["kernel"] = None
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old))
        for subject, baseline in ((manifest, old_path), (old_path, manifest)):
            assert main([
                "perf-check", str(subject), "--baseline", str(baseline),
            ]) == 0
        assert "perf-check: PASS" in capsys.readouterr().out

    def test_unusable_input_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "mystery"}))
        code = main([
            "perf-check", str(bogus), "--baseline", str(bogus),
        ])
        assert code == 2
        assert "cannot build a timing profile" in capsys.readouterr().err


class TestProfileCommand:
    def test_profiled_fit_emits_every_artifact(
        self, tmp_path, statuses_file, capsys
    ):
        collapsed = tmp_path / "prof.folded"
        flame = tmp_path / "prof.svg"
        manifest = tmp_path / "prof.json"
        ledger = tmp_path / "trend.jsonl"
        code = main([
            "profile", str(statuses_file),
            "--hz", "300",
            "--collapsed", str(collapsed),
            "--flamegraph", str(flame),
            "--manifest-out", str(manifest),
            "--trend-out", str(ledger),
            "-o", str(tmp_path / "inferred.txt"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "profiled fit:" in out
        assert "memory total:" in out
        assert collapsed.exists()
        svg = flame.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert (tmp_path / "inferred.txt").exists()
        loaded = load_manifest(manifest)
        assert loaded["kind"] == "tends.fit"
        assert "memory" in loaded
        assert loaded["extra"]["profile_hz"] == 300
        entry = json.loads(ledger.read_text().splitlines()[0])
        assert entry["label"] == "profile"
        assert any(k.startswith("mem:") for k in entry["memory"])


class TestTrendWorkflow:
    def _grow_ledger(self, tmp_path, statuses_file, runs=3):
        ledger = tmp_path / "trend.jsonl"
        for _ in range(runs):
            assert main([
                "infer", str(statuses_file),
                "-o", str(tmp_path / "inferred.txt"),
                "--memory", "--trend-out", str(ledger),
            ]) == 0
        return ledger

    def test_steady_ledger_passes_trend_check(
        self, tmp_path, statuses_file, capsys
    ):
        ledger = self._grow_ledger(tmp_path, statuses_file)
        assert main(["perf-check", "--trend", str(ledger)]) == 0
        assert "perf-check: PASS" in capsys.readouterr().out

    def test_planted_regression_fails_trend_check(
        self, tmp_path, statuses_file, capsys
    ):
        ledger = self._grow_ledger(tmp_path, statuses_file)
        entries = [json.loads(l) for l in ledger.read_text().splitlines()]
        from repro.durable import with_crc as _with_crc

        slow = dict(entries[-1])
        slow["timings"] = {
            k: v * 100 + 1 for k, v in slow["timings"].items()
        }
        entries.append(_with_crc({k: v for k, v in slow.items() if k != "crc"}))
        ledger.write_text(
            "\n".join(json.dumps(e) for e in entries) + "\n"
        )
        assert main(["perf-check", "--trend", str(ledger)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_short_ledger_exits_2(self, tmp_path, statuses_file, capsys):
        ledger = tmp_path / "trend.jsonl"
        assert main([
            "infer", str(statuses_file),
            "-o", str(tmp_path / "inferred.txt"),
            "--trend-out", str(ledger),
        ]) == 0
        assert main(["perf-check", "--trend", str(ledger)]) == 2
        assert "at least 2 entries" in capsys.readouterr().err

    def test_trend_and_subject_are_mutually_exclusive(
        self, tmp_path, capsys
    ):
        assert main([
            "perf-check", str(tmp_path / "x.json"),
            "--trend", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert main(["perf-check"]) == 2

    def test_figure_trend_renders_charts(
        self, tmp_path, statuses_file, capsys
    ):
        ledger = self._grow_ledger(tmp_path, statuses_file, runs=2)
        out_dir = tmp_path / "figs"
        assert main([
            "figure", "trend", "--ledger", str(ledger),
            "--out", str(out_dir),
        ]) == 0
        time_svg = (out_dir / "trend-time.svg").read_text()
        memory_svg = (out_dir / "trend-memory.svg").read_text()
        assert "<svg" in time_svg and "<svg" in memory_svg
        assert main(["figure", "trend"]) == 2


class TestVerbosity:
    def test_verbose_flag_enables_console_logging(self, tmp_path):
        truth = tmp_path / "truth.txt"
        assert main(["-v", "generate", "er", "--n", "10",
                     "-o", str(truth)]) == 0
        logger = get_logger()
        assert logger.level == logging.INFO
        assert any(
            isinstance(h, logging.StreamHandler) for h in logger.handlers
        )

    def test_double_verbose_means_debug(self, tmp_path):
        truth = tmp_path / "truth.txt"
        assert main(["-vv", "generate", "er", "--n", "10",
                     "-o", str(truth)]) == 0
        assert get_logger().level == logging.DEBUG

    def test_log_level_flag_wins(self, tmp_path):
        truth = tmp_path / "truth.txt"
        assert main(["--log-level", "warning", "-v", "generate", "er",
                     "--n", "10", "-o", str(truth)]) == 0
        assert get_logger().level == logging.WARNING
