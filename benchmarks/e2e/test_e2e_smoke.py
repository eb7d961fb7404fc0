"""Smoke tests of the end-to-end benchmark (not part of the tier-1 suite).

Run with ``python -m pytest benchmarks/e2e -q``.  Every workload runs
with ``--smoke`` (a few seconds each), untraced and traced.  The tests
check that every metric named in ``BENCHMARK.json`` is printed with its
unit, that the trace file parses, that the traced fits leave at most
5% of their wall time unattributed, that ``compare.py`` gives the
documented verdicts, that the host-speed correction and its probe
process work, and that a checkout without the library refuses to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import hostspeed  # noqa: E402


def run_smoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics(stdout: str, expected: list[dict]) -> dict:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    printed = {line.split()[0]: line.split() for line in lines[:-1]}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        name, value, unit = printed[metric["name"]]
        assert float(value) == entry["value"] and unit == metric["unit"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_smoke(workload, 0)
    assert proc.returncode == 0, proc.stderr
    check_metrics(proc.stdout, BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_its_trace_and_accounts_for_fit_time(workload):
    proc = run_smoke(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = check_metrics(proc.stdout, BENCHMARK["per_layer"])
    trace_line = next(
        line for line in proc.stdout.splitlines() if line.startswith("trace ")
    )
    payload = json.loads((ROOT / trace_line.split()[1]).read_text())
    assert payload["fields"][:4] == ["id", "parent", "trace", "name"]
    names = {span[3] for span in payload["spans"]}
    assert names & {"tends.fit", "tends.partial_fit"}
    assert result["metrics"]["tends.unattributed_frac"]["value"] <= 0.05
    tiled = workload.startswith("tiled")
    assert (result["metrics"]["tiles.count_s"]["value"] > 0) == tiled


def test_checkout_without_the_library_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run_smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_correction_divides_by_the_mean_sample_in_the_interval():
    # One sample per second; seconds 5-14 run at half speed.
    durations = [
        hostspeed.REFERENCE_SAMPLE_S * (2.0 if 5 <= second < 15 else 1.0)
        for second in range(20)
    ]
    samples = hostspeed.SpeedSamples([float(s) for s in range(20)], durations)
    assert samples.corrected(0.0, 4.0) == pytest.approx(4.0)
    assert samples.corrected(5.0, 14.5) == pytest.approx(9.5 / 2.0)
    # Too few samples inside: the ones nearest the middle stand in.
    assert samples.slowdown(10.2, 10.4) == pytest.approx(2.0)
    assert samples.slowdown(19.5, 30.0) == pytest.approx(1.0)


def test_speed_probe_samples_until_stopped_and_exits():
    with hostspeed.SpeedProbe() as probe:
        time.sleep(0.3)
        samples = probe.stop()
        assert probe.stop() is samples
    assert len(samples.durations) >= hostspeed.MIN_SAMPLES
    assert all(duration > 0 for duration in samples.durations)
    assert samples.starts == sorted(samples.starts)


def _write_runs(directory: Path, values: list[float], fingerprint: str = "f") -> None:
    directory.mkdir()
    for seed, value in enumerate(values):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"fit_s": {"value": value, "unit": "s"}}}
        (directory / f"run-{seed}.txt").write_text(
            f"# run workload=w seed={seed} trace=0 seconds=1 smoke=0\n"
            f"fingerprint {fingerprint}\n{json.dumps(result)}\n"
        )


@pytest.mark.parametrize(
    ("changed", "expected"),
    [
        ([1.0 + 0.001 * i for i in range(10)], "within"),
        ([0.8 + 0.001 * i for i in range(10)], "better"),
        ([1.4 + 0.001 * i for i in range(10)], "worse"),
        ([0.5, 1.5] * 5, "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, changed, expected):
    _write_runs(tmp_path / "a", [1.0 + 0.001 * i for i in range(10)])
    _write_runs(tmp_path / "b", changed)
    rows, problems = compare.compare(
        compare.read_runs(tmp_path / "a"), compare.read_runs(tmp_path / "b"), BENCHMARK
    )
    assert not problems
    assert [row[-1] for row in rows if row[1] == "fit_s"] == [expected]
