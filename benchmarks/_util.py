"""Shared machinery for the figure-regeneration benches.

Every ``bench_figNN_*.py`` calls :func:`run_figure_bench`, which

* builds the figure's :class:`~repro.evaluation.harness.ExperimentSpec`
  at the scale selected by ``REPRO_BENCH_SCALE`` (``full`` = paper
  parameters, default; ``quick`` = reduced β for smoke runs),
* executes it once under ``benchmark.pedantic`` (the figure *is* the
  workload; repeating a multi-minute sweep would measure nothing new),
* prints the regenerated rows and archives them under
  ``benchmarks/results/`` so the paper-vs-measured comparison in
  EXPERIMENTS.md can be refreshed from the artefacts.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.evaluation.archive import save_result
from repro.evaluation.figures import figure_spec
from repro.evaluation.harness import ExperimentResult, ExperimentSpec, run_experiment
from repro.evaluation.reporting import format_result_table, format_rows, format_series
from repro.evaluation.shapes import check_figure_shapes
from repro.obs.manifest import manifest_for_experiment, write_manifest
from repro.obs.trend import append_trend

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def bench_scale() -> str:
    """Scale selected via ``REPRO_BENCH_SCALE`` (default ``full``)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "full").lower()
    if scale not in ("full", "quick"):
        raise ValueError(f"REPRO_BENCH_SCALE must be 'full' or 'quick', got {scale!r}")
    return scale


def bench_seed() -> int:
    """Seed selected via ``REPRO_BENCH_SEED`` (default 0)."""
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


def archive_result(name: str, text: str) -> Path:
    """Write a bench's table to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def report(name: str, result: ExperimentResult) -> str:
    """Format, print, and archive one experiment's rows plus the verdicts
    of the paper's shape claims (PASS/FAIL, failures included honestly)."""
    text = format_result_table(result) + "\n\n" + format_series(result)
    outcomes = check_figure_shapes(result)
    if outcomes:
        text += "\n\npaper-shape claims:\n" + format_rows(
            [outcome.as_row() for outcome in outcomes]
        )
    print(f"\n{text}")
    archive_result(name, text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    save_result(result, RESULTS_DIR / f"{name}.json")
    # A run manifest rides along with every archive so `repro perf-check`
    # can diff this bench run against any previous one.
    manifest = manifest_for_experiment(
        result,
        seeds={"seed": bench_seed()},
        extra={"scale": bench_scale(), "bench": name},
    )
    write_manifest(manifest, RESULTS_DIR / f"{name}.manifest.json")
    # ... and one line in the shared trend ledger, so repeated bench runs
    # accumulate the history `repro perf-check --trend` checks against.
    append_trend(RESULTS_DIR / "trend.jsonl", manifest, label=name)
    return text


def run_figure_bench(figure_id: str, benchmark) -> ExperimentResult:
    """Run one paper figure under the benchmark fixture and archive it."""
    spec = figure_spec(figure_id, scale=bench_scale())
    result = benchmark.pedantic(
        run_experiment,
        kwargs={"spec": spec, "seed": bench_seed()},
        rounds=1,
        iterations=1,
    )
    report(figure_id, result)
    return result


def run_spec_bench(name: str, spec: ExperimentSpec, benchmark) -> ExperimentResult:
    """Run a custom (ablation) spec under the benchmark fixture."""
    result = benchmark.pedantic(
        run_experiment,
        kwargs={"spec": spec, "seed": bench_seed()},
        rounds=1,
        iterations=1,
    )
    report(name, result)
    return result
