"""Golden regression: a frozen status matrix must reproduce its frozen graph.

The fixture under ``tests/data/`` (see its README) pins the exact output
of ``Tends().fit`` on one committed input.  Any refactor of the IMI,
thresholding, candidate pruning, or search stages that silently changes
the inferred topology — including tie-breaking drift across numpy
versions — fails here first.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.tends import Tends
from repro.graphs import io as graph_io
from repro.simulation import io as sim_io

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def golden_result():
    statuses = sim_io.read_statuses_csv(DATA_DIR / "golden_statuses.csv")
    return statuses, Tends().fit(statuses)


def test_fixture_files_exist():
    for name in ("golden_statuses.csv", "golden_edges.txt", "golden_threshold.txt"):
        assert (DATA_DIR / name).is_file(), f"missing fixture {name}"


def test_reproduces_frozen_edge_list(golden_result):
    _, result = golden_result
    frozen = graph_io.read_edge_list(DATA_DIR / "golden_edges.txt")
    assert result.graph.n_nodes == frozen.n_nodes
    assert result.graph.edge_set() == frozen.edge_set()


def test_reproduces_frozen_threshold(golden_result):
    _, result = golden_result
    frozen = float((DATA_DIR / "golden_threshold.txt").read_text().strip())
    # repr round-trip is exact; approx only cushions cross-platform libm
    # differences in the last ulp of the MI logs.
    assert result.threshold == pytest.approx(frozen, rel=1e-12, abs=0.0)


def test_parent_sets_match_frozen_edges(golden_result):
    _, result = golden_result
    frozen = graph_io.read_edge_list(DATA_DIR / "golden_edges.txt")
    rebuilt = {
        (parent, child)
        for child, parents in enumerate(result.parent_sets)
        for parent in parents
    }
    assert rebuilt == frozen.edge_set()


@pytest.mark.parametrize("executor,n_jobs", [("process", 2)])
def test_parallel_backends_reproduce_golden(golden_result, executor, n_jobs):
    statuses, reference = golden_result
    result = Tends(executor=executor, n_jobs=n_jobs).fit(statuses)
    assert result.graph.edge_set() == reference.graph.edge_set()
    assert result.parent_sets == reference.parent_sets
    assert result.threshold == reference.threshold


@pytest.mark.parametrize(
    "executor,n_jobs", [("serial", 1), ("process", 2)]
)
def test_traced_fit_reproduces_golden(golden_result, executor, n_jobs):
    # Tracing must be a pure observer: spans and counters ride along,
    # the inferred topology stays bit-identical to the frozen fixture.
    statuses, reference = golden_result
    result = Tends(executor=executor, n_jobs=n_jobs, trace=True).fit(statuses)
    assert result.graph.edge_set() == reference.graph.edge_set()
    assert result.parent_sets == reference.parent_sets
    assert result.threshold == reference.threshold
    assert result.telemetry is not None
    assert "tends.fit" in result.telemetry.span_names()


# ----------------------------------------------------------------------
# incremental golden fixture: a frozen batch schedule must reproduce the
# frozen final topology AND the frozen cached-count checksums after every
# partial_fit (guards the sufficient-statistics arithmetic, not just the
# final answer).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_incremental():
    statuses = sim_io.read_statuses_csv(
        DATA_DIR / "golden_incremental_statuses.csv"
    )
    spec = json.loads((DATA_DIR / "golden_incremental.json").read_text())
    return statuses, spec


def _replay_updates(statuses, spec, **overrides):
    bounds = [0, spec["initial_beta"]]
    for width in spec["batch_betas"]:
        bounds.append(bounds[-1] + width)
    assert bounds[-1] == statuses.beta
    estimator = Tends(**overrides)
    result = estimator.fit(statuses.subset(range(0, bounds[1])))
    checksums = [estimator.model.stats.checksum()]
    for start, stop in zip(bounds[1:], bounds[2:]):
        result = estimator.partial_fit(statuses.subset(range(start, stop)))
        checksums.append(estimator.model.stats.checksum())
    return result, checksums


def test_incremental_fixture_files_exist():
    for name in ("golden_incremental_statuses.csv", "golden_incremental.json"):
        assert (DATA_DIR / name).is_file(), f"missing fixture {name}"


def test_incremental_updates_reproduce_frozen_state(golden_incremental):
    statuses, spec = golden_incremental
    result, checksums = _replay_updates(statuses, spec)
    assert checksums == spec["stats_checksums"]
    frozen_edges = {(p, c) for p, c in spec["edges"]}
    assert result.graph.edge_set() == frozen_edges
    assert result.threshold == pytest.approx(
        spec["threshold"], rel=1e-12, abs=0.0
    )


def test_incremental_replay_matches_one_shot_fit(golden_incremental):
    statuses, spec = golden_incremental
    result, _ = _replay_updates(statuses, spec)
    full = Tends().fit(statuses)
    assert result.parent_sets == full.parent_sets
    assert result.threshold == full.threshold
    assert result.graph.edge_set() == full.graph.edge_set()


@pytest.mark.parametrize("executor,n_jobs", [("process", 2)])
def test_incremental_parallel_backends_reproduce_golden(
    golden_incremental, executor, n_jobs
):
    statuses, spec = golden_incremental
    result, checksums = _replay_updates(
        statuses, spec, executor=executor, n_jobs=n_jobs
    )
    assert checksums == spec["stats_checksums"]
    assert result.graph.edge_set() == {(p, c) for p, c in spec["edges"]}
