"""Backend equivalence: parallelism must never change the inferred graph.

For every fixture topology (ER, power-law, LFR) the serial reference run
and every (executor, n_jobs) combination must agree on the parent sets,
the threshold, the edge set, and the per-node diagnostics counts — not
just approximately, but exactly.  This is the contract that makes the
parallel backends safe to enable anywhere.
"""

from __future__ import annotations

import pytest

from repro.core.tends import Tends, TendsResult
from repro.graphs.generators.lfr import LFRParams, lfr_benchmark_graph
from repro.graphs.generators.random_graphs import (
    barabasi_albert_digraph,
    erdos_renyi_digraph,
)
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.statuses import StatusMatrix

BACKENDS = ["serial", "process"]
WORKER_COUNTS = [1, 2, 4]


def _simulate(graph, seed: int, beta: int = 80) -> StatusMatrix:
    return DiffusionSimulator(graph, mu=0.3, alpha=0.15, seed=seed).run(beta).statuses


@pytest.fixture(scope="module")
def fixture_statuses() -> dict[str, StatusMatrix]:
    return {
        "er": _simulate(erdos_renyi_digraph(30, 0.1, seed=7), seed=1),
        "powerlaw": _simulate(barabasi_albert_digraph(36, 2, seed=8), seed=2),
        "lfr": _simulate(
            lfr_benchmark_graph(LFRParams(n=48, avg_degree=4), seed=9), seed=3
        ),
    }


@pytest.fixture(scope="module")
def serial_reference(fixture_statuses) -> dict[str, TendsResult]:
    return {
        name: Tends().fit(statuses) for name, statuses in fixture_statuses.items()
    }


def _assert_equivalent(reference: TendsResult, candidate: TendsResult) -> None:
    assert candidate.parent_sets == reference.parent_sets
    assert candidate.threshold == reference.threshold
    assert candidate.graph.edge_set() == reference.graph.edge_set()
    assert candidate.graph.n_nodes == reference.graph.n_nodes
    for ref_diag, cand_diag in zip(reference.diagnostics, candidate.diagnostics):
        assert cand_diag.node == ref_diag.node
        assert cand_diag.n_candidates == ref_diag.n_candidates
        assert cand_diag.n_evaluations == ref_diag.n_evaluations
        assert cand_diag.iterations == ref_diag.iterations
        assert cand_diag.bound_hits == ref_diag.bound_hits
        assert cand_diag.final_score == ref_diag.final_score
        assert cand_diag.empty_score == ref_diag.empty_score


@pytest.mark.parametrize("n_jobs", WORKER_COUNTS)
@pytest.mark.parametrize("executor", BACKENDS)
@pytest.mark.parametrize("fixture_name", ["er", "powerlaw", "lfr"])
def test_backend_matches_serial_reference(
    fixture_name, executor, n_jobs, fixture_statuses, serial_reference
):
    statuses = fixture_statuses[fixture_name]
    result = Tends(executor=executor, n_jobs=n_jobs).fit(statuses)
    _assert_equivalent(serial_reference[fixture_name], result)


@pytest.mark.parametrize("chunk_size", [1, 3, 17, 1000])
def test_chunk_size_never_changes_results(chunk_size, fixture_statuses, serial_reference):
    statuses = fixture_statuses["er"]
    result = Tends(executor="process", n_jobs=4, chunk_size=chunk_size).fit(statuses)
    _assert_equivalent(serial_reference["er"], result)


def test_ranked_union_strategy_parallel_equivalence(fixture_statuses):
    statuses = fixture_statuses["er"]
    reference = Tends(search_strategy="ranked-union").fit(statuses)
    result = Tends(
        search_strategy="ranked-union", executor="process", n_jobs=4
    ).fit(statuses)
    _assert_equivalent(reference, result)


def test_worker_stats_cover_every_node(fixture_statuses):
    statuses = fixture_statuses["lfr"]
    result = Tends(executor="process", n_jobs=4).fit(statuses)
    assert sum(s.n_items for s in result.worker_stats) == statuses.n_nodes
    for stats in result.worker_stats:
        assert f"search/{stats.worker}" in result.stage_seconds
