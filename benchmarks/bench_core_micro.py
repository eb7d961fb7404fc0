"""Micro-benchmarks of the TENDS hot paths.

These are classic pytest-benchmark measurements (many rounds) of the
stages the complexity analysis in §IV-D names:

* the O(β n²) all-pairs counts (n=1000, β=500, masked and unmasked),
* the O(β n²) IMI matrix,
* the fixed-zero 2-means,
* one O(β |F|) family-counts + local-score evaluation,
* one batched greedy iteration of the parent search (µs per family
  evaluation, the stage-3 unit cost),
* a full TENDS fit on a mid-size LFR observation set.

Counting runs through the packed kernels, the only production path:
pair counts are exact float32 products of the unpacked bits, family
counts popcount the words of one pattern tree (``kernels.pattern_tree``,
shared by ``scoring.family_counts`` and the parent search); the
family-count benches pass the packed statuses once.
"""

import numpy as np
import pytest

from repro.core.imi import infection_mi_matrix
from repro.core.kernels import (
    PackedStatuses,
    packed_pairwise_complete_counts,
    packed_pattern_counts,
    packed_split_words,
    pattern_tree,
    refine_patterns,
)
from repro.core.kmeans import fixed_zero_two_means
from repro.core.scoring import batch_scores, family_counts, local_score
from repro.core.tends import Tends
from repro.graphs.generators.lfr import LFRParams, lfr_benchmark_graph
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.statuses import StatusMatrix


@pytest.fixture(scope="module")
def observations():
    truth = lfr_benchmark_graph(LFRParams(n=200, avg_degree=4), seed=0)
    return DiffusionSimulator(truth, mu=0.3, alpha=0.15, seed=1).run(beta=150)


@pytest.fixture(scope="module")
def packed_observations(observations):
    return PackedStatuses.from_statuses(observations.statuses)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_pair_counts_1000_nodes_500_processes(benchmark, masked):
    """All-pairs counts at the ``lfr1000-fit`` shape (n=1000, β=500):
    one float32 product unmasked, three with a 90%-observed mask.
    ``ns_per_pair`` is the cost per node pair."""
    rng = np.random.default_rng(0)
    data = (rng.random((500, 1000)) < 0.1).astype(np.uint8)
    mask = rng.random((500, 1000)) < 0.9 if masked else None
    packed = PackedStatuses.from_statuses(StatusMatrix(data, mask))
    counts = benchmark(packed_pairwise_complete_counts, packed)
    assert counts["11"].shape == (1000, 1000)
    if benchmark.stats is not None:  # None under --benchmark-disable
        pairs = counts["11"].size
        benchmark.extra_info["ns_per_pair"] = benchmark.stats.stats.mean / pairs * 1e9


def test_imi_matrix_200_nodes(benchmark, observations):
    result = benchmark(infection_mi_matrix, observations.statuses)
    assert result.shape == (200, 200)


def test_fixed_zero_two_means_40k_values(benchmark, observations):
    imi = infection_mi_matrix(observations.statuses)
    values = imi[imi >= 0].ravel()
    result = benchmark(fixed_zero_two_means, values)
    assert result.n_zero_cluster + result.n_upper_cluster == values.size


def test_family_counts_three_parents(
    benchmark, observations, packed_observations
):
    statuses = observations.statuses
    counts = benchmark(
        family_counts, statuses, 0, [1, 2, 3], packed=packed_observations
    )
    assert counts.totals.sum() == statuses.beta


def test_local_score_three_parents(
    benchmark, observations, packed_observations
):
    statuses = observations.statuses
    score = benchmark(
        local_score, statuses, 0, [1, 2, 3], packed=packed_observations
    )
    assert np.isfinite(score)


def test_batch_scores_three_parents_32_candidates(
    benchmark, packed_observations
):
    """One greedy iteration as the parent search runs it: the 3-parent
    family's pattern tree refined by 32 candidates, popcounted and
    scored in one batch.  ``us_per_family`` is the per-evaluation cost."""
    packed = packed_observations
    zeros, ones = packed_split_words(packed)
    parents = [1, 2, 3]
    tree = pattern_tree((zeros[0] | ones[0])[None], zeros[parents], ones[parents])
    candidates = np.arange(4, 36)

    def score_batch():
        rows = refine_patterns(tree[None], zeros[candidates], ones[candidates])
        return batch_scores(*packed_pattern_counts(rows, packed.ones[0]))

    scores, _ = benchmark(score_batch)
    assert scores.shape == (candidates.size,)
    assert np.isfinite(scores).all()
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_family"] = (
            benchmark.stats.stats.mean / candidates.size * 1e6
        )


def test_full_tends_fit_200_nodes(benchmark, observations):
    statuses = observations.statuses
    result = benchmark.pedantic(
        lambda: Tends().fit(statuses), rounds=3, iterations=1
    )
    assert result.graph.n_nodes == 200


def test_disabled_tracing_overhead_under_two_percent(observations):
    """The no-op tracer hooks must stay free when tracing is off.

    A fit cannot be compared against an uninstrumented build, so measure
    the disabled path directly: (per-call cost of a no-op span + counter)
    × (number of hook sites a traced fit actually hits) must stay below
    2% of the untraced fit time.  A failure means the NULL_TRACER /
    NULL_METRICS fast path grew real work.
    """
    import time

    from repro.obs.metrics import NULL_METRICS
    from repro.obs.trace import NULL_TRACER

    statuses = observations.statuses

    def fit_seconds() -> float:
        start = time.perf_counter()
        Tends(executor="serial").fit(statuses)
        return time.perf_counter() - start

    fit_seconds()  # warm caches before timing
    fit_time = sorted(fit_seconds() for _ in range(3))[1]

    # Every hook a traced serial fit fires on this input.
    telemetry = Tends(executor="serial", trace=True).fit(statuses).telemetry
    n_spans = len(telemetry.spans)
    n_metric_ops = (
        len(telemetry.metrics["counters"])
        + len(telemetry.metrics["gauges"])
        + telemetry.metrics["histograms"]["tends_greedy_iterations"]["count"]
    )

    rounds = 100_000
    start = time.perf_counter()
    for _ in range(rounds):
        with NULL_TRACER.span("bench", node=0) as span:
            span.set(done=True)
        NULL_METRICS.inc("bench_total")
    per_hook = (time.perf_counter() - start) / rounds

    overhead = per_hook * (n_spans + n_metric_ops)
    assert overhead <= 0.02 * fit_time, (
        f"{n_spans} spans + {n_metric_ops} metric ops at {per_hook * 1e6:.2f}µs "
        f"per disabled hook = {overhead * 1e3:.1f}ms, over 2% of the "
        f"{fit_time:.3f}s fit"
    )


def test_disabled_memory_attribution_overhead_under_two_percent(observations):
    """The no-op memory hooks must stay free when ``memory=False``.

    Same method as the tracing guard: (per-call cost of a disabled
    ``activate``/``measure``) × (sites a memory-attributed fit hits)
    must stay below 2% of the plain fit time.
    """
    import time

    from repro.obs.memory import NULL_MEMORY

    statuses = observations.statuses

    def fit_seconds() -> float:
        start = time.perf_counter()
        Tends(executor="serial").fit(statuses)
        return time.perf_counter() - start

    fit_seconds()  # warm caches before timing
    fit_time = sorted(fit_seconds() for _ in range(3))[1]

    # Hook sites a memory-attributed serial fit fires on this input.
    stages = Tends(executor="serial", memory=True).fit(statuses)
    n_measures = len(stages.telemetry.memory)

    rounds = 100_000
    start = time.perf_counter()
    for _ in range(rounds):
        with NULL_MEMORY.activate():
            with NULL_MEMORY.measure("bench"):
                pass
    per_hook = (time.perf_counter() - start) / rounds

    overhead = per_hook * (n_measures + 1)  # +1 for activate()
    assert overhead <= 0.02 * fit_time, (
        f"{n_measures} measures at {per_hook * 1e6:.2f}µs per disabled "
        f"hook = {overhead * 1e3:.1f}ms, over 2% of the {fit_time:.3f}s fit"
    )
