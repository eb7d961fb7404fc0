"""Tracing must be a pure observer: bit-identical fits, consistent traces."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.tends import Tends
from repro.simulation.statuses import StatusMatrix

status_matrices = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(2, 40), st.integers(2, 8)),
    elements=st.integers(0, 1),
).map(StatusMatrix)


def _fit(statuses, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Tends(**kwargs).fit(statuses)


def _assert_same_inference(a, b):
    assert a.parent_sets == b.parent_sets
    assert a.threshold == b.threshold
    assert np.array_equal(a.mi_matrix, b.mi_matrix)
    assert a.graph.edge_set() == b.graph.edge_set()


@given(statuses=status_matrices)
@settings(max_examples=25, deadline=None)
def test_serial_fit_identical_with_trace_on_and_off(statuses):
    baseline = _fit(statuses, executor="serial")
    traced = _fit(statuses, executor="serial", trace=True)
    _assert_same_inference(baseline, traced)
    assert baseline.telemetry is None
    assert traced.telemetry is not None


@given(statuses=status_matrices)
@settings(max_examples=15, deadline=None)
def test_fit_identical_with_memory_attribution_on_and_off(statuses):
    baseline = _fit(statuses, executor="serial")
    measured = _fit(statuses, executor="serial", memory=True)
    _assert_same_inference(baseline, measured)
    assert baseline.telemetry is None
    stages = measured.telemetry.memory
    assert {"imi", "threshold", "search", "total"} <= set(stages)
    for stats in stages.values():
        assert stats["peak_alloc_bytes"] >= 0
        assert stats["peak_alloc_bytes"] >= max(0, stats["alloc_bytes"])


@given(statuses=status_matrices)
@settings(max_examples=10, deadline=None)
def test_fit_identical_with_trace_and_memory_together(statuses):
    baseline = _fit(statuses, executor="serial")
    both = _fit(statuses, executor="serial", trace=True, memory=True)
    _assert_same_inference(baseline, both)
    assert both.telemetry.spans
    assert both.telemetry.memory
    # The memory stats mirrored onto spans match the stage table.
    fit_span = next(
        s for s in both.telemetry.spans if s.name == "tends.fit"
    )
    assert fit_span.attrs["peak_alloc_bytes"] == (
        both.telemetry.memory["total"]["peak_alloc_bytes"]
    )


@given(statuses=status_matrices)
@settings(max_examples=5, deadline=None)
def test_process_traced_fit_identical_to_serial_untraced(statuses):
    # A handful of examples: each one starts a process pool.
    baseline = _fit(statuses, executor="serial")
    traced = _fit(
        statuses, executor="process", n_jobs=2, chunk_size=4, trace=True
    )
    _assert_same_inference(baseline, traced)


@given(statuses=status_matrices)
@settings(max_examples=15, deadline=None)
def test_trace_structure_is_well_formed(statuses):
    result = _fit(statuses, executor="serial", trace=True)
    spans = result.telemetry.spans
    by_id = {s.span_id for s in spans}
    names = {s.name for s in spans}
    assert {"tends.fit", "tends.imi", "tends.threshold", "tends.search"} <= names
    for span in spans:
        assert span.end >= span.start
        if span.parent_id is not None:
            assert span.parent_id in by_id
    roots = [s for s in spans if s.parent_id is None]
    assert [r.name for r in roots] == ["tends.fit"]
    # one search.node span per node, counters consistent with diagnostics
    node_spans = [s for s in spans if s.name == "search.node"]
    assert len(node_spans) == statuses.n_nodes
    evaluations = sum(d.n_evaluations for d in result.diagnostics)
    assert result.telemetry.counter("tends_score_evaluations_total") == (
        evaluations
    )


@given(statuses=status_matrices)
@settings(max_examples=15, deadline=None)
def test_metrics_match_pipeline_arithmetic(statuses):
    result = _fit(statuses, executor="serial", trace=True)
    n = statuses.n_nodes
    telemetry = result.telemetry
    assert telemetry.counter("tends_imi_pairs_total") == n * (n - 1) // 2
    pruned = telemetry.counter("tends_candidate_pairs_pruned_total")
    kept = telemetry.counter("tends_candidate_pairs_kept_total")
    assert pruned + kept == n * (n - 1)
    assert kept == sum(d.n_candidates for d in result.diagnostics)
