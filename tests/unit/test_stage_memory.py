"""Stages 1–2's memory: the counts, the MI pass and the fit fingerprint
stay small.

Fully observed statistics store one int64 ``n11`` plane, and the pair
count product builds it without a zero-filled accumulator; the blocked
MI pass (:func:`repro.core.imi.mi_pass`) holds only its output, the
threshold sample and chunk-sized buffers above the cached counts — no
whole-matrix term planes — and
:meth:`~repro.core.tends.TendsResult.fingerprint` hashes the MI matrix
through the buffer protocol instead of copying it.  All are measured
with tracemalloc on an LFR fit, in units of one float64 ``n × n``
matrix.
"""

import tracemalloc

import pytest

from repro import Tends
from repro.graphs.generators.lfr import LFRParams, lfr_benchmark_graph
from repro.simulation.engine import DiffusionSimulator

N_NODES = 600
BETA = 200
MATRIX_BYTES = 8 * N_NODES * N_NODES


@pytest.fixture(scope="module")
def lfr_fit():
    graph = lfr_benchmark_graph(LFRParams(n=N_NODES, avg_degree=4), seed=7)
    statuses = (
        DiffusionSimulator(graph, mu=0.3, alpha=0.15, seed=8).run(beta=BETA).statuses
    )
    return Tends(memory=True, executor="serial").fit(statuses)


def test_stats_stage_peaks_below_two_matrices(lfr_fit):
    """The stats stage holds the one stored ``n11`` plane (one matrix)
    plus the product's float32 result while it is cast: under 2.
    Five stored int64 planes would take 5."""
    peak = lfr_fit.telemetry.memory["stats"]["peak_alloc_bytes"]
    assert peak < 2 * MATRIX_BYTES, peak / MATRIX_BYTES


def test_imi_stage_peaks_below_two_and_a_half_matrices(lfr_fit):
    """Above the stats stage, the IMI stage's traced peak is the output
    matrix, the sample (its non-negative half) and the chunk buffers:
    under 2.5 matrices.  Whole-matrix term planes would take ~5."""
    memory = lfr_fit.telemetry.memory
    rise = memory["imi"]["peak_alloc_bytes"] - memory["stats"]["peak_alloc_bytes"]
    assert rise < 2.5 * MATRIX_BYTES, rise / MATRIX_BYTES


def test_fingerprint_does_not_copy_the_mi_matrix(lfr_fit):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lfr_fit.fingerprint()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < MATRIX_BYTES / 4, peak / MATRIX_BYTES
