"""Batch-equivalence property suite for the incremental engine.

The central guarantee of :meth:`Tends.partial_fit` (docs/INCREMENTAL.md):
fitting a prefix and absorbing the rest in arbitrary batches is
**bit-identical** to one-shot fitting the concatenated history — same
edges, same IMI matrix (bit for bit), same τ, same per-node scores.
Hypothesis generates the histories (with and without observation masks)
and the batch splits; empty batches are legal splits and are generated
too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.tends import Tends
from repro.simulation.statuses import StatusMatrix


@st.composite
def split_histories(draw, with_mask: bool):
    """A full history plus a batch split of it.

    Returns ``(full, batches)`` where ``batches`` concatenate to ``full``;
    the first batch always has >= 2 processes (the ``fit`` minimum), later
    batches may be empty (duplicate cut points).
    """
    beta = draw(st.integers(3, 24))
    n = draw(st.integers(2, 7))
    data = draw(
        arrays(dtype=np.uint8, shape=(beta, n), elements=st.integers(0, 1))
    )
    mask = None
    if with_mask:
        mask = draw(
            arrays(dtype=np.bool_, shape=(beta, n), elements=st.booleans())
        )
    full = StatusMatrix(data, mask)
    n_cuts = draw(st.integers(1, 3))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(2, beta), min_size=n_cuts, max_size=n_cuts
            )
        )
    )
    bounds = [0] + cuts + [beta]
    batches = [
        full.subset(range(start, stop))
        for start, stop in zip(bounds, bounds[1:])
    ]
    return full, batches


def _assert_bit_identical(result, full):
    assert result.parent_sets == full.parent_sets
    assert np.array_equal(result.mi_matrix, full.mi_matrix)
    assert result.threshold == full.threshold
    assert [d.final_score for d in result.diagnostics] == [
        d.final_score for d in full.diagnostics
    ]
    assert [d.empty_score for d in result.diagnostics] == [
        d.empty_score for d in full.diagnostics
    ]
    assert set(result.graph.edge_set()) == set(full.graph.edge_set())


def _run_incremental(batches, **config):
    estimator = Tends(audit="ignore", **config)
    result = estimator.fit(batches[0])
    for batch in batches[1:]:
        result = estimator.partial_fit(batch)
    return estimator, result


@given(history=split_histories(with_mask=False))
@settings(max_examples=40, deadline=None)
def test_partial_fit_equals_fit_unmasked(history):
    full_statuses, batches = history
    full = Tends(audit="ignore").fit(full_statuses)
    estimator, result = _run_incremental(batches)
    _assert_bit_identical(result, full)
    # The installed model mirrors the result exactly.
    assert estimator.model.parent_sets == full.parent_sets
    assert estimator.model.beta == full_statuses.beta
    assert estimator.model.statuses == full_statuses


@given(history=split_histories(with_mask=True))
@settings(max_examples=40, deadline=None)
def test_partial_fit_equals_fit_masked(history):
    full_statuses, batches = history
    full = Tends(audit="ignore").fit(full_statuses)
    _, result = _run_incremental(batches)
    _assert_bit_identical(result, full)


@given(history=split_histories(with_mask=False))
@settings(max_examples=25, deadline=None)
def test_any_two_way_split_point_is_equivalent(history):
    """The split position never matters, only the concatenation."""
    full_statuses, _ = history
    full = Tends(audit="ignore").fit(full_statuses)
    for cut in range(2, full_statuses.beta + 1):
        batches = [
            full_statuses.subset(range(0, cut)),
            full_statuses.subset(range(cut, full_statuses.beta)),
        ]
        _, result = _run_incremental(batches)
        _assert_bit_identical(result, full)


@given(
    history=split_histories(with_mask=True),
    executor=st.sampled_from(["serial", "process"]),
)
@settings(max_examples=5, deadline=None)
def test_equivalence_on_every_executor_backend(history, executor):
    """Dirty-node searches routed through any backend stay bit-identical
    to the serial one-shot fit (masked histories, the harder path)."""
    full_statuses, batches = history
    full = Tends(audit="ignore").fit(full_statuses)
    _, result = _run_incremental(
        batches, executor=executor, n_jobs=2, chunk_size=2
    )
    _assert_bit_identical(result, full)
