"""Property suite for windowed count algebra and the drift detector.

Two algebraic guarantees and one behavioural one, over
Hypothesis-generated streams (with and without observation masks):

* the stream re-cut into windows of any size, each window counted on
  its own and the windows merged, gives **bit-identical** counts to
  chaining :meth:`SufficientStats.updated` over the original batches
  (the cumulative path the rest of the estimator uses);
* the drift detector's operands are exact: ``total.subtracted(recent)``
  equals a from-scratch count of the reference head, and merging the
  two back reassembles ``total`` (integer count algebra, no float
  drift);
* :func:`detect_drift` is deterministic and symmetric-safe: the same
  two windows always produce the same report, and comparing a window
  against itself never flags.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.drift import DriftConfig, detect_drift
from repro.core.stats import SufficientStats
from repro.simulation.statuses import StatusMatrix


@st.composite
def batched_streams(draw, with_mask: bool):
    """``(batches, n)``: a short stream cut into 1-4 batches."""
    n = draw(st.integers(2, 6))
    n_batches = draw(st.integers(1, 4))
    batches = []
    for _ in range(n_batches):
        beta = draw(st.integers(0, 10))
        data = draw(
            arrays(dtype=np.uint8, shape=(beta, n), elements=st.integers(0, 1))
        )
        mask = None
        if with_mask and beta:
            mask = draw(
                arrays(dtype=np.bool_, shape=(beta, n), elements=st.booleans())
            )
        batches.append(StatusMatrix(data, mask))
    return batches, n


def _windows(batches, window_cascades=None):
    """The stream's processes re-cut into consecutive windows of at most
    ``window_cascades`` cascades (one window when ``None``), ignoring
    the original batch boundaries."""
    history = batches[0]
    for batch in batches[1:]:
        history = history.append(batch)
    size = window_cascades or max(history.beta, 1)
    return [
        history.subset(range(start, min(start + size, history.beta)))
        for start in range(0, history.beta, size)
    ]


def _merged(n, windows):
    total = SufficientStats.zeros(n)
    for window in windows:
        total = total.merged(SufficientStats.from_statuses(window))
    return total


def _chain(n, batches):
    chain = SufficientStats.zeros(n)
    for batch in batches:
        chain = chain.updated(batch)
    return chain


@given(batched_streams(with_mask=False), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_windowed_total_equals_updated_chain(stream, window_cascades):
    batches, n = stream
    total = _merged(n, _windows(batches, window_cascades))
    chain = _chain(n, batches)
    assert total.equals(chain)
    assert total.checksum() == chain.checksum()


@given(batched_streams(with_mask=True))
@settings(max_examples=40, deadline=None)
def test_windowed_total_equals_updated_chain_masked(stream):
    batches, n = stream
    # One window: the whole history counted in a single pass.
    assert _merged(n, _windows(batches)).equals(_chain(n, batches))


@given(batched_streams(with_mask=True), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_recent_plus_reference_reassembles_total(stream, window_cascades):
    batches, n = stream
    windows = _windows(batches, window_cascades)
    total = _merged(n, windows)
    for k in range(1, len(windows)):
        recent = _merged(n, windows[-k:])
        reference = total.subtracted(recent)
        assert reference.equals(_merged(n, windows[:-k]))
        assert recent.merged(reference).equals(total)
        assert recent.beta + reference.beta == total.beta


@given(
    arrays(dtype=np.uint8, shape=(60, 5), elements=st.integers(0, 1)),
    arrays(dtype=np.uint8, shape=(40, 5), elements=st.integers(0, 1)),
)
@settings(max_examples=30, deadline=None)
def test_detect_drift_deterministic(first, second):
    ref = SufficientStats.from_statuses(StatusMatrix(first))
    rec = SufficientStats.from_statuses(StatusMatrix(second))
    config = DriftConfig(min_window_beta=10, min_pair_obs=5)
    once = detect_drift(ref, rec, config)
    twice = detect_drift(ref, rec, config)
    assert once == twice


@given(arrays(dtype=np.uint8, shape=(80, 5), elements=st.integers(0, 1)))
@settings(max_examples=30, deadline=None)
def test_window_vs_itself_never_flags(data):
    stats = SufficientStats.from_statuses(StatusMatrix(data))
    report = detect_drift(
        stats, stats, DriftConfig(correction="none", min_window_beta=10)
    )
    assert not report.drifted
