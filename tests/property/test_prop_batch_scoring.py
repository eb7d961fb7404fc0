"""Differential battery: the batch scorer vs the scalar one.

The parent search scores every remaining candidate of a greedy
iteration at once (:func:`repro.core.scoring.batch_scores` over the
pattern rows of :func:`repro.core.kernels.refine_patterns`).  The
contract is that every batched score ``==`` the scalar
``log_likelihood(c) - penalty(c)`` — not merely that the same parent
sets come out: an ulp can flip a greedy tie while every fingerprint
still matches.

``np.sum`` adds the observed entries of a family in an order that
depends on how many there are (a sequential loop below 8, 8-lane
pairwise partial sums up to 128, recursive halving beyond), so the
strategies push observed-pattern counts across those boundaries, and
the masks leave some families with no complete row at all.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import TendsConfig
from repro.core.kernels import (
    PackedStatuses,
    packed_pattern_counts,
    packed_split_words,
    refine_patterns,
)
from repro.core.scoring import (
    FamilyCounts,
    batch_scores,
    family_counts,
    log_likelihood,
    penalty,
)
from repro.core.search import ParentSearch
from repro.simulation.statuses import StatusMatrix
from tests import oracle


def _scalar_score(totals: np.ndarray, infected: np.ndarray) -> float:
    observed = totals > 0
    counts = FamilyCounts(
        n_parents=0, totals=totals[observed], infected=infected[observed], beta=0
    )
    return log_likelihood(counts) - penalty(counts)


@st.composite
def count_batches(draw):
    """``(totals, infected)`` of a batch of families; zero-total cells
    anywhere, whole rows of them included."""
    n_families = draw(st.integers(1, 6))
    n_patterns = draw(st.sampled_from([0, 1, 6, 7, 8, 9, 16, 17, 128, 129, 300]))
    shape = (n_families, n_patterns)
    totals = draw(arrays(np.int64, shape, elements=st.integers(0, 40)))
    infected = draw(arrays(np.int64, shape, elements=st.integers(0, 40)))
    return totals, np.minimum(infected, totals)


@st.composite
def status_matrices(draw):
    """Statuses with an optional mask whose per-node densities include
    0 — a never-observed child or candidate has no complete row."""
    beta = draw(st.integers(2, 200))
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    data = (rng.random((beta, n)) < density).astype(np.uint8)
    if not draw(st.booleans()):
        return StatusMatrix(data)
    observed = draw(
        st.lists(
            st.sampled_from([0.0, 0.6, 0.9, 1.0]), min_size=n, max_size=n
        )
    )
    mask = rng.random((beta, n)) < np.asarray(observed)
    return StatusMatrix(data, mask)


@given(batch=count_batches())
@settings(max_examples=100, deadline=None)
def test_batch_scores_equal_scalar_scores(batch):
    totals, infected = batch
    scores, n_observed = batch_scores(totals, infected)
    assert n_observed.tolist() == np.count_nonzero(totals, axis=1).tolist()
    for row, score in enumerate(scores.tolist()):
        assert score == _scalar_score(totals[row], infected[row])


@pytest.mark.parametrize(
    "n_observed", [1, 2, 6, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 300]
)
def test_batch_scores_exact_at_every_summation_boundary(n_observed):
    # Rows of every length in one batch, padded with unobserved cells,
    # so each length's block sits beside blocks of other lengths.
    rng = np.random.default_rng(n_observed)
    lengths = [n_observed, max(1, n_observed - 1), n_observed + 1, 0, n_observed]
    width = 2 * (n_observed + 1)
    totals = np.zeros((len(lengths), width), dtype=np.int64)
    for row, length in enumerate(lengths):
        cells = rng.choice(width, size=length, replace=False)
        totals[row, cells] = rng.integers(1, 1000, size=length)
    infected = (totals * rng.random(totals.shape)).astype(np.int64)
    scores, n_observed_out = batch_scores(totals, infected)
    assert n_observed_out.tolist() == lengths
    for row, score in enumerate(scores.tolist()):
        assert score == _scalar_score(totals[row], infected[row])


@given(statuses=status_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_batches_equal_scalar_families(statuses, data):
    """Every candidate's batched score against the scalar score of the
    same (child, parents + candidate) family, with the parent tree
    pruned to its observed rows (as the search holds it) or not."""
    n = statuses.n_nodes
    child = data.draw(st.integers(0, n - 1))
    others = [node for node in range(n) if node != child]
    parents = data.draw(
        st.lists(st.sampled_from(others), unique=True, max_size=len(others) - 1)
    )
    candidates = [node for node in others if node not in parents]
    packed = PackedStatuses.from_statuses(statuses)
    zeros, ones = packed_split_words(packed)
    tree = (zeros[child] | ones[child])[None, :]
    for parent in parents:
        tree = refine_patterns(tree, zeros[parent], ones[parent])
    if data.draw(st.booleans()):
        tree = tree[tree.any(axis=1)]
    rows = refine_patterns(tree[None], zeros[candidates], ones[candidates])
    scores, n_observed = batch_scores(*packed_pattern_counts(rows, packed.ones[child]))
    for candidate, score, observed in zip(
        candidates, scores.tolist(), n_observed.tolist()
    ):
        counts = family_counts(statuses, child, parents + [candidate])
        assert score == log_likelihood(counts) - penalty(counts)
        assert observed == counts.n_observed


@given(
    statuses=status_matrices(),
    strategy=st.sampled_from(["greedy-rescoring", "ranked-union"]),
    combination_size=st.sampled_from([1, 2]),
    word_budget=st.sampled_from([None, 1]),
    repeats=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_search_equals_scalar_reference(
    statuses, strategy, combination_size, word_budget, repeats
):
    """Whole searches: parent sets and every ``SearchDiagnostics`` field
    equal a one-family-at-a-time search over the oracle counts — also
    with one candidate per scoring chunk, and with candidate lists that
    repeat some nodes."""
    config = TendsConfig(
        search_strategy=strategy, max_combination_size=combination_size
    )
    with ExitStack() as stack:
        if word_budget is not None:
            stack.enter_context(
                mock.patch("repro.core.search._BATCH_WORD_BUDGET", word_budget)
            )
        search = ParentSearch(statuses, config)
        reference = oracle.ScalarParentSearch(statuses, config)
        for node in range(statuses.n_nodes):
            candidates = [c for c in range(statuses.n_nodes) if c != node]
            if repeats:
                candidates += candidates[::2]
            assert search.find_parents(node, candidates) == reference.find_parents(
                node, candidates
            )
