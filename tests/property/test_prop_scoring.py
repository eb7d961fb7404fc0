"""Property-based checks of the paper's theorems on random status data.

These are the load-bearing invariants of §IV-A:

* Lemma 1 (the merge inequality behind Theorem 1),
* Theorem 1 (likelihood is monotone in the parent set),
* the penalty term is monotone in the parent set,
* Theorem 2 (the size bound holds for any score-improving set),
* counting consistency of ``family_counts``,
* the public scorers equal the scalar oracle (``tests/oracle.py``) bit
  for bit, at every parent-set width up to the 62-parent cap.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kernels import PackedStatuses
from repro.core.scoring import (
    delta_i,
    empty_set_score,
    family_counts,
    global_score,
    local_score,
    log_likelihood,
    penalty,
    size_bound,
)
from repro.simulation.statuses import StatusMatrix
from tests import oracle

status_matrices = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(2, 40), st.integers(2, 6)),
    elements=st.integers(0, 1),
).map(StatusMatrix)


def _term(b: int, a: int) -> float:
    return b * math.log2(b / a) if b > 0 else 0.0


@given(
    a1=st.integers(0, 50),
    a2=st.integers(0, 50),
    b1=st.integers(0, 50),
    b2=st.integers(0, 50),
)
def test_lemma1_merge_inequality(a1, a2, b1, b2):
    """(b/a)^b <= (b1/a1)^b1 (b2/a2)^b2 in log space, with 0log0 = 0."""
    b1 = min(b1, a1)
    b2 = min(b2, a2)
    a = a1 + a2
    b = b1 + b2
    if a == 0:
        return
    merged = _term(b, a)
    split = _term(b1, a1) + _term(b2, a2)
    assert merged <= split + 1e-9


@given(statuses=status_matrices, data=st.data())
@settings(max_examples=60, deadline=None)
def test_theorem1_likelihood_monotone(statuses, data):
    """Adding any node to the parent set never decreases log L."""
    n = statuses.n_nodes
    child = data.draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != child]
    subset = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=4))
    extra_pool = [v for v in others if v not in subset]
    if not extra_pool:
        return
    extra = data.draw(st.sampled_from(extra_pool))
    before = log_likelihood(family_counts(statuses, child, subset))
    after = log_likelihood(family_counts(statuses, child, subset + [extra]))
    assert after >= before - 1e-9


@given(statuses=status_matrices, data=st.data())
@settings(max_examples=60, deadline=None)
def test_penalty_monotone_in_parent_set(statuses, data):
    n = statuses.n_nodes
    child = data.draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != child]
    subset = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=4))
    extra_pool = [v for v in others if v not in subset]
    if not extra_pool:
        return
    extra = data.draw(st.sampled_from(extra_pool))
    before = penalty(family_counts(statuses, child, subset))
    after = penalty(family_counts(statuses, child, subset + [extra]))
    assert after >= before - 1e-9


@given(statuses=status_matrices, data=st.data())
@settings(max_examples=60, deadline=None)
def test_theorem2_bound_holds_for_improving_sets(statuses, data):
    """Any parent set whose score beats g(v, {}) satisfies Eq. 16."""
    n = statuses.n_nodes
    child = data.draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != child]
    subset = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=5))
    if not subset:
        return
    score = local_score(statuses, child, subset)
    if score < empty_set_score(statuses, child):
        return  # Theorem 2 only constrains score-improving sets
    counts = family_counts(statuses, child, subset)
    bound = size_bound(counts.phi, delta_i(statuses, child))
    assert len(subset) <= bound + 1e-9


@given(statuses=status_matrices, data=st.data())
@settings(max_examples=60, deadline=None)
def test_family_counts_consistency(statuses, data):
    n = statuses.n_nodes
    child = data.draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != child]
    parents = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=4))
    counts = family_counts(statuses, child, parents)
    assert counts.totals.sum() == statuses.beta
    assert counts.infected.sum() == int(statuses.column(child).sum())
    assert (counts.infected <= counts.totals).all()
    assert (counts.uninfected >= 0).all()
    assert counts.n_possible == 2 ** len(parents)
    assert 0 <= counts.phi < counts.n_possible or (counts.phi == 0 and not parents)


@given(statuses=status_matrices, data=st.data())
@settings(max_examples=60, deadline=None)
def test_log_likelihood_non_positive(statuses, data):
    n = statuses.n_nodes
    child = data.draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != child]
    parents = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=4))
    assert log_likelihood(family_counts(statuses, child, parents)) <= 1e-9


@given(statuses=status_matrices)
@settings(max_examples=60, deadline=None)
def test_delta_positive(statuses):
    for child in range(statuses.n_nodes):
        assert delta_i(statuses, child) > 0


@st.composite
def wide_families(draw):
    """``(statuses, parent_sets)``: a matrix with up to 63 nodes and an
    optional mask (per-node densities include 0, so some families have
    no complete row), and one parent set per node, each 0–10 or 11–62
    parents wide."""
    widths = st.one_of(st.integers(0, 10), st.integers(11, 62))
    width = draw(widths)
    n = draw(st.integers(width + 1, 63))
    beta = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    data = (rng.random((beta, n)) < density).astype(np.uint8)
    mask = None
    if draw(st.booleans()):
        observed = draw(
            st.lists(st.sampled_from([0.0, 0.9, 0.99, 1.0]), min_size=n, max_size=n)
        )
        mask = rng.random((beta, n)) < np.asarray(observed)
    parent_sets = []
    for child in range(n):
        others = [v for v in range(n) if v != child]
        size = width if child == 0 else int(rng.integers(0, min(width, n - 1) + 1))
        parent_sets.append(rng.permutation(others)[:size].tolist())
    return StatusMatrix(data, mask), parent_sets


@given(family=wide_families())
@settings(max_examples=60, deadline=None)
def test_public_scorers_equal_scalar_oracle(family):
    """``log_likelihood``, ``penalty``, ``local_score`` and
    ``global_score`` run through the batch pipeline; each must equal the
    oracle's scalar ``np.sum`` code on the oracle's counts, ``==``."""
    statuses, parent_sets = family
    packed = PackedStatuses.from_statuses(statuses)
    for child in (0, statuses.n_nodes - 1):
        parents = parent_sets[child]
        counts = family_counts(statuses, child, parents, packed=packed)
        reference = oracle.family_counts(statuses, child, parents)
        assert log_likelihood(counts) == oracle.log_likelihood(reference)
        assert penalty(counts) == oracle.penalty(reference)
        score = oracle.local_score(statuses, child, parents)
        assert local_score(statuses, child, parents, packed=packed) == score
    assert global_score(statuses, parent_sets) == oracle.global_score(
        statuses, parent_sets
    )
