"""Differential battery: the packed kernels vs the numpy oracle.

The headline guarantee of :mod:`repro.core.kernels`, the only production
counting path: everywhere it is reachable — joint counts, masked
pairwise-complete counts, IMI/MI matrices, parent-set contingency
tables, and whole ``fit`` / ``partial_fit`` pipelines — it is
**bit-identical** to the dense numpy estimators of ``tests/oracle.py``.
Hypothesis generates the statuses and masks (including the
degenerate corners: all-zero, all-one, single-cascade, β not divisible
by 64, and mask-density extremes); the golden fixtures pin the
end-to-end equality on committed data.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.imi import infection_mi_matrix, traditional_mi_matrix
from repro.core.kernels import (
    PackedStatuses,
    packed_infection_counts,
    packed_observed_counts,
    packed_pairwise_complete_counts,
)
from repro.core.scoring import family_counts, local_score
from repro.core.stats import (
    COUNT_KEYS,
    SufficientStats,
    derive_counts,
    stored_count_keys,
)
from repro.core.tends import Tends
from repro.simulation import io as sim_io
from repro.simulation.statuses import StatusMatrix
from tests import oracle

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@st.composite
def status_matrices(draw):
    """A status matrix with an optional observation mask.

    β runs past one 64-bit word (tail-word coverage), densities span the
    extremes (all-zero / all-one statuses, all-observed / never-observed
    masks).
    """
    beta = draw(st.integers(1, 150))
    n = draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    data = draw(
        arrays(
            dtype=np.uint8,
            shape=(beta, n),
            elements=st.floats(0, 1).map(lambda p: np.uint8(p < density)),
        )
    )
    mask = None
    if draw(st.booleans()):
        mask_density = draw(st.sampled_from([0.0, 0.2, 0.8, 1.0]))
        mask = draw(
            arrays(
                dtype=np.bool_,
                shape=(beta, n),
                elements=st.floats(0, 1).map(lambda p: bool(p < mask_density)),
            )
        )
    return StatusMatrix(data, mask)


def all_count_planes(
    packed: PackedStatuses,
    rows: tuple[int, int] | None = None,
    cols: tuple[int, int] | None = None,
) -> dict[str, np.ndarray]:
    """All five count planes of one pair block (default: the whole
    matrix): the kernel's stored planes, which must be exactly the
    layout's keys, and the rest rebuilt by ``derive_counts``."""
    n = packed.n_nodes
    a, b = slice(*(rows or (0, n))), slice(*(cols or (0, n)))
    stored = packed_pairwise_complete_counts(packed, rows, cols)
    assert tuple(stored) == stored_count_keys(packed.has_missing)
    infected = packed_infection_counts(packed)
    return derive_counts(
        stored,
        has_missing=packed.has_missing,
        row_infected=infected[a],
        col_infected=infected[b],
        beta=packed.n_bits,
    )


def _assert_counts_equal(reference: dict, got: dict, keys) -> None:
    for key in keys:
        assert got[key].dtype == reference[key].dtype
        assert np.array_equal(reference[key], got[key]), key


@given(statuses=status_matrices())
@settings(max_examples=60, deadline=None)
def test_joint_and_marginal_counts_bit_equal(statuses):
    packed = PackedStatuses.from_statuses(statuses)
    if not statuses.has_missing:
        _assert_counts_equal(
            oracle.joint_counts(statuses),
            all_count_planes(packed),
            ("11", "10", "01", "00"),
        )
    assert np.array_equal(
        statuses.infection_counts(), packed_infection_counts(packed)
    )
    assert np.array_equal(
        statuses.observed_counts(), packed_observed_counts(packed)
    )


@given(statuses=status_matrices())
@settings(max_examples=60, deadline=None)
def test_pairwise_complete_counts_bit_equal(statuses):
    packed = PackedStatuses.from_statuses(statuses)
    _assert_counts_equal(
        oracle.pairwise_complete_counts(statuses), all_count_planes(packed), COUNT_KEYS
    )


@given(statuses=status_matrices())
@settings(max_examples=40, deadline=None)
def test_mi_matrices_bit_equal(statuses):
    assert np.array_equal(
        oracle.infection_mi_matrix(statuses), infection_mi_matrix(statuses)
    )
    assert np.array_equal(
        oracle.traditional_mi_matrix(statuses), traditional_mi_matrix(statuses)
    )


@given(statuses=status_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_family_counts_and_scores_bit_equal(statuses, data):
    n = statuses.n_nodes
    child = data.draw(st.integers(0, n - 1))
    others = [node for node in range(n) if node != child]
    parents = data.draw(
        st.lists(st.sampled_from(others), unique=True, max_size=len(others))
        if others
        else st.just([])
    )
    packed = PackedStatuses.from_statuses(statuses)
    reference = oracle.family_counts(statuses, child, parents)
    counts = family_counts(statuses, child, parents, packed=packed)
    assert np.array_equal(reference.totals, counts.totals)
    assert np.array_equal(reference.infected, counts.infected)
    assert reference.beta == counts.beta
    # The float score runs the same summation order over the same counts.
    score = oracle.local_score(statuses, child, parents)
    assert local_score(statuses, child, parents) == score
    assert local_score(statuses, child, parents, packed=packed) == score


@given(statuses=status_matrices())
@settings(max_examples=40, deadline=None)
def test_sufficient_stats_bit_equal(statuses):
    reference = oracle.sufficient_stats(statuses)
    packed = SufficientStats.from_statuses(statuses)
    assert reference.equals(packed)
    assert reference.checksum() == packed.checksum()
    assert tuple(packed.counts) == stored_count_keys(statuses.has_missing)
    planes = oracle.pairwise_complete_counts(statuses)
    for key in COUNT_KEYS:
        assert np.array_equal(packed.count_matrix(key), planes[key]), key


# ----------------------------------------------------------------------
# deterministic corner matrices (the named cases from the issue, pinned
# outside hypothesis so they always run)
# ----------------------------------------------------------------------

def _corner_matrices():
    rng = np.random.default_rng(23)
    yield StatusMatrix(np.zeros((65, 5), dtype=np.uint8))  # all-zero, β=65
    yield StatusMatrix(np.ones((64, 4), dtype=np.uint8))  # all-one, β=64
    single = np.zeros((1, 6), dtype=np.uint8)  # single cascade
    single[0, ::2] = 1
    yield StatusMatrix(single)
    data = (rng.random((130, 6)) < 0.4).astype(np.uint8)  # β % 64 != 0
    yield StatusMatrix(data)
    yield StatusMatrix(data, np.zeros((130, 6), dtype=np.bool_))  # nothing observed
    checker = np.indices((67, 6)).sum(axis=0) % 2 == 0  # checkerboard mask
    yield StatusMatrix(data[:67], checker)


@pytest.mark.parametrize("index", range(6))
def test_corner_matrices_bit_equal(index):
    statuses = list(_corner_matrices())[index]
    packed = PackedStatuses.from_statuses(statuses)
    _assert_counts_equal(
        oracle.pairwise_complete_counts(statuses), all_count_planes(packed), COUNT_KEYS
    )
    assert np.array_equal(
        oracle.infection_mi_matrix(statuses), infection_mi_matrix(statuses)
    )
    for child in range(min(statuses.n_nodes, 3)):
        parents = [p for p in range(statuses.n_nodes) if p != child][:3]
        reference = oracle.family_counts(statuses, child, parents)
        counts = family_counts(statuses, child, parents, packed=packed)
        assert np.array_equal(reference.totals, counts.totals)
        assert np.array_equal(reference.infected, counts.infected)
        assert reference.beta == counts.beta


# ----------------------------------------------------------------------
# end-to-end: golden fixtures, production vs an all-oracle pipeline
# ----------------------------------------------------------------------

def _assert_results_identical(reference, result):
    assert result.graph.edge_set() == reference.graph.edge_set()
    assert result.parent_sets == reference.parent_sets
    assert result.threshold == reference.threshold
    assert np.array_equal(result.mi_matrix, reference.mi_matrix)
    assert [d.final_score for d in result.diagnostics] == [
        d.final_score for d in reference.diagnostics
    ]


def test_golden_fit_identical_under_packed_kernel():
    statuses = sim_io.read_statuses_csv(DATA_DIR / "golden_statuses.csv")
    _assert_results_identical(oracle.fit(statuses), Tends().fit(statuses))


def _replay_updates(statuses, spec):
    # Mirrors tests/unit/test_golden_regression.py: fit the initial
    # prefix, absorb the frozen batch schedule, collect the cached-count
    # checksums after every step.
    bounds = [0, spec["initial_beta"]]
    for width in spec["batch_betas"]:
        bounds.append(bounds[-1] + width)
    assert bounds[-1] == statuses.beta
    estimator = Tends()
    result = estimator.fit(statuses.subset(range(0, bounds[1])))
    checksums = [estimator.model.stats.checksum()]
    for start, stop in zip(bounds[1:], bounds[2:]):
        result = estimator.partial_fit(statuses.subset(range(start, stop)))
        checksums.append(estimator.model.stats.checksum())
    return result, checksums


def test_golden_incremental_replay_identical_under_packed_kernel():
    statuses = sim_io.read_statuses_csv(
        DATA_DIR / "golden_incremental_statuses.csv"
    )
    spec = json.loads((DATA_DIR / "golden_incremental.json").read_text())
    result, checksums = _replay_updates(statuses, spec)
    # The frozen checksums were produced by the numpy estimators; matching
    # them means every packed batch count was integer-exact, bit for bit.
    assert checksums == spec["stats_checksums"]
    assert result.graph.edge_set() == {(p, c) for p, c in spec["edges"]}
    assert result.threshold == pytest.approx(spec["threshold"], rel=1e-12, abs=0.0)


def test_masked_fit_identical_under_packed_kernel():
    rng = np.random.default_rng(29)
    data = (rng.random((120, 25)) < 0.35).astype(np.uint8)
    mask = rng.random((120, 25)) < 0.85
    statuses = StatusMatrix(data, mask)
    _assert_results_identical(oracle.fit(statuses), Tends().fit(statuses))
