"""Differential battery: the blocked MI pass vs the oracle loop.

:mod:`repro.core.imi` computes the pointwise terms in place, chunk by
chunk, and writes each upper-triangle block's mirror from the same
buffers.  ``tests/oracle.py`` keeps the plain four-term loop.  Here
Hypothesis draws statuses (masked and unmasked, β mostly not a multiple
of 64) and one block of the pair space — the whole matrix, a diagonal
tile or an off-diagonal tile, either side of the diagonal — and the
block's counts (the kernel's stored planes plus
:func:`~repro.core.stats.derive_counts`) must equal the oracle's, and
the oracle's IMI and traditional MI of that block must equal the
production matrices' slice bit for bit.

The MI matrices themselves come from one blocked pass
(:func:`repro.core.imi.mi_pass`); for any block width and row-chunk
height, dense or tiled, its matrix and its threshold sample must equal
the oracle's whole-matrix functions byte for byte.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import imi
from repro.core.imi import MI_KINDS, infection_mi_matrix, traditional_mi_matrix
from repro.core.kernels import PackedStatuses
from repro.core.stats import SufficientStats
from repro.core.tiles import TiledSufficientStats
from tests import oracle
from tests.property.test_prop_kernels import all_count_planes, status_matrices


def _bit_equal(got: np.ndarray, expected: np.ndarray) -> bool:
    """``np.array_equal``, and the same bytes (so ``-0.0`` is not ``0.0``)."""
    return np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


@st.composite
def blocks(draw, n):
    """``(rows, cols)`` node spans of one tile of an ``n``-node grid, or
    ``(None, None)`` for the whole matrix."""
    if draw(st.booleans()):
        return None, None
    tile = draw(st.integers(1, n))
    n_blocks = -(-n // tile)
    bi = draw(st.integers(0, n_blocks - 1))
    bj = draw(st.one_of(st.just(bi), st.integers(0, n_blocks - 1)))

    def span(index):
        return index * tile, min((index + 1) * tile, n)

    return span(bi), span(bj)


@given(statuses=status_matrices(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_block_terms_and_mi_equal_the_oracle_loop(statuses, data):
    n = statuses.n_nodes
    rows, cols = data.draw(blocks(n))
    square = rows == cols
    a = slice(*(rows or (0, n)))
    b = slice(*(cols or (0, n)))
    counts = all_count_planes(PackedStatuses.from_statuses(statuses), rows, cols)
    reference_counts = {
        key: plane[a, b]
        for key, plane in oracle.pairwise_complete_counts(statuses).items()
    }
    for key, plane in reference_counts.items():
        assert np.array_equal(counts[key], plane), key
    if statuses.has_missing:
        expected = oracle.mi_terms_from_pairwise_counts(reference_counts)
    else:
        infected = statuses.infection_counts()
        expected = oracle.mi_terms_from_joint_counts(
            reference_counts, infected[a], statuses.beta, column_counts=infected[b]
        )
    assert _bit_equal(
        oracle.imi_from_terms(expected, zero_diagonal=square),
        infection_mi_matrix(statuses)[a, b],
    )
    assert _bit_equal(
        oracle.mi_from_terms(expected, zero_diagonal=square),
        traditional_mi_matrix(statuses)[a, b],
    )


@given(
    statuses=status_matrices(),
    kind=st.sampled_from(MI_KINDS),
    block=st.integers(1, 9),
    height=st.integers(1, 9),
)
@settings(max_examples=80, deadline=None)
def test_blocked_pass_equals_the_oracle_matrices(
    statuses, kind, block, height, tmp_path_factory
):
    """Any grid width (ragged edge blocks included) and chunk height —
    one row, a few, the whole band: the dense and the tiled matrix and
    threshold sample equal the oracle's, byte for byte."""
    n = statuses.n_nodes
    if kind == "infection":
        expected = oracle.infection_mi_matrix(statuses)
    else:
        expected = oracle.traditional_mi_matrix(statuses)
    expected_sample = oracle.threshold_sample(expected)
    budget = height * imi._ENTRY_BYTES * min(block, n)
    with mock.patch.object(imi, "_DENSE_BLOCK", block), mock.patch.object(
        imi, "_PASS_BYTES", budget
    ):
        sample = []
        dense = SufficientStats.from_statuses(statuses).mi_matrix(kind, sample)
        tiled_sample = []
        tiled = TiledSufficientStats.from_statuses(
            statuses, tile_size=block, spill_dir=tmp_path_factory.mktemp("spill")
        ).mi_matrix(kind, tiled_sample)
    assert _bit_equal(dense, expected)
    assert _bit_equal(np.asarray(tiled), expected)
    for collected in (sample, tiled_sample):
        assert _bit_equal(np.concatenate(collected), expected_sample)
