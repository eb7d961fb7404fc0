"""Differential battery: the in-place MI term pipeline vs the oracle loop.

:mod:`repro.core.imi` computes the pointwise terms in place and, on a
square block (the whole matrix or a diagonal tile), takes
``term["01"]`` as ``term["10"]ᵀ``.  ``tests/oracle.py`` keeps the plain
four-term loop.  Here Hypothesis draws statuses (masked and unmasked, β
mostly not a multiple of 64) and one block of the pair space — the whole
matrix, a diagonal tile or an off-diagonal tile — and the terms, the IMI
and the traditional MI of that block must equal the oracle's bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.imi import (
    imi_from_terms,
    mi_from_terms,
    mi_terms_from_joint_counts,
    mi_terms_from_pairwise_counts,
)
from repro.core.kernels import PackedStatuses, packed_pairwise_complete_counts
from tests import oracle
from tests.property.test_prop_kernels import status_matrices


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
    counts = packed_pairwise_complete_counts(
        PackedStatuses.from_statuses(statuses), rows, cols
    )
    reference_counts = {
        key: plane[a, b]
        for key, plane in oracle.pairwise_complete_counts(statuses).items()
    }
    if statuses.has_missing:
        terms = mi_terms_from_pairwise_counts(counts, square=square)
        expected = oracle.mi_terms_from_pairwise_counts(reference_counts)
    else:
        infected = statuses.infection_counts()
        terms = mi_terms_from_joint_counts(
            counts,
            infected[a],
            statuses.beta,
            column_counts=None if square else infected[b],
        )
        expected = oracle.mi_terms_from_joint_counts(
            reference_counts, infected[a], statuses.beta, column_counts=infected[b]
        )
    for key in ("11", "10", "01", "00"):
        assert _bit_equal(terms[key], expected[key]), key
    assert _bit_equal(
        imi_from_terms(terms, zero_diagonal=square),
        oracle.imi_from_terms(expected, zero_diagonal=square),
    )
    assert _bit_equal(
        mi_from_terms(terms, zero_diagonal=square),
        oracle.mi_from_terms(expected, zero_diagonal=square),
    )
