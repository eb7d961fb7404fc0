"""Unit tests for the bit-packing layer itself (repro.core.kernels).

The differential battery (``tests/property/test_prop_kernels.py``) proves
the packed kernels bit-identical to the numpy oracle (``tests/oracle.py``);
these tests pin the packing mechanics that proof rests on — word layout,
tail-bit masking, the popcount fallback, the chunked pair-count
products, the 62-column cap, and the NPZ round-trip of packed arrays.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.core.kernels as kernels
from repro.core.config import TendsConfig
from repro.core.kernels import (
    MAX_PACK_COLUMNS,
    WORD_BITS,
    PackedStatuses,
    pack_bits,
    packed_family_counts,
    packed_joint_counts,
    packed_pairwise_complete_counts,
    popcount_words,
    unpack_bits,
)
from repro.core.scoring import family_counts
from repro.core.search import MAX_PARENT_SET_SIZE, ParentSearch
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix
from tests import oracle


def _random_statuses(rng, beta, n, mask_density=None):
    data = (rng.random((beta, n)) < 0.5).astype(np.uint8)
    mask = None
    if mask_density is not None:
        mask = rng.random((beta, n)) < mask_density
    return StatusMatrix(data, mask)


# ----------------------------------------------------------------------
# popcount primitive
# ----------------------------------------------------------------------

def test_popcount_known_values():
    words = np.array(
        [0, 1, 2, 3, 0xFF, 1 << 63, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64
    )
    assert popcount_words(words).tolist() == [0, 1, 1, 2, 8, 1, 64]


def test_popcount_preserves_shape_and_dtype():
    words = np.arange(12, dtype=np.uint64).reshape(3, 4)
    counts = popcount_words(words)
    assert counts.shape == (3, 4)
    assert counts.dtype == np.int64


def test_popcount_fallback_parity(monkeypatch):
    # The 16-bit LUT path (numpy < 2.0, no np.bitwise_count) must count
    # exactly like the native instruction on arbitrary words.
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**64, size=(5, 9), dtype=np.uint64)
    native = popcount_words(words)
    monkeypatch.setattr(kernels, "_HAS_NATIVE_POPCOUNT", False)
    assert np.array_equal(popcount_words(words), native)


def test_fallback_counts_through_whole_kernel_stack(monkeypatch):
    rng = np.random.default_rng(8)
    statuses = _random_statuses(rng, 130, 7, mask_density=0.8)
    reference = oracle.pairwise_complete_counts(statuses)
    monkeypatch.setattr(kernels, "_HAS_NATIVE_POPCOUNT", False)
    got = packed_pairwise_complete_counts(PackedStatuses.from_statuses(statuses))
    for key in ("11", "10", "01", "00", "obs"):
        assert np.array_equal(reference[key], got[key]), key


def test_has_native_popcount_reports_module_flag(monkeypatch):
    monkeypatch.setattr(kernels, "_HAS_NATIVE_POPCOUNT", False)
    assert kernels.has_native_popcount() is False
    monkeypatch.setattr(kernels, "_HAS_NATIVE_POPCOUNT", True)
    assert kernels.has_native_popcount() is True


# ----------------------------------------------------------------------
# pack / unpack
# ----------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0, 1, 7, 63, 64, 65, 128, 130])
def test_pack_unpack_round_trip(beta):
    rng = np.random.default_rng(beta)
    matrix = (rng.random((beta, 5)) < 0.5).astype(np.uint8)
    words = pack_bits(matrix)
    assert words.dtype == np.uint64
    assert words.shape == (5, (beta + WORD_BITS - 1) // WORD_BITS)
    assert np.array_equal(unpack_bits(words, beta), matrix)


@pytest.mark.parametrize("beta", [1, 7, 63, 65, 130])
def test_pack_tail_bits_are_zero(beta):
    # Every bit at positions >= beta must be 0, or family counting would
    # see phantom processes.
    matrix = np.ones((beta, 3), dtype=np.uint8)
    words = pack_bits(matrix)
    assert popcount_words(words).sum() == 3 * beta


def test_pack_bit_layout_is_little_endian_per_word():
    # Bit ℓ of word w of node j = process 64·w + ℓ.
    matrix = np.zeros((70, 2), dtype=np.uint8)
    matrix[3, 0] = 1
    matrix[64, 0] = 1
    matrix[69, 1] = 1
    words = pack_bits(matrix)
    assert words[0, 0] == np.uint64(1 << 3)
    assert words[0, 1] == np.uint64(1)
    assert words[1, 1] == np.uint64(1 << 5)


def test_pack_rejects_non_2d():
    with pytest.raises(DataError):
        pack_bits(np.zeros(4, dtype=np.uint8))
    with pytest.raises(DataError):
        unpack_bits(np.zeros(4, dtype=np.uint64), 4)


def test_unpack_rejects_inconsistent_bit_count():
    words = pack_bits(np.ones((10, 2), dtype=np.uint8))
    with pytest.raises(DataError):
        unpack_bits(words, 65)  # 65 bits need two words, got one


# ----------------------------------------------------------------------
# PackedStatuses
# ----------------------------------------------------------------------

def test_packed_statuses_round_trip_with_mask():
    rng = np.random.default_rng(11)
    statuses = _random_statuses(rng, 77, 6, mask_density=0.7)
    packed = PackedStatuses.from_statuses(statuses)
    assert packed.n_nodes == 6
    assert packed.n_bits == 77
    assert packed.has_missing
    back = packed.unpack()
    assert np.array_equal(back.values, statuses.values)
    assert np.array_equal(back.mask, statuses.mask)


def test_packed_statuses_accepts_raw_arrays():
    packed = PackedStatuses.from_statuses(np.eye(4, dtype=np.uint8))
    assert packed.n_bits == 4
    assert packed.mask is None


def test_packed_statuses_words_are_read_only():
    packed = PackedStatuses.from_statuses(np.ones((5, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        packed.ones[0, 0] = np.uint64(0)


def test_npz_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    statuses = _random_statuses(rng, 90, 5, mask_density=0.6)
    packed = PackedStatuses.from_statuses(statuses)
    path = tmp_path / "packed.npz"
    np.savez(path, **packed.to_arrays())
    with np.load(path) as archive:
        restored = PackedStatuses.from_arrays(archive)
    assert restored.n_bits == packed.n_bits
    assert np.array_equal(restored.ones, packed.ones)
    assert np.array_equal(restored.mask, packed.mask)
    back = restored.unpack()
    assert np.array_equal(back.values, statuses.values)
    assert np.array_equal(back.mask, statuses.mask)


def test_from_arrays_missing_entry_raises():
    packed = PackedStatuses.from_statuses(np.ones((5, 3), dtype=np.uint8))
    arrays = packed.to_arrays()
    del arrays["kernel_n_bits"]
    with pytest.raises(DataError):
        PackedStatuses.from_arrays(arrays)


def test_from_arrays_inconsistent_width_raises():
    packed = PackedStatuses.from_statuses(np.ones((5, 3), dtype=np.uint8))
    arrays = dict(packed.to_arrays())
    arrays["kernel_n_bits"] = np.array([200], dtype=np.int64)
    with pytest.raises(DataError):
        PackedStatuses.from_arrays(arrays)


def test_mismatched_mask_shape_raises():
    ones = pack_bits(np.ones((5, 3), dtype=np.uint8))
    mask = pack_bits(np.ones((5, 2), dtype=np.uint8))
    with pytest.raises(DataError):
        PackedStatuses(ones=ones, mask=mask, n_bits=5)


# ----------------------------------------------------------------------
# pairwise kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mask_density", [None, 0.8])
@pytest.mark.parametrize("rows, cols", [(None, None), ((2, 9), (11, 20))])
def test_chunked_products_equal_oracle_counts(monkeypatch, mask_density, rows, cols):
    # Shrink the per-product limit to two words, so β=300 (five words,
    # the last one partial) is counted in three chunks summed in int64;
    # the counts must equal the oracle's, for the whole matrix and for
    # an off-diagonal block.
    rng = np.random.default_rng(13)
    statuses = _random_statuses(rng, 300, 20, mask_density=mask_density)
    packed = PackedStatuses.from_statuses(statuses)
    reference = oracle.pairwise_complete_counts(statuses)
    monkeypatch.setattr(kernels, "_MAX_PRODUCT_BITS", 2 * WORD_BITS)
    chunked = packed_pairwise_complete_counts(packed, rows, cols)
    block = (slice(*(rows or (0, 20))), slice(*(cols or (0, 20))))
    for key in ("11", "10", "01", "00", "obs"):
        assert chunked[key].dtype == np.int64, key
        assert np.array_equal(reference[key][block], chunked[key]), key


def test_unmasked_pairwise_complete_equals_joint_plus_beta():
    rng = np.random.default_rng(14)
    statuses = _random_statuses(rng, 100, 8)
    packed = PackedStatuses.from_statuses(statuses)
    joint = packed_joint_counts(packed)
    complete = packed_pairwise_complete_counts(packed)
    for key in ("11", "10", "01", "00"):
        assert np.array_equal(joint[key], complete[key])
    assert (complete["obs"] == 100).all()


#: (rows, cols) node spans: the whole matrix, a diagonal block, and two
#: off-diagonal blocks (one above, one below the diagonal).
BLOCKS = [((0, 11), (0, 11)), ((3, 7), (3, 7)), ((0, 4), (4, 11)), ((6, 11), (2, 5))]


@pytest.mark.parametrize("mask_density", [None, 0.8])
@pytest.mark.parametrize("rows, cols", BLOCKS)
def test_block_counts_equal_dense_slices(mask_density, rows, cols):
    # The block form tiles count through: square blocks reuse the
    # transpose, other blocks take a fourth product — same integers.
    rng = np.random.default_rng(16)
    statuses = _random_statuses(rng, 140, 11, mask_density)
    packed = PackedStatuses.from_statuses(statuses)
    dense = packed_pairwise_complete_counts(packed)
    block = packed_pairwise_complete_counts(packed, rows, cols)
    for key in ("11", "10", "01", "00", "obs"):
        assert np.array_equal(block[key], dense[key][slice(*rows), slice(*cols)]), key


def test_zero_process_matrix_counts_to_zero():
    packed = PackedStatuses.from_statuses(np.zeros((0, 4), dtype=np.uint8))
    assert packed.n_words == 0
    joint = packed_joint_counts(packed)
    assert all(not joint[key].any() for key in joint)


# ----------------------------------------------------------------------
# family contingency counting at the 62-column cap
# ----------------------------------------------------------------------

def test_family_counts_at_62_parent_cap_boundary():
    # MAX_PARENT_SET_SIZE == MAX_PACK_COLUMNS == 62: the widest family
    # the search can legally score must count identically to the oracle.
    assert MAX_PARENT_SET_SIZE == MAX_PACK_COLUMNS
    rng = np.random.default_rng(15)
    statuses = _random_statuses(rng, 70, 63)
    packed = PackedStatuses.from_statuses(statuses)
    parents = list(range(1, 63))
    assert len(parents) == MAX_PACK_COLUMNS
    reference = oracle.family_counts(statuses, 0, parents)
    totals, infected, beta = packed_family_counts(packed, 0, parents)
    assert np.array_equal(reference.totals, totals)
    assert np.array_equal(reference.infected, infected)
    assert reference.beta == beta


def test_family_counts_beyond_cap_raises_like_numpy_path():
    rng = np.random.default_rng(16)
    statuses = _random_statuses(rng, 10, 64)
    packed = PackedStatuses.from_statuses(statuses)
    parents = list(range(1, 64))
    with pytest.raises(DataError, match="too many columns for bit-packing: 63"):
        packed_family_counts(packed, 0, parents)
    with pytest.raises(DataError, match="too many columns for bit-packing: 63"):
        family_counts(statuses, 0, parents)
    with pytest.raises(DataError, match="too many columns for bit-packing: 63"):
        oracle.family_counts(statuses, 0, parents)


def test_pattern_tree_and_wide_paths_agree(monkeypatch):
    rng = np.random.default_rng(17)
    for mask_density in (None, 0.7):
        statuses = _random_statuses(rng, 120, 8, mask_density=mask_density)
        packed = PackedStatuses.from_statuses(statuses)
        parents = [1, 4, 2, 7]
        tree = packed_family_counts(packed, 0, parents)
        monkeypatch.setattr(kernels, "_PATTERN_TREE_MAX_PARENTS", 0)
        wide = packed_family_counts(packed, 0, parents)
        monkeypatch.undo()
        assert np.array_equal(tree[0], wide[0])
        assert np.array_equal(tree[1], wide[1])
        assert tree[2] == wide[2]


def test_family_counts_with_never_observed_family():
    # A family whose mask intersection is empty degrades to ([0], [0], 0),
    # exactly like the oracle's zero-complete-rows guard.
    data = np.ones((6, 3), dtype=np.uint8)
    mask = np.ones((6, 3), dtype=np.bool_)
    mask[:, 2] = False
    statuses = StatusMatrix(data, mask)
    packed = PackedStatuses.from_statuses(statuses)
    reference = oracle.family_counts(statuses, 0, [2])
    totals, infected, beta = packed_family_counts(packed, 0, [2])
    assert np.array_equal(reference.totals, totals)
    assert np.array_equal(reference.infected, infected)
    assert reference.beta == beta == 0


def test_family_counts_empty_parent_set():
    rng = np.random.default_rng(18)
    statuses = _random_statuses(rng, 33, 4, mask_density=0.5)
    packed = PackedStatuses.from_statuses(statuses)
    reference = oracle.family_counts(statuses, 2, [])
    totals, infected, beta = packed_family_counts(packed, 2, [])
    assert np.array_equal(reference.totals, totals)
    assert np.array_equal(reference.infected, infected)
    assert reference.beta == beta


# ----------------------------------------------------------------------
# ParentSearch integration
# ----------------------------------------------------------------------

def test_parent_search_pickle_drops_packed_cache():
    rng = np.random.default_rng(19)
    statuses = _random_statuses(rng, 60, 6)
    search = ParentSearch(statuses, TendsConfig())
    parents, _ = search.find_parents(0, [1, 2, 3])
    assert search._packed is not None  # cache built on first score
    assert search._split is not None
    clone = pickle.loads(pickle.dumps(search))
    assert clone._packed is None  # workers re-pack lazily
    assert clone._split is None
    clone_parents, _ = clone.find_parents(0, [1, 2, 3])
    assert clone_parents == parents


def test_parent_search_backends_agree():
    rng = np.random.default_rng(20)
    statuses = _random_statuses(rng, 80, 8, mask_density=0.85)
    search = ParentSearch(statuses, TendsConfig())
    reference = oracle.ScalarParentSearch(statuses, TendsConfig())
    for node in range(8):
        candidates = [c for c in range(8) if c != node]
        ref_parents, ref_diag = reference.find_parents(node, candidates)
        got_parents, got_diag = search.find_parents(node, candidates)
        assert ref_parents == got_parents
        assert ref_diag == got_diag
