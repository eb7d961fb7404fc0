"""Bit-packed counting kernels for the two counting hot paths.

The complexity analysis (paper §IV-D) puts the cost of TENDS in the
``O(β n²)`` pairwise-count stage behind Eq. 24–25 and the ``O(β |F|)``
contingency counting inside the parent search.  Both reduce to counting
set bits in ANDs of binary columns, so this module packs every status
column (and observation-mask column) into uint64 words — 64 processes
per word.  These kernels are the only production counting path.

* **Pair counts** (``n11 = XᵀX`` and its masked relatives) are one
  float32 matrix product of the unpacked {0, 1} columns.  Every partial
  sum is an integer no larger than the number of processes summed, and
  float32 holds every integer up to 2^24 exactly, so whatever order or
  thread count BLAS sums in, the product is the exact count; more
  processes than that are split into chunks whose counts add in int64.
* **Per-node totals and family counts** popcount the packed words.  A
  family is counted on its pattern tree (:func:`pattern_tree`): the
  child's observed processes AND-refined by each parent's split words,
  one word row per observed parent pattern.  The parent search and
  :func:`repro.core.scoring.family_counts` both build trees with it;
  the search counts a tree's refinement by one more column without
  materialising it (:func:`refined_pattern_counts`).

Layout: a ``(β, n)`` status matrix becomes an ``(n, W)`` uint64 array
with ``W = ceil(β / 64)``; bit ``ℓ`` of word ``w`` of row ``j`` holds the
status of node ``j`` in process ``64·w + ℓ`` (little-endian bit order,
so :func:`unpack_bits` is ``np.unpackbits(..., bitorder="little")``).
Tail bits of the last word — positions ≥ β — are always zero, which is
what lets every count come straight off a popcount without masking.

Every count is **bit-identical** to the dense numpy estimators kept in
the test tree as the differential oracle (``tests/oracle.py``, proved by
``tests/property/test_prop_kernels.py``): the same int64 counts feed the
same float pipelines.

Popcounting uses ``np.bitwise_count`` (numpy ≥ 2.0) when available and
falls back to a 16-bit lookup table otherwise; the choice is made per
call via the module flag ``_HAS_NATIVE_POPCOUNT`` so tests can force the
fallback path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from repro.exceptions import DataError
from repro.obs.trace import current_tracer
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "MAX_PACK_COLUMNS",
    "WORD_BITS",
    "has_native_popcount",
    "popcount_words",
    "pack_bits",
    "unpack_bits",
    "PackedStatuses",
    "packed_pairwise_complete_counts",
    "packed_infection_counts",
    "packed_observed_counts",
    "packed_split_words",
    "refine_patterns",
    "pattern_tree",
    "packed_pattern_counts",
    "refined_pattern_counts",
]

#: Bits per packed word.
WORD_BITS = 64

#: Hard cap on the number of parents a family may have: a pattern code
#: ``Σ bit_j << j`` stays a positive int64 with headroom up to 62 bits —
#: the same constant behind ``StatusMatrix.observed_pattern_counts``,
#: :func:`repro.core.scoring.family_counts` and the parent-set cap
#: ``MAX_PARENT_SET_SIZE`` in ``repro.core.search``.
MAX_PACK_COLUMNS = 62

#: Most processes one float32 pair-count product sums over: float32
#: holds every integer up to 2^24 exactly.  A multiple of
#: :data:`WORD_BITS`, so chunks split on word boundaries.
_MAX_PRODUCT_BITS = 1 << 24


# ----------------------------------------------------------------------
# popcount primitive: native np.bitwise_count, or a 16-bit lookup table
# ----------------------------------------------------------------------

_HAS_NATIVE_POPCOUNT = hasattr(np, "bitwise_count")

# Set-bit counts of every 16-bit value (64 KiB); a uint64 word popcount
# is the sum over its four 16-bit halves.  Built unconditionally so the
# fallback is exercisable (and testable) even on numpy ≥ 2.0.
_POPCOUNT_TABLE = (
    np.unpackbits(
        np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2), axis=1
    )
    .sum(axis=1)
    .astype(np.uint8)
)


def has_native_popcount() -> bool:
    """Whether this numpy provides ``np.bitwise_count`` (numpy ≥ 2.0)."""
    return _HAS_NATIVE_POPCOUNT


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts as an int64 array of the same shape."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_NATIVE_POPCOUNT:
        return np.bitwise_count(words).astype(np.int64)
    halves = words.view(np.uint16).reshape(words.shape + (4,))
    return _POPCOUNT_TABLE[halves].sum(axis=-1, dtype=np.int64)


def _popcount_sum(words: np.ndarray) -> np.ndarray:
    """Sum of set bits along the last (word) axis, as int64.

    ``words`` must be C-contiguous uint64 — the AND temporaries and
    packed rows the kernels feed in always are.
    """
    if _HAS_NATIVE_POPCOUNT:
        # A product with a vector of ones sums the uint8 word counts as
        # exactly as ``sum(axis=-1, dtype=np.int64)``, and about twice as
        # fast over the few words of a pattern row (W = 4 at β = 200).
        return np.bitwise_count(words) @ _int64_ones(words.shape[-1])
    return _POPCOUNT_TABLE[words.view(np.uint16)].sum(axis=-1, dtype=np.int64)


@lru_cache(maxsize=None)
def _int64_ones(length: int) -> np.ndarray:
    """A shared, read-only int64 vector of ``length`` ones."""
    ones = np.ones(length, dtype=np.int64)
    ones.flags.writeable = False
    return ones


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------

def _n_words(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def pack_bits(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(n_bits, n_rows)`` {0, 1} matrix into ``(n_rows, W)``
    uint64 words, ``W = ceil(n_bits / 64)``.

    Bit ``ℓ`` of word ``w`` of output row ``j`` is ``matrix[64·w + ℓ, j]``;
    tail bits beyond ``n_bits`` are zero.  The transposed layout puts each
    *column* of the input (one node's statuses across processes)
    contiguously in memory, which is what the pairwise kernels stream over.
    """
    array = np.ascontiguousarray(matrix, dtype=np.uint8)
    if array.ndim != 2:
        raise DataError(f"pack_bits needs a 2-D matrix, got shape {array.shape}")
    n_bits, n_rows = array.shape
    packed = np.packbits(array.T, axis=1, bitorder="little")
    width = 8 * _n_words(n_bits)
    if packed.shape[1] != width:
        pad = np.zeros((n_rows, width - packed.shape[1]), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=1)
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(n_rows, W)`` words back to the
    ``(n_bits, n_rows)`` uint8 {0, 1} matrix."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise DataError(f"unpack_bits needs a 2-D word array, got shape {words.shape}")
    if n_bits < 0 or words.shape[1] != _n_words(n_bits):
        raise DataError(
            f"{words.shape[1]} words cannot hold {n_bits} bits "
            f"(expected {_n_words(max(n_bits, 0))})"
        )
    if n_bits == 0:
        return np.zeros((0, words.shape[0]), dtype=np.uint8)
    bits = np.unpackbits(
        words.view(np.uint8), axis=1, bitorder="little", count=n_bits
    )
    return np.ascontiguousarray(bits.T)


def _full_words(n_bits: int) -> np.ndarray:
    """One packed row with every bit below ``n_bits`` set (tail zeroed) —
    the observed processes of every node of an unmasked matrix."""
    words = np.full(_n_words(n_bits), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = n_bits % WORD_BITS
    if words.size and tail:
        words[-1] = np.uint64((1 << tail) - 1)
    return words


# ----------------------------------------------------------------------
# packed observations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PackedStatuses:
    """Bit-packed form of one :class:`~repro.simulation.statuses.StatusMatrix`.

    Attributes
    ----------
    ones:
        ``(n, W)`` uint64 — the raw status bits (placeholder values under
        an observation mask travel as stored, exactly like
        ``StatusMatrix.values``; the kernels AND with :attr:`mask` before
        any masked count).
    mask:
        ``(n, W)`` uint64 observation bits (1 = observed), or ``None``
        when every entry was observed.
    n_bits:
        ``β`` — the number of packed processes; bits at positions ≥ β are
        zero in every row of both arrays.
    """

    ones: np.ndarray
    mask: np.ndarray | None
    n_bits: int

    def __post_init__(self) -> None:
        if self.ones.ndim != 2 or self.ones.dtype != np.uint64:
            raise DataError(
                f"packed statuses must be 2-D uint64, got "
                f"{self.ones.dtype} with shape {self.ones.shape}"
            )
        if self.n_bits < 0 or self.ones.shape[1] != _n_words(self.n_bits):
            raise DataError(
                f"{self.ones.shape[1]} words per row cannot hold "
                f"{self.n_bits} packed bits"
            )
        if self.mask is not None and (
            self.mask.shape != self.ones.shape or self.mask.dtype != np.uint64
        ):
            raise DataError(
                f"packed mask shape {self.mask.shape} does not match "
                f"packed statuses shape {self.ones.shape}"
            )
        self.ones.setflags(write=False)
        if self.mask is not None:
            self.mask.setflags(write=False)

    @classmethod
    def from_statuses(cls, statuses: StatusMatrix) -> "PackedStatuses":
        """Pack a status matrix (and its observation mask, if any)."""
        if not isinstance(statuses, StatusMatrix):
            statuses = StatusMatrix(statuses)
        with current_tracer().span(
            "kernel.pack", n_nodes=statuses.n_nodes, beta=statuses.beta
        ):
            ones = pack_bits(statuses.values)
            mask = (
                None
                if statuses.mask is None
                else pack_bits(statuses.mask.astype(np.uint8))
            )
        return cls(ones=ones, mask=mask, n_bits=statuses.beta)

    @property
    def n_nodes(self) -> int:
        return int(self.ones.shape[0])

    @property
    def n_words(self) -> int:
        return int(self.ones.shape[1])

    @property
    def has_missing(self) -> bool:
        return self.mask is not None

    def unpack(self) -> StatusMatrix:
        """Exact inverse of :meth:`from_statuses`."""
        data = unpack_bits(self.ones, self.n_bits)
        if self.mask is None:
            return StatusMatrix(data)
        return StatusMatrix(data, unpack_bits(self.mask, self.n_bits).astype(np.bool_))

    # ------------------------------------------------------------------
    # NPZ round-trip
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Array mapping for ``np.savez`` (see :meth:`from_arrays`)."""
        arrays = {
            "kernel_ones": self.ones,
            "kernel_n_bits": np.array([self.n_bits], dtype=np.int64),
        }
        if self.mask is not None:
            arrays["kernel_mask"] = self.mask
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "PackedStatuses":
        """Rebuild from a :meth:`to_arrays` mapping (or an ``np.load``
        archive of one); consistency is re-validated, so a truncated or
        mismatched snapshot raises :class:`~repro.exceptions.DataError`
        instead of miscounting."""
        try:
            ones = np.ascontiguousarray(arrays["kernel_ones"], dtype=np.uint64)
            n_bits = int(np.asarray(arrays["kernel_n_bits"]).reshape(-1)[0])
        except KeyError as error:
            raise DataError(f"packed-status arrays missing entry: {error}") from error
        mask = None
        if "kernel_mask" in arrays:
            mask = np.ascontiguousarray(arrays["kernel_mask"], dtype=np.uint64)
        return cls(ones=ones, mask=mask, n_bits=n_bits)


# ----------------------------------------------------------------------
# all-pairs counting
# ----------------------------------------------------------------------

def _bit_columns(words: np.ndarray, n_bits: int) -> np.ndarray:
    """``(rows, n_bits)`` float32 {0, 1}: the first ``n_bits`` bits of
    each packed word row, one column per process."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8),
        axis=1,
        bitorder="little",
        count=n_bits,
    )
    return bits.astype(np.float32)


def _pairwise_counts(a: np.ndarray, b: np.ndarray, n_bits: int) -> np.ndarray:
    """``out[i, j] = popcount(a[i] & b[j])`` as int64, for packed word
    matrices holding ``n_bits`` processes.

    One float32 matrix product of the unpacked {0, 1} columns, exact in
    any BLAS summation order (module docstring).  Beyond
    :data:`_MAX_PRODUCT_BITS` processes the words are split into chunks
    whose counts add in int64.  Passing the same array as ``a`` and ``b``
    unpacks it once, and BLAS computes the symmetric product's one
    triangle.
    """
    out = None
    step = max(1, _MAX_PRODUCT_BITS // WORD_BITS)
    # β = 0 still takes one chunk: its empty product is the zero counts.
    for start in range(0, max(1, _n_words(n_bits)), step):
        stop = start + step
        chunk_bits = min(n_bits, stop * WORD_BITS) - start * WORD_BITS
        columns_a = _bit_columns(a[:, start:stop], chunk_bits)
        columns_b = (
            columns_a if b is a else _bit_columns(b[:, start:stop], chunk_bits)
        )
        counts = (columns_a @ columns_b.T).astype(np.int64)
        out = counts if out is None else out + counts
    return out


def packed_infection_counts(packed: PackedStatuses) -> np.ndarray:
    """Per-node infected totals (``StatusMatrix.infection_counts``)."""
    return _popcount_sum(packed.ones)


def packed_observed_counts(packed: PackedStatuses) -> np.ndarray:
    """Per-node observed totals (``StatusMatrix.observed_counts``)."""
    if packed.mask is None:
        return np.full(packed.n_nodes, packed.n_bits, dtype=np.int64)
    return _popcount_sum(packed.mask)


def _block_slices(
    packed: PackedStatuses,
    rows: tuple[int, int] | None,
    cols: tuple[int, int] | None,
) -> tuple[slice, slice, bool]:
    """Row and column slices of one pair block (the whole ``n × n``
    space when a span is omitted), and whether the block is square on
    the diagonal — rows equal to columns."""
    rows = (0, packed.n_nodes) if rows is None else rows
    cols = (0, packed.n_nodes) if cols is None else cols
    return slice(*rows), slice(*cols), tuple(rows) == tuple(cols)


def packed_pairwise_complete_counts(
    packed: PackedStatuses,
    rows: tuple[int, int] | None = None,
    cols: tuple[int, int] | None = None,
) -> dict[str, np.ndarray]:
    """The stored pair-count planes (:func:`repro.core.stats.stored_count_keys`)
    over pairwise-complete processes.

    Each pair ``(i, j)`` is counted over the processes in which **both**
    statuses were observed.  Fully observed data returns only ``"11"``,
    one all-pairs product; :func:`repro.core.stats.derive_counts` rebuilds
    the other planes from the per-node marginals.  Masked data returns
    ``"11"``, ``"10"``, ``"01"`` and ``"obs"``, the per-pair effective
    process count ``β_ij``.  ``rows``/``cols`` are ``[start, stop)`` node
    spans restricting the result to one pair block (default: every node);
    a block's counts equal the same slice of the full matrices exactly.

    A masked square block (rows equal to columns, the whole matrix
    included) takes three products: observed ones against observed ones
    (``n11``), observed ones against the mask (the
    ``x_i = 1 ∧ obs_i ∧ obs_j`` marginal, whose transpose is the column
    marginal), and mask against mask (``β_ij``).  Any other block has no
    transpose to reuse, so the column marginal takes a fourth product
    (mask against observed ones).
    """
    row_slice, col_slice, square = _block_slices(packed, rows, cols)
    if packed.mask is None:
        ones_a = packed.ones[row_slice]
        ones_b = ones_a if square else packed.ones[col_slice]
        with current_tracer().span(
            "kernel.pair_counts",
            kind="joint",
            n_nodes=packed.n_nodes,
            words=packed.n_words,
        ):
            return {"11": _pairwise_counts(ones_a, ones_b, packed.n_bits)}
    mask_a = packed.mask[row_slice]
    mask_b = mask_a if square else packed.mask[col_slice]
    with current_tracer().span(
        "kernel.pair_counts",
        kind="pairwise-complete",
        n_nodes=packed.n_nodes,
        words=packed.n_words,
    ):
        observed_a = packed.ones[row_slice] & mask_a
        observed_b = observed_a if square else packed.ones[col_slice] & mask_b
        n11 = _pairwise_counts(observed_a, observed_b, packed.n_bits)
        ones_mask = _pairwise_counts(observed_a, mask_b, packed.n_bits)
        if square:
            mask_ones = ones_mask.T
        else:
            mask_ones = _pairwise_counts(mask_a, observed_b, packed.n_bits)
        obs = _pairwise_counts(mask_a, mask_b, packed.n_bits)
    return {"11": n11, "10": ones_mask - n11, "01": mask_ones - n11, "obs": obs}


# ----------------------------------------------------------------------
# family contingency counting
# ----------------------------------------------------------------------

def packed_split_words(packed: PackedStatuses) -> tuple[np.ndarray, np.ndarray]:
    """``(zeros, ones)``: per node, the processes in which it was observed
    uninfected and observed infected, as two ``(n, W)`` word arrays.

    These are the two halves one pattern-tree level splits a row into
    (:func:`refine_patterns`); because the mask is folded in, every row
    refined by them stays family-complete.  ``zeros | ones`` is the
    node's observed processes, and tail bits are zero in both.
    """
    observed = _full_words(packed.n_bits) if packed.mask is None else packed.mask
    return observed & ~packed.ones, observed & packed.ones


def refine_patterns(
    rows: np.ndarray, zeros: np.ndarray, ones: np.ndarray
) -> np.ndarray:
    """One pattern-tree level: split every pattern row by one more column.

    ``rows`` is ``(..., R, W)`` pattern word-rows in ascending code
    order; ``zeros``/``ones`` are the new column's ``(..., W)`` words and
    broadcast against the leading axes of ``rows``, so one shared tree
    ``(1, R, W)`` refined by ``C`` candidate columns ``(C, W)`` gives all
    ``C`` families at once.  The result is ``(..., 2R, W)``: the zeros
    block, then the ones block — the new column is the most significant
    code bit, and ascending code order is kept.
    """
    return np.concatenate(
        (rows & zeros[..., None, :], rows & ones[..., None, :]), axis=-2
    )


def pattern_tree(
    rows: np.ndarray, zeros: np.ndarray, ones: np.ndarray
) -> np.ndarray:
    """A family's pattern tree: its observed pattern word-rows ``(R, W)``
    in ascending code order, first parent least significant.

    ``rows`` is the tree to start from — a child's observed processes,
    ``(zeros[c] | ones[c])[None]`` of its split words, for a new family,
    or a family's tree to extend — and ``zeros``/``ones`` are the
    ``(k, W)`` split words of the parents to add, in order.  Empty rows
    are dropped after every level, so a tree holds at most ``β`` rows
    for any number of parents.
    """
    rows = rows[rows.any(axis=-1)]
    for zero, one in zip(zeros, ones):
        rows = refine_patterns(rows, zero, one)
        rows = rows[rows.any(axis=-1)]
    return rows


def packed_pattern_counts(
    rows: np.ndarray, child_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(totals, infected)`` of pattern word-rows: the set bits of each
    row, and of each row AND the child's status words, summed along the
    last (word) axis as int64."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    return _popcount_sum(rows), _popcount_sum(rows & child_words)


def refined_pattern_counts(
    planes: np.ndarray,
    counts: np.ndarray,
    zeros: np.ndarray,
    ones: np.ndarray | None = None,
) -> np.ndarray:
    """The counts of ``planes`` refined by one more column, without the
    refined rows.

    ``planes`` is ``(2, ..., R, W)``: pattern word-rows, and the same
    rows AND the child's status words; ``counts`` is ``(2, ..., R)``,
    their popcounts (so ``counts[0]``/``counts[1]`` are the
    ``(totals, infected)`` of :func:`packed_pattern_counts`).  ``zeros``
    and ``ones`` are the new column's ``(..., W)`` split words, which
    broadcast against the leading axes like :func:`refine_patterns`.

    Returns ``(2, ..., 2R)`` int64: the counts of
    :func:`refine_patterns` of each plane — the zeros half, then the
    ones half.  Only the zeros half is popcounted.  Without ``ones``
    the ones half is ``counts`` minus the zeros half, which is exact
    when ``zeros | ones`` covers every bit of every row (unmasked data);
    under a mask pass ``ones`` and it is popcounted too.
    """
    zero = _popcount_sum(planes & zeros[..., None, :])
    if ones is None:
        one = counts - zero
    else:
        one = _popcount_sum(planes & ones[..., None, :])
    return np.concatenate((zero, one), axis=-1)
