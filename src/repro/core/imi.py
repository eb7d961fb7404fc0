"""Infection mutual information (paper §IV-B, Eq. 24–25).

For a node pair ``(v_i, v_j)`` with binary infection variables
``X_i, X_j``, the *pointwise* MI contribution of the outcome
``(X_i = a, X_j = b)`` is

    MI(X_i = a, X_j = b) = P̂(a, b) · log2( P̂(a, b) / (P̂(a) · P̂(b)) )

which is positive when the outcome co-occurs more often than independence
predicts and negative otherwise.  Standard MI sums all four contributions
and therefore cannot distinguish positive from negative infection
correlation.  The paper's *infection MI* keeps the sign information:

    IMI(X_i, X_j) = MI(1,1) + MI(0,0) − |MI(1,0)| − |MI(0,1)|

so that pairs whose infections co-occur (both-infected and both-uninfected
outcomes over-represented) score high, while anti-correlated pairs go
negative and independent pairs sit near zero.

The cost is one exact all-pairs count product (:mod:`repro.core.kernels`)
— the ``O(β n²)`` stage of the complexity analysis (§IV-D) — plus
elementwise log passes over the pair matrix.  Every MI matrix, dense or
tiled, is built by one cache-blocked pass (:func:`mi_pass`): it walks the
upper-triangle blocks of a pair grid a row chunk at a time, computes the
four terms in reusable chunk-sized buffers, writes each block and its
mirror, and collects the stage-2 threshold sample as each row chunk
completes, so no ``n × n`` temporary exists besides the output.

>>> from repro.simulation.statuses import StatusMatrix
>>> coupled = StatusMatrix([[1, 1], [0, 0]] * 5)     # always agree
>>> opposed = StatusMatrix([[1, 0], [0, 1]] * 5)     # always disagree
>>> float(infection_mi_matrix(coupled)[0, 1])
1.0
>>> float(infection_mi_matrix(opposed)[0, 1])
-1.0
>>> float(traditional_mi_matrix(opposed)[0, 1])      # MI cannot tell them apart
1.0
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.core.kernels import (
    PackedStatuses,
    packed_infection_counts,
    packed_pairwise_complete_counts,
)
from repro.core.stats import derive_counts
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "MI_KINDS",
    "mi_pass",
    "dense_mi_matrix",
    "infection_mi_matrix",
    "traditional_mi_matrix",
]

#: The MI matrices :func:`mi_pass` builds: Eq. 25's infection MI and the
#: traditional MI of the paper's Fig. 10–11 ablation.
MI_KINDS = ("infection", "traditional")

_TERM_KEYS = ("11", "10", "01", "00")

#: Byte budget of :func:`mi_pass`'s reusable chunk buffers; it sets the
#: height of a row chunk (a dense n = 100 matrix is one chunk).
_PASS_BYTES = 1024 * 1024

#: Buffer bytes per pair of a chunk: four term planes, a ratio plane and
#: a floor plane, all float64.
_ENTRY_BYTES = 6 * 8

#: Block width of the pair grid :func:`dense_mi_matrix` walks.
_DENSE_BLOCK = 256


# ----------------------------------------------------------------------
# one block's terms, into caller-owned buffers
# ----------------------------------------------------------------------

def _pointwise_term(
    p_joint: np.ndarray, ratio: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    """``p · log2(p / d)`` where ``p > 0``, else ``p · 0`` — the
    ``0 · log 0 = 0`` convention, and 0 for a degenerate marginal.

    ``ratio`` holds the denominators ``d`` on entry and ``floor`` is a
    float64 scratch of the same shape; both are overwritten, and
    ``p_joint`` is overwritten with the term and returned.  All three are
    contiguous, so ``log2`` runs over one contiguous buffer (1.0 where
    the term is 0) and every value is the one a full-array pass gives.

    The quotient is a plain divide, and ``fmax`` against ``floor`` (1.0
    where ``p <= 0``, else 0.0) sets the entries whose term is 0 to 1.0:
    there the quotient is 0, or NaN where ``d`` is 0 too (a zero
    marginal zeroes the joint count), and ``fmax`` takes 1.0 over both;
    elsewhere it is ``p / d > 0`` and stays as is.  IEEE division is
    correctly rounded, so these are the bits of a divide guarded by
    ``where=d > 0``, without a masked copy.  The caller holds the
    ``errstate``.
    """
    np.divide(p_joint, ratio, out=ratio)
    np.less_equal(p_joint, 0.0, out=floor)
    np.fmax(ratio, floor, out=ratio)
    np.log2(ratio, out=ratio)
    return np.multiply(p_joint, ratio, out=p_joint)


def _joint_terms(
    n11: np.ndarray,
    row_counts: np.ndarray,
    col_counts: np.ndarray,
    beta: int,
    terms: dict[str, np.ndarray],
    ratio: np.ndarray,
    floor: np.ndarray,
) -> dict[str, np.ndarray]:
    """Fill ``terms`` with one block's four terms from fully observed
    counts.

    ``n11`` is the block's both-infected counts and ``row_counts`` /
    ``col_counts`` the infected totals of its row and column nodes.  The
    other three joint counts are the exact differences of
    :func:`~repro.core.stats.derive_counts`, formed here in float64
    (exact: every count is far below 2**53) so each ``p = count / β``
    has the bits of the integer count's quotient with no int64 plane in
    between.  ``ratio`` and
    ``floor`` are scratch; every buffer is contiguous and
    ``n11``-shaped.
    """
    p1_row = row_counts / beta
    p1_col = col_counts / beta
    row = {"1": p1_row, "0": 1.0 - p1_row}
    column = {"1": p1_col, "0": 1.0 - p1_col}
    np.copyto(terms["11"], n11)
    np.subtract(row_counts[:, None], terms["11"], out=terms["10"])
    np.subtract(col_counts[None, :], terms["11"], out=terms["01"])
    np.subtract(beta - row_counts[:, None], terms["01"], out=terms["00"])
    for key in _TERM_KEYS:
        p_joint = np.divide(terms[key], float(beta), out=terms[key])
        np.multiply(row[key[0]][:, None], column[key[1]][None, :], out=ratio)
        _pointwise_term(p_joint, ratio, floor)
    return terms


def _pairwise_terms(
    counts: Mapping[str, np.ndarray],
    terms: dict[str, np.ndarray],
    ratio: np.ndarray,
    floor: np.ndarray,
) -> dict[str, np.ndarray]:
    """Fill ``terms`` with one block's four terms over pairwise-complete
    counts (masked data): ``counts`` holds the block's four joint counts
    and ``"obs"``, the per-pair effective sample size ``β_ij``.

    Joint probabilities divide by ``β_ij`` and the marginals are
    recomputed per pair from the same complete rows
    (``P̂^{(ij)}(X_i = 1) = (n11 + n10) / β_ij``), so joint and marginal
    estimates always refer to the same sample; pairs with ``β_ij = 0``
    contribute 0.  The marginal planes are block-sized temporaries.
    """
    beta_ij = np.asarray(counts["obs"], dtype=np.float64)
    shape = beta_ij.shape
    observed = beta_ij > 0

    def share(numerator: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``numerator / β_ij`` where some process was observed, else 0."""
        out.fill(0.0)
        return np.divide(numerator, beta_ij, out=out, where=observed)

    p1_row = share(counts["11"] + counts["10"], np.empty(shape))
    p1_col = share(counts["11"] + counts["01"], np.empty(shape))
    row = {
        "1": p1_row,
        "0": np.subtract(1.0, p1_row, out=np.zeros(shape), where=observed),
    }
    column = {
        "1": p1_col,
        "0": np.subtract(1.0, p1_col, out=np.zeros(shape), where=observed),
    }
    for key in _TERM_KEYS:
        np.multiply(row[key[0]], column[key[1]], out=ratio)
        _pointwise_term(share(counts[key], terms[key]), ratio, floor)
    return terms


# ----------------------------------------------------------------------
# the blocked pass
# ----------------------------------------------------------------------

def _write_block(
    out: np.ndarray,
    terms: dict[str, np.ndarray],
    scratch: np.ndarray,
    rows: tuple[int, int],
    cols: tuple[int, int],
    kind: str,
) -> None:
    """Combine one chunk block's terms into ``out[rows, cols]`` and, for
    the columns past the chunk's own rows, into the mirror
    ``out[cols, rows]``.

    The block takes Eq. 25's order, ``((t11 + t00) ∓ t10) ∓ t01``
    (``∓`` subtracts magnitudes for infection MI and adds terms for
    traditional MI, which is then clamped at 0).  Each term is symmetric under the
    mirror with ``"10"`` and ``"01"`` swapped — ``MI(X_j = a, X_i = b)``
    is ``MI(X_i = b, X_j = a)`` bit for bit: the same counts over the
    same sample size, and marginal products that differ only in factor
    order — so the mirrored entry's own combination is
    ``((t11 + t00) ∓ t01) ∓ t10`` of the same buffers, sharing the sum
    and the magnitudes.  The combined matrix is not float-symmetric, so
    the order matters.  The buffers are overwritten.
    """
    (r0, r1), (c0, c1) = rows, cols
    total = np.add(terms["11"], terms["00"], out=terms["11"])
    first, second = terms["10"], terms["01"]
    if kind == "infection":
        combine = np.subtract
        np.abs(first, out=first)
        np.abs(second, out=second)
    else:
        combine = np.add
    combine(combine(total, first, out=scratch), second, out=scratch)
    if kind == "traditional":
        np.maximum(scratch, 0.0, out=scratch)
    out[r0:r1, c0:c1] = scratch
    # Columns of the chunk's own rows were computed directly above.
    skip = max(0, r1 - c0)
    if skip < c1 - c0:
        combine(combine(total, second, out=scratch), first, out=scratch)
        if kind == "traditional":
            np.maximum(scratch, 0.0, out=scratch)
        out[c0 + skip:c1, r0:r1] = scratch[:, skip:].T


def _append_sample(sample: list[np.ndarray], rows: np.ndarray, start: int) -> None:
    """Append the non-negative off-diagonal values of ``rows`` — the
    complete rows ``start, start + 1, ...`` of a square MI matrix — to
    ``sample`` as one array, in row-major order."""
    rows = np.asarray(rows)
    keep = rows >= 0.0
    height = rows.shape[0]
    keep[np.arange(height), np.arange(start, start + height)] = False
    # compress over the flat rows: the same values, in the same order,
    # as rows[keep], in about half the time.
    sample.append(np.compress(keep.ravel(), rows.ravel()))


def mi_pass(
    planes: Callable[[int, int], Mapping[str, np.ndarray]],
    infected: np.ndarray,
    beta: int,
    *,
    block: int,
    has_missing: bool,
    kind: str = "infection",
    sample: list[np.ndarray] | None = None,
    allocate: Callable[[tuple[int, int]], np.ndarray] | None = None,
) -> np.ndarray:
    """The ``n × n`` MI matrix of ``kind`` from cached pair counts, in
    one cache-blocked pass; diagonal zeroed.

    ``planes(bi, bj)`` returns the count planes of upper-triangle block
    ``(bi, bj)`` (``bi <= bj``) of a grid of ``block``-wide blocks:
    ``"11"`` for fully observed data, and ``"11"``, ``"10"``, ``"01"``
    and ``"obs"`` for masked data, in any integer dtype and layout.
    ``infected`` holds the per-node infected totals and ``beta`` the
    number of processes.  ``allocate(shape)`` makes the float64 output
    (default :func:`numpy.empty`; a tiled fit passes a memory-map).

    The pass goes band by band (reading each of the band's blocks once)
    and, within a band, one row chunk at a time; :data:`_PASS_BYTES`
    sets a chunk's height, so its buffers stay
    cache-sized and are reused by every block.  For the chunk's rows
    ``[r0, r1)`` it computes the terms of the columns from ``r0`` on —
    the rest of the diagonal block, then each block right of it —
    straight from the counts and the marginals, and writes each piece
    and the mirror of its columns past the chunk (:func:`_write_block`).
    The columns left of ``r0`` are mirrors written by earlier chunks, so
    the chunk's rows are complete then: their diagonal is zeroed and,
    with ``sample`` given, their non-negative off-diagonal values are
    appended to it while still in cache.  Concatenated, the sample is
    the values of ``mi[~np.eye(n)]`` that are ``>= 0`` in row-major
    order — the stage-2 threshold's input (Algorithm 1 line 5) — and
    nothing rescans the matrix.

    Every entry is the one the whole-matrix formulas give, bit for bit:
    the arithmetic is elementwise in the same order, and ``log2`` runs
    only over contiguous buffers.
    """
    if kind not in MI_KINDS:
        raise DataError(f"unknown MI kind: {kind!r}")
    if beta == 0:
        raise DataError("cannot estimate MI from zero diffusion processes")
    infected = np.asarray(infected)
    n = infected.shape[0]
    out = (allocate or np.empty)((n, n))
    width = min(block, n)
    height = min(width, max(1, _PASS_BYTES // (_ENTRY_BYTES * width)))
    buffers = [np.empty(height * width) for _ in range(6)]
    n_blocks = -(-n // block)
    with np.errstate(divide="ignore", invalid="ignore"):
        for bi in range(n_blocks):
            a0, a1 = bi * block, min((bi + 1) * block, n)
            band = {bj: planes(bi, bj) for bj in range(bi, n_blocks)}
            for r0 in range(a0, a1, height):
                r1 = min(r0 + height, a1)
                for bj, counts in band.items():
                    b0 = bj * block
                    c0, c1 = max(r0, b0), min(b0 + block, n)
                    size, shape = (r1 - r0) * (c1 - c0), (r1 - r0, c1 - c0)
                    *term_planes, ratio, floor = (
                        buffer[:size].reshape(shape) for buffer in buffers
                    )
                    terms = dict(zip(_TERM_KEYS, term_planes))
                    rows, cols = slice(r0 - a0, r1 - a0), slice(c0 - b0, c1 - b0)
                    if has_missing:
                        chunk = derive_counts(
                            {key: plane[rows, cols] for key, plane in counts.items()},
                            has_missing=True,
                            row_infected=infected[r0:r1],
                            col_infected=infected[c0:c1],
                            beta=beta,
                        )
                        _pairwise_terms(chunk, terms, ratio, floor)
                    else:
                        _joint_terms(
                            counts["11"][rows, cols],
                            infected[r0:r1],
                            infected[c0:c1],
                            beta,
                            terms,
                            ratio,
                            floor,
                        )
                    _write_block(out, terms, ratio, (r0, r1), (c0, c1), kind)
                diagonal = np.arange(r0, r1)
                out[diagonal, diagonal] = 0.0
                if sample is not None:
                    _append_sample(sample, out[r0:r1], r0)
    return out


def dense_mi_matrix(
    counts: Mapping[str, np.ndarray],
    infected: np.ndarray,
    beta: int,
    *,
    has_missing: bool,
    kind: str = "infection",
    sample: list[np.ndarray] | None = None,
) -> np.ndarray:
    """:func:`mi_pass` over dense ``(n, n)`` stored count planes (keyed
    by :func:`~repro.core.stats.stored_count_keys`), read as views of
    :data:`_DENSE_BLOCK`-wide blocks."""

    def planes(bi: int, bj: int) -> dict[str, np.ndarray]:
        rows = slice(bi * _DENSE_BLOCK, (bi + 1) * _DENSE_BLOCK)
        cols = slice(bj * _DENSE_BLOCK, (bj + 1) * _DENSE_BLOCK)
        return {key: np.asarray(plane)[rows, cols] for key, plane in counts.items()}

    return mi_pass(
        planes,
        infected,
        beta,
        block=_DENSE_BLOCK,
        has_missing=has_missing,
        kind=kind,
        sample=sample,
    )


def _statuses_mi_matrix(statuses: StatusMatrix, kind: str) -> np.ndarray:
    """The ``kind`` MI matrix of a status matrix, counted by the packed
    kernels and built by :func:`dense_mi_matrix`."""
    if statuses.beta == 0:
        raise DataError("cannot estimate MI from zero diffusion processes")
    packed = PackedStatuses.from_statuses(statuses)
    return dense_mi_matrix(
        packed_pairwise_complete_counts(packed),
        packed_infection_counts(packed),
        statuses.beta,
        has_missing=statuses.has_missing,
        kind=kind,
    )


def infection_mi_matrix(statuses: StatusMatrix) -> np.ndarray:
    """The ``n × n`` infection-MI matrix (Eq. 25); diagonal zeroed.

    ``IMI[i, j]`` measures the positive infection correlation between
    ``v_i`` and ``v_j``.  The measure is symmetric in its arguments, so the
    matrix is symmetric; the diagonal (a node with itself) carries no
    information about edges and is set to 0.
    """
    return _statuses_mi_matrix(statuses, "infection")


def traditional_mi_matrix(statuses: StatusMatrix) -> np.ndarray:
    """Standard mutual information per pair (sum of all four pointwise
    terms); diagonal zeroed.  Used by the paper's Fig. 10–11 ablation
    ("TENDS with traditional MI")."""
    return _statuses_mi_matrix(statuses, "traditional")
