"""The TENDS scoring criterion (paper §IV-A, Eq. 3–23).

Given observed statuses ``S`` and a candidate parent set ``F_i`` for node
``v_i``, the paper scores the family with

    g(v_i, F_i) = log2 L(v_i, F_i) − ½ · Σ_j log2(N_ij + 1)          (Eq. 13)

where ``L`` is the maximised multinomial likelihood of the child's status
given each observed parent-status combination ``π_ij``:

    log2 L(v_i, F_i) = Σ_j Σ_k N_ijk · log2(N_ijk / N_ij)            (Eq. 3)

``N_ijk`` counts processes with parent pattern ``π_ij`` and child status
``s_k``; ``N_ij = N_ij1 + N_ij2``.  Combinations that never occur in ``S``
(the paper's ``φ`` non-existent combinations) contribute nothing to either
term because ``N_ij = 0 ⇒ log2(N_ij + 1) = 0``.

Theorem 2 bounds how large a useful parent set can be:

    |F_i| ≤ log2(φ_{F_i} + δ_i)                                      (Eq. 16)
    δ_i   = 2·N₁·log2(β/N₁) + 2·N₂·log2(β/N₂) + log2(β + 1)          (Eq. 17)

with ``N₁``/``N₂`` the child's uninfected/infected process counts (terms
with ``N = 0`` vanish under the same convention).

Every family is counted on its pattern tree
(:func:`repro.core.kernels.pattern_tree`, the parent search's counter
too), giving ``O(β · |F_i|)`` per evaluation as the complexity analysis
(§IV-D) requires, and scored by one float pipeline: :func:`batch_scores`
scores a batch of families from their count arrays, and the one-family
helpers :func:`log_likelihood`, :func:`penalty`, :func:`local_score` and
:func:`global_score` are rows of the same pipeline.  The scalar
reference they are tested against lives in ``tests/oracle.py``.

>>> from repro.simulation.statuses import StatusMatrix
>>> statuses = StatusMatrix([[1, 1], [1, 1], [0, 0], [0, 0], [1, 0], [0, 1]])
>>> counts = family_counts(statuses, child=1, parents=[0])
>>> counts.totals.tolist()      # processes with parent=0 / parent=1
[3, 3]
>>> counts.infected.tolist()    # child infected in each group
[1, 2]
>>> round(local_score(statuses, 1, [0]), 3)   # 2 disagreements in 6 runs:
-7.51
>>> round(empty_set_score(statuses, 1), 3)    # ... the penalty rejects it
-7.404
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kernels import (
    MAX_PACK_COLUMNS,
    PackedStatuses,
    packed_pattern_counts,
    packed_split_words,
    pattern_tree,
)
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "FamilyCounts",
    "family_counts",
    "log_likelihood",
    "penalty",
    "local_score",
    "batch_scores",
    "empty_set_score",
    "global_score",
    "delta_i",
    "size_bound",
]


@dataclass(frozen=True)
class FamilyCounts:
    """Contingency counts of a (child, parent set) family.

    Counts are stored **sparsely over the observed combinations**: the
    non-existent combinations (the paper's ``φ``) contribute 0 to both the
    likelihood and the penalty, so they never need materialising.  This is
    what keeps the search safe on large parent sets — Theorem 2's bound
    ``|F| ≤ log2(φ + δ)`` is self-satisfying once ``2^|F|`` dwarfs β
    (``φ ≈ 2^|F|``), so the literal Algorithm-1 strategy can legitimately
    reach parent sets for which ``2^|F|`` cells would not fit in memory.

    Attributes
    ----------
    n_parents:
        ``|F_i|``.
    totals:
        ``N_ij`` for every **observed** combination ``j`` (all entries > 0
        whenever there is at least one process).
    infected:
        ``N_ij2`` — processes with parent pattern ``j`` and child infected,
        aligned with ``totals``.
    beta:
        Total number of processes (``Σ_j N_ij``).
    """

    n_parents: int
    totals: np.ndarray
    infected: np.ndarray
    beta: int

    @property
    def uninfected(self) -> np.ndarray:
        """``N_ij1`` — child uninfected per observed combination."""
        return self.totals - self.infected

    @property
    def n_possible(self) -> int:
        """``2^{|F_i|}`` possible parent-status combinations.

        A plain Python int: for wide parent sets this exceeds any fixed
        integer width, and it only ever feeds ``log2`` via ``phi``.
        """
        return 1 << self.n_parents

    @property
    def n_observed(self) -> int:
        """Number of combinations with at least one instance in ``S``."""
        return int(np.count_nonzero(self.totals))

    @property
    def phi(self) -> int:
        """``φ_{F_i}`` — combinations with no instances (paper §IV-A)."""
        return self.n_possible - self.n_observed


def _node(node: int, n_nodes: int) -> int:
    """``node`` as an index into ``n_nodes`` nodes; anything out of range
    — a negative index included, which numpy would wrap — raises."""
    index = int(node)
    if not 0 <= index < n_nodes:
        raise DataError(f"node index {node} out of range for {n_nodes} nodes")
    return index


def family_counts(
    statuses: StatusMatrix,
    child: int,
    parents: Sequence[int],
    *,
    packed: PackedStatuses | None = None,
) -> FamilyCounts:
    """Count ``N_ij`` / ``N_ijk`` for ``child`` given ``parents``.

    Counts come off the family's pattern tree
    (:func:`repro.core.kernels.pattern_tree`), built from the split words
    of the family's own columns only: observed patterns in ascending code
    order (first parent = least-significant bit), nothing else
    materialised (see :class:`FamilyCounts`).

    When the matrix carries an observation mask with missing entries, the
    counts run over the *family-complete* processes only — the rows in
    which the child and every parent were all observed — so ``beta``
    becomes the family's effective sample size.  A family with no
    complete rows degrades to all-zero counts (score 0, like an empty
    observation set) rather than raising.

    ``packed`` is the bit-packed form of the same matrix; callers that
    score many families pass it once, otherwise ``statuses`` is packed
    here.  Node indices outside ``[0, n)``, a child among its parents,
    repeated parents, more than 62 parents and a ``packed`` of another
    shape raise :class:`~repro.exceptions.DataError`.
    """
    n_nodes = statuses.n_nodes
    child = _node(child, n_nodes)
    parent_list = [_node(p, n_nodes) for p in parents]
    if child in parent_list:
        raise DataError(f"node {child} cannot be its own parent")
    if len(set(parent_list)) != len(parent_list):
        raise DataError(f"duplicate parents in {parent_list}")
    if len(parent_list) > MAX_PACK_COLUMNS:
        raise DataError(f"too many columns for bit-packing: {len(parent_list)}")
    if packed is None:
        packed = PackedStatuses.from_statuses(statuses)
    elif (packed.n_nodes, packed.n_bits) != (n_nodes, statuses.beta):
        raise DataError(
            f"packed statuses hold {packed.n_nodes} nodes x {packed.n_bits} "
            f"processes, not the {n_nodes} x {statuses.beta} matrix"
        )
    columns = [child, *parent_list]
    family = PackedStatuses(
        ones=packed.ones[columns],
        mask=None if packed.mask is None else packed.mask[columns],
        n_bits=packed.n_bits,
    )
    zeros, ones = packed_split_words(family)
    rows = pattern_tree((zeros[0] | ones[0])[None], zeros[1:], ones[1:])
    totals, infected = packed_pattern_counts(rows, ones[0])
    if not totals.size:  # no family-complete process
        totals = infected = np.zeros(1, dtype=np.int64)
    return FamilyCounts(
        n_parents=len(parent_list),
        totals=totals,
        infected=infected,
        beta=int(totals.sum()),
    )


def log_likelihood(counts: FamilyCounts) -> float:
    """``log2 L(v_i, F_i)`` (Eq. 3): Σ_j Σ_k N_ijk log2(N_ijk / N_ij).

    Always ≤ 0; equals 0 only when every observed combination determines
    the child's status exactly.
    """
    return float(_score_terms(counts.totals[None], counts.infected[None])[0][0])


def penalty(counts: FamilyCounts) -> float:
    """The statistical-error penalty ``½ Σ_j log2(N_ij + 1)`` (Eq. 12-13)."""
    return float(_score_terms(counts.totals[None], counts.infected[None])[1][0])


def batch_scores(
    totals: np.ndarray, infected: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(scores, n_observed)`` of a batch of families (Eq. 13).

    Row ``r`` of the ``(C, P)`` int arrays holds one family's ``N_ij``
    and ``N_ij2`` over its parent patterns in ascending code order;
    zero-total patterns may sit anywhere and count as unobserved.
    ``scores[r]`` equals ``log_likelihood(c) - penalty(c)`` **bit for
    bit**, for ``c`` the :class:`FamilyCounts` of row ``r``'s observed
    patterns, and ``n_observed[r]`` equals ``c.n_observed``; a row with
    no observed pattern scores ``0.0``, like a family with no complete
    rows.
    """
    likelihood, penalty_term, n_observed = _score_terms(totals, infected)
    return likelihood - penalty_term, n_observed


def _score_terms(
    totals: np.ndarray, infected: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(log_likelihood, penalty, n_observed)`` per row of a batch of
    families laid out as in :func:`batch_scores` — the one place the
    scores' float expressions live.

    Each row's terms are summed over its compacted observed entries
    exactly as ``np.sum`` sums that 1-D array (see :func:`_row_sums`),
    so a row's sums do not depend on where its zero-total patterns sit
    or on which other rows share the batch.
    """
    totals = np.asarray(totals, dtype=np.int64)
    infected = np.asarray(infected, dtype=np.int64)
    # Likelihood terms of the infected then the uninfected cells (2C
    # rows), then the penalty terms of the observed patterns (C rows).
    groups = np.concatenate((infected, totals - infected))
    keep = groups > 0
    n_ijk = groups[keep].astype(np.float64)
    n_ij = np.concatenate((totals, totals))[keep].astype(np.float64)
    observed = totals > 0
    n_observed = observed.sum(axis=1)
    terms = np.concatenate(
        (
            n_ijk * (np.log2(n_ijk) - np.log2(n_ij)),
            np.log2(totals[observed].astype(np.float64) + 1.0),
        )
    )
    sums = _row_sums(terms, np.concatenate((keep.sum(axis=1), n_observed)))
    infected_sum, uninfected_sum, penalty_sum = sums.reshape(3, -1)
    return infected_sum + uninfected_sum, 0.5 * penalty_sum, n_observed


def _row_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.sum`` of each row of ``values`` — rows laid end to end,
    ``lengths[r]`` entries each — bit for bit.

    ``np.sum``'s order of additions depends on the length: a sequential
    loop for short arrays, 8-lane pairwise partial sums for longer ones,
    recursive halving beyond that.  Rows of one length therefore go
    through one C-contiguous ``(rows, k)`` block (fancy indexing copies)
    reduced along axis 1, which runs the same inner loop ``np.sum`` runs
    on each 1-D row.
    """
    sums = np.zeros(lengths.shape[0])
    if not values.size:
        return sums
    # Left-justified rows: row r's entries fill padded[r, :lengths[r]].
    padded = np.zeros((lengths.shape[0], int(lengths.max())))
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = values
    rows_of: dict[int, list[int]] = {}
    for row, length in enumerate(lengths.tolist()):
        rows_of.setdefault(length, []).append(row)
    for length, rows in rows_of.items():
        if length:
            sums[rows] = padded[rows, :length].sum(axis=1)
    return sums


def local_score(
    statuses: StatusMatrix,
    child: int,
    parents: Sequence[int],
    *,
    packed: PackedStatuses | None = None,
) -> float:
    """``g(v_i, F_i)`` (Eq. 13) computed from scratch.

    ``packed`` optionally supplies the bit-packed form of ``statuses``
    (see :func:`family_counts`).
    """
    counts = family_counts(statuses, child, parents, packed=packed)
    return float(batch_scores(counts.totals[None], counts.infected[None])[0][0])


def empty_set_score(statuses: StatusMatrix, child: int) -> float:
    """``g(v_i, ∅)`` (Eq. 18) — the baseline every non-empty set must beat."""
    return local_score(statuses, child, [])


def global_score(
    statuses: StatusMatrix, parent_sets: Sequence[Sequence[int]]
) -> float:
    """``g(T)`` (Eq. 12) for a full topology given as per-node parent sets.

    The criterion is decomposable — this is exactly the sum of the local
    scores — which is what turns the reconstruction into ``n`` independent
    parent-set searches.  Provided for whole-topology comparisons (e.g.
    scoring a baseline's output under TENDS's own criterion).

    Every node's family is one row of a single zero-padded
    :func:`batch_scores` batch; the per-node scores are added in node
    order, so the result equals the sum of the :func:`local_score` values.
    """
    if len(parent_sets) != statuses.n_nodes:
        raise DataError(
            f"{len(parent_sets)} parent sets for {statuses.n_nodes} nodes"
        )
    packed = PackedStatuses.from_statuses(statuses)
    families = [
        family_counts(statuses, child, parents, packed=packed)
        for child, parents in enumerate(parent_sets)
    ]
    width = max((counts.totals.size for counts in families), default=0)
    totals = np.zeros((len(families), width), dtype=np.int64)
    infected = np.zeros_like(totals)
    for row, counts in enumerate(families):
        totals[row, : counts.totals.size] = counts.totals
        infected[row, : counts.infected.size] = counts.infected
    return sum(batch_scores(totals, infected)[0].tolist())


def delta_i(statuses: StatusMatrix, child: int) -> float:
    """``δ_i`` from Theorem 2 (Eq. 17).

    Uses the convention ``N · log2(β / N) = 0`` when ``N = 0`` (the child is
    always, or never, infected), consistent with the entropy limits behind
    the derivation.

    Under an observation mask, ``β``/``N₁``/``N₂`` count only the
    processes in which the child was observed; a never-observed child
    gets ``δ_i = log2(0 + 1) = 0`` (no parents allowed) rather than an
    error — missing data degrades the bound, it does not abort inference.
    """
    child = _node(child, statuses.n_nodes)
    beta = statuses.beta
    if beta == 0:
        raise DataError("delta_i undefined for zero processes")
    if statuses.has_missing:
        rows = statuses.complete_rows([child])
        beta = int(rows.shape[0])
        if beta == 0:
            return 0.0
        n2 = int(statuses.column(child)[rows].sum())
    else:
        n2 = int(statuses.column(child).sum())
    n1 = beta - n2
    value = math.log2(beta + 1)
    for count in (n1, n2):
        if count > 0:
            value += 2.0 * count * math.log2(beta / count)
    return value


def size_bound(phi: int, delta: float) -> float:
    """The Theorem-2 upper bound ``log2(φ + δ)`` on ``|F_i|``.

    ``φ + δ`` can be < 1 only in pathological tiny-β cases; the bound is
    then 0 (no parents allowed), never negative infinity.
    """
    argument = phi + delta
    if argument < 1.0:
        return 0.0
    return math.log2(argument)
