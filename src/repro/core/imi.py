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

All functions here are fully vectorised over the ``n × n`` pair matrix;
the cost is one exact all-pairs count product (:mod:`repro.core.kernels`)
— the ``O(β n²)`` stage of the complexity analysis (§IV-D) — plus
elementwise log passes over the pair matrix.

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

from typing import Mapping

import numpy as np

from repro.core.kernels import (
    PackedStatuses,
    packed_infection_counts,
    packed_joint_counts,
    packed_pairwise_complete_counts,
)
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "pointwise_mi_terms",
    "mi_terms_from_joint_counts",
    "mi_terms_from_pairwise_counts",
    "imi_from_terms",
    "mi_from_terms",
    "infection_mi_matrix",
    "traditional_mi_matrix",
]


def pointwise_mi_terms(statuses: StatusMatrix) -> dict[str, np.ndarray]:
    """The four pointwise MI matrices, keyed ``"11"``, ``"10"``, ``"01"``, ``"00"``.

    ``result[ab][i, j]`` is ``MI(X_i = a, X_j = b)`` estimated from the
    observed statuses.  Outcomes that never occur contribute 0 (the usual
    ``0 · log 0 = 0`` convention), as do outcomes whose marginals are
    degenerate.

    When the matrix carries an observation mask with missing entries,
    every pair ``(i, j)`` is estimated over its *pairwise-complete*
    processes only — the rows where both statuses were observed — with
    per-pair effective sample size ``β_ij`` and per-pair marginals.  This
    keeps the estimate unbiased under missing-at-random corruption
    instead of counting unobserved entries as "uninfected".  Pairs with
    ``β_ij = 0`` contribute 0.  For fully-observed matrices the code path
    (and hence every floating-point operation) is unchanged.

    Both estimates are pure functions of additive sufficient statistics;
    :func:`mi_terms_from_joint_counts` and
    :func:`mi_terms_from_pairwise_counts` expose the count-based cores so
    cached counts (:class:`repro.core.stats.SufficientStats`) run the
    exact same floating-point pipeline.  The integer counts come from the
    exact pair-count products of :mod:`repro.core.kernels`.  ``"01"`` is a
    transposed view of ``"10"`` (see :func:`mi_terms_from_joint_counts`).
    """
    if statuses.beta == 0:
        raise DataError("cannot estimate MI from zero diffusion processes")
    packed = PackedStatuses.from_statuses(statuses)
    if statuses.has_missing:
        return mi_terms_from_pairwise_counts(
            packed_pairwise_complete_counts(packed), square=True
        )
    return mi_terms_from_joint_counts(
        packed_joint_counts(packed), packed_infection_counts(packed), statuses.beta
    )


def _pointwise_term(p_joint: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """``p · log2(p / d)`` where ``p`` and the ratio are positive, else
    ``p · 0`` — the ``0 · log 0 = 0`` convention, and 0 for a degenerate
    marginal.

    ``ratio`` holds the denominators ``d`` on entry and is overwritten;
    ``p_joint`` is overwritten with the term and returned.  ``log2``
    runs over the whole contiguous array (1.0 where the term is 0), so
    every value is the one a plain full-array pass gives.  The caller
    holds the ``errstate``.
    """
    np.divide(p_joint, ratio, out=ratio, where=ratio > 0)
    invalid = p_joint > 0
    invalid &= ratio > 0
    np.logical_not(invalid, out=invalid)
    np.copyto(ratio, 1.0, where=invalid)
    np.log2(ratio, out=ratio)
    return np.multiply(p_joint, ratio, out=p_joint)


def mi_terms_from_joint_counts(
    joints: Mapping[str, np.ndarray],
    infection_counts: np.ndarray,
    beta: int,
    column_counts: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Pointwise MI terms from fully-observed joint counts.

    ``joints`` holds the four pairwise count matrices (keys
    ``"11"``/``"10"``/``"01"``/``"00"``), ``infection_counts`` the per-node
    infected totals, and ``beta`` the number of processes — exactly the
    additive statistics :func:`repro.core.kernels.packed_joint_counts` and
    :meth:`StatusMatrix.infection_counts` produce, whether computed in one
    pass or accumulated batch by batch (integer addition is exact, so both
    routes feed bit-identical counts into the identical float pipeline).

    For one block of the pair space (a tile), ``infection_counts`` holds
    the totals of the block's row nodes and ``column_counts`` those of
    its column nodes; omitted, the columns are the rows — the full
    ``n × n`` matrix or a diagonal tile.  Every operation is elementwise,
    so a block's terms equal the same slice of the full terms bit for bit.

    Without ``column_counts`` the block is square and its counts are
    symmetric (``n01 = n10ᵀ``), so ``term["01"]`` is ``term["10"]ᵀ``:
    the same products of the same factors (float multiplication
    commutes), hence equal bit for bit, and not computed twice.
    """
    if beta == 0:
        raise DataError("cannot estimate MI from zero diffusion processes")
    p1 = infection_counts / beta
    row = {"1": p1, "0": 1.0 - p1}
    if column_counts is None:
        column = row
        keys = ("11", "10", "00")
    else:
        q1 = column_counts / beta
        column = {"1": q1, "0": 1.0 - q1}
        keys = ("11", "10", "01", "00")

    terms: dict[str, np.ndarray] = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for key in keys:
            a, b = key[0], key[1]
            p_joint = joints[key] / float(beta)
            ratio = np.multiply.outer(row[a], column[b])
            terms[key] = _pointwise_term(p_joint, ratio)
    if column_counts is None:
        terms["01"] = terms["10"].T
    return terms


def mi_terms_from_pairwise_counts(
    counts: Mapping[str, np.ndarray], *, square: bool = False
) -> dict[str, np.ndarray]:
    """Pointwise MI terms over pairwise-complete counts (masked data).

    ``counts`` is the five-matrix dict of
    :func:`repro.core.kernels.packed_pairwise_complete_counts` (the four
    joint counts plus the per-pair effective sample size ``"obs"``).
    Identical in structure to the clean path, except every quantity is an
    ``(n, n)`` matrix: joint probabilities divide by the per-pair ``β_ij``
    and the marginals are recomputed per pair from the same complete rows
    (``P̂^{(ij)}(X_i = 1) = (n11 + n10) / β_ij``), so joint and marginal
    estimates always refer to the same sample.  Purely elementwise on the
    five count planes, so it applies to one block of the pair space as is.

    ``square`` says the block's rows are its columns (the full matrix or
    a diagonal tile), so the counts are symmetric and, as in
    :func:`mi_terms_from_joint_counts`, ``term["01"]`` is taken as
    ``term["10"]ᵀ`` bit for bit.
    """
    beta_ij = counts["obs"].astype(np.float64)
    shape = beta_ij.shape
    observed = beta_ij > 0
    keys = ("11", "10", "00") if square else ("11", "10", "01", "00")

    def share(numerator: np.ndarray) -> np.ndarray:
        """``numerator / β_ij`` where some process was observed, else 0."""
        return np.divide(numerator, beta_ij, out=np.zeros(shape), where=observed)

    p1_row = share(counts["11"] + counts["10"])
    p1_col = share(counts["11"] + counts["01"])
    marginal_row = {
        "1": p1_row,
        "0": np.subtract(1.0, p1_row, out=np.zeros(shape), where=observed),
    }
    marginal_col = {
        "1": p1_col,
        "0": np.subtract(1.0, p1_col, out=np.zeros(shape), where=observed),
    }
    terms: dict[str, np.ndarray] = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for key in keys:
            a, b = key[0], key[1]
            ratio = np.multiply(marginal_row[a], marginal_col[b])
            terms[key] = _pointwise_term(share(counts[key]), ratio)
    if square:
        terms["01"] = terms["10"].T
    return terms


def imi_from_terms(
    terms: Mapping[str, np.ndarray], *, zero_diagonal: bool = True
) -> np.ndarray:
    """Combine pointwise terms into the infection-MI matrix (Eq. 25);
    diagonal zeroed unless ``zero_diagonal`` is false (a block off the
    diagonal of the pair space has no ``(i, i)`` entries)."""
    imi = (
        terms["11"]
        + terms["00"]
        - np.abs(terms["10"])
        - np.abs(terms["01"])
    )
    if zero_diagonal:
        np.fill_diagonal(imi, 0.0)
    return imi


def mi_from_terms(
    terms: Mapping[str, np.ndarray], *, zero_diagonal: bool = True
) -> np.ndarray:
    """Combine pointwise terms into the traditional MI matrix; diagonal
    zeroed (as in :func:`imi_from_terms`), tiny float-noise negatives
    clamped to 0."""
    mi = terms["11"] + terms["00"] + terms["10"] + terms["01"]
    if zero_diagonal:
        np.fill_diagonal(mi, 0.0)
    return np.maximum(mi, 0.0)


def infection_mi_matrix(statuses: StatusMatrix) -> np.ndarray:
    """The ``n × n`` infection-MI matrix (Eq. 25); diagonal zeroed.

    ``IMI[i, j]`` measures the positive infection correlation between
    ``v_i`` and ``v_j``.  The measure is symmetric in its arguments, so the
    matrix is symmetric; the diagonal (a node with itself) carries no
    information about edges and is set to 0.
    """
    return imi_from_terms(pointwise_mi_terms(statuses))


def traditional_mi_matrix(statuses: StatusMatrix) -> np.ndarray:
    """Standard mutual information per pair (sum of all four pointwise
    terms); diagonal zeroed.  Used by the paper's Fig. 10–11 ablation
    ("TENDS with traditional MI")."""
    return mi_from_terms(pointwise_mi_terms(statuses))
