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
the cost is one bit-packed all-pairs popcount pass
(:mod:`repro.core.kernels`) — the ``O(β n²)`` stage of the complexity
analysis (§IV-D).

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
    bit-packed popcount kernels (:mod:`repro.core.kernels`).
    """
    if statuses.beta == 0:
        raise DataError("cannot estimate MI from zero diffusion processes")
    packed = PackedStatuses.from_statuses(statuses)
    if statuses.has_missing:
        return mi_terms_from_pairwise_counts(packed_pairwise_complete_counts(packed))
    return mi_terms_from_joint_counts(
        packed_joint_counts(packed), packed_infection_counts(packed), statuses.beta
    )


def mi_terms_from_joint_counts(
    joints: dict[str, np.ndarray],
    infection_counts: np.ndarray,
    beta: int,
) -> dict[str, np.ndarray]:
    """Pointwise MI terms from fully-observed joint counts.

    ``joints`` holds the four ``(n, n)`` pairwise count matrices (keys
    ``"11"``/``"10"``/``"01"``/``"00"``), ``infection_counts`` the per-node
    infected totals, and ``beta`` the number of processes — exactly the
    additive statistics :func:`repro.core.kernels.packed_joint_counts` and
    :meth:`StatusMatrix.infection_counts` produce, whether computed in one
    pass or accumulated batch by batch (integer addition is exact, so both
    routes feed bit-identical counts into the identical float pipeline).
    """
    if beta == 0:
        raise DataError("cannot estimate MI from zero diffusion processes")
    p1 = infection_counts / beta
    p0 = 1.0 - p1
    marginal = {"1": p1, "0": p0}

    terms: dict[str, np.ndarray] = {}
    for key in ("11", "10", "01", "00"):
        a, b = key[0], key[1]
        p_joint = joints[key] / float(beta)
        denominator = np.outer(marginal[a], marginal[b])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denominator > 0, p_joint / denominator, 1.0)
            logs = np.where((p_joint > 0) & (ratio > 0), np.log2(ratio), 0.0)
        terms[key] = p_joint * logs
    return terms


def mi_terms_from_pairwise_counts(
    counts: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Pointwise MI terms over pairwise-complete counts (masked data).

    ``counts`` is the five-matrix dict of
    :func:`repro.core.kernels.packed_pairwise_complete_counts` (the four
    joint counts plus the per-pair effective sample size ``"obs"``).
    Identical in structure to the clean path, except every quantity is an
    ``(n, n)`` matrix: joint probabilities divide by the per-pair ``β_ij``
    and the marginals are recomputed per pair from the same complete rows
    (``P̂^{(ij)}(X_i = 1) = (n11 + n10) / β_ij``), so joint and marginal
    estimates always refer to the same sample.
    """
    beta_ij = counts["obs"].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p1_row = np.where(beta_ij > 0, (counts["11"] + counts["10"]) / beta_ij, 0.0)
        p1_col = np.where(beta_ij > 0, (counts["11"] + counts["01"]) / beta_ij, 0.0)
    marginal_row = {"1": p1_row, "0": np.where(beta_ij > 0, 1.0 - p1_row, 0.0)}
    marginal_col = {"1": p1_col, "0": np.where(beta_ij > 0, 1.0 - p1_col, 0.0)}

    terms: dict[str, np.ndarray] = {}
    for key in ("11", "10", "01", "00"):
        a, b = key[0], key[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            p_joint = np.where(beta_ij > 0, counts[key] / beta_ij, 0.0)
        denominator = marginal_row[a] * marginal_col[b]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denominator > 0, p_joint / denominator, 1.0)
            logs = np.where((p_joint > 0) & (ratio > 0), np.log2(ratio), 0.0)
        terms[key] = p_joint * logs
    return terms


def imi_from_terms(terms: dict[str, np.ndarray]) -> np.ndarray:
    """Combine pointwise terms into the infection-MI matrix (Eq. 25);
    diagonal zeroed."""
    imi = (
        terms["11"]
        + terms["00"]
        - np.abs(terms["10"])
        - np.abs(terms["01"])
    )
    np.fill_diagonal(imi, 0.0)
    return imi


def mi_from_terms(terms: dict[str, np.ndarray]) -> np.ndarray:
    """Combine pointwise terms into the traditional MI matrix; diagonal
    zeroed, tiny float-noise negatives clamped to 0."""
    mi = terms["11"] + terms["00"] + terms["10"] + terms["01"]
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
