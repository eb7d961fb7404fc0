"""Dense numpy estimators: the differential oracle for the packed kernels.

Production counts with the bit-packed popcount kernels of
:mod:`repro.core.kernels`.  This module computes the same integers the
plain way — int64 matrix products and ``np.unique`` grouping over the
raw ``(β, n)`` status matrix — so tests can prove production
bit-identical to an independent implementation.  The float pipelines
(:mod:`repro.core.imi`, :mod:`repro.core.scoring`) are shared.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence
from unittest import mock

import numpy as np

from repro.core.imi import (
    imi_from_terms,
    mi_from_terms,
    mi_terms_from_joint_counts,
    mi_terms_from_pairwise_counts,
)
from repro.core.scoring import FamilyCounts, log_likelihood, penalty
from repro.core.stats import COUNT_KEYS, SufficientStats
from repro.core.tends import Tends, TendsResult
from repro.simulation.statuses import StatusMatrix


# ----------------------------------------------------------------------
# pairwise counts
# ----------------------------------------------------------------------

def joint_counts(statuses: StatusMatrix) -> dict[str, np.ndarray]:
    """The four ``(n, n)`` int64 joint counts ``count(X_i = a ∧ X_j = b)``.

    One ``β × n`` int64 product gives ``n11``; the other three cells
    follow exactly from the per-node marginals.
    """
    ones = statuses.values.astype(np.int64)
    n11 = ones.T @ ones
    infected = statuses.infection_counts()
    n10 = infected[:, None] - n11
    n01 = infected[None, :] - n11
    n00 = statuses.beta - n11 - n10 - n01
    return {"11": n11, "10": n10, "01": n01, "00": n00}


def pairwise_complete_counts(statuses: StatusMatrix) -> dict[str, np.ndarray]:
    """Joint counts over the processes where both statuses were observed,
    plus ``"obs"`` (the per-pair effective sample size ``β_ij``).

    With a mask this takes three products — ones·ones, ones·mask and
    mask·mask; without one it is :func:`joint_counts` with ``obs ≡ β``.
    """
    if statuses.mask is None:
        counts = joint_counts(statuses)
        counts["obs"] = np.full(
            (statuses.n_nodes, statuses.n_nodes), statuses.beta, dtype=np.int64
        )
        return counts
    observed = statuses.mask.astype(np.int64)
    ones = statuses.values.astype(np.int64) * observed
    n11 = ones.T @ ones
    ones_mask = ones.T @ observed
    obs = observed.T @ observed
    n10 = ones_mask - n11
    n01 = ones_mask.T - n11
    n00 = obs - n11 - n10 - n01
    return {"11": n11, "10": n10, "01": n01, "00": n00, "obs": obs}


def sufficient_stats(statuses: StatusMatrix) -> SufficientStats:
    """``SufficientStats.from_statuses`` computed from the oracle counts."""
    pairwise = pairwise_complete_counts(statuses)
    return SufficientStats(
        counts={key: pairwise[key] for key in COUNT_KEYS},
        infected=statuses.infection_counts(),
        observed=statuses.observed_counts(),
        beta=statuses.beta,
        has_missing=statuses.has_missing,
    )


def pointwise_mi_terms(statuses: StatusMatrix) -> dict[str, np.ndarray]:
    """``repro.core.imi.pointwise_mi_terms`` over the oracle counts."""
    if statuses.has_missing:
        return mi_terms_from_pairwise_counts(pairwise_complete_counts(statuses))
    return mi_terms_from_joint_counts(
        joint_counts(statuses), statuses.infection_counts(), statuses.beta
    )


def infection_mi_matrix(statuses: StatusMatrix) -> np.ndarray:
    return imi_from_terms(pointwise_mi_terms(statuses))


def traditional_mi_matrix(statuses: StatusMatrix) -> np.ndarray:
    return mi_from_terms(pointwise_mi_terms(statuses))


# ----------------------------------------------------------------------
# family contingency counts
# ----------------------------------------------------------------------

def family_counts(
    statuses: StatusMatrix,
    child: int,
    parents: Sequence[int],
    *,
    packed=None,
) -> FamilyCounts:
    """``repro.core.scoring.family_counts`` by row grouping.

    Rows are grouped with :meth:`StatusMatrix.observed_pattern_counts`
    (over the family-complete rows when entries are missing) and the
    child's infections summed per group.  ``packed`` is accepted and
    ignored, so this function can stand in for the production one
    (see :func:`counting`).
    """
    parent_list = [int(p) for p in parents]
    if statuses.has_missing:
        rows = statuses.complete_rows([child, *parent_list])
        _, inverse, totals = statuses.observed_pattern_counts(parent_list, rows=rows)
        child_states = statuses.column(child)[rows].astype(np.float64)
        beta = int(rows.shape[0])
    else:
        _, inverse, totals = statuses.observed_pattern_counts(parent_list)
        child_states = statuses.column(child).astype(np.float64)
        beta = statuses.beta
    infected = np.bincount(
        inverse, weights=child_states, minlength=totals.shape[0]
    ).astype(np.int64)
    return FamilyCounts(
        n_parents=len(parent_list), totals=totals, infected=infected, beta=beta
    )


def local_score(statuses: StatusMatrix, child: int, parents: Sequence[int]) -> float:
    counts = family_counts(statuses, child, parents)
    return log_likelihood(counts) - penalty(counts)


# ----------------------------------------------------------------------
# whole pipelines
# ----------------------------------------------------------------------

@contextmanager
def counting() -> Iterator[None]:
    """Route the parent search's contingency counting through the oracle
    (in-process only: run the search with the serial executor)."""
    with mock.patch("repro.core.search.family_counts", family_counts):
        yield


def fit(statuses: StatusMatrix) -> TendsResult:
    """A serial ``Tends.fit`` whose every count comes from the oracle."""
    with counting():
        return Tends(executor="serial").fit(statuses, stats=sufficient_stats(statuses))
