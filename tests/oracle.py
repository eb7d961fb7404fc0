"""Dense numpy estimators and a scalar parent search: the differential
oracle for the packed kernels, the MI term pipeline and the batch scorer.

Production counts with the packed kernels of :mod:`repro.core.kernels`
(float32 products of unpacked bits, popcounts for per-node totals).
This module computes the same integers the plain way — int64 matrix
products and ``np.unique`` grouping over the raw ``(β, n)`` status
matrix — so tests can prove production bit-identical to an independent
implementation.  The MI terms are the plain four-term loop, one full
pass per term with no reuse of the ``"01" = "10"ᵀ`` symmetry and no
in-place buffers, which the in-place pipeline of :mod:`repro.core.imi`
must match bit for bit.

Production's parent search scores candidates in batches
(:func:`repro.core.scoring.batch_scores`); :class:`ScalarParentSearch`
is the same search with one ``family_counts`` plus ``log_likelihood −
penalty`` per evaluation, the per-family scalar helpers of
:mod:`repro.core.scoring`.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence
from unittest import mock

import numpy as np

from repro.core.config import TendsConfig
from repro.core.scoring import (
    FamilyCounts,
    delta_i,
    log_likelihood,
    penalty,
    size_bound,
)
from repro.core.search import MAX_PARENT_SET_SIZE, SearchDiagnostics
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


# ----------------------------------------------------------------------
# pointwise MI terms
# ----------------------------------------------------------------------

def mi_terms_from_joint_counts(
    joints: Mapping[str, np.ndarray],
    infection_counts: np.ndarray,
    beta: int,
    column_counts: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """``repro.core.imi.mi_terms_from_joint_counts``, one full pass per
    term; ``column_counts`` are the column nodes' totals of a block
    (omitted: the rows')."""
    p1 = infection_counts / beta
    p0 = 1.0 - p1
    row = {"1": p1, "0": p0}
    if column_counts is None:
        column = row
    else:
        q1 = column_counts / beta
        column = {"1": q1, "0": 1.0 - q1}

    terms: dict[str, np.ndarray] = {}
    for key in ("11", "10", "01", "00"):
        a, b = key[0], key[1]
        p_joint = joints[key] / float(beta)
        denominator = np.outer(row[a], column[b])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denominator > 0, p_joint / denominator, 1.0)
            logs = np.where((p_joint > 0) & (ratio > 0), np.log2(ratio), 0.0)
        terms[key] = p_joint * logs
    return terms


def mi_terms_from_pairwise_counts(
    counts: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """``repro.core.imi.mi_terms_from_pairwise_counts``, one full pass
    per term, over any block of the pair space."""
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


def imi_from_terms(
    terms: Mapping[str, np.ndarray], *, zero_diagonal: bool = True
) -> np.ndarray:
    """Eq. 25 in ``repro.core.imi.imi_from_terms``'s summation order."""
    imi = terms["11"] + terms["00"] - np.abs(terms["10"]) - np.abs(terms["01"])
    if zero_diagonal:
        np.fill_diagonal(imi, 0.0)
    return imi


def mi_from_terms(
    terms: Mapping[str, np.ndarray], *, zero_diagonal: bool = True
) -> np.ndarray:
    """Traditional MI in ``repro.core.imi.mi_from_terms``'s order."""
    mi = terms["11"] + terms["00"] + terms["10"] + terms["01"]
    if zero_diagonal:
        np.fill_diagonal(mi, 0.0)
    return np.maximum(mi, 0.0)


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
) -> FamilyCounts:
    """``repro.core.scoring.family_counts`` by row grouping.

    Rows are grouped with :meth:`StatusMatrix.observed_pattern_counts`
    (over the family-complete rows when entries are missing) and the
    child's infections summed per group.
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
# parent search
# ----------------------------------------------------------------------

class ScalarParentSearch:
    """:class:`repro.core.search.ParentSearch` with one family count
    (this module's :func:`family_counts`, so no counting code is shared
    with production) and one scalar score per evaluation.  Parent sets,
    scores and every :class:`SearchDiagnostics` field must equal
    production's.
    """

    def __init__(self, statuses: StatusMatrix, config: TendsConfig) -> None:
        self.statuses = statuses
        self.config = config

    def find_parents(
        self, node: int, candidates: Sequence[int]
    ) -> tuple[list[int], SearchDiagnostics]:
        diag = SearchDiagnostics(node=node, n_candidates=len(candidates))
        pool = [int(c) for c in candidates if int(c) != node]
        diag.empty_score = self._score(node, [], diag)
        if not pool:
            diag.final_score = diag.empty_score
            return [], diag
        delta = delta_i(self.statuses, node)
        if self.config.search_strategy == "ranked-union":
            parents = self._ranked_union(node, pool, delta, diag)
        else:
            parents = self._greedy_rescoring(node, pool, delta, diag)
        return parents, diag

    def _greedy_rescoring(self, node, pool, delta, diag) -> list[int]:
        current_parents: list[int] = []
        current_score = diag.empty_score
        available = set(pool)
        while available:
            best_combo: tuple[int, ...] | None = None
            best_score = -np.inf
            for combo in self._combinations(sorted(available)):
                trial = current_parents + list(combo)
                if len(trial) > MAX_PARENT_SET_SIZE:
                    diag.bound_hits += 1
                    continue
                counts = family_counts(self.statuses, node, trial)
                diag.n_evaluations += 1
                if len(trial) > size_bound(counts.phi, delta):
                    diag.bound_hits += 1
                    continue
                score = log_likelihood(counts) - penalty(counts)
                if score > best_score:
                    best_score = score
                    best_combo = combo
            if best_combo is None:
                break
            if best_score <= current_score + self.config.min_improvement:
                break
            diag.iterations += 1
            current_parents.extend(best_combo)
            current_score = best_score
            available.difference_update(best_combo)
        diag.final_score = current_score
        return sorted(current_parents)

    def _ranked_union(self, node, pool, delta, diag) -> list[int]:
        scored: list[tuple[float, tuple[int, ...]]] = []
        for combo in self._combinations(pool):
            counts = family_counts(self.statuses, node, list(combo))
            diag.n_evaluations += 1
            if len(combo) > size_bound(counts.phi, delta):
                diag.bound_hits += 1
                continue
            scored.append((log_likelihood(counts) - penalty(counts), combo))
        scored.sort(key=lambda item: (-item[0], item[1]))

        parents: set[int] = set()
        for _, combo in scored:
            union = parents | set(combo)
            if union == parents:
                continue
            if len(union) > MAX_PARENT_SET_SIZE:
                diag.bound_hits += 1
                continue
            diag.iterations += 1
            counts = family_counts(self.statuses, node, sorted(union))
            diag.n_evaluations += 1
            if len(union) > size_bound(counts.phi, delta):
                diag.bound_hits += 1
                continue
            parents = union
        result = sorted(parents)
        diag.final_score = self._score(node, result, diag)
        return result

    def _combinations(self, pool: Sequence[int]) -> Iterable[tuple[int, ...]]:
        top = min(self.config.max_combination_size, len(pool))
        for size in range(1, top + 1):
            yield from combinations(pool, size)

    def _score(self, node, parents, diag) -> float:
        counts = family_counts(self.statuses, node, parents)
        diag.n_evaluations += 1
        return log_likelihood(counts) - penalty(counts)


# ----------------------------------------------------------------------
# whole pipelines
# ----------------------------------------------------------------------

@contextmanager
def scalar_search() -> Iterator[None]:
    """Run every fit's parent search as :class:`ScalarParentSearch` over
    the oracle counts (in-process only: fit with the serial executor)."""
    with mock.patch("repro.core.tends.ParentSearch", ScalarParentSearch):
        yield


def fit(statuses: StatusMatrix) -> TendsResult:
    """A serial ``Tends.fit`` whose every count comes from the oracle and
    whose parent search scores one family at a time."""
    with scalar_search():
        return Tends(executor="serial").fit(statuses, stats=sufficient_stats(statuses))
