"""Data-driven hyperparameter selection for TENDS (extension).

The reproduction found one regime where the paper's auto-threshold τ is
not enough: when cascades saturate (high α or μ, dense graphs), the IMI
distribution loses its bimodality, the 2-means τ under-prunes, and the
greedy over-selects (EXPERIMENTS.md, honest-deviation register #1).

This module adds the standard statistical remedy — model selection on
held-out data, requiring **no ground truth**:

1. split the β processes into a training and a validation set,
2. fit TENDS on the training split at each candidate ``threshold_scale``,
3. score every fitted topology by the *predictive* log-likelihood of the
   validation processes under Laplace-smoothed CPTs estimated from the
   training split,
4. return the scale with the highest held-out likelihood.

A caveat the bench (``benchmarks/bench_extension_model_selection.py``)
documents honestly: predictive likelihood measures *explanatory* power,
and spurious-but-correlated parents (two-hop neighbours, community
co-members) genuinely help prediction, so the selected scale tracks the
F-optimal scale only loosely.  Measured on NetSci at β = 150 it recovers
part of the oracle's gain in the saturated α = 0.25 regime but can trade
~0.1 F for a more predictive model at the paper's α = 0.15 — use it as a
starting point when no ground truth exists, not as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import TendsConfig
from repro.core.scoring import _node
from repro.core.stats import SufficientStats
from repro.core.tends import Tends, TendsResult
from repro.exceptions import ConfigurationError, DataError
from repro.simulation.statuses import StatusMatrix
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_fraction

__all__ = [
    "predictive_log_likelihood",
    "ThresholdSelection",
    "select_threshold_scale",
]


def predictive_log_likelihood(
    train: StatusMatrix,
    validation: StatusMatrix,
    parent_sets: Sequence[Sequence[int]],
) -> float:
    """Held-out log2-likelihood of ``validation`` under train-fitted CPTs.

    For each node, the conditional probability table over its parent
    patterns is estimated from ``train`` with Laplace (+1/+2) smoothing;
    validation patterns never seen in training fall back to the node's
    smoothed marginal.  A parent index outside ``[0, n)`` raises
    :class:`~repro.exceptions.DataError`.
    """
    if train.n_nodes != validation.n_nodes:
        raise DataError(
            f"train covers {train.n_nodes} nodes, validation {validation.n_nodes}"
        )
    if len(parent_sets) != train.n_nodes:
        raise DataError(
            f"{len(parent_sets)} parent sets for {train.n_nodes} nodes"
        )
    total = 0.0
    for child, parents in enumerate(parent_sets):
        parents = [_node(parent, train.n_nodes) for parent in parents]
        # Smoothed CPT from the training split.
        pattern_ids, inverse, totals = train.observed_pattern_counts(parents)
        child_train = train.column(child).astype(np.float64)
        infected = np.bincount(
            inverse, weights=child_train, minlength=totals.shape[0]
        )
        cpt = {
            int(pattern): (infected[i] + 1.0) / (totals[i] + 2.0)
            for i, pattern in enumerate(pattern_ids.tolist())
        }
        marginal = (float(child_train.sum()) + 1.0) / (train.beta + 2.0)

        # Validation patterns, bit-packed the same way.
        if parents:
            weights = 1 << np.arange(len(parents), dtype=np.int64)
            codes = validation.values[:, parents].astype(np.int64) @ weights
        else:
            codes = np.zeros(validation.beta, dtype=np.int64)
        child_valid = validation.column(child)
        for code, status in zip(codes.tolist(), child_valid.tolist()):
            p_infected = cpt.get(code, marginal)
            p = p_infected if status else 1.0 - p_infected
            total += math.log2(p)
    return total


@dataclass(frozen=True)
class ThresholdSelection:
    """Outcome of :func:`select_threshold_scale`.

    Attributes
    ----------
    best_scale:
        The ``threshold_scale`` with the highest held-out likelihood.
    scores:
        ``{scale: predictive log2-likelihood}`` for every candidate.
    result:
        The final :class:`TendsResult` — refit on **all** processes at the
        selected scale.
    """

    best_scale: float
    scores: dict[float, float]
    result: TendsResult


def select_threshold_scale(
    statuses: StatusMatrix,
    scales: Sequence[float] = (0.6, 0.8, 1.0, 1.5, 2.0),
    *,
    heldout_fraction: float = 0.3,
    config: TendsConfig | None = None,
    seed: RandomState = None,
) -> ThresholdSelection:
    """Pick TENDS's ``threshold_scale`` by held-out predictive likelihood.

    Parameters
    ----------
    statuses:
        All observed processes; a random ``heldout_fraction`` of them is
        reserved for validation during selection.
    scales:
        Candidate multipliers of the auto-selected τ.
    config:
        Base configuration; its own ``threshold_scale`` is overridden by
        each candidate.
    seed:
        Controls the train/validation split.

    Returns
    -------
    ThresholdSelection
        With the winning scale and a final fit on the full data.
    """
    if not scales:
        raise ConfigurationError("provide at least one candidate scale")
    check_fraction("heldout_fraction", heldout_fraction)
    n_valid = max(1, int(round(heldout_fraction * statuses.beta)))
    if n_valid >= statuses.beta:
        raise ConfigurationError(
            f"held-out fraction {heldout_fraction} leaves no training processes"
        )
    rng = as_generator(seed)
    order = rng.permutation(statuses.beta)
    validation = statuses.subset(order[:n_valid])
    train = statuses.subset(order[n_valid:])

    base = config or TendsConfig()
    # Every candidate scale refits the same training split, so count its
    # sufficient statistics once and share them across the fits (stage 1
    # is a pure function of these counts).  Not applicable under
    # zero-fill, where fit() transforms the observations first.
    train_stats: SufficientStats | None = None
    if not (train.has_missing and base.missing == "zero-fill"):
        train_stats = SufficientStats.from_statuses(train)
    scores: dict[float, float] = {}
    for scale in scales:
        fitted = Tends(base.with_overrides(threshold_scale=float(scale))).fit(
            train, stats=train_stats
        )
        scores[float(scale)] = predictive_log_likelihood(
            train, validation, [list(p) for p in fitted.parent_sets]
        )
    best_scale = max(scores, key=lambda s: scores[s])
    final = Tends(base.with_overrides(threshold_scale=best_scale)).fit(statuses)
    return ThresholdSelection(best_scale=best_scale, scores=scores, result=final)
