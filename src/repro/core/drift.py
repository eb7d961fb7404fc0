"""Per-pair drift detection over windowed sufficient statistics.

The paper assumes one static diffusion network behind every cascade;
real propagation networks mutate while we observe them.  When the graph
changes, the *joint outcome distribution* of the affected node pairs —
the four counts ``(11, 10, 01, 00)`` that feed IMI — shifts between the
pre-change and post-change regimes.  Because the cached
:class:`~repro.core.stats.SufficientStats` are additive, both regimes
are available in ``O(n²)`` without re-reading cascades: a *recent*
window (the newest ``W`` processes) and a *reference* window (everything
before it, via :meth:`~repro.core.stats.SufficientStats.subtracted`).

:func:`detect_drift` runs one two-sample test per eligible pair:

* ``gtest`` (default) — the G-test (likelihood-ratio χ²) on the 2×4
  contingency table *window × joint outcome*, sensitive to any change in
  the pair's joint distribution;
* ``ztest`` — a two-proportion z-test on the co-infection rate
  ``P(both infected)`` alone, cheaper and more interpretable but blind
  to marginal-preserving changes.

With ``n(n-1)/2`` simultaneous tests, raw p-values would flag dozens of
stationary pairs per check, so rejection runs under multiple-testing
control (:attr:`DriftConfig.correction`): Benjamini-Hochberg (default,
controls the false-discovery rate at ``alpha``), Bonferroni (family-wise
error), or ``none`` (per-pair level, for exploration).  On a stationary
stream the probability that a BH- or Bonferroni-corrected check flags
*anything* is at most ``alpha`` — the detector's FPR knob.

The emitted :class:`DriftReport` names the drifted pairs (with
statistics and p-values) and the affected nodes — exactly the dirty-node
set :meth:`repro.core.tends.Tends.partial_fit` re-searches under
``drift="adapt"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stats import SufficientStats
from repro.exceptions import ConfigurationError, DataError

__all__ = [
    "CORRECTIONS",
    "STATISTICS",
    "DriftConfig",
    "DriftReport",
    "PairDrift",
    "detect_drift",
]

#: Multiple-testing corrections, in documentation order.
CORRECTIONS = ("bh", "bonferroni", "none")

#: Two-sample statistics the detector can run per pair.
STATISTICS = ("gtest", "ztest")

#: The four joint-outcome count keys of a pair's contingency row.
_JOINT_KEYS = ("11", "10", "01", "00")


@dataclass(frozen=True)
class DriftConfig:
    """Sensitivity / false-positive-rate knobs of the drift detector.

    Attributes
    ----------
    alpha:
        Test level.  Under ``correction="bh"`` this bounds the expected
        fraction of falsely-flagged pairs (FDR); under ``"bonferroni"``
        the probability of flagging *any* stationary pair.  Lower =
        fewer false alarms, slower detection.
    correction:
        Multiple-testing control across the ``n(n-1)/2`` pair tests:
        ``"bh"`` (Benjamini-Hochberg), ``"bonferroni"``, or ``"none"``.
    statistic:
        ``"gtest"`` (2×4 likelihood-ratio χ² on the joint outcome
        distribution) or ``"ztest"`` (two-proportion z on the
        co-infection rate).
    min_window_beta:
        Both windows must hold at least this many processes before any
        pair is tested — asymptotic tests on tiny windows are noise.
    min_pair_obs:
        A pair is tested only when both windows observed it at least
        this often (its per-window ``β_ij``); guards the χ² approximation
        against near-empty contingency cells under missing data.
    """

    alpha: float = 0.01
    correction: str = "bh"
    statistic: str = "gtest"
    min_window_beta: int = 25
    min_pair_obs: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(
                f"drift alpha must be in (0, 1), got {self.alpha}"
            )
        if self.correction not in CORRECTIONS:
            raise ConfigurationError(
                f"unknown drift correction {self.correction!r} "
                f"(choose from {', '.join(CORRECTIONS)})"
            )
        if self.statistic not in STATISTICS:
            raise ConfigurationError(
                f"unknown drift statistic {self.statistic!r} "
                f"(choose from {', '.join(STATISTICS)})"
            )
        if self.min_window_beta < 2:
            raise ConfigurationError(
                f"min_window_beta must be >= 2, got {self.min_window_beta}"
            )
        if self.min_pair_obs < 1:
            raise ConfigurationError(
                f"min_pair_obs must be >= 1, got {self.min_pair_obs}"
            )


@dataclass(frozen=True)
class PairDrift:
    """One flagged pair: its test statistic and p-value."""

    i: int
    j: int
    statistic: float
    p_value: float


@dataclass(frozen=True)
class DriftReport:
    """What one drift check concluded.

    ``drifted_pairs`` is sorted most-significant first; ``affected_nodes``
    is the sorted union of their endpoints — the dirty-node set a
    self-healing re-fit re-searches.  ``recent_beta`` records the window
    the check compared against the reference, so an adaptation can rebase
    onto exactly the window that was tested.
    """

    drifted_pairs: tuple[PairDrift, ...]
    affected_nodes: tuple[int, ...]
    n_pairs_tested: int
    alpha: float
    correction: str
    statistic: str
    reference_beta: int
    recent_beta: int
    p_threshold: float | None = None

    @property
    def drifted(self) -> bool:
        """Whether anything was flagged."""
        return bool(self.drifted_pairs)

    @property
    def n_flagged(self) -> int:
        return len(self.drifted_pairs)

    def summary(self) -> str:
        """One human line, for logs and CLI output."""
        if not self.n_pairs_tested:
            return (
                "drift check skipped (windows below "
                f"min_window_beta: reference={self.reference_beta}, "
                f"recent={self.recent_beta})"
            )
        if not self.drifted:
            return (
                f"no drift across {self.n_pairs_tested} pair(s) "
                f"(alpha={self.alpha}, {self.correction}/{self.statistic})"
            )
        return (
            f"drift: {self.n_flagged}/{self.n_pairs_tested} pair(s) flagged, "
            f"{len(self.affected_nodes)} node(s) affected "
            f"(alpha={self.alpha}, {self.correction}/{self.statistic}, "
            f"reference β={self.reference_beta}, recent β={self.recent_beta})"
        )


def _empty_report(
    config: DriftConfig, reference_beta: int, recent_beta: int
) -> DriftReport:
    return DriftReport(
        drifted_pairs=(),
        affected_nodes=(),
        n_pairs_tested=0,
        alpha=config.alpha,
        correction=config.correction,
        statistic=config.statistic,
        reference_beta=reference_beta,
        recent_beta=recent_beta,
        p_threshold=None,
    )


def _g_statistic(
    ref: dict[str, np.ndarray],
    rec: dict[str, np.ndarray],
    ref_tot: np.ndarray,
    rec_tot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair G statistic and degrees of freedom over the 2×4 table."""
    grand = ref_tot + rec_tot
    g = np.zeros_like(grand, dtype=np.float64)
    nonzero_columns = np.zeros_like(grand, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for key in _JOINT_KEYS:
            column = ref[key] + rec[key]
            nonzero_columns += column > 0
            for observed, row_total in ((ref[key], ref_tot), (rec[key], rec_tot)):
                expected = row_total * column / np.where(grand > 0, grand, 1)
                ratio = observed / np.where(expected > 0, expected, 1)
                term = observed * np.log(np.where(ratio > 0, ratio, 1))
                g += np.where(observed > 0, term, 0.0)
    g *= 2.0
    # dof of an I×J table with empty outcome columns dropped: J' - 1
    # (row count is always 2 here).  Clip to >= 1 so degenerate pairs
    # (single surviving column, G == 0) get p == 1, not a 0-dof error.
    dof = np.maximum(nonzero_columns - 1, 1)
    return g, dof


def _z_statistic(
    ref: dict[str, np.ndarray],
    rec: dict[str, np.ndarray],
    ref_tot: np.ndarray,
    rec_tot: np.ndarray,
) -> np.ndarray:
    """Two-proportion z on the co-infection rate ``counts['11'] / β_ij``."""
    grand = ref_tot + rec_tot
    with np.errstate(divide="ignore", invalid="ignore"):
        p_ref = ref["11"] / np.where(ref_tot > 0, ref_tot, 1)
        p_rec = rec["11"] / np.where(rec_tot > 0, rec_tot, 1)
        pooled = (ref["11"] + rec["11"]) / np.where(grand > 0, grand, 1)
        variance = (
            pooled
            * (1.0 - pooled)
            * (
                1.0 / np.where(ref_tot > 0, ref_tot, 1)
                + 1.0 / np.where(rec_tot > 0, rec_tot, 1)
            )
        )
        z = np.where(
            variance > 0, (p_ref - p_rec) / np.sqrt(np.where(variance > 0, variance, 1)), 0.0
        )
    return z


def detect_drift(
    reference: SufficientStats,
    recent: SufficientStats,
    config: DriftConfig | None = None,
) -> DriftReport:
    """Test every eligible node pair for a reference-vs-recent shift.

    ``reference`` and ``recent`` are two disjoint windows of the same
    stream (typically ``model.stats.subtracted(recent)`` vs. the counts
    of the newest ``W`` processes).  Returns a :class:`DriftReport`; a
    window below :attr:`DriftConfig.min_window_beta` yields an empty
    report (``n_pairs_tested == 0``) rather than noisy verdicts.
    """
    config = config or DriftConfig()
    if not isinstance(reference, SufficientStats) or not isinstance(
        recent, SufficientStats
    ):
        raise DataError("detect_drift needs two SufficientStats windows")
    if reference.n_nodes != recent.n_nodes:
        raise DataError(
            f"cannot compare {reference.n_nodes}-node and "
            f"{recent.n_nodes}-node windows"
        )
    n = reference.n_nodes
    if (
        reference.beta < config.min_window_beta
        or recent.beta < config.min_window_beta
    ):
        return _empty_report(config, reference.beta, recent.beta)

    ref = {
        key: reference.count_matrix(key).astype(np.float64) for key in _JOINT_KEYS
    }
    rec = {key: recent.count_matrix(key).astype(np.float64) for key in _JOINT_KEYS}
    # Per-pair effective sample sizes: the four joint counts of a pair sum
    # to its observed-process count β_ij (== β when nothing is missing).
    ref_tot = sum(ref[key] for key in _JOINT_KEYS)
    rec_tot = sum(rec[key] for key in _JOINT_KEYS)

    eligible = np.triu(np.ones((n, n), dtype=bool), k=1)
    eligible &= ref_tot >= config.min_pair_obs
    eligible &= rec_tot >= config.min_pair_obs
    rows, cols = np.nonzero(eligible)
    m = int(rows.size)
    if m == 0:
        return _empty_report(config, reference.beta, recent.beta)

    # p-values come from scipy.special (a declared dependency); imported
    # lazily so `import repro.core` stays light for non-drift workloads.
    from scipy.special import chdtrc, erfc

    if config.statistic == "gtest":
        g, dof = _g_statistic(ref, rec, ref_tot, rec_tot)
        statistic = g[rows, cols]
        p_values = np.asarray(chdtrc(dof[rows, cols], statistic), dtype=np.float64)
    else:
        z = _z_statistic(ref, rec, ref_tot, rec_tot)
        statistic = np.abs(z[rows, cols])
        p_values = np.asarray(erfc(statistic / np.sqrt(2.0)), dtype=np.float64)

    if config.correction == "none":
        cutoff = config.alpha
    elif config.correction == "bonferroni":
        cutoff = config.alpha / m
    else:  # Benjamini-Hochberg step-up
        order = np.sort(p_values)
        thresholds = config.alpha * (np.arange(1, m + 1) / m)
        passing = np.nonzero(order <= thresholds)[0]
        cutoff = float(order[passing[-1]]) if passing.size else -np.inf
    rejected = p_values <= cutoff

    flagged = [
        PairDrift(
            i=int(rows[k]),
            j=int(cols[k]),
            statistic=float(statistic[k]),
            p_value=float(p_values[k]),
        )
        for k in np.nonzero(rejected)[0]
    ]
    flagged.sort(key=lambda pair: (pair.p_value, -pair.statistic, pair.i, pair.j))
    affected = sorted({node for pair in flagged for node in (pair.i, pair.j)})
    return DriftReport(
        drifted_pairs=tuple(flagged),
        affected_nodes=tuple(affected),
        n_pairs_tested=m,
        alpha=config.alpha,
        correction=config.correction,
        statistic=config.statistic,
        reference_beta=reference.beta,
        recent_beta=recent.beta,
        p_threshold=float(cutoff) if np.isfinite(cutoff) else None,
    )
