"""Cached additive sufficient statistics for incremental TENDS fits.

Every quantity TENDS's pairwise stages consume is an *additive* integer
count over the observed diffusion processes: the four pairwise joint
counts feeding IMI (Eq. 24–25), the per-pair effective sample sizes
``β_ij`` of the masked-data estimator, and the per-node infected /
observed totals behind the marginals and the Theorem-2 ``δ_i`` bound.
Integer addition is exact, so accumulating these counts batch by batch
yields **bit-identical** matrices to a single pass over the concatenated
history — which is the foundation of the
:meth:`repro.core.tends.Tends.partial_fit` equivalence guarantee
(``partial_fit`` over any batch split ≡ one-shot ``fit``; see
docs/INCREMENTAL.md and ``tests/property/test_prop_incremental.py``).

:class:`SufficientStats` is immutable: :meth:`SufficientStats.updated`
returns a new instance, leaving the previous one untouched.  That is what
makes incremental updates copy-on-write — a ``partial_fit`` that fails
mid-way cannot corrupt the model it started from.

Updating with a ``Δβ × n`` batch costs ``O(Δβ · n²)`` (the batch's own
count products plus an ``O(n²)`` merge), instead of the ``O(β · n²)``
full-history recount, so long-running services pay per *arriving* data,
not per *accumulated* data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.imi import (
    imi_from_terms,
    mi_from_terms,
    mi_terms_from_joint_counts,
    mi_terms_from_pairwise_counts,
)
from repro.core.kernels import (
    PackedStatuses,
    packed_infection_counts,
    packed_observed_counts,
    packed_pairwise_complete_counts,
)
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix

__all__ = ["SufficientStats", "COUNT_KEYS"]

#: Keys of the pairwise count matrices, in canonical (serialisation) order:
#: the four joint counts plus the per-pair observed-process count ``β_ij``.
COUNT_KEYS = ("11", "10", "01", "00", "obs")


def _accumulator(array: np.ndarray) -> np.ndarray:
    """Promote narrow integer arrays to int64 before count algebra.

    Externally constructed statistics (a deserialised shard, a tile read
    back from disk, a user-built ``SufficientStats``) may carry int32
    counts; adding many large-β shards in int32 silently wraps past
    2³¹ − 1.
    """
    array = np.asarray(array)
    if np.issubdtype(array.dtype, np.integer) and array.dtype != np.int64:
        return array.astype(np.int64)
    return array


@dataclass(frozen=True)
class SufficientStats:
    """Additive sufficient statistics of a status-matrix history.

    Attributes
    ----------
    counts:
        The five ``(n, n)`` int64 matrices of
        :func:`repro.core.kernels.packed_pairwise_complete_counts` —
        pairwise joint counts ``"11"``/``"10"``/``"01"``/``"00"`` plus
        ``"obs"`` (per-pair observed-process count ``β_ij``; identically
        ``beta`` when nothing is missing).
    infected:
        Per-node observed-infection totals (the paper's ``N₂`` per node).
    observed:
        Per-node observed-process counts (``beta`` everywhere for fully
        observed histories).
    beta:
        Total number of processes absorbed so far.
    has_missing:
        Whether any absorbed batch carried unobserved entries.  Controls
        which MI estimator applies, exactly mirroring
        ``StatusMatrix.has_missing`` of the concatenated history.
    """

    counts: Mapping[str, np.ndarray]
    infected: np.ndarray
    observed: np.ndarray
    beta: int
    has_missing: bool

    # ------------------------------------------------------------------
    @classmethod
    def from_statuses(cls, statuses: StatusMatrix) -> "SufficientStats":
        """Count one status matrix (a whole history or a single batch).

        The counts come from the packed kernels
        (:mod:`repro.core.kernels`).
        """
        if not isinstance(statuses, StatusMatrix):
            statuses = StatusMatrix(statuses)
        packed = PackedStatuses.from_statuses(statuses)
        pairwise = packed_pairwise_complete_counts(packed)
        return cls(
            counts={key: pairwise[key] for key in COUNT_KEYS},
            infected=packed_infection_counts(packed),
            observed=packed_observed_counts(packed),
            beta=statuses.beta,
            has_missing=statuses.has_missing,
        )

    @classmethod
    def zeros(cls, n_nodes: int) -> "SufficientStats":
        """The statistics of an empty (``beta=0``) history."""
        if n_nodes < 1:
            raise DataError(f"n_nodes must be >= 1, got {n_nodes}")
        return cls(
            counts={
                key: np.zeros((n_nodes, n_nodes), dtype=np.int64)
                for key in COUNT_KEYS
            },
            infected=np.zeros(n_nodes, dtype=np.int64),
            observed=np.zeros(n_nodes, dtype=np.int64),
            beta=0,
            has_missing=False,
        )

    @property
    def n_nodes(self) -> int:
        return int(self.infected.shape[0])

    # ------------------------------------------------------------------
    # shape / provenance validation
    # ------------------------------------------------------------------
    def _validate_shapes(self, label: str) -> None:
        """Raise a clear :class:`~repro.exceptions.DataError` when the
        cached arrays are internally inconsistent, instead of letting a
        raw numpy broadcast error escape downstream."""
        n = self.n_nodes
        for key in COUNT_KEYS:
            if key not in self.counts:
                raise DataError(
                    f"{label} statistics are missing the {key!r} count matrix"
                )
            shape = np.shape(self.counts[key])
            if shape != (n, n):
                raise DataError(
                    f"{label} statistics pair {n}-node marginals with a "
                    f"{shape} {key!r} count matrix (expected {(n, n)})"
                )
        for name, vector in (("infected", self.infected), ("observed", self.observed)):
            if np.shape(vector) != (n,):
                raise DataError(
                    f"{label} statistics carry a {np.shape(vector)} "
                    f"{name} vector for {n} nodes"
                )

    def _require_compatible(self, other: "SufficientStats", verb: str) -> None:
        """Guard binary count algebra (:meth:`merged` / :meth:`subtracted`).

        Mask provenance is additive — ``has_missing`` ORs and the per-pair
        ``obs`` counts keep the pairwise-complete estimator exact — but the two
        operands must describe the same node set and carry internally
        consistent arrays, which is what this validates.
        """
        if not isinstance(other, SufficientStats):
            raise DataError(
                f"cannot {verb} SufficientStats with {type(other).__name__}"
            )
        if other.n_nodes != self.n_nodes:
            raise DataError(
                f"cannot {verb} {self.n_nodes}-node and {other.n_nodes}-node "
                "statistics"
            )
        self._validate_shapes("these")
        other._validate_shapes("the other operand's")

    # ------------------------------------------------------------------
    # incremental update
    # ------------------------------------------------------------------
    def updated(self, batch: StatusMatrix) -> "SufficientStats":
        """Statistics of the history with ``batch`` appended.

        ``O(Δβ · n²)``: the batch is counted on its own and merged by
        integer addition, which is exactly equal to recounting the
        concatenated history.  ``self`` is never modified; an empty batch
        returns ``self`` unchanged.
        """
        if not isinstance(batch, StatusMatrix):
            batch = StatusMatrix(batch)
        if batch.n_nodes != self.n_nodes:
            raise DataError(
                f"cannot update {self.n_nodes}-node statistics with a "
                f"{batch.n_nodes}-node batch"
            )
        if batch.beta == 0:
            return self
        return self.merged(SufficientStats.from_statuses(batch))

    def merged(self, other: "SufficientStats") -> "SufficientStats":
        """Statistics of the two histories concatenated (pure addition).

        Integer operands are promoted to int64 accumulators first, so
        merging many large-β shards whose counts arrived as int32 cannot
        silently wrap past 2³¹ − 1 (regression-tested in
        ``tests/unit/test_stats_overflow.py``).
        """
        self._require_compatible(other, "merge")
        return SufficientStats(
            counts={
                key: _accumulator(self.counts[key]) + _accumulator(other.counts[key])
                for key in COUNT_KEYS
            },
            infected=_accumulator(self.infected) + _accumulator(other.infected),
            observed=_accumulator(self.observed) + _accumulator(other.observed),
            beta=self.beta + other.beta,
            has_missing=self.has_missing or other.has_missing,
        )

    def subtracted(self, other: "SufficientStats") -> "SufficientStats":
        """Statistics of the history with the sub-history ``other`` removed
        — the integer-exact inverse of :meth:`merged`.

        Because every count is an integer sum over processes, removing a
        window's own counts is exact: ``total.subtracted(tail)`` is
        bit-identical to counting the remaining processes from scratch.
        This is what lets the drift detector compare a *recent* window
        against the *reference* (everything before it) in ``O(n²)``
        without re-reading old cascades.

        Raises :class:`~repro.exceptions.DataError` when ``other`` is not
        a sub-history of these statistics (any count would go negative).
        """
        self._require_compatible(other, "subtract")
        if other.beta > self.beta:
            raise DataError(
                f"cannot subtract a beta={other.beta} window from "
                f"beta={self.beta} statistics"
            )
        counts = {
            key: _accumulator(self.counts[key]) - _accumulator(other.counts[key])
            for key in COUNT_KEYS
        }
        infected = _accumulator(self.infected) - _accumulator(other.infected)
        observed = _accumulator(self.observed) - _accumulator(other.observed)
        beta = self.beta - other.beta
        if (
            any(np.any(counts[key] < 0) for key in COUNT_KEYS)
            or np.any(infected < 0)
            or np.any(observed < 0)
        ):
            raise DataError(
                "subtracted statistics went negative: the operand is not a "
                "sub-history of these statistics"
            )
        # A history has missing entries iff some node was observed in
        # fewer than all of its processes, so the flag of the remainder
        # is derivable exactly from the remaining counts.
        has_missing = bool(beta > 0 and np.any(observed < beta))
        return SufficientStats(
            counts=counts,
            infected=infected,
            observed=observed,
            beta=beta,
            has_missing=has_missing,
        )

    def count_matrix(self, key: str) -> np.ndarray:
        """One dense ``(n, n)`` int64 count matrix — the same accessor
        :class:`~repro.core.tiles.TiledSufficientStats` exposes, so
        consumers that densify one plane at a time (model snapshots,
        drift) work against either representation."""
        if key not in COUNT_KEYS:
            raise DataError(f"unknown count key: {key!r}")
        return np.ascontiguousarray(self.counts[key], dtype=np.int64)

    # ------------------------------------------------------------------
    # derived estimates
    # ------------------------------------------------------------------
    def mi_terms(self) -> dict[str, np.ndarray]:
        """Pointwise MI terms from the cached counts.

        Dispatches exactly like :func:`repro.core.imi.pointwise_mi_terms`
        does on the concatenated history: the clean-data formulas when no
        entry was ever missing, the pairwise-complete formulas otherwise —
        so the floating-point pipeline (and hence the result, bit for bit)
        matches a from-scratch estimate.
        """
        if self.beta == 0:
            raise DataError("cannot estimate MI from zero diffusion processes")
        if self.has_missing:
            return mi_terms_from_pairwise_counts(dict(self.counts), square=True)
        joints = {key: self.counts[key] for key in ("11", "10", "01", "00")}
        return mi_terms_from_joint_counts(joints, self.infected, self.beta)

    def mi_matrix(self, kind: str = "infection") -> np.ndarray:
        """The pairwise MI matrix (``"infection"`` or ``"traditional"``)
        from the cached counts, bit-identical to the from-scratch one."""
        terms = self.mi_terms()
        if kind == "infection":
            return imi_from_terms(terms)
        if kind == "traditional":
            return mi_from_terms(terms)
        raise DataError(f"unknown MI kind: {kind!r}")

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def checksum(self) -> str:
        """Deterministic SHA-256 over every cached count.

        Pinned by the golden incremental fixture
        (``tests/data/golden_incremental.json``) and verified on model
        :meth:`~repro.core.tends.TendsModel.load`, so silent count drift —
        a missed batch, a double-applied batch, a corrupted snapshot —
        is caught instead of propagating into inferences.

        Internally inconsistent statistics (count matrices whose shapes
        disagree with the marginals) raise a clear
        :class:`~repro.exceptions.DataError` instead of checksumming
        garbage or failing with a raw numpy error.
        """
        self._validate_shapes("these")
        digest = hashlib.sha256()
        digest.update(f"beta={self.beta};missing={self.has_missing};".encode())
        for key in COUNT_KEYS:
            array = np.ascontiguousarray(self.counts[key], dtype=np.int64)
            digest.update(key.encode())
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
        for name, array in (("infected", self.infected), ("observed", self.observed)):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def equals(self, other: "SufficientStats") -> bool:
        """Exact equality of every cached count (tests and guards)."""
        if not isinstance(other, SufficientStats):
            return False
        if (
            self.beta != other.beta
            or self.has_missing != other.has_missing
            or self.n_nodes != other.n_nodes
        ):
            return False
        if not all(
            np.array_equal(self.counts[key], other.counts[key])
            for key in COUNT_KEYS
        ):
            return False
        return bool(
            np.array_equal(self.infected, other.infected)
            and np.array_equal(self.observed, other.observed)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SufficientStats(n_nodes={self.n_nodes}, beta={self.beta}, "
            f"has_missing={self.has_missing})"
        )
