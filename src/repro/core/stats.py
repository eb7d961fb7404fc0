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
from typing import TYPE_CHECKING, Mapping

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stats ↔ tiles)
    from repro.core.tiles import TileFanout

__all__ = ["SufficientStats", "WindowedStats", "COUNT_KEYS"]

#: Keys of the pairwise count matrices, in canonical (serialisation) order:
#: the four joint counts plus the per-pair observed-process count ``β_ij``.
COUNT_KEYS = ("11", "10", "01", "00", "obs")


def _accumulator(array: np.ndarray) -> np.ndarray:
    """Promote narrow integer arrays to int64 before count algebra.

    Externally constructed statistics (a deserialised shard, a tile read
    back from disk, a user-built ``SufficientStats``) may carry int32
    counts; adding many large-β shards in int32 silently wraps past
    2³¹ − 1.  Floats (the decayed-window path) pass through unchanged.
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
    def from_statuses(
        cls,
        statuses: StatusMatrix,
        *,
        tiling: "TileFanout | None" = None,
    ) -> "SufficientStats":
        """Count one status matrix (a whole history or a single batch).

        The counts come from the bit-packed popcount kernels
        (:mod:`repro.core.kernels`).  With a ``tiling`` spec
        (:class:`repro.core.tiles.TileFanout`) the pair
        space is counted tile-by-tile, each tile a retryable chunk under
        the stage-3 executor machinery, and the results assembled into
        the same dense matrices — again bit-identical.
        """
        if not isinstance(statuses, StatusMatrix):
            statuses = StatusMatrix(statuses)
        if tiling is not None:
            from repro.core.tiles import tiled_batch_counts

            pairwise = tiled_batch_counts(
                statuses,
                tile_size=tiling.tile_size,
                plan=tiling.plan,
                tracer=tiling.tracer,
                metrics=tiling.metrics,
            )
            return cls(
                counts={key: pairwise[key] for key in COUNT_KEYS},
                infected=statuses.infection_counts(),
                observed=statuses.observed_counts(),
                beta=statuses.beta,
                has_missing=statuses.has_missing,
            )
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
    def updated(
        self,
        batch: StatusMatrix,
        *,
        tiling: "TileFanout | None" = None,
    ) -> "SufficientStats":
        """Statistics of the history with ``batch`` appended.

        ``O(Δβ · n²)``: the batch is counted on its own and merged by
        integer addition, which is exactly equal to recounting the
        concatenated history.
        With a ``tiling`` spec the batch count fans out over pair-space
        tiles as retryable executor chunks (see
        :meth:`from_statuses`) — same integers, same merge.
        ``self`` is never modified; an empty batch returns ``self``
        unchanged.
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
        return self.merged(
            SufficientStats.from_statuses(batch, tiling=tiling)
        )

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
            return mi_terms_from_pairwise_counts(dict(self.counts))
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


@dataclass(frozen=True)
class WindowedStats:
    """A ring of per-window :class:`SufficientStats` blocks.

    Streaming workloads on drifting networks need *recent* evidence
    weighed against *stale* evidence without re-reading old cascades.
    ``WindowedStats`` keeps the sufficient statistics as a ring of
    consecutive cascade windows: pushing a batch fills the newest window
    (rolling a fresh one at each ``window_cascades`` boundary), and once
    the ring exceeds ``max_windows`` the oldest blocks are evicted —
    memory stays ``O(max_windows · n²)`` however long the stream runs.

    Derived views are pure count algebra (exact integer addition):

    * :meth:`total` — all retained windows merged.  With a single
      unbounded window (``window_cascades=None``) this is **bit-identical**
      to chaining :meth:`SufficientStats.updated`, held by
      ``tests/property/test_prop_drift.py``.
    * :meth:`recent` / :meth:`reference` — the newest *k* windows vs.
      everything retained before them, the two operands of
      :func:`repro.core.drift.detect_drift`.
    * :meth:`decayed` — exponentially down-weighted combination
      (weight ``decay**age`` per window).  ``decay=1.0`` short-circuits
      to the exact integer :meth:`total` path; ``decay<1`` yields
      float64-weighted counts whose effective ``beta`` is the weighted
      sum — consumable by the MI pipelines, which divide by ``beta``
      rather than assuming integers.

    Instances are immutable: :meth:`pushed` returns a new ring sharing
    the untouched window blocks (copy-on-write, like the rest of the
    incremental machinery).
    """

    windows: tuple[SufficientStats, ...]
    window_cascades: int | None = None
    max_windows: int | None = None
    decay: float = 1.0
    evicted_beta: int = 0
    evicted_windows: int = 0

    def __post_init__(self) -> None:
        if not self.windows:
            raise DataError("WindowedStats needs at least one window block")
        if self.window_cascades is not None and self.window_cascades < 1:
            raise DataError(
                f"window_cascades must be >= 1, got {self.window_cascades}"
            )
        if self.max_windows is not None and self.max_windows < 1:
            raise DataError(f"max_windows must be >= 1, got {self.max_windows}")
        if not (0.0 < self.decay <= 1.0):
            raise DataError(f"decay must be in (0, 1], got {self.decay}")

    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls,
        n_nodes: int,
        *,
        window_cascades: int | None = None,
        max_windows: int | None = None,
        decay: float = 1.0,
    ) -> "WindowedStats":
        """A ring with one empty window, ready to absorb batches."""
        return cls(
            windows=(SufficientStats.zeros(n_nodes),),
            window_cascades=window_cascades,
            max_windows=max_windows,
            decay=decay,
        )

    @property
    def n_nodes(self) -> int:
        return self.windows[0].n_nodes

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def beta(self) -> int:
        """Processes retained across all windows (evicted ones excluded)."""
        return sum(window.beta for window in self.windows)

    # ------------------------------------------------------------------
    def pushed(
        self,
        batch: StatusMatrix,
        *,
        tiling: "TileFanout | None" = None,
    ) -> "WindowedStats":
        """The ring with ``batch`` absorbed (immutably).

        The batch is split at window boundaries: the newest window fills
        up to ``window_cascades``, then fresh windows roll — a single
        push may add several blocks.  Windows beyond ``max_windows`` are
        evicted oldest-first (tracked by :attr:`evicted_beta`).  A
        ``tiling`` spec fans each window's count over pair-space tiles
        exactly like :meth:`SufficientStats.updated`.
        """
        if not isinstance(batch, StatusMatrix):
            batch = StatusMatrix(batch)
        if batch.n_nodes != self.n_nodes:
            raise DataError(
                f"cannot push a {batch.n_nodes}-node batch into "
                f"{self.n_nodes}-node windowed statistics"
            )
        if batch.beta == 0:
            return self
        windows = list(self.windows)
        if self.window_cascades is None:
            windows[-1] = windows[-1].updated(batch, tiling=tiling)
        else:
            offset = 0
            while offset < batch.beta:
                room = self.window_cascades - windows[-1].beta
                if room == 0:
                    windows.append(SufficientStats.zeros(self.n_nodes))
                    room = self.window_cascades
                take = min(room, batch.beta - offset)
                piece = batch.subset(range(offset, offset + take))
                windows[-1] = windows[-1].updated(piece, tiling=tiling)
                offset += take
        evicted_beta = self.evicted_beta
        evicted_windows = self.evicted_windows
        if self.max_windows is not None and len(windows) > self.max_windows:
            dropped = windows[: len(windows) - self.max_windows]
            windows = windows[len(windows) - self.max_windows :]
            evicted_beta += sum(window.beta for window in dropped)
            evicted_windows += len(dropped)
        return WindowedStats(
            windows=tuple(windows),
            window_cascades=self.window_cascades,
            max_windows=self.max_windows,
            decay=self.decay,
            evicted_beta=evicted_beta,
            evicted_windows=evicted_windows,
        )

    # ------------------------------------------------------------------
    # derived views (exact integer algebra)
    # ------------------------------------------------------------------
    def total(self) -> SufficientStats:
        """All retained windows merged (exact integer addition)."""
        total = self.windows[0]
        for window in self.windows[1:]:
            total = total.merged(window)
        return total

    def recent(self, n_windows: int = 1) -> SufficientStats:
        """The newest ``n_windows`` blocks merged."""
        if not 1 <= n_windows <= len(self.windows):
            raise DataError(
                f"recent({n_windows}) out of range for {len(self.windows)} "
                "window(s)"
            )
        tail = self.windows[-n_windows:]
        merged = tail[0]
        for window in tail[1:]:
            merged = merged.merged(window)
        return merged

    def reference(self, n_recent: int = 1) -> SufficientStats:
        """Everything retained *before* the newest ``n_recent`` blocks
        (the drift detector's baseline operand)."""
        if not 1 <= n_recent < len(self.windows):
            raise DataError(
                f"reference({n_recent}) needs at least {n_recent + 1} "
                f"windows, have {len(self.windows)}"
            )
        head = self.windows[:-n_recent]
        merged = head[0]
        for window in head[1:]:
            merged = merged.merged(window)
        return merged

    def decayed(self) -> SufficientStats:
        """Exponentially down-weighted combination of the windows.

        Window ``k`` from the newest gets weight ``decay**k``; the
        newest always weighs 1.  At ``decay=1.0`` this *is* the exact
        integer :meth:`total` — bit-identical to today's cumulative
        counts — so turning decay on is strictly opt-in.  With
        ``decay<1`` the returned statistics carry float64 counts and a
        float effective ``beta`` (the weighted process count); they feed
        the MI estimators, which are ratio pipelines, but are not meant
        for :meth:`SufficientStats.checksum`-style integrity checks.
        """
        if self.decay == 1.0:
            return self.total()
        ages = range(len(self.windows) - 1, -1, -1)
        weights = [self.decay**age for age in ages]
        counts = {
            key: sum(
                weight * np.asarray(window.counts[key], dtype=np.float64)
                for weight, window in zip(weights, self.windows)
            )
            for key in COUNT_KEYS
        }
        infected = sum(
            weight * np.asarray(window.infected, dtype=np.float64)
            for weight, window in zip(weights, self.windows)
        )
        observed = sum(
            weight * np.asarray(window.observed, dtype=np.float64)
            for weight, window in zip(weights, self.windows)
        )
        beta = sum(
            weight * window.beta
            for weight, window in zip(weights, self.windows)
        )
        return SufficientStats(
            counts=counts,
            infected=infected,
            observed=observed,
            beta=beta,
            has_missing=any(window.has_missing for window in self.windows),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"WindowedStats(n_windows={self.n_windows}, beta={self.beta}, "
            f"window_cascades={self.window_cascades}, "
            f"max_windows={self.max_windows}, decay={self.decay})"
        )
