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

This module also owns the count layout every statistics object shares
(dense here, tiled in :mod:`repro.core.tiles`, and model snapshots):
only the planes of :func:`stored_count_keys` are stored, and
:func:`derive_counts` — the one place the identities between the
planes are written — rebuilds the rest on read.

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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.kernels import (
    PackedStatuses,
    packed_infection_counts,
    packed_observed_counts,
    packed_pairwise_complete_counts,
)
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "SufficientStats",
    "COUNT_KEYS",
    "stored_count_keys",
    "derive_counts",
    "counts_checksum",
]

#: Keys of the pairwise count matrices, in canonical (serialisation) order:
#: the four joint counts plus the per-pair observed-process count ``β_ij``.
COUNT_KEYS = ("11", "10", "01", "00", "obs")

#: Row-band height of :meth:`SufficientStats.checksum`'s derived planes.
_CHECKSUM_BAND = 256


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


# ----------------------------------------------------------------------
# the count layout: stored planes and their derivation
# ----------------------------------------------------------------------

def stored_count_keys(has_missing: bool) -> tuple[str, ...]:
    """The count planes statistics store, in stack order.

    Fully observed data needs only ``11``: ``n10``, ``n01``, ``n00`` and
    ``obs`` follow from the per-node infected totals and β.  Masked data
    stores ``11``, ``10``, ``01`` and ``obs``; ``n00`` is their
    difference.  Dense statistics, tiles and model snapshots all hold
    exactly these planes.
    """
    return ("11", "10", "01", "obs") if has_missing else ("11",)


def derive_counts(
    stored: Mapping[str, np.ndarray],
    *,
    has_missing: bool,
    row_infected: np.ndarray,
    col_infected: np.ndarray,
    beta: int,
    keys: Sequence[str] = COUNT_KEYS,
) -> dict[str, np.ndarray]:
    """The count planes ``keys`` of one block, rebuilt from its stored
    planes — the one place the layout's identities are written down.

    ``stored`` maps the keys of :func:`stored_count_keys` to the block's
    planes, in any integer width (a tile passes
    ``dict(zip(keys, stack))``); every integer plane returned is int64.
    ``row_infected``/``col_infected`` are the infected totals of the
    block's row and column nodes and ``beta`` the number of processes.
    Fully observed: ``n10 = N_i − n11``, ``n01 = N_j − n11``,
    ``n00 = β − n11 − n10 − n01`` and ``obs = β``.  Masked:
    ``n00 = obs − n11 − n10 − n01``.  Every derived plane is an exact
    integer difference, so it equals the plane a full count gives; only
    the planes ``keys`` needs are computed.
    """
    wanted = set(keys)
    # Masked n00 reads every stored plane and any other masked plane only
    # itself; every clean plane reads the one stored plane, n11.
    every = "00" in wanted or not has_missing
    planes = {
        key: _accumulator(plane)
        for key, plane in stored.items()
        if every or key in wanted
    }
    if has_missing:
        if "00" in wanted:
            planes["00"] = planes["obs"] - planes["11"] - planes["10"] - planes["01"]
    else:
        n11 = planes["11"]
        if wanted & {"10", "00"}:
            planes["10"] = _accumulator(row_infected)[:, None] - n11
        if wanted & {"01", "00"}:
            planes["01"] = _accumulator(col_infected)[None, :] - n11
        if "00" in wanted:
            planes["00"] = beta - n11 - planes["10"] - planes["01"]
        if "obs" in wanted:
            planes["obs"] = np.full(n11.shape, beta, dtype=np.int64)
    return {key: planes[key] for key in keys}


def counts_checksum(
    *,
    beta: int,
    has_missing: bool,
    n_nodes: int,
    bands: Callable[[str], Iterable[np.ndarray]],
    infected: np.ndarray,
    observed: np.ndarray,
) -> str:
    """SHA-256 over the five count planes and the marginals — the one
    digest dense and tiled statistics share.

    ``bands(key)`` yields the ``(n, n)`` plane ``key`` as consecutive row
    bands, top to bottom; their int64 bytes, concatenated, are the
    plane's contiguous row-major bytes, so the digest never depends on
    how the planes are stored or how tall a band is.
    """
    digest = hashlib.sha256()
    digest.update(f"beta={beta};missing={has_missing};".encode())
    for key in COUNT_KEYS:
        digest.update(key.encode())
        digest.update(str((n_nodes, n_nodes)).encode())
        for band in bands(key):
            digest.update(np.ascontiguousarray(band, dtype=np.int64))
    for name, array in (("infected", infected), ("observed", observed)):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array, dtype=np.int64))
    return digest.hexdigest()


@dataclass(frozen=True)
class SufficientStats:
    """Additive sufficient statistics of a status-matrix history.

    Attributes
    ----------
    counts:
        The stored ``(n, n)`` count planes, keyed by exactly
        :func:`stored_count_keys` of ``has_missing``: the both-infected
        counts ``"11"`` of a fully observed history, and ``"11"``,
        ``"10"``, ``"01"`` plus ``"obs"`` (the per-pair observed-process
        count ``β_ij``) of a masked one.  :meth:`count_matrix` derives
        any of the five planes on read.
    infected:
        Per-node observed-infection totals (the paper's ``N₂`` per node).
    observed:
        Per-node observed-process counts (``beta`` everywhere for fully
        observed histories).
    beta:
        Total number of processes absorbed so far.
    has_missing:
        Whether any absorbed batch carried unobserved entries.  Controls
        which MI estimator applies and which planes are stored, exactly
        mirroring ``StatusMatrix.has_missing`` of the concatenated
        history.
    """

    counts: Mapping[str, np.ndarray]
    infected: np.ndarray
    observed: np.ndarray
    beta: int
    has_missing: bool

    def __post_init__(self) -> None:
        expected = stored_count_keys(self.has_missing)
        if set(self.counts) != set(expected):
            raise DataError(
                f"statistics with has_missing={self.has_missing} store the "
                f"count planes {list(expected)}, got {sorted(self.counts)}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_statuses(cls, statuses: StatusMatrix) -> "SufficientStats":
        """Count one status matrix (a whole history or a single batch).

        The stored planes come from the packed kernels
        (:mod:`repro.core.kernels`).
        """
        if not isinstance(statuses, StatusMatrix):
            statuses = StatusMatrix(statuses)
        packed = PackedStatuses.from_statuses(statuses)
        return cls(
            counts=packed_pairwise_complete_counts(packed),
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
            counts={"11": np.zeros((n_nodes, n_nodes), dtype=np.int64)},
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
        for key, plane in self.counts.items():
            shape = np.shape(plane)
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

    def _planes(
        self, keys: Sequence[str], rows: slice = slice(None)
    ) -> dict[str, np.ndarray]:
        """The count planes ``keys`` of the row band ``rows``, stored or
        derived (:func:`derive_counts`)."""
        return derive_counts(
            {key: plane[rows] for key, plane in self.counts.items()},
            has_missing=self.has_missing,
            row_infected=self.infected[rows],
            col_infected=self.infected,
            beta=self.beta,
            keys=keys,
        )

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

        The sum stores the planes of its own layout: a fully observed
        operand merged with a masked one contributes its derived
        ``10``/``01``/``obs``.  Integer operands are promoted to int64
        accumulators first, so merging many large-β shards whose counts
        arrived as int32 cannot silently wrap past 2³¹ − 1
        (regression-tested in ``tests/unit/test_stats_overflow.py``).
        """
        self._require_compatible(other, "merge")
        has_missing = self.has_missing or other.has_missing
        keys = stored_count_keys(has_missing)
        mine, theirs = self._planes(keys), other._planes(keys)
        return SufficientStats(
            counts={key: mine[key] + theirs[key] for key in keys},
            infected=_accumulator(self.infected) + _accumulator(other.infected),
            observed=_accumulator(self.observed) + _accumulator(other.observed),
            beta=self.beta + other.beta,
            has_missing=has_missing,
        )

    def subtracted(self, other: "SufficientStats") -> "SufficientStats":
        """Statistics of the history with the sub-history ``other`` removed
        — the integer-exact inverse of :meth:`merged`.

        Because every count is an integer sum over processes, removing a
        window's own counts is exact: ``total.subtracted(tail)`` is
        bit-identical to counting the remaining processes from scratch.
        This is what lets the drift detector compare a *recent* window
        against the *reference* (everything before it) in ``O(n²)``
        without re-reading old cascades.  A remainder with no missing
        entry left stores only ``11``.

        Raises :class:`~repro.exceptions.DataError` when ``other`` is not
        a sub-history of these statistics: any of the five count planes
        (derived ones included) or either marginal would go negative.
        """
        self._require_compatible(other, "subtract")
        if other.beta > self.beta:
            raise DataError(
                f"cannot subtract a beta={other.beta} window from "
                f"beta={self.beta} statistics"
            )
        layout = self.has_missing or other.has_missing
        keys = stored_count_keys(layout)
        mine, theirs = self._planes(keys), other._planes(keys)
        counts = {key: mine[key] - theirs[key] for key in keys}
        infected = _accumulator(self.infected) - _accumulator(other.infected)
        observed = _accumulator(self.observed) - _accumulator(other.observed)
        beta = self.beta - other.beta

        def plane(key: str) -> np.ndarray:
            return derive_counts(
                counts,
                has_missing=layout,
                row_infected=infected,
                col_infected=infected,
                beta=beta,
                keys=(key,),
            )[key]

        if (
            any(np.any(plane(key) < 0) for key in COUNT_KEYS)
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
            counts={key: counts[key] for key in stored_count_keys(has_missing)},
            infected=infected,
            observed=observed,
            beta=beta,
            has_missing=has_missing,
        )

    def count_matrix(self, key: str) -> np.ndarray:
        """One dense ``(n, n)`` int64 count matrix, stored or derived —
        the same accessor :class:`~repro.core.tiles.TiledSufficientStats`
        exposes, so consumers that read one plane at a time (model
        snapshots, drift) work against either representation."""
        if key not in COUNT_KEYS:
            raise DataError(f"unknown count key: {key!r}")
        return np.ascontiguousarray(self._planes((key,))[key], dtype=np.int64)

    # ------------------------------------------------------------------
    # derived estimates
    # ------------------------------------------------------------------
    def mi_matrix(
        self, kind: str = "infection", sample: list[np.ndarray] | None = None
    ) -> np.ndarray:
        """The pairwise MI matrix (``"infection"`` or ``"traditional"``)
        from the stored counts, bit-identical to the from-scratch one.

        One blocked pass (:func:`~repro.core.imi.dense_mi_matrix`) runs
        the clean-data formulas when no entry was ever missing and the
        pairwise-complete formulas otherwise — exactly the dispatch of
        :func:`repro.core.imi.infection_mi_matrix` on the concatenated
        history.  With ``sample`` given, the matrix's non-negative
        off-diagonal values are appended to it in row-major order as the
        pass completes each row chunk — the stage-2 threshold's input,
        collected here so no later pass rescans the matrix.
        """
        # Imported here: the MI pass derives its masked n00 through this
        # module's derive_counts.
        from repro.core.imi import dense_mi_matrix

        return dense_mi_matrix(
            self.counts,
            self.infected,
            self.beta,
            has_missing=self.has_missing,
            kind=kind,
            sample=sample,
        )

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def checksum(self) -> str:
        """Deterministic SHA-256 over all five count planes
        (:func:`counts_checksum`), derived a row band at a time.

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
        n = self.n_nodes

        def bands(key: str) -> Iterable[np.ndarray]:
            for start in range(0, n, _CHECKSUM_BAND):
                rows = slice(start, start + _CHECKSUM_BAND)
                yield self._planes((key,), rows)[key]

        return counts_checksum(
            beta=self.beta,
            has_missing=self.has_missing,
            n_nodes=n,
            bands=bands,
            infected=self.infected,
            observed=self.observed,
        )

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
            np.array_equal(plane, other.counts[key])
            for key, plane in self.counts.items()
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
