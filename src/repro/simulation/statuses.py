"""Final-infection-status observations.

A :class:`StatusMatrix` is the ``β × n`` binary matrix ``S`` from the paper
(§III): row ``ℓ`` holds the final infection status of every node at the end
of the ``ℓ``-th diffusion process.  It is the *only* observation TENDS
consumes, so this class also hosts the marginal and pattern-grouping
helpers the scoring and selection code build on (the pairwise counts
behind IMI live in the bit-packed kernels of ``repro.core.kernels``).

Real observation sets are incomplete as well as noisy, so a matrix may
carry an optional **observation mask**: a boolean ``β × n`` array whose
``True`` entries mark statuses that were actually observed.  Missing
entries are encoded explicitly in the mask — never silently as 0 or 1 —
and the estimators (``repro.core.imi``, ``repro.core.scoring``) switch to
pairwise-complete counting whenever unobserved entries are present.  A
matrix without a mask (or with an all-``True`` mask) behaves exactly as
before; every clean-data code path is unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DataError, DataQualityWarning

__all__ = ["StatusMatrix", "StatusAudit", "validate_observations"]


@dataclass(frozen=True)
class StatusAudit:
    """Data-quality findings for one :class:`StatusMatrix`.

    Real observation sets are noisy and incomplete: diffusion processes
    that never took off (all-zero rows), saturated ones (all-one rows),
    and nodes that are never or always infected all carry no pairwise
    signal, which is exactly where the degenerate ``N₁ = 0`` / ``N₂ = 0``
    limits of Eq. 16–17 and the zero-marginal IMI terms of Eq. 24–25
    arise.  The estimators handle those limits gracefully (they
    contribute the documented limit value, never ``-inf``/``nan``), but
    a sweep built on such data deserves a warning — that is what this
    audit provides.

    Attributes
    ----------
    beta / n_nodes:
        Matrix shape.
    empty_processes:
        Indices of all-zero rows (the diffusion never spread).
    saturated_processes:
        Indices of all-one rows (the diffusion reached every node).
    never_infected_nodes:
        Columns that are 0 in every process (``N₂ = 0``).
    always_infected_nodes:
        Columns that are 1 in every process (``N₁ = 0``).
    missing_fraction:
        Fraction of entries the observation mask marks unobserved
        (0.0 for unmasked matrices).
    unobserved_nodes:
        Columns with **no** observed entry at all — such a node can never
        contribute pairwise signal under any missing-data policy.
    unobserved_processes:
        Rows with no observed entry at all (the diffusion process was
        recorded but every status is missing).
    """

    beta: int
    n_nodes: int
    empty_processes: tuple[int, ...]
    saturated_processes: tuple[int, ...]
    never_infected_nodes: tuple[int, ...]
    always_infected_nodes: tuple[int, ...]
    missing_fraction: float = 0.0
    unobserved_nodes: tuple[int, ...] = ()
    unobserved_processes: tuple[int, ...] = ()

    #: Missing-entry fraction above which the audit flags mask density
    #: itself as a finding (pairwise-complete estimates then rest on less
    #: than half the processes per pair).
    DENSITY_WARNING_FRACTION = 0.5

    @property
    def is_degenerate(self) -> bool:
        """True when any finding is present."""
        return bool(
            self.empty_processes
            or self.saturated_processes
            or self.never_infected_nodes
            or self.always_infected_nodes
            or self.unobserved_nodes
            or self.unobserved_processes
            or self.missing_fraction > self.DENSITY_WARNING_FRACTION
        )

    def findings(self) -> list[str]:
        """Human-readable description of each finding (empty when clean)."""
        messages: list[str] = []
        for label, items in (
            ("all-zero (never spread) processes", self.empty_processes),
            ("all-one (saturated) processes", self.saturated_processes),
            ("never-infected nodes (N2=0)", self.never_infected_nodes),
            ("always-infected nodes (N1=0)", self.always_infected_nodes),
            ("fully-unobserved nodes", self.unobserved_nodes),
            ("fully-unobserved processes", self.unobserved_processes),
        ):
            if items:
                head = ", ".join(str(i) for i in items[:8])
                suffix = ", ..." if len(items) > 8 else ""
                messages.append(f"{len(items)} {label}: [{head}{suffix}]")
        if self.missing_fraction > self.DENSITY_WARNING_FRACTION:
            messages.append(
                f"{self.missing_fraction:.1%} of entries unobserved "
                "(pairwise-complete estimates rest on a minority of processes)"
            )
        return messages


def validate_observations(
    statuses: "StatusMatrix", *, on_degenerate: str = "warn", stacklevel: int = 2
) -> StatusAudit:
    """Audit a status matrix for degenerate-but-valid observations.

    Shape, dtype, and NaN/value checks already happen in the
    :class:`StatusMatrix` constructor (malformed data never gets this
    far); this audit flags *statistically* degenerate content, including
    observation-mask density: the overall missing fraction is always
    reported, and fully-unobserved nodes/processes or a majority-missing
    mask count as findings.

    Parameters
    ----------
    statuses:
        The observations to audit.
    on_degenerate:
        ``"warn"`` (default) emits one
        :class:`~repro.exceptions.DataQualityWarning` summarising all
        findings; ``"strict"`` raises :class:`~repro.exceptions.DataError`
        instead; ``"ignore"`` only returns the audit.
    stacklevel:
        Passed to :func:`warnings.warn`, counted from this function: the
        default 2 attributes the warning to the line that called it, and
        a library wrapper adds one per frame of its own so that the
        warning names its user's line.
    """
    if on_degenerate not in ("warn", "strict", "ignore"):
        raise DataError(f"unknown on_degenerate policy: {on_degenerate!r}")
    values = statuses.values
    row_sums = values.sum(axis=1, dtype=np.int64)
    column_sums = values.sum(axis=0, dtype=np.int64)
    mask = statuses.mask
    if mask is None:
        missing_fraction = 0.0
        unobserved_nodes: tuple[int, ...] = ()
        unobserved_processes: tuple[int, ...] = ()
    else:
        observed = int(mask.sum())
        total = mask.size
        missing_fraction = 1.0 - (observed / total) if total else 0.0
        unobserved_nodes = tuple(np.nonzero(~mask.any(axis=0))[0].tolist())
        unobserved_processes = tuple(np.nonzero(~mask.any(axis=1))[0].tolist())
    audit = StatusAudit(
        beta=statuses.beta,
        n_nodes=statuses.n_nodes,
        empty_processes=tuple(np.nonzero(row_sums == 0)[0].tolist()),
        saturated_processes=tuple(
            np.nonzero(row_sums == statuses.n_nodes)[0].tolist()
        ),
        never_infected_nodes=tuple(np.nonzero(column_sums == 0)[0].tolist()),
        always_infected_nodes=tuple(
            np.nonzero(column_sums == statuses.beta)[0].tolist()
        ),
        missing_fraction=missing_fraction,
        unobserved_nodes=unobserved_nodes,
        unobserved_processes=unobserved_processes,
    )
    if audit.is_degenerate and on_degenerate != "ignore":
        message = (
            f"degenerate observations (beta={audit.beta}, n={audit.n_nodes}): "
            + "; ".join(audit.findings())
        )
        if on_degenerate == "strict":
            raise DataError(message)
        warnings.warn(message, DataQualityWarning, stacklevel=stacklevel)
    return audit


def _describe_invalid_rows(array: np.ndarray) -> str:
    """Name the first cascade rows whose entries are not 0/1 (NaN included)."""
    valid = np.isin(array, (0, 1))
    bad_rows = np.nonzero(~valid.all(axis=1))[0]
    samples: list[str] = []
    for row in bad_rows[:3].tolist():
        column = int(np.nonzero(~valid[row])[0][0])
        samples.append(f"row {row} column {column} = {array[row, column]!r}")
    suffix = ", ..." if bad_rows.size > 3 else ""
    return (
        f"status matrix entries must be 0 or 1; "
        f"{bad_rows.size} offending cascade row(s): "
        + "; ".join(samples)
        + suffix
    )


class StatusMatrix:
    """Immutable wrapper around a ``(beta, n)`` uint8 array of {0, 1}.

    Parameters
    ----------
    data:
        Array-like of shape ``(beta, n)`` containing only 0/1 values.
    mask:
        Optional boolean array of the same shape; ``True`` marks entries
        that were actually observed.  ``None`` (default) means fully
        observed.  An all-``True`` mask is normalised to ``None`` so that
        equality, hashing, and the estimator fast paths treat "no mask"
        and "nothing missing" identically.

    Examples
    --------
    >>> s = StatusMatrix([[1, 0, 1], [0, 0, 1]])
    >>> s.beta, s.n_nodes
    (2, 3)
    >>> s.infection_counts().tolist()
    [1, 0, 2]
    """

    __slots__ = ("_data", "_mask")

    def __init__(
        self,
        data: Iterable[Sequence[int]] | np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        array = np.asarray(data)
        if array.ndim != 2:
            raise DataError(f"status matrix must be 2-D (beta, n), got shape {array.shape}")
        if array.size and not np.isin(array, (0, 1)).all():
            raise DataError(_describe_invalid_rows(array))
        self._data = np.ascontiguousarray(array, dtype=np.uint8)
        self._data.setflags(write=False)
        self._mask = self._normalise_mask(mask, self._data.shape)

    @staticmethod
    def _normalise_mask(
        mask: np.ndarray | None, shape: tuple[int, int]
    ) -> np.ndarray | None:
        if mask is None:
            return None
        mask_array = np.asarray(mask)
        if mask_array.shape != shape:
            raise DataError(
                f"observation mask shape {mask_array.shape} does not match "
                f"status matrix shape {shape}"
            )
        if mask_array.dtype != np.bool_:
            if mask_array.size and not np.isin(mask_array, (0, 1)).all():
                raise DataError("observation mask entries must be boolean (0/1)")
            mask_array = mask_array.astype(np.bool_)
        if mask_array.all():
            return None  # fully observed == unmasked
        mask_array = np.ascontiguousarray(mask_array)
        mask_array.setflags(write=False)
        return mask_array

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Read-only ``(beta, n)`` uint8 view.

        For masked matrices, unobserved entries hold the stored
        placeholder value (0 for corruption-produced matrices) — consult
        :attr:`mask` before treating them as observations.
        """
        return self._data

    @property
    def mask(self) -> np.ndarray | None:
        """Read-only boolean observation mask (``True`` = observed), or
        ``None`` when every entry was observed."""
        return self._mask

    @property
    def has_missing(self) -> bool:
        """True when an observation mask marks at least one entry missing."""
        return self._mask is not None

    @property
    def beta(self) -> int:
        """Number of observed diffusion processes (rows)."""
        return self._data.shape[0]

    @property
    def n_nodes(self) -> int:
        """Number of nodes (columns)."""
        return self._data.shape[1]

    def column(self, node: int) -> np.ndarray:
        """Status vector of one node across all processes."""
        return self._data[:, node]

    def process(self, index: int) -> np.ndarray:
        """Status vector of all nodes in one process."""
        return self._data[index, :]

    # ------------------------------------------------------------------
    # mask helpers
    # ------------------------------------------------------------------
    def with_mask(self, mask: np.ndarray | None) -> "StatusMatrix":
        """New matrix with the given observation mask over the same data.

        Entries the mask marks unobserved are zeroed in the stored data,
        so no stale placeholder value can leak through ``values``.
        """
        if mask is None:
            return StatusMatrix(self._data)
        normalised = self._normalise_mask(np.asarray(mask), self._data.shape)
        if normalised is None:
            return StatusMatrix(self._data)
        return StatusMatrix(np.where(normalised, self._data, 0), normalised)

    def filled(self, value: int = 0) -> "StatusMatrix":
        """Unmasked copy with unobserved entries replaced by ``value``
        (the explicit, auditable form of the ``zero-fill`` policy)."""
        if value not in (0, 1):
            raise DataError(f"fill value must be 0 or 1, got {value!r}")
        if self._mask is None:
            return self
        return StatusMatrix(np.where(self._mask, self._data, value))

    def observed_counts(self) -> np.ndarray:
        """Per-node count of processes in which the node was observed
        (``beta`` everywhere for unmasked matrices)."""
        if self._mask is None:
            return np.full(self.n_nodes, self.beta, dtype=np.int64)
        return self._mask.sum(axis=0, dtype=np.int64)

    def complete_rows(self, columns: Sequence[int]) -> np.ndarray:
        """Indices of processes in which **every** given column was
        observed — the pairwise/family-complete row set the missing-data
        estimators count over."""
        if self._mask is None:
            return np.arange(self.beta, dtype=np.int64)
        cols = list(columns)
        if not cols:
            return np.arange(self.beta, dtype=np.int64)
        return np.nonzero(self._mask[:, cols].all(axis=1))[0].astype(np.int64)

    # ------------------------------------------------------------------
    # counting helpers (IMI, model selection and the dense test oracle)
    # ------------------------------------------------------------------
    def infection_counts(self) -> np.ndarray:
        """Per-node count of processes in which the node ended infected
        (the paper's ``N₂`` per node; ``N₁ = beta - N₂``).

        Masked matrices count only observed infections (unobserved
        entries are stored as 0)."""
        return self._data.sum(axis=0, dtype=np.int64)

    def infection_rates(self) -> np.ndarray:
        """Per-node empirical infection probability ``P̂(X_i = 1)``."""
        if self.beta == 0:
            raise DataError("cannot compute rates from zero processes")
        return self.infection_counts() / self.beta

    def observed_pattern_counts(
        self, columns: Sequence[int], rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group rows by the joint pattern of ``columns``.

        Returns ``(pattern_ids, inverse, counts)``: the **observed**
        pattern ids (the binary number the selected columns form, first
        column least significant) in ascending order, each row's index
        into them, and the per-pattern counts.  Memory is ``O(beta)``
        regardless of the number of columns, which matters because the
        Theorem-2 size bound is self-satisfying for large parent sets
        (``φ`` grows like ``2^|F|``), so the literal Algorithm-1 search
        can reach parent sets far beyond dense-counting territory.

        ``rows`` restricts the grouping to the given process indices —
        a family's complete row set (:meth:`complete_rows`) under an
        observation mask.
        """
        cols = list(columns)
        if len(cols) > 62:
            raise DataError(f"too many columns for bit-packing: {len(cols)}")
        data = self._data if rows is None else self._data[rows, :]
        n_rows = data.shape[0]
        if len(cols) == 0:
            return (
                np.zeros(1, dtype=np.int64),
                np.zeros(n_rows, dtype=np.int64),
                np.array([n_rows], dtype=np.int64),
            )
        weights = (1 << np.arange(len(cols), dtype=np.int64))
        codes = data[:, cols].astype(np.int64) @ weights
        pattern_ids, inverse, counts = np.unique(
            codes, return_inverse=True, return_counts=True
        )
        if pattern_ids.size == 0:  # zero rows selected
            pattern_ids = np.zeros(1, dtype=np.int64)
            counts = np.zeros(1, dtype=np.int64)
        return (
            pattern_ids.astype(np.int64),
            inverse.astype(np.int64).reshape(-1),
            counts.astype(np.int64),
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def append(self, other: "StatusMatrix") -> "StatusMatrix":
        """New matrix with ``other``'s processes appended after this one's.

        The streaming primitive behind :meth:`repro.core.tends.Tends.partial_fit`:
        row order is preserved (this matrix's processes first), so appending
        batches one at a time reproduces the matrix a one-shot observer
        would have recorded.  Observation masks travel along — a fully
        observed side contributes an all-``True`` block, and the result is
        unmasked only when neither side has missing entries.
        """
        if not isinstance(other, StatusMatrix):
            other = StatusMatrix(other)
        if other.n_nodes != self.n_nodes:
            raise DataError(
                f"cannot append a {other.n_nodes}-node batch to a "
                f"{self.n_nodes}-node status matrix"
            )
        data = np.concatenate([self._data, other._data], axis=0)
        if self._mask is None and other._mask is None:
            return StatusMatrix(data)
        blocks = [
            matrix._mask
            if matrix._mask is not None
            else np.ones(matrix._data.shape, dtype=np.bool_)
            for matrix in (self, other)
        ]
        return StatusMatrix(data, np.concatenate(blocks, axis=0))

    @classmethod
    def concat(cls, matrices: Sequence["StatusMatrix"]) -> "StatusMatrix":
        """Concatenate status matrices along the process axis.

        Equivalent to folding :meth:`append` over ``matrices`` (masks are
        handled the same way) but validated up front; at least one matrix
        is required so the node count is well defined.
        """
        batches = [
            matrix if isinstance(matrix, cls) else cls(matrix)
            for matrix in matrices
        ]
        if not batches:
            raise DataError("concat needs at least one status matrix")
        result = batches[0]
        for batch in batches[1:]:
            result = result.append(batch)
        return result

    def subset(self, processes: Sequence[int] | np.ndarray) -> "StatusMatrix":
        """New matrix containing only the selected process rows (the
        observation mask, when present, travels with them)."""
        index = np.asarray(processes, dtype=np.int64)
        mask = None if self._mask is None else self._mask[index, :]
        return StatusMatrix(self._data[index, :], mask)

    def select_nodes(self, nodes: Sequence[int] | np.ndarray) -> "StatusMatrix":
        """New matrix containing only the selected node columns (in the
        given order) — the partial-observation scenario where some nodes
        are never monitored.  Node ``nodes[i]`` becomes column ``i``."""
        index = np.asarray(nodes, dtype=np.int64)
        if index.size != np.unique(index).size:
            raise DataError("selected nodes must be distinct")
        mask = None if self._mask is None else self._mask[:, index]
        return StatusMatrix(self._data[:, index], mask)

    def with_flip_noise(self, flip_probability: float, *, seed=None) -> "StatusMatrix":
        """Return a copy where each entry is flipped independently with the
        given probability (observation-noise robustness experiments).

        Kept for API compatibility; :func:`repro.robustness.flip_noise`
        is the richer form (asymmetric rates, corruption metadata).
        """
        from repro.utils.rng import as_generator
        from repro.utils.validation import check_probability

        check_probability("flip_probability", flip_probability)
        rng = as_generator(seed)
        flips = rng.random(self._data.shape) < flip_probability
        return StatusMatrix(np.where(flips, 1 - self._data, self._data), self._mask)

    # ------------------------------------------------------------------
    # dunders
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple[np.ndarray, np.ndarray | None]:
        # Slots classes need explicit pickle support; the array (and the
        # optional mask) is the whole state.  Used by the process
        # execution backend, which ships one StatusMatrix per worker
        # (repro.core.executor).
        return (self._data, self._mask)

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            data, mask = state
        else:  # pre-mask pickles carried the bare array
            data, mask = state, None
        data = np.ascontiguousarray(data, dtype=np.uint8)
        data.setflags(write=False)  # unpickling drops the read-only flag
        if mask is not None:
            mask = np.ascontiguousarray(mask, dtype=np.bool_)
            mask.setflags(write=False)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_mask", mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatusMatrix):
            return NotImplemented
        if self._data.shape != other._data.shape:
            return False
        if not bool((self._data == other._data).all()):
            return False
        if (self._mask is None) != (other._mask is None):
            return False
        if self._mask is None:
            return True
        return bool((self._mask == other._mask).all())

    def __hash__(self) -> int:
        mask_bytes = b"" if self._mask is None else self._mask.tobytes()
        return hash((self._data.shape, self._data.tobytes(), mask_bytes))

    def __repr__(self) -> str:
        if self._mask is None:
            return f"StatusMatrix(beta={self.beta}, n_nodes={self.n_nodes})"
        missing = 1.0 - self._mask.mean()
        return (
            f"StatusMatrix(beta={self.beta}, n_nodes={self.n_nodes}, "
            f"missing={missing:.1%})"
        )
