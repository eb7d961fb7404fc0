"""Configuration for the TENDS estimator."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Literal

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative, check_positive_int

__all__ = ["TendsConfig"]

MiKind = Literal["infection", "traditional"]
SearchStrategy = Literal["greedy-rescoring", "ranked-union"]
ExecutorStrategy = Literal["serial", "process"]
MissingPolicy = Literal["pairwise", "refuse", "zero-fill"]


@dataclass(frozen=True)
class TendsConfig:
    """All tunables of the TENDS pipeline, with paper defaults.

    Attributes
    ----------
    mi_kind:
        ``"infection"`` (paper default, Eq. 25) or ``"traditional"``
        (ablation of Fig. 10–11: plain MI, which cannot distinguish
        positive from negative infection correlation).
    threshold:
        Explicit pruning threshold ``τ``.  ``None`` (default) selects it
        with the fixed-zero 2-means of Algorithm 1 line 5.  The string
        ``"stable"`` also auto-selects ``τ`` but additionally
        stability-screens the candidates: bootstrap resampling over the
        diffusion processes yields per-pair IMI confidence intervals, and
        only pairs whose CI **lower bound** clears ``τ`` survive pruning
        (pairs whose interval straddles ``τ`` are too noise-sensitive to
        trust).  See :mod:`repro.robustness.bootstrap`.
    threshold_scale:
        Multiplier applied to the auto-selected ``τ`` — the knob of the
        Fig. 10–11 sweeps (0.4τ … 2τ).  Ignored when ``threshold`` is set.
    search_strategy:
        ``"greedy-rescoring"`` (default): re-score every candidate
        extension against the current parent set and stop when no
        extension improves the score — the procedure described in §IV-A's
        prose.  ``"ranked-union"``: score all combinations once up front
        and union them in descending-score order while the Theorem-2 bound
        holds — the literal transcription of Algorithm 1 lines 13–20.
    max_combination_size:
        Largest candidate-combination ``|W|`` enumerated per search step
        (the paper's ``η``).  1 reproduces the paper's accuracy at the
        documented polynomial cost; 2+ explores pairwise extensions.
    max_candidates:
        Optional hard cap on ``|P_i|``: keep only the top-IMI candidates.
        ``None`` disables the cap (paper behaviour).  The cap bounds the
        worst case on dense, high-β inputs where the 2-means threshold
        prunes little.
    min_improvement:
        Minimum score gain required to accept a greedy extension
        (``greedy-rescoring`` only).  0 is the paper behaviour.
    executor:
        Stage-3 execution backend: ``"serial"`` (the reference loop) or
        ``"process"`` (see :mod:`repro.core.executor`).
        ``None`` (default) falls back to the ``REPRO_EXECUTOR``
        environment variable, then to ``"serial"``.  All backends produce
        bit-identical results; only wall-clock changes.
    n_jobs:
        Worker count for the process backend.  ``-1`` means all CPUs;
        ``None`` (default) falls back to ``REPRO_N_JOBS``, then to 1.
    chunk_size:
        Nodes per parallel task.  ``None`` (default) picks a size that
        oversubscribes each worker ~4× for load balancing.
    max_attempts:
        Execution attempts per parallel chunk before its failure is
        permanent (see :class:`repro.core.executor.RetryPolicy`).
        ``None`` (default) falls back to ``REPRO_MAX_ATTEMPTS``, then 3.
    chunk_timeout:
        Per-chunk wall-clock budget in seconds for the process backend.
        ``None`` (default) falls back to ``REPRO_CHUNK_TIMEOUT``, then
        unlimited.
    executor_fallback:
        Whether an unusable process pool may fall back to serial instead
        of failing the fit.
        ``None`` (default) enables the fallback.
    audit:
        Observation-audit policy applied at the top of :meth:`Tends.fit`:
        ``"warn"`` (default) emits a
        :class:`~repro.exceptions.DataQualityWarning` on degenerate
        observations (all-zero / all-one cascades, never- or
        always-infected nodes), ``"strict"`` raises
        :class:`~repro.exceptions.DataError`, ``"ignore"`` skips the
        audit.
    missing:
        Policy for status matrices whose observation mask marks entries
        unobserved.  ``"pairwise"`` (default): estimate IMI, the scoring
        counts ``N_ij``, and the Theorem-2 bound over pairwise/family-
        complete processes with per-pair effective sample sizes — missing
        data degrades estimates gracefully instead of biasing them.
        ``"zero-fill"``: drop the mask and treat unobserved entries as 0
        (the legacy, biased behaviour, kept for comparison).
        ``"refuse"``: raise :class:`~repro.exceptions.DataError` on any
        missing entry.  Fully-observed matrices take the identical code
        path under every policy.
    bootstrap_samples:
        Number of bootstrap resamples ``B`` for IMI uncertainty
        quantification.  ``None`` (default) disables the bootstrap unless
        ``threshold="stable"`` requires it (then 100 is used).  Setting a
        value always computes per-edge confidence scores
        (:attr:`~repro.core.tends.TendsResult.edge_confidence`).
    bootstrap_seed:
        Seed for the bootstrap resampling streams.  Defaults to 0 so fits
        are deterministic out of the box; pass another int to vary the
        resampling.
    ci_level:
        Two-sided confidence level of the bootstrap intervals used by the
        ``threshold="stable"`` screening (default 0.95).
    trace:
        Observability switch.  ``True`` records nested spans and an
        algorithm-metrics snapshot during :meth:`~repro.core.tends.Tends.fit`
        (including worker spans shipped back from parallel backends) and
        attaches them as :attr:`~repro.core.tends.TendsResult.telemetry`.
        ``False`` (default) runs the zero-overhead no-op instrumentation
        path; inference results are bit-identical either way.  See
        :mod:`repro.obs` and docs/OBSERVABILITY.md.
    memory:
        Per-stage memory attribution switch.  ``True`` runs the fit
        under :class:`~repro.obs.memory.MemoryTracker` (tracemalloc +
        RSS), recording ``alloc_bytes`` / ``peak_alloc_bytes`` /
        ``peak_rss_bytes`` per pipeline stage on the result telemetry
        and in run manifests.  Opt-in separately from ``trace`` because
        tracemalloc taxes every allocation while tracing; inference
        results are bit-identical either way.
    tile_size:
        Side length of the square (i, j) pair-space tiles used by the
        tiled sufficient-statistics layer (:mod:`repro.core.tiles`).
        ``None`` (default) keeps the dense path: full n×n count and IMI
        matrices in memory.  Setting a value makes :meth:`Tends.fit`
        compute stage 1 tile-by-tile (each tile fanned out through the
        stage-3 executor with the same retry/fallback semantics) and
        spill the counts to disk, so peak residency stays
        ~O(n·tile + tile²) instead of O(n²) for the counting stage.
        Both paths are bit-identical; only memory and wall-clock change.
    spill_dir:
        Directory for spilled tiles and the memory-mapped IMI matrix.
        ``None`` (default) uses a private temporary directory that lives
        as long as the fitted statistics.  Pointing it at a persistent
        path makes interrupted fits resumable: tiles already on disk
        with valid checksums are not recomputed.
    max_resident_tiles:
        LRU cap on the number of spilled tiles simultaneously mapped
        into memory while assembling the IMI matrix or streaming the
        stats checksum.  ``None`` (default) keeps a small default cap
        (see :data:`repro.core.tiles.DEFAULT_MAX_RESIDENT_TILES`).
    """

    mi_kind: MiKind = "infection"
    threshold: float | Literal["stable"] | None = None
    threshold_scale: float = 1.0
    search_strategy: SearchStrategy = "greedy-rescoring"
    max_combination_size: int = 1
    max_candidates: int | None = None
    min_improvement: float = 0.0
    executor: ExecutorStrategy | None = None
    n_jobs: int | None = None
    chunk_size: int | None = None
    max_attempts: int | None = None
    chunk_timeout: float | None = None
    executor_fallback: bool | None = None
    audit: Literal["warn", "strict", "ignore"] = "warn"
    missing: MissingPolicy = "pairwise"
    bootstrap_samples: int | None = None
    bootstrap_seed: int = 0
    ci_level: float = 0.95
    trace: bool = False
    memory: bool = False
    tile_size: int | None = None
    spill_dir: str | None = None
    max_resident_tiles: int | None = None

    def __post_init__(self) -> None:
        if self.mi_kind not in ("infection", "traditional"):
            raise ConfigurationError(f"unknown mi_kind: {self.mi_kind!r}")
        if self.search_strategy not in ("greedy-rescoring", "ranked-union"):
            raise ConfigurationError(f"unknown search_strategy: {self.search_strategy!r}")
        check_positive_int("max_combination_size", self.max_combination_size)
        check_non_negative("threshold_scale", self.threshold_scale)
        check_non_negative("min_improvement", self.min_improvement)
        if isinstance(self.threshold, str):
            if self.threshold != "stable":
                raise ConfigurationError(
                    f"threshold must be a number, None, or 'stable', "
                    f"got {self.threshold!r}"
                )
        elif self.threshold is not None:
            check_non_negative("threshold", self.threshold)
        if self.max_candidates is not None:
            check_positive_int("max_candidates", self.max_candidates)
        if self.executor not in (None, "serial", "process"):
            raise ConfigurationError(
                f"unknown executor: {self.executor!r}; available: 'serial', 'process'"
            )
        if self.n_jobs is not None and self.n_jobs != -1:
            check_positive_int("n_jobs", self.n_jobs)
        if self.chunk_size is not None:
            check_positive_int("chunk_size", self.chunk_size)
        if self.max_attempts is not None:
            check_positive_int("max_attempts", self.max_attempts)
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ConfigurationError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )
        if self.audit not in ("warn", "strict", "ignore"):
            raise ConfigurationError(f"unknown audit policy: {self.audit!r}")
        if self.missing not in ("pairwise", "refuse", "zero-fill"):
            raise ConfigurationError(f"unknown missing policy: {self.missing!r}")
        if self.bootstrap_samples is not None:
            check_positive_int("bootstrap_samples", self.bootstrap_samples)
        check_non_negative("bootstrap_seed", self.bootstrap_seed)
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigurationError(
                f"ci_level must be in (0, 1), got {self.ci_level}"
            )
        if not isinstance(self.trace, bool):
            raise ConfigurationError(
                f"trace must be a boolean, got {self.trace!r}"
            )
        if not isinstance(self.memory, bool):
            raise ConfigurationError(
                f"memory must be a boolean, got {self.memory!r}"
            )
        if self.tile_size is not None:
            check_positive_int("tile_size", self.tile_size)
        if self.max_resident_tiles is not None:
            check_positive_int("max_resident_tiles", self.max_resident_tiles)
        if self.spill_dir is not None and not isinstance(self.spill_dir, str):
            # Accept Path-likes but store a plain string so as_dict()
            # stays JSON-serialisable (model snapshots embed the config).
            object.__setattr__(self, "spill_dir", str(self.spill_dir))

    def with_overrides(self, **changes) -> "TendsConfig":
        """Functional update helper (dataclass ``replace`` wrapper)."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """All fields as a plain JSON-serialisable dict."""
        return asdict(self)

    #: Fields that determine *what* the pipeline infers.  Execution knobs
    #: (executor/n_jobs/chunking/retries, the tiling/spill layout), audit
    #: policy, and tracing change only how or how observably the work
    #: runs — every backend is bit-identical — so they are excluded from
    #: the algorithm fingerprint (a model saved from a dense fit can be
    #: resumed by a tiled service, and vice versa).
    ALGORITHM_FIELDS = (
        "mi_kind",
        "threshold",
        "threshold_scale",
        "search_strategy",
        "max_combination_size",
        "max_candidates",
        "min_improvement",
        "missing",
    )

    #: Fields older snapshots may still carry in their stored config but
    #: that no longer exist.  Each never affected results (it is outside
    #: :attr:`ALGORITHM_FIELDS`), so loaders drop exactly these keys and
    #: keep rejecting any other unknown one.  ``kernel`` chose between two
    #: bit-identical counting backends.
    RETIRED_FIELDS = ("kernel",)

    #: Values older snapshots may store for a field that still exists but
    #: no longer accepts them.  Each belongs to an execution knob outside
    #: :attr:`ALGORITHM_FIELDS`, so loaders reset it to ``None`` (the
    #: environment default, then serial) and the fingerprint is unchanged.
    #: ``executor="thread"`` named a deleted backend.
    RETIRED_VALUES = {"executor": ("thread",)}

    def algorithm_fingerprint(self) -> str:
        """SHA-256 over the result-affecting configuration fields.

        Used by :class:`repro.core.tends.TendsModel` to refuse resuming a
        cached model under a configuration that would have produced
        different statistics or searches.  Two configs that differ only in
        execution/observability knobs share a fingerprint, so a model
        saved from a serial fit can be updated by a process-parallel
        service.
        """
        payload = {name: getattr(self, name) for name in self.ALGORITHM_FIELDS}
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()
