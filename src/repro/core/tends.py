"""The TENDS estimator (paper Algorithm 1, end to end).

Pipeline::

    statuses ──> IMI matrix ──> fixed-zero 2-means τ ──> candidate sets P_i
                                                          │
    inferred graph <── directed edges F_i → v_i <── parent search per node

Usage
-----
>>> from repro.graphs import erdos_renyi_digraph
>>> from repro.simulation import DiffusionSimulator
>>> from repro.core import Tends
>>> truth = erdos_renyi_digraph(30, 0.08, seed=3)
>>> observations = DiffusionSimulator(truth, seed=3).run(beta=120)
>>> result = Tends().fit(observations.statuses)
>>> result.graph.n_nodes
30
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.config import TendsConfig
from repro.core.executor import ExecutionPlan, ParallelExecutor, WorkerStats
from repro.core.kmeans import TwoMeansResult, fixed_zero_two_means
from repro.core.search import (
    ParentSearch,
    SearchDiagnostics,
    prune_candidates,
    search_chunk,
)
from repro.core.stats import SufficientStats, stored_count_keys
from repro.core.tiles import TiledSufficientStats
from repro.durable import atomic_write
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    DataError,
    InferenceError,
)
from repro.graphs.digraph import DiffusionGraph
from repro.obs.memory import NULL_MEMORY, MemoryTracker, NullMemoryTracker
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, ambient_tracer
from repro.simulation.statuses import StatusMatrix, validate_observations
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (robustness → imi)
    from repro.core.drift import DriftConfig, DriftReport
    from repro.robustness.bootstrap import ImiBootstrap

__all__ = ["Tends", "TendsResult", "TendsModel", "UpdateInfo", "merge_results"]


def _parent_graph(
    n: int, parent_sets: Sequence[Sequence[int]]
) -> DiffusionGraph:
    """The frozen graph with one edge ``parent → child`` per entry of
    ``parent_sets[child]``."""
    graph = DiffusionGraph(n)
    for child, parents in enumerate(parent_sets):
        for parent in parents:
            graph.add_edge(parent, child)
    return graph.freeze()


def _apply_missing_policy(
    statuses: StatusMatrix, missing: str, what: str
) -> StatusMatrix:
    """Apply the ``config.missing`` policy to an input matrix.

    ``"refuse"`` raises on any unobserved entry (``what`` names the input
    in the message), ``"zero-fill"`` drops the mask, and ``"pairwise"``
    leaves it in place — imi/scoring then count over pairwise- and
    family-complete processes with per-pair effective β.
    """
    if not statuses.has_missing:
        return statuses
    if missing == "refuse":
        raise DataError(
            f"{what} {int((~statuses.mask).sum())} unobserved entries "
            "and missing='refuse' is set"
        )
    return statuses.filled(0) if missing == "zero-fill" else statuses


def _mask_density(statuses: StatusMatrix) -> float:
    """Observed share of ``statuses`` (1.0 when unmasked)."""
    return float(statuses.mask.mean()) if statuses.has_missing else 1.0


def _count_pruning(
    metrics: MetricsRegistry | NullMetrics,
    n: int,
    candidates: Sequence[Sequence[int]],
) -> None:
    """Record how many of the searched nodes' ``n - 1`` possible parents
    the pruning kept and how many it dropped."""
    kept = sum(len(c) for c in candidates)
    metrics.inc("tends_candidate_pairs_pruned_total", len(candidates) * (n - 1) - kept)
    metrics.inc("tends_candidate_pairs_kept_total", kept)


@dataclass(frozen=True)
class TendsResult:
    """Everything TENDS produced in one fit.

    Attributes
    ----------
    graph:
        The inferred diffusion network (directed edges parent → child).
    parent_sets:
        ``parent_sets[i]`` is the inferred ``F_i``.
    mi_matrix:
        The pairwise (infection or traditional) MI matrix used for pruning.
    threshold:
        The pruning threshold ``τ`` actually applied (after scaling or
        override).
    clustering:
        Raw fixed-zero 2-means outcome (``None`` when ``τ`` was overridden).
    diagnostics:
        Per-node :class:`~repro.core.search.SearchDiagnostics`.
    stage_seconds:
        Wall-clock per pipeline stage: ``stats`` (when the fit counted
        its own sufficient statistics), ``imi``, ``threshold``,
        ``search``, ``drift`` (the drift check of
        ``partial_fit(drift="detect"|"adapt")``), plus one
        ``search/<worker>`` entry per stage-3 worker (e.g.
        ``search/serial``, ``search/process-0``) holding the
        time that worker spent inside the parent searches.  The flat
        ``search/<worker>`` keys are kept for backwards compatibility;
        prefer :attr:`stage_times` (stage names only) and
        :attr:`worker_seconds` (per-worker view) — stage names never
        contain ``/``, so the two namespaces cannot collide.
    worker_stats:
        Per-worker :class:`~repro.core.executor.WorkerStats` for stage 3
        (chunk and node counts per worker, for load-balance diagnosis).
    edge_confidence:
        Per-edge bootstrap confidence — ``edge_confidence[(u, v)]`` is
        the fraction of IMI bootstrap resamples in which the pair's IMI
        exceeded the pruning threshold ``τ`` (1.0 = the relation survived
        every resample).  ``None`` unless the fit ran a bootstrap
        (``threshold="stable"`` or ``bootstrap_samples=`` set).
    imi_bootstrap:
        The full :class:`~repro.robustness.bootstrap.ImiBootstrap`
        distribution behind :attr:`edge_confidence` (``None`` when no
        bootstrap ran) — per-pair CIs via ``.ci()``.
    telemetry:
        :class:`~repro.obs.telemetry.Telemetry` (spans + metrics
        snapshot) recorded during the fit; ``None`` unless the fit ran
        with ``trace=True``.  Export with :mod:`repro.obs.export`.
    update:
        :class:`UpdateInfo` describing the dirty/clean node split of the
        incremental update that produced this result; ``None`` for
        results of a full :meth:`Tends.fit`.
    drift:
        :class:`~repro.core.drift.DriftReport` from the reference-vs-recent
        check a :meth:`Tends.partial_fit` ran with ``drift="detect"`` or
        ``"adapt"``; ``None`` under the default ``drift="ignore"`` and for
        full fits.
    nodes:
        The node shard this result searched (``Tends.fit(nodes=...)``) —
        parent sets outside the shard are empty placeholders, and
        :func:`merge_results` reassembles the full answer from a disjoint
        cover of shards.  ``None`` for full fits and merged results.
    """

    graph: DiffusionGraph
    parent_sets: tuple[tuple[int, ...], ...]
    mi_matrix: np.ndarray
    threshold: float
    clustering: TwoMeansResult | None
    diagnostics: tuple[SearchDiagnostics, ...]
    stage_seconds: Mapping[str, float]
    worker_stats: tuple[WorkerStats, ...] = ()
    edge_confidence: Mapping[tuple[int, int], float] | None = None
    imi_bootstrap: "ImiBootstrap | None" = None
    telemetry: Telemetry | None = None
    update: "UpdateInfo | None" = None
    drift: "DriftReport | None" = None
    nodes: tuple[int, ...] | None = None

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    @property
    def stage_times(self) -> dict[str, float]:
        """Per-stage wall-clock only — :attr:`stage_seconds` without the
        flat ``search/<worker>`` back-compat entries (stage names never
        contain ``/``)."""
        return {
            stage: seconds
            for stage, seconds in self.stage_seconds.items()
            if "/" not in stage
        }

    @property
    def worker_seconds(self) -> dict[str, float]:
        """Stage-3 wall-clock per worker, keyed by worker label — the
        structured view of the ``search/<worker>`` entries, derived from
        :attr:`worker_stats`."""
        return {stats.worker: stats.seconds for stats in self.worker_stats}

    def candidate_counts(self) -> np.ndarray:
        """``|P_i|`` per node — how aggressive the pruning was."""
        return np.array([d.n_candidates for d in self.diagnostics], dtype=np.int64)

    def total_evaluations(self) -> int:
        """Total score evaluations across all nodes (cost proxy)."""
        return int(sum(d.n_evaluations for d in self.diagnostics))

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic outputs of the fit: node count,
        searched shard, MI matrix bytes, threshold, and parent sets.

        Timings, worker attribution, and telemetry are excluded, so two
        runs of the same inference — serial or fanned out, dense or
        tiled, one-shot or shard+:func:`merge_results` — produce equal
        fingerprints exactly when they produced the same answer.
        """
        digest = hashlib.sha256()
        digest.update(str(self.graph.n_nodes).encode())
        digest.update(repr(self.nodes).encode())
        digest.update(repr(self.threshold).encode())
        # Hashed through the buffer protocol: no copy of the matrix.
        digest.update(np.ascontiguousarray(self.mi_matrix, dtype=np.float64))
        digest.update(
            json.dumps([list(p) for p in self.parent_sets]).encode()
        )
        return digest.hexdigest()


@dataclass(frozen=True)
class UpdateInfo:
    """What one :meth:`Tends.partial_fit` actually did.

    Attributes
    ----------
    batch_beta:
        Number of processes in the arriving batch.
    dirty_nodes:
        Nodes whose parent search was re-run on the extended history —
        their candidate set changed, or the batch carried at least one
        observed status for them (either can change family counts).
    clean_nodes:
        Nodes warm-started from the previous fit: their candidate set is
        unchanged and the batch never observed them, so every count their
        score depends on is provably unchanged and the search is skipped.
    threshold_changed:
        Whether the recomputed pruning threshold ``τ`` differs from the
        previous fit's (bit-exact comparison).
    """

    batch_beta: int
    dirty_nodes: tuple[int, ...]
    clean_nodes: tuple[int, ...]
    threshold_changed: bool

    @property
    def n_dirty(self) -> int:
        return len(self.dirty_nodes)

    @property
    def n_clean(self) -> int:
        return len(self.clean_nodes)

    @property
    def n_skipped(self) -> int:
        """Parent searches skipped by the warm start (== :attr:`n_clean`)."""
        return len(self.clean_nodes)


def merge_results(results: Sequence[TendsResult]) -> TendsResult:
    """Reassemble one full :class:`TendsResult` from shard fits.

    ``results`` must be shard results (``Tends.fit(nodes=...)``) whose
    shards disjointly cover every node, produced from the same
    observations under the same configuration — validated here by
    requiring bit-equal MI matrices and thresholds across the shards.
    Stages 1–2 are deterministic functions of the data, so each shard
    recomputed them identically; stage 3 is per-node, so concatenating
    the shard answers in node order is *exactly* the one-shot fit:
    the merged result's :meth:`TendsResult.fingerprint` equals the full
    fit's (held by ``tests/property/test_prop_tiles.py``).

    Per-stage timings are summed across shards (total work, not wall
    clock) and worker stats concatenated.
    """
    if not results:
        raise InferenceError("merge_results needs at least one shard result")
    reference = results[0]
    n = reference.graph.n_nodes
    owner: dict[int, TendsResult] = {}
    for result in results:
        if result.nodes is None:
            raise InferenceError(
                "merge_results takes shard results (fit(nodes=...)); "
                "got a full-fit result"
            )
        if result.graph.n_nodes != n:
            raise InferenceError(
                f"cannot merge shards over {result.graph.n_nodes} and "
                f"{n} nodes"
            )
        if repr(result.threshold) != repr(reference.threshold):
            raise InferenceError(
                "shard results disagree on the threshold "
                f"({result.threshold!r} vs {reference.threshold!r}); "
                "they were not fitted on the same observations/config"
            )
        if not np.array_equal(
            np.asarray(result.mi_matrix), np.asarray(reference.mi_matrix)
        ):
            raise InferenceError(
                "shard results disagree on the MI matrix; they were not "
                "fitted on the same observations/config"
            )
        for node in result.nodes:
            if node in owner:
                raise InferenceError(
                    f"node {node} appears in more than one shard"
                )
            owner[node] = result
    missing = [node for node in range(n) if node not in owner]
    if missing:
        raise InferenceError(
            f"shards do not cover every node (missing {missing[:5]}"
            f"{'...' if len(missing) > 5 else ''})"
        )
    parent_sets = tuple(owner[node].parent_sets[node] for node in range(n))
    diagnostics = tuple(owner[node].diagnostics[node] for node in range(n))
    stage_seconds: dict[str, float] = {}
    for result in results:
        for stage, seconds in result.stage_seconds.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    return TendsResult(
        graph=_parent_graph(n, parent_sets),
        parent_sets=parent_sets,
        mi_matrix=reference.mi_matrix,
        threshold=reference.threshold,
        clustering=reference.clustering,
        diagnostics=diagnostics,
        stage_seconds=stage_seconds,
        worker_stats=tuple(
            stats for result in results for stats in result.worker_stats
        ),
    )


@dataclass(frozen=True)
class TendsModel:
    """Checkpointable state of an incrementally-fitted TENDS estimator.

    Holds everything :meth:`Tends.partial_fit` needs to absorb the next
    batch: the cached :class:`~repro.core.stats.SufficientStats`, the full
    status history (stage-3 family counts are not pairwise-reducible, so
    dirty-node searches re-score against the concatenated history), and
    the previous fit's threshold / candidate sets / parent sets for the
    dirty-node diff and clean-node warm start.

    Instances are immutable; updates build a new model and install it only
    after the whole update succeeded (copy-on-write), so an interrupted
    ``partial_fit`` leaves the previous model untouched.

    :meth:`save` / :meth:`load` round-trip the model through a single NPZ
    file (count matrices + history as arrays, config and fingerprints as
    an embedded JSON blob).  ``load`` re-derives the data fingerprint,
    statistics checksum, and config fingerprint and refuses the snapshot
    with :class:`~repro.exceptions.CheckpointError` on any mismatch —
    mixing incompatible histories or silently-corrupted counts is an
    error, not a degradation.  See docs/INCREMENTAL.md.
    """

    config: TendsConfig
    stats: SufficientStats | TiledSufficientStats
    statuses: StatusMatrix
    threshold: float
    candidates: tuple[tuple[int, ...], ...]
    parent_sets: tuple[tuple[int, ...], ...]
    diagnostics: tuple[SearchDiagnostics, ...]

    #: Snapshot format version; bumped on layout changes so old readers
    #: fail loudly instead of misinterpreting newer files.  Version 2
    #: writes only the stored count planes
    #: (:func:`~repro.core.stats.stored_count_keys`); version 1 wrote all
    #: five, a superset, so :meth:`load` reads both.
    SNAPSHOT_VERSION = 2
    _READABLE_VERSIONS = (1, 2)

    @property
    def n_nodes(self) -> int:
        return self.stats.n_nodes

    @property
    def beta(self) -> int:
        """Processes absorbed so far (initial fit + every update)."""
        return self.stats.beta

    def graph(self) -> DiffusionGraph:
        """The currently-inferred topology (edges parent → child)."""
        return _parent_graph(self.n_nodes, self.parent_sets)

    def data_fingerprint(self) -> str:
        """SHA-256 over the stored history (statuses bytes + mask).

        Saved into snapshots and re-derived on :meth:`load`; a mismatch
        means the snapshot's arrays no longer describe the history the
        model was fitted on, and the load is refused.
        """
        digest = hashlib.sha256()
        values = self.statuses.values
        digest.update(str(values.shape).encode())
        digest.update(np.ascontiguousarray(values))
        mask = self.statuses.mask
        if mask is None:
            digest.update(b"unmasked")
        else:
            digest.update(b"masked")
            digest.update(np.ascontiguousarray(mask))
        return digest.hexdigest()

    def fingerprint(self) -> str:
        """SHA-256 over everything that defines the fitted state: the
        algorithm configuration, the absorbed history, the cached counts,
        the threshold, and the inferred parent sets.

        Two models with equal fingerprints are bit-identical for every
        read path the service exposes — this is the equality the
        crash-replay guarantee in docs/SERVING.md is stated in.
        """
        digest = hashlib.sha256()
        digest.update(self.config.algorithm_fingerprint().encode())
        digest.update(self.data_fingerprint().encode())
        digest.update(self.stats.checksum().encode())
        digest.update(repr(self.threshold).encode())
        digest.update(json.dumps(self.candidates).encode())
        digest.update(json.dumps(self.parent_sets).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the model to ``path`` as a single NPZ snapshot.

        The write is **crash-atomic** (:func:`repro.durable.atomic_write`):
        the archive streams into a same-directory temp file that is
        fsynced and :func:`os.replace`-d over ``path`` — a kill at any
        instant leaves either the previous snapshot or the new one, never
        a truncated hybrid (``tests/faults/test_model_snapshot_atomic.py``
        interrupts the write at every stage to hold this).
        """
        meta = {
            "format": "tends-model",
            "version": self.SNAPSHOT_VERSION,
            "config": self.config.as_dict(),
            "algorithm_fingerprint": self.config.algorithm_fingerprint(),
            "data_fingerprint": self.data_fingerprint(),
            "stats_checksum": self.stats.checksum(),
            "beta": self.stats.beta,
            "n_nodes": self.n_nodes,
            "has_missing": self.stats.has_missing,
            "threshold": self.threshold,
            "candidates": [list(c) for c in self.candidates],
            "parent_sets": [list(p) for p in self.parent_sets],
            "diagnostics": [asdict(d) for d in self.diagnostics],
        }
        arrays: dict[str, np.ndarray] = {
            "meta_json": np.frombuffer(
                json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
            ),
            "statuses": self.statuses.values,
            "infected": self.stats.infected,
            "observed": self.stats.observed,
        }
        if self.statuses.mask is not None:
            arrays["statuses_mask"] = self.statuses.mask
        for key in stored_count_keys(self.stats.has_missing):
            # count_matrix densifies one plane at a time, so tile-backed
            # statistics snapshot without materialising them all at once.
            arrays[f"counts_{key}"] = self.stats.count_matrix(key)
        return atomic_write(
            path, lambda handle: np.savez_compressed(handle, **arrays)
        )

    @classmethod
    def load(cls, path: str | Path) -> "TendsModel":
        """Read a snapshot written by :meth:`save`, verifying integrity.

        Raises :class:`~repro.exceptions.CheckpointError` when the file is
        unreadable, from an unknown format/version, or fails any of its
        three self-checks (data fingerprint, statistics checksum, config
        fingerprint).
        """
        path = Path(path)
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except CheckpointError:
            raise
        except Exception as error:
            raise CheckpointError(
                f"cannot read model snapshot {path}: {error}"
            ) from error
        if "meta_json" not in arrays:
            raise CheckpointError(
                f"{path} is not a TENDS model snapshot (no metadata entry)"
            )
        try:
            meta = json.loads(bytes(bytearray(arrays["meta_json"])).decode())
        except (ValueError, UnicodeDecodeError) as error:
            raise CheckpointError(
                f"model snapshot {path} carries unparseable metadata: {error}"
            ) from error
        if meta.get("format") != "tends-model":
            raise CheckpointError(
                f"{path} is not a TENDS model snapshot "
                f"(format={meta.get('format')!r})"
            )
        version = meta.get("version")
        if version not in cls._READABLE_VERSIONS:
            raise CheckpointError(
                f"model snapshot {path} has format version {version!r}; "
                f"this build reads versions {list(cls._READABLE_VERSIONS)}"
            )
        try:
            settings = dict(meta["config"])
            for name in TendsConfig.RETIRED_FIELDS:
                settings.pop(name, None)
            for name, values in TendsConfig.RETIRED_VALUES.items():
                if settings.get(name) in values:
                    settings[name] = None
            config = TendsConfig(**settings)
            mask = arrays.get("statuses_mask")
            statuses = StatusMatrix(
                arrays["statuses"], None if mask is None else mask
            )
            has_missing = bool(meta["has_missing"])
            stats = SufficientStats(
                counts={
                    key: np.ascontiguousarray(
                        arrays[f"counts_{key}"], dtype=np.int64
                    )
                    for key in stored_count_keys(has_missing)
                },
                infected=np.ascontiguousarray(arrays["infected"], dtype=np.int64),
                observed=np.ascontiguousarray(arrays["observed"], dtype=np.int64),
                beta=int(meta["beta"]),
                has_missing=has_missing,
            )
            model = cls(
                config=config,
                stats=stats,
                statuses=statuses,
                threshold=float(meta["threshold"]),
                candidates=tuple(
                    tuple(int(node) for node in row) for row in meta["candidates"]
                ),
                parent_sets=tuple(
                    tuple(int(node) for node in row) for row in meta["parent_sets"]
                ),
                diagnostics=tuple(
                    SearchDiagnostics(**entry) for entry in meta["diagnostics"]
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"model snapshot {path} is internally inconsistent: {error}"
            ) from error
        if config.algorithm_fingerprint() != meta.get("algorithm_fingerprint"):
            raise CheckpointError(
                f"model snapshot {path} failed its config-fingerprint check: "
                "the stored configuration does not match the fingerprint it "
                "was saved with"
            )
        if model.data_fingerprint() != meta.get("data_fingerprint"):
            raise CheckpointError(
                f"model snapshot {path} failed its data-fingerprint check: "
                "the stored history does not match the fingerprint it was "
                "saved with — refusing to mix incompatible histories"
            )
        if stats.checksum() != meta.get("stats_checksum"):
            raise CheckpointError(
                f"model snapshot {path} failed its statistics checksum: the "
                "cached counts drifted from the state they were saved in"
            )
        if (
            stats.n_nodes != statuses.n_nodes
            or stats.beta != statuses.beta
            or stats.has_missing != statuses.has_missing
        ):
            raise CheckpointError(
                f"model snapshot {path} pairs a "
                f"({statuses.beta} × {statuses.n_nodes}) history with "
                f"statistics for beta={stats.beta}, n={stats.n_nodes}"
            )
        return model


class _Run:
    """Observability scaffold of one fit, update or adaptation.

    A traced run records nested spans and algorithm metrics; an untraced
    one runs through the shared no-op singletons (one attribute lookup
    per site).  Either way the inference is bit-identical —
    instrumentation only observes.
    """

    def __init__(self, config: TendsConfig) -> None:
        self.tracer: Tracer | NullTracer = (
            Tracer() if config.trace else NULL_TRACER
        )
        self.metrics: MetricsRegistry | NullMetrics = (
            MetricsRegistry() if config.trace else NULL_METRICS
        )
        self.memory: MemoryTracker | NullMemoryTracker = (
            MemoryTracker() if config.memory else NULL_MEMORY
        )
        self.recording = config.trace or self.memory.enabled

    @contextmanager
    def installed(self) -> Iterator["_Run"]:
        """Make this run's tracer and memory tracker the ambient ones."""
        with ambient_tracer(self.tracer), self.memory.activate():
            yield self

    @contextmanager
    def stage(self, seconds: dict[str, float], name: str, **attrs) -> Iterator:
        """One timed pipeline stage: span ``tends.<name>`` (yielded, so the
        stage can annotate it), memory stage ``name``, and a stopwatch
        whose reading lands in ``seconds[name]``."""
        with self.tracer.span(f"tends.{name}", **attrs) as span:
            with self.memory.measure(name, span), Stopwatch() as watch:
                yield span
            seconds[name] = watch.elapsed

    def attach(self, result: TendsResult) -> TendsResult:
        """``result`` carrying what this run recorded as its
        :class:`~repro.obs.telemetry.Telemetry` (untouched when tracing
        and memory attribution are both off)."""
        if not self.recording:
            return result
        return replace(
            result,
            telemetry=Telemetry(
                spans=self.tracer.finished(),
                metrics=self.metrics.snapshot(),
                epoch_offset=self.tracer.epoch_offset,
                memory=self.memory.stages(),
            ),
        )


class Tends:
    """Statistical estimator of diffusion network topologies.

    The only observation it consumes is the final-status matrix; no
    timestamps, no diffusion sources, no prior knowledge of edge counts.

    Parameters
    ----------
    config:
        Full :class:`~repro.core.config.TendsConfig`; keyword overrides
        below are merged into it for convenience.
    **overrides:
        Any :class:`TendsConfig` field, e.g. ``Tends(mi_kind="traditional")``.
    """

    def __init__(self, config: TendsConfig | None = None, **overrides) -> None:
        base = config or TendsConfig()
        self.config = base.with_overrides(**overrides) if overrides else base
        self._model: TendsModel | None = None

    @property
    def model(self) -> TendsModel | None:
        """The incremental-update state installed by the last successful
        :meth:`fit` / :meth:`partial_fit` — pass it to
        :meth:`TendsModel.save` to checkpoint a service.  ``None`` before
        the first fit and for bootstrap-backed configurations
        (``threshold="stable"`` / ``bootstrap_samples``), whose resampled
        screening cannot be updated from cached counts."""
        return self._model

    @classmethod
    def from_model(cls, model: TendsModel, **overrides) -> "Tends":
        """Estimator resuming from a checkpointed :class:`TendsModel`.

        ``overrides`` may adjust execution/observability knobs (executor,
        n_jobs, trace, ...) for the resuming service; overriding a
        result-affecting field (anything in
        :attr:`TendsConfig.ALGORITHM_FIELDS`) raises
        :class:`~repro.exceptions.ConfigurationError` — a model is only
        valid under the algorithm configuration that produced it, so such
        a change needs a fresh :meth:`fit`.
        """
        config = (
            model.config.with_overrides(**overrides) if overrides else model.config
        )
        if config.algorithm_fingerprint() != model.config.algorithm_fingerprint():
            changed = sorted(
                name
                for name in TendsConfig.ALGORITHM_FIELDS
                if getattr(config, name) != getattr(model.config, name)
            )
            raise ConfigurationError(
                "cannot resume a TENDS model under a different algorithm "
                f"configuration (changed: {', '.join(changed)}); run a full "
                "fit() instead"
            )
        estimator = cls(config)
        estimator._model = replace(model, config=config)
        return estimator

    # ------------------------------------------------------------------
    def _execution_plan(self) -> ExecutionPlan:
        """The stage-3 executor plan from the configured knobs — shared
        by the parent-search fan-out and the tile fan-outs, so tiles get
        the same retry / backoff / fallback / timeout semantics."""
        return ExecutionPlan.resolve(
            executor=self.config.executor,
            n_jobs=self.config.n_jobs,
            chunk_size=self.config.chunk_size,
            max_attempts=self.config.max_attempts,
            chunk_timeout=self.config.chunk_timeout,
            fallback=self.config.executor_fallback,
        )

    def _count_stats(
        self,
        statuses: StatusMatrix,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        metrics: "MetricsRegistry | NullMetrics" = NULL_METRICS,
        replacing: SufficientStats | TiledSufficientStats | None = None,
    ) -> SufficientStats | TiledSufficientStats:
        """Count the fit's sufficient statistics: dense one-shot by
        default, tile-by-tile into the spill directory when
        ``config.tile_size`` is set (bit-identical either way).

        ``replacing`` is the live model's statistics when the count
        replaces them; tiles then go to the generation after theirs, so
        the live model's tiles stay intact until the new model is
        installed (copy-on-write)."""
        if self.config.tile_size is None:
            return SufficientStats.from_statuses(statuses)
        return TiledSufficientStats.from_statuses(
            statuses,
            tile_size=self.config.tile_size,
            spill_dir=self.config.spill_dir,
            max_resident_tiles=self.config.max_resident_tiles,
            plan=self._execution_plan(),
            tracer=tracer,
            metrics=metrics,
            generation=(
                replacing.generation + 1
                if isinstance(replacing, TiledSufficientStats)
                else 0
            ),
        )

    def fit(
        self,
        statuses: StatusMatrix,
        *,
        stats: SufficientStats | TiledSufficientStats | None = None,
        nodes: Sequence[int] | None = None,
    ) -> TendsResult:
        """Run the full Algorithm 1 pipeline on ``statuses``.

        ``stats`` optionally supplies precomputed
        :class:`~repro.core.stats.SufficientStats` **of these exact
        observations** (callers fitting the same matrix repeatedly, e.g.
        :func:`repro.core.selection.select_threshold_scale`, skip the
        ``O(β n²)`` counting that way); when omitted the statistics are
        counted here — tile-by-tile into the configured spill directory
        when ``config.tile_size`` is set.  Either way the fit installs an
        incremental-update :attr:`model` unless the configuration is
        bootstrap-backed.

        ``nodes`` restricts the stage-3 parent search to a node shard:
        stages 1–2 (IMI, threshold) still run in full, but only the
        shard's parent sets are searched, and the returned result carries
        :attr:`TendsResult.nodes` so :func:`merge_results` can reassemble
        a bit-identical full result from a disjoint cover of shards.
        Shard fits install no incremental :attr:`model` (the state would
        be partial).
        """
        if not isinstance(statuses, StatusMatrix):
            statuses = StatusMatrix(statuses)
        if statuses.beta < 2:
            raise DataError(
                f"TENDS needs at least 2 diffusion processes, got {statuses.beta}"
            )
        statuses = _apply_missing_policy(
            statuses, self.config.missing, "observations contain"
        )
        n = statuses.n_nodes
        shard: tuple[int, ...] | None = None
        if nodes is not None:
            shard = tuple(sorted({int(node) for node in nodes}))
            if not shard:
                raise ConfigurationError("fit(nodes=...) needs at least one node")
            if shard[0] < 0 or shard[-1] >= n:
                raise ConfigurationError(
                    f"fit(nodes=...) entries must be in [0, {n}), "
                    f"got {shard[0]}..{shard[-1]}"
                )
        if stats is not None and (
            stats.beta != statuses.beta
            or stats.n_nodes != n
            or stats.has_missing != statuses.has_missing
        ):
            raise DataError(
                "supplied sufficient statistics describe a "
                f"(beta={stats.beta}, n={stats.n_nodes}, "
                f"missing={stats.has_missing}) history, not these "
                f"(beta={statuses.beta}, n={n}, "
                f"missing={statuses.has_missing}) observations"
            )

        run = _Run(self.config)
        run.metrics.set_gauge("tends_mask_density", _mask_density(statuses))
        # Stage seconds in pipeline order; supplied statistics were
        # counted elsewhere, so a fit that takes them has no "stats" stage.
        seconds: dict[str, float] = {}
        with run.installed(), run.tracer.span(
            "tends.fit", n_nodes=n, beta=statuses.beta
        ) as fit_span, run.memory.measure("total", fit_span):
            if self.config.audit != "ignore":
                # Degenerate observations (all-zero cascades, constant
                # nodes) are handled gracefully downstream — the Eq. 16-17
                # / 24-25 limits contribute their documented values — but
                # they carry no signal, so surface them instead of
                # silently inferring an empty neighbourhood.
                with run.stage(seconds, "audit"):
                    validate_observations(
                        statuses,
                        on_degenerate=(
                            "strict" if self.config.audit == "strict" else "warn"
                        ),
                        # Name the caller's fit(...) line, not this one.
                        stacklevel=3,
                    )
            if stats is None:
                with run.stage(seconds, "stats", beta=statuses.beta):
                    stats = self._count_stats(statuses, run.tracer, run.metrics)
            mi, threshold, clustering = self._mi_and_threshold(run, seconds, stats)

            # Stage 2b (optional): bootstrap the IMI distribution for
            # per-edge confidence and, in stable mode, CI-based candidate
            # screening.
            bootstrap = None
            stable_pairs: np.ndarray | None = None
            stable_mode = self.config.threshold == "stable"
            n_boot = self.config.bootstrap_samples
            if stable_mode and n_boot is None:
                n_boot = 100
            if n_boot:
                from repro.robustness.bootstrap import bootstrap_imi

                with run.stage(seconds, "bootstrap", samples=n_boot):
                    bootstrap = bootstrap_imi(
                        statuses,
                        n_boot,
                        seed=self.config.bootstrap_seed,
                        ci_level=self.config.ci_level,
                        mi_kind=self.config.mi_kind,
                    )
                    if stable_mode:
                        stable_pairs = bootstrap.stable_above(threshold)

            # Stage 3, pruning included.  Out-of-shard nodes keep the
            # empty placeholders; a full fit overwrites every slot.
            parent_sets: list[tuple[int, ...]] = [() for _ in range(n)]
            diagnostics = [SearchDiagnostics(node=node) for node in range(n)]
            candidates, worker_stats = self._search(
                run,
                seconds,
                statuses,
                range(n) if shard is None else shard,
                lambda node: prune_candidates(
                    mi, node, threshold, self.config, stable_pairs
                ),
                parent_sets,
                diagnostics,
            )
        _count_pruning(run.metrics, n, candidates)

        edge_confidence: dict[tuple[int, int], float] | None = None
        if bootstrap is not None:
            exceed = bootstrap.exceed_fraction(threshold)
            edge_confidence = {
                (parent, child): float(exceed[parent, child])
                for child, parents in enumerate(parent_sets)
                for parent in parents
            }
        result = run.attach(
            TendsResult(
                graph=_parent_graph(n, parent_sets),
                parent_sets=tuple(parent_sets),
                mi_matrix=mi,
                threshold=threshold,
                clustering=clustering,
                diagnostics=tuple(diagnostics),
                stage_seconds=seconds,
                worker_stats=worker_stats,
                edge_confidence=edge_confidence,
                imi_bootstrap=bootstrap,
                nodes=shard,
            )
        )
        # Install the incremental-update state.  Bootstrap-backed configs
        # get none: resampled screening/confidence is a function of the
        # raw history, not of the cached counts, so partial_fit cannot
        # reproduce it and refuses such configs up front.  Shard fits get
        # none either — their parent sets are partial by construction.
        if stable_mode or self.config.bootstrap_samples or shard is not None:
            self._model = None
        else:
            self._model = TendsModel(
                config=self.config,
                stats=stats,
                statuses=statuses,
                threshold=result.threshold,
                candidates=tuple(tuple(c) for c in candidates),
                parent_sets=result.parent_sets,
                diagnostics=result.diagnostics,
            )
        return result

    def _mi_and_threshold(
        self,
        run: _Run,
        seconds: dict[str, float],
        stats: SufficientStats | TiledSufficientStats,
    ) -> tuple[np.ndarray, float, TwoMeansResult | None]:
        """Stages 1-2 of Algorithm 1: the pairwise MI matrix (lines 2-4)
        from the additive sufficient statistics — the same floating-point
        pipeline as estimating straight from the observations — then the
        pruning threshold ``τ`` (line 5).  When ``τ`` comes from 2-means,
        the MI pass also collects the values it clusters."""
        n = stats.n_nodes
        clustered = (
            self.config.threshold is None or self.config.threshold == "stable"
        )
        sample: list[np.ndarray] | None = [] if clustered else None
        with run.stage(seconds, "imi", kind=self.config.mi_kind):
            mi = stats.mi_matrix(self.config.mi_kind, sample)
        run.metrics.inc("tends_imi_pairs_total", n * (n - 1) // 2)
        with run.stage(seconds, "threshold") as span:
            threshold, clustering = self._select_threshold(sample)
            span.set(tau=threshold)
        run.metrics.set_gauge("tends_threshold_tau", threshold)
        return mi, threshold, clustering

    def _select_threshold(
        self, sample: list[np.ndarray] | None
    ) -> tuple[float, TwoMeansResult | None]:
        """Stage 2: the pruning threshold ``τ`` (Algorithm 1 line 5) —
        the explicit override when ``sample`` is ``None``, else fixed-zero
        2-means over the non-negative off-diagonal MI values the MI pass
        collected into ``sample`` (scaled), emptying ``sample``.  Fit,
        update and adaptation all derive ``τ`` here, through identical
        floating-point operations."""
        if sample is None:
            return float(self.config.threshold), None
        if len(sample) == 1:
            # One row chunk (a small matrix) is the whole sample; a
            # concatenated copy would only add its size to RSS.
            non_negative = sample[0]
        elif sample:
            non_negative = np.concatenate(sample)
        else:
            non_negative = np.empty(0, dtype=np.float64)
        # The chunks are garbage once joined, and the joined sample is
        # private, so the clustering sorts it in place: one copy of the
        # sample is alive while it runs.
        sample.clear()
        clustering = fixed_zero_two_means(non_negative, overwrite_input=True)
        return clustering.threshold * self.config.threshold_scale, clustering

    def _search(
        self,
        run: _Run,
        seconds: dict[str, float],
        statuses: StatusMatrix,
        nodes: Sequence[int],
        candidates_of: Callable[[int], Sequence[int]],
        parent_sets: list[tuple[int, ...]],
        diagnostics: list[SearchDiagnostics],
        **attrs,
    ) -> tuple[list[Sequence[int]], tuple[WorkerStats, ...]]:
        """Stage 3 (Algorithm 1 lines 6-21): parent search for ``nodes``.

        ``candidates_of(node)`` is the node's pruned candidate set; it is
        called inside the timed stage, so a fit prunes there.  Each answer
        overwrites its node's slot in ``parent_sets`` / ``diagnostics``:
        placeholders for a fit, the previous answers for an update or an
        adaptation.  The local score is decomposable, so the searches are
        independent; the executor fans them out and returns the outcomes
        in node order, bit-identical to the serial loop for every backend
        and worker count.  Returns the searched candidate sets and the
        per-worker stats.
        """
        candidates: list[Sequence[int]] = []
        outcomes: list = []
        worker_stats: list[WorkerStats] = []
        report = None
        with run.stage(
            seconds, "search", strategy=self.config.search_strategy, **attrs
        ) as span:
            if nodes:
                search = ParentSearch(statuses, self.config)
                candidates = [candidates_of(node) for node in nodes]
                plan = self._execution_plan()
                executor = ParallelExecutor(plan, tracer=run.tracer)
                outcomes, worker_stats = executor.map(
                    search_chunk, search, list(zip(nodes, candidates))
                )
                report = executor.last_report
                for node, (parents, diag) in zip(nodes, outcomes):
                    parent_sets[node] = tuple(parents)
                    diagnostics[node] = diag
                span.set(executor=plan.strategy, n_jobs=plan.n_jobs)
        for worker in worker_stats:
            seconds[f"search/{worker.worker}"] = worker.seconds
        for _, diag in outcomes:
            run.metrics.inc("tends_score_evaluations_total", diag.n_evaluations)
            run.metrics.inc("tends_bound_terminations_total", diag.bound_hits)
            run.metrics.observe("tends_greedy_iterations", diag.iterations)
        if report is not None:
            run.metrics.inc("executor_retries_total", report.retries)
            run.metrics.inc("executor_timeouts_total", report.timeouts)
            run.metrics.inc("executor_pool_rebuilds_total", report.pool_rebuilds)
            run.metrics.inc("executor_fallbacks_total", report.fallbacks)
        return candidates, tuple(worker_stats)

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def partial_fit(
        self,
        new_statuses: StatusMatrix,
        *,
        drift: str = "ignore",
        drift_window: int | None = None,
        drift_config: "DriftConfig | None" = None,
    ) -> TendsResult:
        """Absorb a batch of newly-observed processes incrementally.

        Updates the cached sufficient statistics in ``O(Δβ · n²)``,
        recomputes IMI and ``τ`` from the counts, diffs the pruned
        candidate sets against the previous fit, and re-runs the stage-3
        parent search **only for dirty nodes** (candidate set changed, or
        the batch observed the node at least once); clean nodes keep their
        previous ``F_i``.  The returned result — edges, MI matrix, ``τ``,
        scores — is **bit-identical** to a one-shot :meth:`fit` on the
        concatenated history (see docs/INCREMENTAL.md for the argument
        and ``tests/property/test_prop_incremental.py`` for the proof
        harness).

        The update is copy-on-write: :attr:`model` is replaced only after
        the whole update succeeded, so an interrupted ``partial_fit``
        leaves the previous model (and a later retry) intact.

        Requires a fitted :attr:`model`; bootstrap-backed configurations
        (``threshold="stable"`` / ``bootstrap_samples``) are refused with
        :class:`~repro.exceptions.ConfigurationError` because resampled
        screening is not a function of the cached counts.  Batches are
        subject to the configured ``missing`` policy but are not
        re-audited (the observation audit runs at :meth:`fit` time).

        Drift handling (``drift=``, see :mod:`repro.core.drift`):

        * ``"ignore"`` (default) — exactly the behaviour above, byte for
          byte; no detector runs.
        * ``"detect"`` — after absorbing the batch, compare the newest
          ``drift_window`` processes (default: the batch) against the
          rest of the history per node pair and attach the
          :class:`~repro.core.drift.DriftReport` as ``result.drift``; the
          model still accumulates everything.  The check is timed as
          ``stage_seconds["drift"]``.
        * ``"adapt"`` — additionally, when the report flags drift, rebase
          the model onto the recent window and re-search **only the
          affected nodes** against it (quiescent nodes keep their parent
          sets); see :meth:`apply_drift_adaptation`.

        ``drift_window`` is a process count; ``drift_config`` tunes the
        detector's sensitivity (:class:`~repro.core.drift.DriftConfig`).
        """
        if drift not in ("ignore", "detect", "adapt"):
            raise ConfigurationError(
                f"unknown drift mode {drift!r} "
                "(choose from ignore, detect, adapt)"
            )
        if drift_window is not None and drift_window < 1:
            raise ConfigurationError(
                f"drift_window must be >= 1, got {drift_window}"
            )
        if self.config.threshold == "stable" or self.config.bootstrap_samples:
            raise ConfigurationError(
                "partial_fit does not support bootstrap-backed configurations "
                "(threshold='stable' or bootstrap_samples set): bootstrap "
                "screening resamples the raw history; run a full fit() instead"
            )
        previous = self._model
        if previous is None:
            raise InferenceError(
                "partial_fit needs a fitted model: call fit() first, or "
                "resume one with Tends.from_model(TendsModel.load(path))"
            )
        if not isinstance(new_statuses, StatusMatrix):
            new_statuses = StatusMatrix(new_statuses)
        if new_statuses.n_nodes != previous.n_nodes:
            raise DataError(
                f"batch covers {new_statuses.n_nodes} nodes, model covers "
                f"{previous.n_nodes}"
            )
        new_statuses = _apply_missing_policy(
            new_statuses, self.config.missing, "batch contains"
        )

        run = _Run(self.config)
        with run.installed():
            with run.tracer.span(
                "tends.update",
                n_nodes=previous.n_nodes,
                batch_beta=new_statuses.beta,
                beta=previous.beta + new_statuses.beta,
            ) as update_span, run.memory.measure("total", update_span):
                result, model = self._update(run, previous, new_statuses)
            if drift != "ignore" and new_statuses.beta > 0:
                window = min(drift_window or new_statuses.beta, model.beta)
                check: dict[str, float] = {}
                with run.stage(check, "drift", window=window):
                    report = self._detect_drift_on(
                        model, window=window, config=drift_config, metrics=run.metrics
                    )
                result = replace(
                    result,
                    drift=report,
                    stage_seconds={**result.stage_seconds, **check},
                )
                if drift == "adapt" and report.drifted:
                    result, model = self._adapt(
                        run, model, report, report.recent_beta
                    )
                    result = replace(
                        result, stage_seconds={**check, **result.stage_seconds}
                    )
        result = run.attach(result)
        # Copy-on-write installation: nothing above mutated the previous
        # model, so any failure before this line leaves it usable.
        self._model = model
        return result

    def _update(
        self, run: _Run, previous: TendsModel, batch: StatusMatrix
    ) -> tuple[TendsResult, TendsModel]:
        """One incremental update (validation already done by
        :meth:`partial_fit`, which also owns the ambient tracer and the
        copy-on-write model installation)."""
        n = previous.n_nodes
        seconds: dict[str, float] = {}
        run.metrics.inc("tends_update_batches_total")

        # Sufficient statistics: count the batch, add (integer-exact).
        # Tile-backed models roll a new copy-on-write tile generation;
        # dense models count the batch densely, unless this estimator is
        # tiled (a dense snapshot resumed by a tiled service), which
        # recounts the whole history into tiles once.  Every path is
        # bit-identical to the one-shot dense count.
        with run.stage(seconds, "stats", batch_beta=batch.beta):
            history = previous.statuses.append(batch)
            if isinstance(previous.stats, TiledSufficientStats):
                stats: SufficientStats | TiledSufficientStats = (
                    previous.stats.updated(
                        batch,
                        plan=self._execution_plan(),
                        tracer=run.tracer,
                        metrics=run.metrics,
                    )
                )
            elif self.config.tile_size is not None:
                stats = self._count_stats(history, run.tracer, run.metrics)
            else:
                stats = previous.stats.updated(batch)
        run.metrics.set_gauge("tends_mask_density", _mask_density(history))

        # Stages 1-2 from cached counts (O(n²), no pass over the history).
        mi, threshold, clustering = self._mi_and_threshold(run, seconds, stats)

        # Diff against the previous fit: a node must be re-searched iff
        # its candidate set changed, or the batch observed it at least
        # once (then its family counts / δ_i may differ).  Nodes failing
        # both tests provably score every parent set identically to the
        # previous fit — all their counts restrict to rows observing the
        # child — so their previous F_i IS the refit answer.
        with run.stage(seconds, "diff") as span:
            candidates = self._all_candidates(mi, threshold)
            if batch.beta == 0:
                touched = np.zeros(n, dtype=np.bool_)
            elif batch.mask is None:
                touched = np.ones(n, dtype=np.bool_)
            else:
                touched = batch.mask.any(axis=0)
            dirty = [
                node
                for node in range(n)
                if bool(touched[node])
                or candidates[node] != previous.candidates[node]
            ]
            dirty_set = set(dirty)
            clean = [node for node in range(n) if node not in dirty_set]
            span.set(dirty=len(dirty), clean=len(clean))
        _count_pruning(run.metrics, n, candidates)
        run.metrics.inc("tends_update_nodes_dirty_total", len(dirty))
        run.metrics.inc("tends_update_nodes_clean_total", len(clean))
        run.metrics.inc("tends_update_searches_skipped_total", len(clean))
        return self._research(
            run, seconds, previous, history, stats, mi, threshold, clustering,
            candidates, dirty, clean, batch_beta=batch.beta,
        )

    def _all_candidates(
        self, mi: np.ndarray, threshold: float
    ) -> tuple[tuple[int, ...], ...]:
        """The pruned candidate set ``P_i`` of every node."""
        return tuple(
            tuple(prune_candidates(mi, node, threshold, self.config))
            for node in range(mi.shape[0])
        )

    def _research(
        self,
        run: _Run,
        seconds: dict[str, float],
        previous: TendsModel,
        history: StatusMatrix,
        stats: SufficientStats | TiledSufficientStats,
        mi: np.ndarray,
        threshold: float,
        clustering: TwoMeansResult | None,
        candidates: tuple[tuple[int, ...], ...],
        dirty: list[int],
        clean: list[int],
        *,
        batch_beta: int,
        drift: "DriftReport | None" = None,
    ) -> tuple[TendsResult, TendsModel]:
        """Shared tail of an update and an adaptation: stage 3 for the
        ``dirty`` nodes on ``history``, through the same executor
        machinery as a full fit, with ``previous``'s answers kept for the
        clean ones (the warm start); then the result and the new model."""
        parent_sets = list(previous.parent_sets)
        diagnostics = list(previous.diagnostics)
        _, worker_stats = self._search(
            run,
            seconds,
            history,
            dirty,
            candidates.__getitem__,
            parent_sets,
            diagnostics,
            dirty=len(dirty),
        )
        result = TendsResult(
            graph=_parent_graph(previous.n_nodes, parent_sets),
            parent_sets=tuple(parent_sets),
            mi_matrix=mi,
            threshold=threshold,
            clustering=clustering,
            diagnostics=tuple(diagnostics),
            stage_seconds=seconds,
            worker_stats=worker_stats,
            update=UpdateInfo(
                batch_beta=batch_beta,
                dirty_nodes=tuple(dirty),
                clean_nodes=tuple(clean),
                threshold_changed=threshold != previous.threshold,
            ),
            drift=drift,
        )
        model = TendsModel(
            config=self.config,
            stats=stats,
            statuses=history,
            threshold=threshold,
            candidates=candidates,
            parent_sets=result.parent_sets,
            diagnostics=result.diagnostics,
        )
        return result, model

    # ------------------------------------------------------------------
    # drift detection + self-healing adaptation
    # ------------------------------------------------------------------
    def detect_drift(
        self,
        window: int | None = None,
        config: "DriftConfig | None" = None,
    ) -> "DriftReport":
        """Check the fitted model's history for per-pair drift.

        Splits the accumulated history into the newest ``window``
        processes (default: half the history) and everything before
        them, and runs :func:`repro.core.drift.detect_drift` on the two
        count windows.  Read-only: the model is untouched.
        """
        model = self._model
        if model is None:
            raise InferenceError(
                "detect_drift needs a fitted model: call fit() first, or "
                "resume one with Tends.from_model(TendsModel.load(path))"
            )
        if window is not None and window < 1:
            raise ConfigurationError(f"drift window must be >= 1, got {window}")
        return self._detect_drift_on(
            model,
            window=min(window or max(model.beta // 2, 1), model.beta),
            config=config,
            metrics=NULL_METRICS,
        )

    def apply_drift_adaptation(
        self,
        report: "DriftReport",
        *,
        window: int | None = None,
    ) -> TendsResult:
        """Self-heal from a drift verdict: rebase onto the recent window.

        Drops everything before the newest ``window`` processes (default:
        the window the ``report`` tested, :attr:`DriftReport.recent_beta`)
        from the model's statistics and history, recomputes IMI / ``τ`` /
        candidate sets from that window, and re-runs the stage-3 parent
        search **only for** :attr:`DriftReport.affected_nodes`; quiescent
        nodes keep their previous parent sets.  For the re-searched nodes
        the answer is bit-identical to a fresh :meth:`fit` on the window
        (same counts, same ``τ``, same candidates, same search), so with
        every node flagged the whole model matches the fresh fit
        fingerprint — held by ``tests/unit/test_tends_drift.py``.

        Copy-on-write like :meth:`partial_fit`: the model is replaced
        only after the adaptation fully succeeded.
        """
        model = self._model
        if model is None:
            raise InferenceError(
                "apply_drift_adaptation needs a fitted model: call fit() first"
            )
        if not report.drifted:
            raise InferenceError(
                "apply_drift_adaptation needs a drifted report "
                "(report.drifted is False — nothing to heal)"
            )
        window = window or report.recent_beta
        if window < 1:
            raise ConfigurationError(f"adapt window must be >= 1, got {window}")
        run = _Run(self.config)
        with run.installed():
            result, adapted = self._adapt(run, model, report, window)
        result = run.attach(result)
        self._model = adapted
        return result

    def _detect_drift_on(
        self,
        model: TendsModel,
        *,
        window: int,
        config: "DriftConfig | None",
        metrics: "MetricsRegistry | NullMetrics",
    ) -> "DriftReport":
        """Reference-vs-recent check over ``model``'s counts, with the
        newest ``window`` (at most ``model.beta``) processes as recent.

        The recent window is counted from the history tail (``O(W·n²)``);
        the reference is recovered in ``O(n²)`` as ``total − recent`` —
        integer subtraction on additive counts is exact, so both operands
        are bit-identical to counting the two sub-histories directly.
        """
        from repro.core.drift import detect_drift

        recent_statuses = model.statuses.subset(
            range(model.statuses.beta - window, model.statuses.beta)
        )
        recent = SufficientStats.from_statuses(recent_statuses)
        reference = model.stats.subtracted(recent)
        report = detect_drift(reference, recent, config)
        metrics.inc("tends_drift_checks_total")
        if report.drifted:
            metrics.inc("tends_drift_detections_total")
            metrics.inc("tends_drift_pairs_flagged_total", report.n_flagged)
        metrics.set_gauge(
            "tends_drift_nodes_affected", float(len(report.affected_nodes))
        )
        return report

    def _adapt(
        self, run: _Run, model: TendsModel, report: "DriftReport", window: int
    ) -> tuple[TendsResult, TendsModel]:
        """Rebase onto the newest ``window`` processes and re-search the
        report's affected nodes (validation already done by the callers,
        which also own the copy-on-write installation)."""
        n = model.n_nodes
        window = min(window, model.beta)
        seconds: dict[str, float] = {}
        run.metrics.inc("tends_adapt_total")
        with run.tracer.span(
            "tends.adapt", window=window, nodes=len(report.affected_nodes)
        ) as adapt_span, run.memory.measure("adapt", adapt_span):
            # Recent-window statistics and history: the exact inputs a
            # fresh fit on the post-change window would see.
            with run.stage(seconds, "stats", batch_beta=window):
                history = model.statuses.subset(
                    range(model.statuses.beta - window, model.statuses.beta)
                )
                stats = self._count_stats(
                    history, run.tracer, run.metrics, replacing=model.stats
                )
            mi, threshold, clustering = self._mi_and_threshold(run, seconds, stats)
            candidates = self._all_candidates(mi, threshold)
            dirty = [node for node in report.affected_nodes if 0 <= node < n]
            dirty_set = set(dirty)
            clean = [node for node in range(n) if node not in dirty_set]
            adapt_span.set(dirty=len(dirty), clean=len(clean))
            return self._research(
                run, seconds, model, history, stats, mi, threshold, clustering,
                candidates, dirty, clean, batch_beta=0, drift=report,
            )
