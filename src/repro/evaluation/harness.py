"""Experiment runner: sweep → simulate → infer → score, per method.

The paper's evaluation figures all share one protocol: sweep a single
parameter (network size, average degree, dispersion, α, μ, β, pruning
threshold), simulate ``β`` diffusion processes per sweep point, run every
algorithm on the *same* observations, and report per-algorithm F-score and
running time.  :func:`run_experiment` implements that protocol once;
``repro.evaluation.figures`` instantiates it per figure.

Fault tolerance
---------------
A sweep is many ``(point, method, trial)`` cells and a single fragile
baseline must not discard the finished ones.  Each method run therefore
executes inside a failure boundary: ``on_error="skip"`` records the
captured exception as a failed :class:`MethodResult` (F-score ``nan``)
and moves on, ``"retry"`` re-runs the method up to ``method_attempts``
times first, and ``"raise"`` (the default) preserves the historical
fail-fast behaviour.  A ``method_timeout`` bounds each method's
wall-clock; completed cells can be journaled to an append-only JSONL
checkpoint and skipped on a resumed run (``checkpoint_path`` /
``resume_from`` — see :mod:`repro.evaluation.checkpoint`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.baselines.base import (
    InferenceOutput,
    NetworkInferrer,
    Observations,
    TendsInferrer,
)
from repro.baselines.correlation import CorrelationRanker
from repro.baselines.lift import Lift
from repro.baselines.multree import MulTree
from repro.baselines.netinf import NetInf
from repro.baselines.netrate import NetRate
from repro.baselines.path import Path as PathBaseline
from repro.evaluation.metrics import (
    EdgeMetrics,
    best_threshold_metrics,
    evaluate_edges,
)
from repro.exceptions import ConfigurationError, MethodTimeoutError
from repro.graphs.digraph import DiffusionGraph
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, ambient_tracer
from repro.simulation.engine import DiffusionSimulator
from repro.utils.rng import derive_seed
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_positive_int

__all__ = [
    "GraphFactory",
    "MethodContext",
    "MethodSpec",
    "SweepPoint",
    "ExperimentSpec",
    "MethodResult",
    "ExperimentResult",
    "ON_ERROR_POLICIES",
    "default_methods",
    "run_experiment",
]

#: A graph factory maps a derived seed to a ground-truth network.
GraphFactory = Callable[[int], DiffusionGraph]


@dataclass(frozen=True)
class MethodContext:
    """What a method factory may inspect before constructing an inferrer.

    ``true_edge_count`` exists because the paper's protocol hands MulTree
    and LIFT the real number of edges ``m`` (§V-A); ``point`` lets
    per-sweep-point method variants (the Fig. 10–11 threshold sweep) read
    the current x value.
    """

    truth: DiffusionGraph
    observations: Observations
    point: "SweepPoint | None" = None

    @property
    def true_edge_count(self) -> int:
        return self.truth.n_edges


@dataclass(frozen=True)
class MethodSpec:
    """One algorithm entry in a comparison.

    Attributes
    ----------
    name:
        Label for report tables.
    factory:
        Builds the inferrer for one (network, observations) cell.
    best_threshold:
        When ``True``, accuracy is the best F-score over the method's
        edge-score thresholds (the paper's preferential treatment of
        NetRate) instead of the hard topology it returned.
    """

    name: str
    factory: Callable[[MethodContext], NetworkInferrer]
    best_threshold: bool = False


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis position of a figure.

    Attributes
    ----------
    label / value:
        Tick label (e.g. ``"n=200"``) and numeric x value.
    graph_factory:
        Ground-truth network builder for this point.
    mu / alpha / beta:
        Simulation parameters (paper defaults 0.3 / 0.15 / 150).
    observation_transform:
        Optional hook applied to the simulated observations before any
        method sees them, as ``transform(observations, seed)`` with a
        seed derived from the cell seed (so the transform is
        deterministic per cell and independent of method order).  The
        robustness degradation benchmark injects observation corruption
        here; every method at the point still sees the *same* corrupted
        data.  Scoring remains against the clean ground-truth graph.
    """

    label: str
    value: float
    graph_factory: GraphFactory
    mu: float = 0.3
    alpha: float = 0.15
    beta: int = 150
    observation_transform: (
        "Callable[[Observations, int], Observations] | None"
    ) = None


@dataclass(frozen=True)
class ExperimentSpec:
    """A full figure: sweep points × methods × replicates."""

    experiment_id: str
    title: str
    x_label: str
    points: tuple[SweepPoint, ...]
    methods: tuple[MethodSpec, ...]
    replicates: int = 1

    def __post_init__(self) -> None:
        check_positive_int("replicates", self.replicates)
        if not self.points:
            raise ConfigurationError(f"{self.experiment_id}: no sweep points")
        if not self.methods:
            raise ConfigurationError(f"{self.experiment_id}: no methods")


@dataclass(frozen=True)
class MethodResult:
    """One (sweep point, method, replicate) measurement.

    A *failed* cell (the method raised or timed out inside the harness
    failure boundary) carries ``error`` — the captured exception message —
    zeroed metrics, and an F-score of ``nan`` so failures can never be
    mistaken for a legitimate 0.0.

    ``telemetry`` holds the :class:`~repro.obs.telemetry.Telemetry` the
    method's inferrer recorded, when it recorded any (TENDS with
    ``trace=True``).  It is in-memory only: checkpoints and archives do
    not serialise it, so a resumed cell always carries ``None``.
    """

    experiment_id: str
    point_label: str
    point_value: float
    method: str
    replicate: int
    metrics: EdgeMetrics
    runtime_seconds: float
    threshold: float | None = None  # best-threshold operating point, if used
    error: str | None = None  # captured exception when the method failed
    attempts: int = 1  # executions inside the failure boundary
    telemetry: Telemetry | None = None  # per-fit spans/metrics (not journaled)

    @property
    def ok(self) -> bool:
        """True when the method produced a real measurement."""
        return self.error is None

    @property
    def f_score(self) -> float:
        if self.error is not None:
            return math.nan
        return self.metrics.f_score

    @classmethod
    def failed(
        cls,
        spec: "ExperimentSpec",
        point: "SweepPoint",
        replicate: int,
        method: str,
        exception: BaseException,
        runtime_seconds: float,
        attempts: int,
    ) -> "MethodResult":
        """Record a method crash/timeout as data instead of killing the sweep."""
        return cls(
            experiment_id=spec.experiment_id,
            point_label=point.label,
            point_value=point.value,
            method=method,
            replicate=replicate,
            metrics=EdgeMetrics(0, 0, 0),
            runtime_seconds=runtime_seconds,
            threshold=None,
            error=f"{type(exception).__name__}: {exception}",
            attempts=attempts,
        )


@dataclass(frozen=True)
class ExperimentResult:
    """All measurements of one experiment, with aggregation helpers."""

    spec: ExperimentSpec
    results: tuple[MethodResult, ...]

    def methods(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.results:
            seen.setdefault(r.method, None)
        return list(seen)

    def failures(self) -> list[MethodResult]:
        """Cells whose method crashed or timed out (``error`` set)."""
        return [r for r in self.results if not r.ok]

    def aggregated(self) -> list[dict[str, float | str]]:
        """One row per (point, method): mean F-score and mean runtime.

        Failed replicates are excluded from the means (their F-score is
        ``nan`` and would poison the aggregate) but reported in the
        ``failed`` column; a cell whose every replicate failed keeps its
        row with ``nan`` aggregates so the failure stays visible.
        """
        groups: dict[tuple[str, float, str], list[MethodResult]] = {}
        for r in self.results:
            groups.setdefault((r.point_label, r.point_value, r.method), []).append(r)
        rows: list[dict[str, float | str]] = []
        for (label, value, method), cell in sorted(
            groups.items(), key=lambda kv: (kv[0][1], kv[0][2])
        ):
            good = [r for r in cell if r.ok]
            f_scores = [r.f_score for r in good]
            runtimes = [r.runtime_seconds for r in good]
            rows.append(
                {
                    "point": label,
                    "value": value,
                    "method": method,
                    "f_score": (
                        sum(f_scores) / len(f_scores) if f_scores else math.nan
                    ),
                    "f_score_min": min(f_scores) if f_scores else math.nan,
                    "f_score_max": max(f_scores) if f_scores else math.nan,
                    "runtime_s": (
                        sum(runtimes) / len(runtimes) if runtimes else math.nan
                    ),
                    "replicates": len(cell),
                    "failed": len(cell) - len(good),
                }
            )
        return rows

    def series(self, field_name: str = "f_score") -> dict[str, list[float]]:
        """Per-method series over the sweep (for plotting/shape checks)."""
        rows = self.aggregated()
        ordered_points = [p.label for p in self.spec.points]
        output: dict[str, list[float]] = {}
        for method in self.methods():
            by_point = {
                row["point"]: float(row[field_name])
                for row in rows
                if row["method"] == method
            }
            output[method] = [by_point[p] for p in ordered_points if p in by_point]
        return output


# ----------------------------------------------------------------------
# method roster
# ----------------------------------------------------------------------

def default_methods(
    *,
    include: Iterable[str] = ("TENDS", "NetRate", "MulTree", "LIFT"),
    netrate_iterations: int = 60,
    tends_overrides: Mapping[str, object] | None = None,
) -> tuple[MethodSpec, ...]:
    """The paper's §V-A roster (plus optional NetInf / CORR extensions).

    MulTree, LIFT, NetInf and CORR receive the true edge count ``m`` via
    the :class:`MethodContext`, per the paper's protocol; NetRate gets the
    best-threshold treatment.  ``tends_overrides`` forwards
    :class:`~repro.core.config.TendsConfig` fields to the TENDS entry —
    e.g. ``{"executor": "process", "n_jobs": 4}`` to parallelise the
    parent searches (figure runs additionally honour the
    ``REPRO_EXECUTOR`` / ``REPRO_N_JOBS`` environment fallbacks even
    without overrides; see :mod:`repro.core.executor`).
    """
    tends_kwargs = dict(tends_overrides or {})
    registry: dict[str, MethodSpec] = {
        "TENDS": MethodSpec("TENDS", lambda ctx: TendsInferrer(**tends_kwargs)),
        "NetRate": MethodSpec(
            "NetRate",
            lambda ctx: NetRate(max_iterations=netrate_iterations),
            best_threshold=True,
        ),
        "MulTree": MethodSpec(
            "MulTree", lambda ctx: MulTree(ctx.true_edge_count)
        ),
        "LIFT": MethodSpec("LIFT", lambda ctx: Lift(ctx.true_edge_count)),
        "NetInf": MethodSpec("NetInf", lambda ctx: NetInf(ctx.true_edge_count)),
        "CORR": MethodSpec(
            "CORR", lambda ctx: CorrelationRanker(ctx.true_edge_count)
        ),
        "PATH": MethodSpec("PATH", lambda ctx: PathBaseline(ctx.true_edge_count)),
    }
    chosen: list[MethodSpec] = []
    for name in include:
        if name not in registry:
            raise ConfigurationError(
                f"unknown method {name!r}; available: {sorted(registry)}"
            )
        chosen.append(registry[name])
    return tuple(chosen)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------

ON_ERROR_POLICIES = ("raise", "skip", "retry")


def run_experiment(
    spec: ExperimentSpec,
    *,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
    on_error: str = "raise",
    method_attempts: int = 2,
    method_timeout: float | None = None,
    checkpoint_path: "str | Path | None" = None,
    resume_from: "str | Path | None" = None,
    retry_failed: bool = False,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    metrics: "MetricsRegistry | NullMetrics" = NULL_METRICS,
) -> ExperimentResult:
    """Execute an experiment spec and collect every measurement.

    Seeding is deterministic: each (point, replicate) derives its own seed
    from ``seed`` and the point label, so adding methods or reordering
    points never changes the simulated data — and a resumed run is
    bit-identical to an uninterrupted one.

    Parameters
    ----------
    spec / seed / progress:
        As before: the sweep definition, master seed, and an optional
        progress callback.
    on_error:
        Failure boundary around each method run.  ``"raise"`` (default)
        propagates the first method exception — the historical fail-fast
        behaviour.  ``"skip"`` records the captured exception as a failed
        :class:`MethodResult` (F-score ``nan``) and continues the sweep.
        ``"retry"`` re-runs the failing method up to ``method_attempts``
        times, then records the failure like ``"skip"``.
    method_attempts:
        Executions per method under ``on_error="retry"`` (>= 1).
    method_timeout:
        Per-method wall-clock budget in seconds.  A method exceeding it is
        treated as having raised
        :class:`~repro.exceptions.MethodTimeoutError` (so ``on_error``
        decides what happens).  The method runs on a daemon thread when a
        timeout is set; a timed-out method cannot be preempted, only
        abandoned — its thread finishes in the background and never
        delays interpreter exit.
    checkpoint_path:
        Journal every completed cell to this append-only JSONL file (see
        :mod:`repro.evaluation.checkpoint`).  May equal ``resume_from``.
    resume_from:
        Load this checkpoint and skip every journaled cell; sweep points
        whose cells are all journaled are not even re-simulated.
    retry_failed:
        When resuming, re-run journaled cells that recorded a failure
        instead of carrying the failure over.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When enabled, the
        sweep records a ``harness.run`` span with one ``harness.cell``
        span per method run, installed as the ambient tracer for the
        duration (so executor/search spans of traced methods nest
        underneath).  Defaults to the zero-overhead null tracer.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        harness counters (cells run / failed / resumed, method retries,
        checkpoint writes).  Defaults to the no-op registry.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ConfigurationError(
            f"unknown on_error policy {on_error!r}; available: {ON_ERROR_POLICIES}"
        )
    check_positive_int("method_attempts", method_attempts)
    if method_timeout is not None and method_timeout <= 0:
        raise ConfigurationError(
            f"method_timeout must be positive, got {method_timeout}"
        )

    from repro.evaluation.checkpoint import CheckpointJournal, cell_key, load_checkpoint

    completed: dict[tuple[str, int, str], MethodResult] = {}
    if resume_from is not None:
        completed = load_checkpoint(resume_from, experiment_id=spec.experiment_id)
        if retry_failed:
            completed = {key: r for key, r in completed.items() if r.ok}

    journal = (
        CheckpointJournal(checkpoint_path, metrics=metrics)
        if checkpoint_path is not None
        else None
    )
    results: list[MethodResult] = []
    try:
        with ambient_tracer(tracer), tracer.span(
            "harness.run", experiment=spec.experiment_id
        ):
            for point in spec.points:
                for replicate in range(spec.replicates):
                    missing = [
                        method
                        for method in spec.methods
                        if cell_key(point.label, replicate, method.name)
                        not in completed
                    ]
                    if not missing:
                        # Every cell of this (point, replicate) is journaled:
                        # skip the simulation entirely.  Cell seeds are derived
                        # independently, so other cells are unaffected.
                        results.extend(
                            completed[cell_key(point.label, replicate, m.name)]
                            for m in spec.methods
                        )
                        metrics.inc(
                            "harness_cells_resumed_total", len(spec.methods)
                        )
                        continue
                    cell_seed = derive_seed(
                        seed, spec.experiment_id, point.label, replicate
                    )
                    with tracer.span(
                        "harness.simulate", point=point.label, replicate=replicate
                    ):
                        truth = point.graph_factory(cell_seed)
                        simulator = DiffusionSimulator(
                            truth,
                            mu=point.mu,
                            alpha=point.alpha,
                            seed=derive_seed(cell_seed, "simulation"),
                        )
                        observations = Observations.from_simulation(
                            simulator.run(point.beta)
                        )
                        if point.observation_transform is not None:
                            observations = point.observation_transform(
                                observations, derive_seed(cell_seed, "corruption")
                            )
                    context = MethodContext(
                        truth=truth, observations=observations, point=point
                    )
                    for method in spec.methods:
                        key = cell_key(point.label, replicate, method.name)
                        if key in completed:
                            results.append(completed[key])
                            metrics.inc("harness_cells_resumed_total")
                            continue
                        if progress is not None:
                            progress(
                                f"[{spec.experiment_id}] {point.label} "
                                f"rep={replicate} {method.name}"
                            )
                        with tracer.span(
                            "harness.cell",
                            point=point.label,
                            replicate=replicate,
                            method=method.name,
                        ):
                            result = _run_method_guarded(
                                spec,
                                point,
                                replicate,
                                method,
                                context,
                                on_error=on_error,
                                method_attempts=method_attempts,
                                method_timeout=method_timeout,
                            )
                        results.append(result)
                        metrics.inc("harness_cells_total")
                        if not result.ok:
                            metrics.inc("harness_cells_failed_total")
                        if result.attempts > 1:
                            metrics.inc(
                                "harness_method_retries_total",
                                result.attempts - 1,
                            )
                        if journal is not None:
                            journal.record(result)
    finally:
        if journal is not None:
            journal.close()
    return ExperimentResult(spec=spec, results=tuple(results))


def _run_method_guarded(
    spec: ExperimentSpec,
    point: SweepPoint,
    replicate: int,
    method: MethodSpec,
    context: MethodContext,
    *,
    on_error: str,
    method_attempts: int,
    method_timeout: float | None,
) -> MethodResult:
    """The failure boundary: one method run, isolated from the sweep.

    ``KeyboardInterrupt``/``SystemExit`` always propagate — a Ctrl-C must
    stop the sweep (the checkpoint preserves finished cells), never be
    recorded as a method failure.
    """
    attempts = 1 if on_error != "retry" else method_attempts
    last_error: BaseException | None = None
    with Stopwatch() as watch:
        for attempt in range(1, attempts + 1):
            try:
                return replace(
                    _run_method(
                        spec, point, replicate, method, context,
                        timeout=method_timeout,
                    ),
                    attempts=attempt,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                last_error = exc
                if on_error == "raise":
                    raise
    assert last_error is not None
    return MethodResult.failed(
        spec, point, replicate, method.name, last_error, watch.elapsed, attempts
    )


def _run_method(
    spec: ExperimentSpec,
    point: SweepPoint,
    replicate: int,
    method: MethodSpec,
    context: MethodContext,
    *,
    timeout: float | None = None,
) -> MethodResult:
    inferrer = method.factory(context)
    with Stopwatch() as watch:
        output = _infer_with_timeout(inferrer, context.observations, timeout)
    # Inferrers that keep their last fit result around (TendsInferrer)
    # may have recorded telemetry; surface it on the measurement.
    telemetry = getattr(getattr(inferrer, "last_result", None), "telemetry", None)
    threshold: float | None = None
    if method.best_threshold and output.edge_scores:
        metrics, threshold = best_threshold_metrics(context.truth, output.edge_scores)
    else:
        metrics = evaluate_edges(context.truth, output.graph)
    return MethodResult(
        experiment_id=spec.experiment_id,
        point_label=point.label,
        point_value=point.value,
        method=method.name,
        replicate=replicate,
        metrics=metrics,
        runtime_seconds=watch.elapsed,
        threshold=threshold,
        telemetry=telemetry if isinstance(telemetry, Telemetry) else None,
    )


def _infer_with_timeout(
    inferrer: NetworkInferrer, observations: Observations, timeout: float | None
) -> InferenceOutput:
    """Run ``inferrer.infer`` with an optional wall-clock budget.

    Without a timeout the call runs inline (zero overhead, the historical
    code path).  With one, it runs on a daemon thread and a missed
    deadline raises :class:`~repro.exceptions.MethodTimeoutError`; the
    abandoned thread finishes in the background (Python cannot kill it)
    without delaying interpreter exit, so method factories should produce
    side-effect-free inferrers.
    """
    if timeout is None:
        return inferrer.infer(observations)
    import threading
    from concurrent.futures import Future
    from concurrent.futures import TimeoutError as FutureTimeoutError

    future: Future = Future()

    def call() -> None:
        try:
            future.set_result(inferrer.infer(observations))
        except BaseException as error:  # raised by future.result() below
            future.set_exception(error)

    threading.Thread(target=call, name="method", daemon=True).start()
    try:
        return future.result(timeout=timeout)
    except FutureTimeoutError:
        raise MethodTimeoutError(
            f"{type(inferrer).__name__}.infer exceeded its {timeout}s budget",
            timeout=timeout,
        ) from None
