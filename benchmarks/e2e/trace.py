"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark never edits the library to time it.  Instead a
:class:`Recorder` replaces public callables at the names their callers
look up (class attributes, or the importing module's global) with thin
wrappers that record one span per call: name, start, end, parent span
and a trace id shared by every span of one fit, absorb or submit.
Spans stay in memory and are written out once, when the run ends.

Scoring helpers run tens of thousands of times per fit, so they are
*leaf* targets: instead of a span per call, their call count and time
are added to the enclosing span, which keeps a serve run (hundreds of
re-searches) to a few tens of thousands of spans while self times stay
exact.  A span's self time is its duration minus its recorded children
and leaves.

The accounting check (:func:`unattributed_share`) is the share of
``Tends.fit`` / ``Tends.partial_fit`` wall time that no wrapped child
covers.  It must stay small (:data:`MAX_UNATTRIBUTED`): a large share
means a layer is running outside every wrapper and the per-layer
numbers no longer add up to the fit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "MAX_UNATTRIBUTED",
    "TARGETS",
    "Recorder",
    "Span",
    "layer_metrics",
    "unattributed_share",
]

#: Largest allowed share of fit wall time outside every wrapped child.
MAX_UNATTRIBUTED = 0.05

#: Root spans: one per operation the benchmark times.
ROOTS = ("tends.fit", "tends.partial_fit")


def _pair_words(args, kwargs, result) -> dict:
    statuses = args[1]  # from_statuses(cls, statuses, ...)
    return {
        "pair_words": statuses.n_nodes ** 2 * math.ceil(statuses.beta / 64),
        "beta": statuses.beta,
    }


def _imi_pairs(args, kwargs, result) -> dict:
    return {"pairs": args[0].n_nodes ** 2}


def _search_outcome(args, kwargs, result) -> dict:
    _, diag = result
    return {
        "evaluations": diag.n_evaluations,
        "iterations": diag.iterations,
        "bound_hits": diag.bound_hits,
        "candidates": diag.n_candidates,
    }


def _update_outcome(args, kwargs, result) -> dict:
    return {"dirty": result.update.n_dirty}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attribute`` recorded as ``name``."""

    module: str
    attribute: str
    name: str
    leaf: bool = False
    annotate: object = None


#: Every callable the traced run wraps, at the name its callers use.
TARGETS = (
    Target("repro.core.tends", "Tends.fit", "tends.fit"),
    Target("repro.core.tends", "Tends.partial_fit", "tends.partial_fit",
           annotate=_update_outcome),
    Target("repro.core.tends", "validate_observations", "tends.audit"),
    Target("repro.core.tends", "fixed_zero_two_means", "threshold.two_means"),
    Target("repro.core.tends", "prune_candidates", "search.prune"),
    Target("repro.core.tends", "TendsModel.save", "model.save"),
    Target("repro.core.stats", "SufficientStats.from_statuses", "stats.count",
           annotate=_pair_words),
    Target("repro.core.stats", "SufficientStats.updated", "stats.update"),
    Target("repro.core.stats", "SufficientStats.mi_matrix", "imi.dense",
           annotate=_imi_pairs),
    Target("repro.core.tiles", "TiledSufficientStats.from_statuses", "tiles.count",
           annotate=_pair_words),
    Target("repro.core.tiles", "TiledSufficientStats.mi_matrix", "imi.tiled",
           annotate=_imi_pairs),
    Target("repro.simulation.statuses", "StatusMatrix.append", "statuses.append"),
    Target("repro.core.executor", "ParallelExecutor.map", "executor.map"),
    Target("repro.core.search", "ParentSearch.find_parents", "search.find_parents",
           annotate=_search_outcome),
    Target("repro.core.search", "family_counts", "scoring.family_counts", leaf=True),
    Target("repro.core.search", "log_likelihood", "scoring.log_likelihood", leaf=True),
    Target("repro.core.search", "penalty", "scoring.penalty", leaf=True),
    Target("repro.core.search", "delta_i", "scoring.delta", leaf=True),
    Target("repro.serve.journal", "IngestJournal.append", "journal.append"),
)


@dataclass(eq=False)
class Span:
    """One recorded call.  ``leaves`` maps a leaf target's name to
    ``[calls, seconds]`` spent in it directly under this span."""

    name: str
    span_id: int
    parent_id: int | None
    trace_id: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [
            self.span_id, self.parent_id, self.trace_id, self.name,
            self.start, self.end, self.attrs, self.leaves,
        ]


SPAN_FIELDS = ("id", "parent", "trace", "name", "start", "end", "attrs", "leaves")


class Recorder:
    """Installs the :data:`TARGETS` wrappers and keeps their spans.

    Thread-safe for the serve workload: every thread nests its own
    stack of open spans, and finished spans are appended to one list.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.orphan_leaves: dict[str, list] = {}
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, target: Target):
        name, annotate = target.name, target.annotate

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(
                name=name,
                span_id=next(self._span_ids),
                parent_id=None if parent is None else parent.span_id,
                trace_id=(
                    next(self._trace_ids) if parent is None else parent.trace_id
                ),
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return wrapper

    def _leaf_wrapper(self, fn, target: Target):
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack = self._stack()
                leaves = stack[-1].leaves if stack else self.orphan_leaves
                entry = leaves.get(name)
                if entry is None:
                    leaves[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            *path, attribute = target.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(
                owner, attribute
            )
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            make = self._leaf_wrapper if target.leaf else self._span_wrapper
            wrapped = make(fn, target)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def write(self, path: Path, metrics: dict) -> None:
        """Dump every span plus the derived metrics as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": list(SPAN_FIELDS),
            "spans": [span.to_list() for span in self.spans],
            "orphan_leaves": self.orphan_leaves,
            "metrics": metrics,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus recorded children and leaves."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration
            )
    return {
        span.span_id: span.duration
        - child_time.get(span.span_id, 0.0)
        - sum(seconds for _, seconds in span.leaves.values())
        for span in spans
    }


def unattributed_share(spans: list[Span]) -> tuple[float, float]:
    """``(seconds, share)`` of root-operation wall time not covered by
    any wrapped child — the accounting check."""
    own = self_times(spans)
    roots = [span for span in spans if span.name in ROOTS]
    total = sum(span.duration for span in roots)
    uncovered = sum(own[span.span_id] for span in roots)
    return uncovered, (uncovered / total if total > 0 else 0.0)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_metrics(spans: list[Span], orphan_leaves: dict | None = None) -> dict[str, float]:
    """Per-layer metrics from one traced run, normalised per operation
    (one ``Tends.fit`` or one ``Tends.partial_fit``)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def spans_of(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(span.duration for span in spans_of(name))

    def self_total(name: str) -> float:
        return sum(own[span.span_id] for span in spans_of(name))

    leaves: dict[str, list] = {}
    for source in [span.leaves for span in spans] + [orphan_leaves or {}]:
        for name, (calls, seconds) in source.items():
            entry = leaves.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds

    def leaf_seconds(name: str) -> float:
        return leaves.get(name, [0, 0.0])[1]

    def duration_ms(name: str, q: float) -> float:
        durations = [span.duration * 1e3 for span in spans_of(name)]
        return percentile(durations, q) if durations else 0.0

    ops = max(1, len(spans_of("tends.fit")) + len(spans_of("tends.partial_fit")))
    searches = spans_of("search.find_parents")
    evaluations = sum(span.attrs.get("evaluations", 0) for span in searches)
    iterations = sum(span.attrs.get("iterations", 0) for span in searches)
    search_time = total("search.find_parents")
    pair_words = sum(
        span.attrs.get("pair_words", 0)
        for span in spans_of("stats.count") + spans_of("tiles.count")
    )
    count_time = self_total("stats.count") + total("tiles.count")
    imi_time = self_total("imi.dense") + self_total("imi.tiled")
    imi_pairs = sum(
        span.attrs.get("pairs", 0) for span in spans_of("imi.dense") + spans_of("imi.tiled")
    )
    # Executor overhead: the search fan-outs minus the searches inside
    # them (tile fan-outs are the tile counting itself, under tiles.count).
    search_parents = {span.parent_id for span in searches}
    map_overhead = sum(
        span.duration for span in spans_of("executor.map")
        if span.span_id in search_parents
    ) - search_time
    unattributed, share = unattributed_share(spans)
    updates = spans_of("tends.partial_fit")
    return {
        "stats.count_s": self_total("stats.count") / ops,
        "kernels.pair_words": pair_words / ops,
        "kernels.ns_per_pair_word": (
            count_time / pair_words * 1e9 if pair_words else 0.0
        ),
        "stats.update_p50_ms": duration_ms("stats.update", 50),
        "statuses.append_s": total("statuses.append") / ops,
        "tiles.count_s": total("tiles.count") / ops,
        "tiles.mi_s": self_total("imi.tiled") / ops,
        "imi.self_s": imi_time / ops,
        "imi.ns_per_pair": imi_time / imi_pairs * 1e9 if imi_pairs else 0.0,
        "threshold.self_s": self_total("threshold.two_means") / ops,
        "search.self_s": self_total("search.find_parents") / ops,
        "search.prune_s": total("search.prune") / ops,
        "search.evaluations": evaluations / ops,
        "search.us_per_eval": (
            search_time / evaluations * 1e6 if evaluations else 0.0
        ),
        "search.evals_per_s": (
            evaluations / search_time if search_time > 0 else 0.0
        ),
        "search.accept_ratio": iterations / evaluations if evaluations else 0.0,
        "search.bound_hits": sum(
            span.attrs.get("bound_hits", 0) for span in searches
        ) / ops,
        "search.candidates_mean": (
            sum(span.attrs.get("candidates", 0) for span in searches) / len(searches)
            if searches else 0.0
        ),
        "scoring.family_counts_s": leaf_seconds("scoring.family_counts") / ops,
        "scoring.log_likelihood_s": leaf_seconds("scoring.log_likelihood") / ops,
        "scoring.penalty_s": leaf_seconds("scoring.penalty") / ops,
        "scoring.delta_s": leaf_seconds("scoring.delta") / ops,
        "executor.overhead_s": map_overhead / ops,
        "tends.audit_s": total("tends.audit") / ops,
        "tends.unattributed_s": unattributed / ops,
        "tends.unattributed_frac": share,
        "journal.append_p50_ms": duration_ms("journal.append", 50),
        "journal.append_p90_ms": duration_ms("journal.append", 90),
        "serve.dirty_nodes_mean": (
            sum(span.attrs.get("dirty", 0) for span in updates) / len(updates)
            if updates else 0.0
        ),
        "serve.snapshot_p50_ms": duration_ms("model.save", 50),
        "serve.snapshots": len(spans_of("model.save")),
    }
