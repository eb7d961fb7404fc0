"""repro.obs — tracing, metrics, exporters, and run manifests.

The observability layer of the reproduction (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — nested span tracing with a zero-cost
  disabled path (:data:`NULL_TRACER`);
* :mod:`repro.obs.metrics` — counters / gauges / summary histograms;
* :mod:`repro.obs.export` — JSONL span logs, Chrome ``trace_event``
  JSON, Prometheus text dumps;
* :mod:`repro.obs.manifest` — per-run JSON manifests (config, seeds,
  environment, git revision, metrics, stage timings);
* :mod:`repro.obs.perfcheck` — manifest-vs-baseline slowdown checks
  (the ``repro perf-check`` command);
* :mod:`repro.obs.profiler` — dependency-free sampling wall-clock
  profiler with collapsed-stack and SVG flamegraph output;
* :mod:`repro.obs.memory` — tracemalloc/RSS per-span memory
  attribution with a zero-cost disabled path (:data:`NULL_MEMORY`);
* :mod:`repro.obs.trend` — perf trend ledger (CRC-checked JSONL via
  :mod:`repro.durable`) and the rolling-baseline check behind
  ``repro perf-check --trend``.

This package is a leaf: outside itself it imports only the leaf modules
:mod:`repro.durable` and :mod:`repro.exceptions` — never ``repro.core``
or ``repro.evaluation`` — so every layer of the library can instrument
itself without import cycles (``tests/unit/test_layering.py``).
"""

from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    spans_jsonl,
    write_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    collect_environment,
    git_revision,
    load_manifest,
    manifest_for_experiment,
    manifest_for_fit,
    validate_manifest,
    write_manifest,
)
from repro.obs.memory import (
    NULL_MEMORY,
    MemoryTracker,
    NullMemoryTracker,
    read_peak_rss_bytes,
    read_rss_bytes,
)
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    metric_key,
)
from repro.obs.perfcheck import (
    PerfCheckReport,
    TimingComparison,
    compare_profiles,
    format_report,
    load_timing_profile,
    timing_profile,
)
from repro.obs.profiler import (
    NULL_PROFILER,
    NullProfiler,
    Profile,
    SamplingProfiler,
    profile_for,
    profiled,
    render_flamegraph,
    write_flamegraph,
)
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    ambient_tracer,
    current_span,
    current_tracer,
)
from repro.obs.trend import (
    TREND_FORMAT,
    append_trend,
    check_trend,
    load_trend,
    rolling_baseline,
    trend_series,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "current_span",
    "ambient_tracer",
    "Telemetry",
    # metrics
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "metric_key",
    # exporters
    "spans_jsonl",
    "write_spans_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    # manifests
    "MANIFEST_FORMAT",
    "collect_environment",
    "git_revision",
    "manifest_for_fit",
    "manifest_for_experiment",
    "validate_manifest",
    "write_manifest",
    "load_manifest",
    # perf-check
    "TimingComparison",
    "PerfCheckReport",
    "timing_profile",
    "load_timing_profile",
    "compare_profiles",
    "format_report",
    # profiler
    "Profile",
    "SamplingProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "profiled",
    "profile_for",
    "render_flamegraph",
    "write_flamegraph",
    # memory attribution
    "MemoryTracker",
    "NullMemoryTracker",
    "NULL_MEMORY",
    "read_rss_bytes",
    "read_peak_rss_bytes",
    # perf trend ledger
    "TREND_FORMAT",
    "append_trend",
    "load_trend",
    "check_trend",
    "rolling_baseline",
    "trend_series",
]
