"""Run manifests: one JSON artefact describing one inference run.

A manifest is the durable record the perf-check workflow diffs: what
ran (config, seeds), where (python / numpy / CPU count / git revision),
what it measured (metrics snapshot), and how long each stage took.  One
manifest is written per ``Tends.fit`` (``kind="tends.fit"``, via
``repro infer --manifest-out``) or per ``run_experiment``
(``kind="experiment"``, via ``repro figure --manifest-out`` and the
figure benches).

The builders are duck-typed on the result objects rather than importing
``repro.core`` / ``repro.evaluation``, so ``repro.obs`` stays a leaf
package the rest of the library can import freely.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Mapping, Union

from repro.exceptions import DataError

__all__ = [
    "MANIFEST_FORMAT",
    "collect_environment",
    "git_revision",
    "manifest_for_fit",
    "manifest_for_experiment",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
]

PathLike = Union[str, Path]

MANIFEST_FORMAT = "repro.run_manifest"
_VERSION = 1

#: Keys every valid manifest must carry (the schema documented in
#: docs/OBSERVABILITY.md; CI validates emitted manifests against it).
_REQUIRED_KEYS = (
    "format",
    "version",
    "kind",
    "created_unix",
    "config",
    "seeds",
    "environment",
    "git",
    "stages",
    "metrics",
    "result",
    "total_seconds",
)


def collect_environment() -> dict:
    """Interpreter / library / hardware facts that affect timings."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executable": sys.executable,
    }


def git_revision(cwd: PathLike | None = None) -> dict | None:
    """``{"revision": ..., "dirty": ...}`` of the enclosing git checkout.

    Returns ``None`` when git is unavailable or the directory is not a
    repository — manifests must never fail a run over provenance.
    """
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if cwd is None else str(cwd),
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=None if cwd is None else str(cwd),
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {"revision": revision, "dirty": bool(status.strip())}


def _jsonable(value):
    """Coerce config values to JSON scalars (paths → str, etc.)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _base_manifest(kind: str) -> dict:
    return {
        "format": MANIFEST_FORMAT,
        "version": _VERSION,
        "kind": kind,
        "created_unix": time.time(),
        "environment": collect_environment(),
        "git": git_revision(),
    }


def manifest_for_fit(
    result,
    config=None,
    *,
    seeds: Mapping[str, object] | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict:
    """Build a manifest from one :class:`~repro.core.tends.TendsResult`.

    ``config`` defaults to nothing; pass the fit's
    :class:`~repro.core.config.TendsConfig` to record every knob.
    ``seeds`` records whatever seed material the caller used (bootstrap
    seed, simulation seed, corruption seed); ``extra`` merges free-form
    provenance (input path, CLI argv) under ``"extra"``.
    """
    document = _base_manifest("tends.fit")
    config_doc: dict = {}
    if config is not None:
        fields = getattr(config, "__dataclass_fields__", None)
        if fields:
            config_doc = {
                name: _jsonable(getattr(config, name)) for name in fields
            }
        else:  # pragma: no cover - non-dataclass config
            config_doc = _jsonable(vars(config))
    stage_seconds = dict(getattr(result, "stage_seconds", {}) or {})
    stages = {k: v for k, v in stage_seconds.items() if "/" not in k}
    workers = {
        stats.worker: stats.seconds
        for stats in getattr(result, "worker_stats", ()) or ()
    }
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        # Copy so manifest consumers cannot mutate the result's telemetry.
        metrics = {
            section: dict(values)
            for section, values in telemetry.metrics.items()
        }
    else:
        metrics = {"counters": {}, "gauges": {}, "histograms": {}}
    memory = dict(getattr(telemetry, "memory", {}) or {})
    graph = getattr(result, "graph", None)
    document.update(
        {
            "config": config_doc,
            "seeds": _jsonable(dict(seeds or {})),
            "stages": stages,
            "workers": workers,
            "metrics": metrics,
            "result": {
                "n_nodes": None if graph is None else graph.n_nodes,
                "n_edges": None if graph is None else graph.n_edges,
                "threshold": float(getattr(result, "threshold", math.nan)),
            },
            "total_seconds": float(sum(stages.values())),
        }
    )
    if memory:
        # Optional section (absent pre-memory manifests stay valid):
        # {stage: {"alloc_bytes", "peak_alloc_bytes", "peak_rss_bytes"}}.
        document["memory"] = {
            stage: dict(stats) for stage, stats in memory.items()
        }
    if extra:
        document["extra"] = _jsonable(dict(extra))
    return document


def manifest_for_experiment(
    result,
    *,
    seeds: Mapping[str, object] | None = None,
    metrics: Mapping | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict:
    """Build a manifest from one
    :class:`~repro.evaluation.harness.ExperimentResult`.

    ``stages`` holds mean ok-cell runtime per method (``method:<name>``
    keys), which is what perf-check compares across bench runs;
    ``metrics`` takes the harness-level registry snapshot when one was
    recording.
    """
    document = _base_manifest("experiment")
    spec = result.spec
    rows = result.aggregated()
    per_method: dict[str, list[float]] = {}
    for row in rows:
        runtime = float(row["runtime_s"])
        if not math.isnan(runtime):
            per_method.setdefault(str(row["method"]), []).append(runtime)
    stages = {
        f"method:{name}": sum(values) / len(values)
        for name, values in sorted(per_method.items())
    }
    ok = [r for r in result.results if r.ok]
    document.update(
        {
            "config": {
                "experiment_id": spec.experiment_id,
                "title": spec.title,
                "x_label": spec.x_label,
                "replicates": spec.replicates,
                "points": [p.label for p in spec.points],
                "methods": [m.name for m in spec.methods],
            },
            "seeds": _jsonable(dict(seeds or {})),
            "stages": stages,
            "metrics": (
                dict(metrics)
                if metrics
                else {"counters": {}, "gauges": {}, "histograms": {}}
            ),
            "result": {
                "cells": len(result.results),
                "failures": len(result.results) - len(ok),
            },
            "total_seconds": float(
                sum(r.runtime_seconds for r in result.results)
            ),
        }
    )
    if extra:
        document["extra"] = _jsonable(dict(extra))
    return document


def validate_manifest(document: Mapping) -> None:
    """Raise :class:`~repro.exceptions.DataError` unless ``document``
    carries every key of the documented manifest schema with sane types."""
    if document.get("format") != MANIFEST_FORMAT:
        raise DataError(
            f"not a run manifest: format={document.get('format')!r}"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in document]
    if missing:
        raise DataError(f"manifest missing required keys: {missing}")
    for key in ("config", "seeds", "environment", "stages", "metrics", "result"):
        if not isinstance(document[key], Mapping):
            raise DataError(f"manifest key {key!r} must be an object")
    for section in ("counters", "gauges", "histograms"):
        if section not in document["metrics"]:
            raise DataError(f"manifest metrics missing {section!r}")
    for stage, seconds in document["stages"].items():
        if not isinstance(seconds, (int, float)):
            raise DataError(f"stage {stage!r} timing must be a number")
    if not isinstance(document["total_seconds"], (int, float)):
        raise DataError("manifest total_seconds must be a number")
    if "memory" in document and not isinstance(document["memory"], Mapping):
        raise DataError("manifest key 'memory' must be an object")


def write_manifest(document: Mapping, path: PathLike) -> Path:
    """Validate and write a manifest as indented JSON."""
    validate_manifest(document)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


def load_manifest(path: PathLike) -> dict:
    """Read and validate a manifest written by :func:`write_manifest`."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    validate_manifest(document)
    return document
