"""Perf trend ledger: CRC-checked JSONL of run timing+memory profiles.

Every bench / profiled fit appends one line to a ledger (by default
``benchmarks/results/trend.jsonl``) carrying the run's flat timing
profile (:func:`repro.obs.perfcheck.timing_profile`), its per-stage
memory peaks, and provenance (git revision, label, kind).  The ledger
is the repo's performance trajectory across PRs:

* ``repro perf-check --trend ledger.jsonl`` compares the **newest**
  entry against a rolling baseline (per-metric median of the previous
  *k* entries) with separate time and memory tolerances — the CI gate;
* ``repro figure trend`` renders the trajectory as SVG charts.

The ledger is CRC-checked JSONL written through :mod:`repro.durable`
(the serve journal and the sweep checkpoints use the same format), so
at-rest corruption is detected and skipped with a
:class:`~repro.exceptions.JournalCorruptionWarning` instead of silently
poisoning the baseline, and a torn final line from a crashed append is
dropped.  Unlike checkpoints, every ledger line must carry its ``crc``.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Mapping, Sequence, Union

from repro.durable import DurableJsonlWriter, read_jsonl, warn_damaged, with_crc
from repro.exceptions import CheckpointError, DataError
from repro.obs.perfcheck import PerfCheckReport, compare_profiles, timing_profile

__all__ = [
    "TREND_FORMAT",
    "append_trend",
    "load_trend",
    "memory_profile",
    "rolling_baseline",
    "check_trend",
    "trend_series",
]

PathLike = Union[str, Path]

TREND_FORMAT = "repro.perf_trend"
_VERSION = 1

#: Memory entries below this are skipped by the trend check — a few
#: hundred kB of interpreter noise dwarfs any real signal.
DEFAULT_MIN_BYTES = float(1 << 20)


# ----------------------------------------------------------------------
# building entries
# ----------------------------------------------------------------------

def memory_profile(manifest: Mapping) -> dict[str, float]:
    """Flatten a manifest's per-stage memory block to ``{entry: bytes}``.

    Keys are ``mem:<stage>:peak_rss`` / ``mem:<stage>:peak_alloc`` /
    ``mem:<stage>:alloc`` — disjoint from timing keys so both profiles
    can share one comparison engine with separate tolerances.
    """
    profile: dict[str, float] = {}
    for stage, stats in (manifest.get("memory") or {}).items():
        if not isinstance(stats, Mapping):
            continue
        for field, suffix in (
            ("peak_rss_bytes", "peak_rss"),
            ("peak_alloc_bytes", "peak_alloc"),
            ("alloc_bytes", "alloc"),
        ):
            value = stats.get(field)
            if isinstance(value, (int, float)):
                profile[f"mem:{stage}:{suffix}"] = float(value)
    return profile


def build_entry(
    manifest: Mapping,
    *,
    label: str | None = None,
    extra: Mapping | None = None,
) -> dict:
    """Reduce one run manifest to a CRC-stamped ledger entry."""
    git = manifest.get("git") or {}
    entry = {
        "format": TREND_FORMAT,
        "version": _VERSION,
        "recorded_unix": float(manifest.get("created_unix") or time.time()),
        "label": label,
        "kind": manifest.get("kind"),
        "revision": git.get("revision") if isinstance(git, Mapping) else None,
        "timings": timing_profile(manifest),
        "memory": memory_profile(manifest),
    }
    if extra:
        entry["meta"] = dict(extra)
    return with_crc(entry)


def append_trend(
    path: PathLike,
    manifest: Mapping,
    *,
    label: str | None = None,
    extra: Mapping | None = None,
) -> dict:
    """Append one run manifest's profile to the ledger (one fsync, like
    the other JSONL writers); returns the entry as written."""
    with DurableJsonlWriter(path) as writer:
        return writer.append(build_entry(manifest, label=label, extra=extra))


def load_trend(path: PathLike, *, verify_crc: bool = True) -> list[dict]:
    """Read a ledger, oldest first.

    Damage follows :func:`repro.durable.read_jsonl`: a torn final line
    is dropped silently; any other line that is invalid JSON, lacks or
    fails its CRC, or is not a ledger entry is skipped with a
    :class:`~repro.exceptions.JournalCorruptionWarning` — one bad line
    must not disqualify the whole trajectory.  A missing file is an
    empty ledger.
    """
    try:
        lines = read_jsonl(path, "trend", verify_crc=verify_crc, require_crc=True)
    except CheckpointError as exc:
        raise DataError(str(exc)) from exc
    entries: list[dict] = []
    for number, document in lines:
        if document.get("format") != TREND_FORMAT:
            warn_damaged(path, number, f"not a {TREND_FORMAT} entry; skipped")
            continue
        entries.append(document)
    return entries


# ----------------------------------------------------------------------
# rolling-baseline comparison
# ----------------------------------------------------------------------

def _median_profile(
    profiles: Sequence[Mapping[str, float]]
) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for profile in profiles:
        for entry, value in profile.items():
            values.setdefault(entry, []).append(float(value))
    return {entry: statistics.median(seen) for entry, seen in values.items()}


def rolling_baseline(
    entries: Sequence[Mapping], *, window: int = 5
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-metric medians of the last ``window`` entries **before** the
    newest one: ``(timing_baseline, memory_baseline)``."""
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    history = list(entries[:-1])[-window:]
    if not history:
        raise DataError(
            "trend ledger needs at least 2 entries to compare "
            f"(got {len(entries)})"
        )
    timings = _median_profile([e.get("timings", {}) for e in history])
    memory = _median_profile([e.get("memory", {}) for e in history])
    return timings, memory


def check_trend(
    entries: Sequence[Mapping],
    *,
    window: int = 5,
    max_slowdown: float = 1.5,
    min_seconds: float = 0.01,
    max_memory_growth: float = 1.5,
    min_bytes: float = DEFAULT_MIN_BYTES,
) -> PerfCheckReport:
    """Compare the newest ledger entry against the rolling baseline.

    Timing entries use ``max_slowdown`` / ``min_seconds``; memory
    entries (``mem:*``, in bytes) use ``max_memory_growth`` /
    ``min_bytes``.  Raises :class:`~repro.exceptions.DataError` when the
    ledger is too short or shares no comparable timing entry — the CLI
    maps that to exit code 2.
    """
    if not entries:
        raise DataError("trend ledger is empty")
    newest = entries[-1]
    timing_base, memory_base = rolling_baseline(entries, window=window)
    report = compare_profiles(
        newest.get("timings", {}),
        timing_base,
        max_slowdown=max_slowdown,
        min_seconds=min_seconds,
    )
    comparisons = list(report.comparisons)
    skipped = list(report.skipped)
    current_memory = newest.get("memory", {})
    if current_memory or memory_base:
        try:
            memory_report = compare_profiles(
                current_memory,
                memory_base,
                max_slowdown=max_memory_growth,
                min_seconds=min_bytes,
            )
        except DataError:
            skipped.append("memory: no comparable entries")
        else:
            comparisons.extend(memory_report.comparisons)
            skipped.extend(memory_report.skipped)
    return PerfCheckReport(
        comparisons=tuple(comparisons), skipped=tuple(skipped)
    )


def trend_series(
    entries: Sequence[Mapping], *, section: str = "timings"
) -> dict[str, list[tuple[float, float]]]:
    """``{metric: [(entry_index, value), ...]}`` across the ledger —
    the input shape of :func:`repro.evaluation.plotting.render_line_chart`.
    ``section`` is ``"timings"`` (seconds) or ``"memory"`` (bytes)."""
    if section not in ("timings", "memory"):
        raise DataError(
            f"section must be 'timings' or 'memory', got {section!r}"
        )
    series: dict[str, list[tuple[float, float]]] = {}
    for index, entry in enumerate(entries):
        for metric, value in entry.get(section, {}).items():
            series.setdefault(metric, []).append((float(index), float(value)))
    return series
