"""Picklable fault-injection chunk functions for the executor tests.

Every function here is module-level (the process backend ships chunk
functions by reference) and coordinates "fail once, then succeed"
behaviour through sentinel files in a directory passed via the context —
worker processes share no memory with the test, but they do share the
filesystem.

The context is a plain dict::

    {"dir": <sentinel directory>, "main_pid": <test process pid>}

Crash helpers only kill *worker* processes (``os.getpid() != main_pid``),
so the serial fallback — which runs in the test process — computes
normally instead of killing the test runner.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Sequence

#: Upper bound on hang simulations: long enough to trip sub-second chunk
#: timeouts, short enough that a hang nobody releases (a serial chunk
#: cannot be preempted) drains quickly.
HANG_SECONDS = 1.0

#: Poll interval for the filesystem-event waits below.
_POLL_SECONDS = 0.02


def expected(items: Sequence[int]) -> list[int]:
    """The ground truth every fault function converges to."""
    return [item * 2 for item in items]


def _sentinel(context: dict, kind: str, items: Sequence[int]) -> Path:
    return Path(context["dir"]) / f"{kind}-{items[0]}"


def release_workers(context: dict) -> None:
    """End every in-flight hang immediately (see :func:`_hang`).

    Tests call this once the executor has observed the timeout — the
    still-running hangs wake on the next poll instead of sleeping out the
    full :data:`HANG_SECONDS`, so the suite's wall-clock tracks the
    chunk timeouts under test, not the simulation's worst case.
    """
    (Path(context["dir"]) / "release").touch()


def _hang(context: dict) -> None:
    """Event-bounded hang: block until :func:`release_workers` touches
    the release sentinel, or :data:`HANG_SECONDS` elapses.

    The wait is a filesystem event rather than a fixed sleep because
    worker processes share no memory with the test — but both bounds
    hold: the hang always outlasts sub-second chunk timeouts (nothing
    releases it before the executor gives up) and never outlasts the
    flake budget.
    """
    release = Path(context["dir"]) / "release"
    deadline = time.monotonic() + HANG_SECONDS
    while time.monotonic() < deadline and not release.exists():
        time.sleep(_POLL_SECONDS)


def mark_chunk_started(context: dict, items: Sequence[int]) -> None:
    """Record that a chunk entered its function body (see
    :func:`wait_for_chunk_start`)."""
    (Path(context["dir"]) / f"started-{items[0]}").touch()


def wait_for_chunk_start(directory: str, timeout: float = 10.0) -> bool:
    """Block until any chunk function has signalled it is running.

    The interrupt tests use this instead of a fixed pre-signal sleep:
    the signal is guaranteed to land while the map is in flight, however
    slowly the pool spins up on a loaded CI runner.  Returns ``False``
    on timeout so callers can fail with a diagnosis instead of hanging.
    """
    deadline = time.monotonic() + timeout
    base = Path(directory)
    while time.monotonic() < deadline:
        if any(base.glob("started-*")):
            return True
        time.sleep(_POLL_SECONDS)
    return False


def echo_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """The no-fault control."""
    return expected(items)


def raise_once_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """Transient failure: raise on the first attempt, succeed after."""
    sentinel = _sentinel(context, "raise", items)
    if not sentinel.exists():
        sentinel.touch()
        raise RuntimeError(f"transient failure on chunk starting at {items[0]}")
    return expected(items)


def always_raise_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """Deterministic failure: every attempt raises (retry exhaustion)."""
    raise ValueError(f"permanent failure on chunk starting at {items[0]}")


def crash_once_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """Kill the worker process once for the chunk containing item 0."""
    if 0 in items and os.getpid() != context["main_pid"]:
        sentinel = _sentinel(context, "crash", items)
        if not sentinel.exists():
            sentinel.touch()
            os._exit(13)
    return expected(items)


def crash_always_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """Kill every worker process that touches any chunk — the process
    backend can never finish; the serial fallback computes normally."""
    if os.getpid() != context["main_pid"]:
        os._exit(13)
    return expected(items)


def hang_once_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """Hang (event-bounded) on the first attempt of the chunk with item 0."""
    sentinel = _sentinel(context, "hang", items)
    if 0 in items and not sentinel.exists():
        sentinel.touch()
        _hang(context)
    return expected(items)


def hang_always_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """Every attempt of every chunk hangs (event-bounded) — timeout
    exhaustion."""
    _hang(context)
    return expected(items)


def slow_chunk(context: dict, items: Sequence[int]) -> list[int]:
    """Slow but healthy — used by the interrupt test to guarantee the
    map is still in flight when the signal arrives.  Announces itself so
    the victim can signal as soon as work is actually running."""
    mark_chunk_started(context, items)
    time.sleep(0.2)
    return expected(items)
