"""Pluggable, fault-tolerant execution backends for the parent searches.

The TENDS score is decomposable (DESIGN.md §1), so stage 3 of
:meth:`~repro.core.tends.Tends.fit` — one parent search per node — is
embarrassingly parallel.  This module turns that observation into a
backend abstraction:

* :class:`ExecutionPlan` resolves the user-facing knobs (``executor``,
  ``n_jobs``, ``chunk_size``; ``None`` falls back to the
  ``REPRO_EXECUTOR`` / ``REPRO_N_JOBS`` environment variables, then to
  serial) into a concrete strategy;
* :class:`RetryPolicy` resolves the recovery knobs (``max_attempts``,
  ``backoff_seconds``, ``chunk_timeout``, ``fallback``);
* :class:`ParallelExecutor` maps a pure chunk function over an item list
  under that plan, with two strategies:

  ``serial``
      The plain loop — zero overhead, the reference behaviour.
  ``process``
      A :class:`~concurrent.futures.ProcessPoolExecutor`.  The shared
      context (for TENDS: the :class:`~repro.core.search.ParentSearch`,
      i.e. the status matrix plus config) is shipped **once per worker**
      through the pool initializer, not once per task — tasks then carry
      only their chunk of items.

Fault tolerance (the recovery contract)
---------------------------------------
A long sweep must not lose every finished chunk to one fault.  The
executor therefore recovers from three fault classes:

* **Transient chunk errors** — a chunk raising an exception is retried
  up to ``max_attempts`` times with exponential backoff; the original
  exception propagates only once the budget is exhausted.
* **Dead workers** — a ``BrokenProcessPool`` (worker killed, segfaulted,
  OOM-reaped, or unpicklable context) tears down and rebuilds the pool
  and re-runs the unfinished chunks.  If the pool keeps breaking, the
  executor *falls back* to serial for the unfinished chunks (disable
  with ``fallback=False``, which raises
  :class:`~repro.exceptions.WorkerCrashError` instead).
* **Hung chunks** — with ``chunk_timeout`` set, a chunk whose result
  does not arrive in time is charged a failed attempt, the (possibly
  hung) pool is replaced, and the chunk re-runs; exhausting the budget
  raises :class:`~repro.exceptions.MethodTimeoutError`.  The serial
  backend cannot preempt a running chunk, so timeouts do not apply
  there, and a timeout never falls back to a backend that could not
  interrupt the same hang.

``KeyboardInterrupt`` / ``SystemExit`` are never swallowed: pending
futures are cancelled, worker processes are terminated (no orphans), and
the signal re-raises to the caller.

Because recovery may run the same chunk more than once (a worker killed
mid-chunk may already have done part of it), chunk functions must be
**pure**: same chunk in, same results out, no side effects.

Determinism is structural, not incidental: items are split into
contiguous chunks, chunk results are keyed by chunk index whatever order
(or attempt) they complete in, and the flattened output preserves item
order exactly.  Whatever the worker count, backend, or fault sequence,
the merged result is identical to the serial one — the suites under
``tests/unit/test_executor.py``, ``tests/faults/`` and
``tests/integration/test_parallel_determinism.py`` hold the backends to
that contract.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TypeVar

from repro.exceptions import (
    ConfigurationError,
    MethodTimeoutError,
    WorkerCrashError,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    ambient_tracer,
    current_span,
)
from repro.utils.logging import get_logger

__all__ = [
    "ExecutionPlan",
    "ParallelExecutor",
    "RetryPolicy",
    "RecoveryReport",
    "WorkerStats",
    "execution_env",
    "split_chunks",
    "EXECUTOR_STRATEGIES",
    "ENV_EXECUTOR",
    "ENV_N_JOBS",
    "ENV_MAX_ATTEMPTS",
    "ENV_CHUNK_TIMEOUT",
]

ContextT = TypeVar("ContextT")
ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: A chunk function consumes the shared context and a contiguous slice of
#: the item list, returning one result per item, in order.
ChunkFn = Callable[[ContextT, Sequence[ItemT]], Sequence[ResultT]]

EXECUTOR_STRATEGIES = ("serial", "process")

#: Environment fallbacks consulted when the config leaves the knobs unset —
#: the same pattern as ``REPRO_BENCH_SCALE``: one variable flips every
#: ``Tends`` instance in the process (CLI figure runs, benches, harness).
ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_N_JOBS = "REPRO_N_JOBS"
ENV_MAX_ATTEMPTS = "REPRO_MAX_ATTEMPTS"
ENV_CHUNK_TIMEOUT = "REPRO_CHUNK_TIMEOUT"

#: Chunks per worker when ``chunk_size`` is left automatic: small enough to
#: amortise per-task overhead, large enough to rebalance uneven nodes.
_OVERSUBSCRIPTION = 4

#: Shared grace period for terminated pool workers to exit before the
#: kill path escalates to SIGKILL, and the bound on joining a killed one.
_REAP_SECONDS = 1.0
_KILLED_JOIN_SECONDS = 10.0

#: Recovery events (retries, backoff sleeps, pool rebuilds, fallbacks,
#: timeouts) log here at WARNING — degraded-mode runs must be visible.
_LOGGER = get_logger("core.executor")


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be a number, got {raw!r}") from None


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class WorkerStats:
    """Per-worker accounting of one parallel map.

    Attributes
    ----------
    worker:
        Stable label — ``"serial"`` or ``"process-0"``, ``"process-1"``, ….
    n_chunks / n_items:
        How many chunks and items this worker processed.
    seconds:
        Wall-clock spent inside the chunk function (excludes queueing and
        result transport, so the sum over workers can exceed the stage
        wall-clock when workers overlap).
    """

    worker: str
    n_chunks: int
    n_items: int
    seconds: float


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor recovers from chunk failures.

    Attributes
    ----------
    max_attempts:
        Execution attempts per chunk (and pool rebuilds per backend)
        before the failure is considered permanent.  1 disables retries.
    backoff_seconds:
        Sleep before the first retry; subsequent retries multiply it by
        ``backoff_multiplier`` (exponential backoff).
    backoff_multiplier:
        Growth factor of the backoff sequence.
    jitter:
        Fraction of each backoff randomised away, in ``[0, 1]``.  The
        sleep before a retry is drawn from
        ``[(1 - jitter) · base, base]`` — but *deterministically*: the
        draw hashes ``(jitter_seed, token, failures)``, so the same
        retry of the same chunk always backs off identically (replays
        and tests stay reproducible) while distinct chunks desynchronise
        instead of thundering back in lockstep.  0 restores the pure
        exponential sequence.
    jitter_seed:
        Seed mixed into the jitter hash; two services sharing a journal
        can be given different seeds to decorrelate their retries.
    timeout:
        Per-chunk wall-clock budget in seconds (``None`` = unlimited).
        Applies to the process backend only; serial cannot preempt.
    fallback:
        Whether an unusable process pool may fall back to serial.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.5
    jitter_seed: int = 0
    timeout: float | None = None
    fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {self.timeout}"
            )

    @classmethod
    def resolve(
        cls,
        max_attempts: int | None = None,
        backoff_seconds: float | None = None,
        timeout: float | None = None,
        fallback: bool | None = None,
    ) -> "RetryPolicy":
        """Resolve recovery knobs; ``None`` falls back to
        ``REPRO_MAX_ATTEMPTS`` / ``REPRO_CHUNK_TIMEOUT`` and then to the
        class defaults."""
        if max_attempts is None:
            max_attempts = _env_int(ENV_MAX_ATTEMPTS)
        if timeout is None:
            timeout = _env_float(ENV_CHUNK_TIMEOUT)
        defaults = cls()
        return cls(
            max_attempts=defaults.max_attempts if max_attempts is None else max_attempts,
            backoff_seconds=(
                defaults.backoff_seconds if backoff_seconds is None else backoff_seconds
            ),
            timeout=timeout,
            fallback=defaults.fallback if fallback is None else fallback,
        )

    def delay(self, failures: int, token: int = 0) -> float:
        """Backoff before the retry following the ``failures``-th failure.

        ``token`` identifies the retrying unit (chunk index, batch
        sequence number, ...); it seeds the deterministic jitter so
        concurrent units spread out while any single unit's delay
        sequence is a pure function of the policy.
        """
        if failures < 1 or self.backoff_seconds == 0:
            return 0.0
        base = self.backoff_seconds * self.backoff_multiplier ** (failures - 1)
        if self.jitter == 0.0:
            return base
        return base * (1.0 - self.jitter * self._unit(token, failures))

    def _unit(self, token: int, failures: int) -> float:
        """Deterministic draw in ``[0, 1)`` from (seed, token, failures)."""
        material = f"{self.jitter_seed}:{token}:{failures}".encode()
        word = int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")
        return word / 2**64


@dataclass(frozen=True)
class RecoveryReport:
    """What the recovery machinery had to do during one map.

    All-zero (with ``strategy`` equal to the planned one) means the run
    was fault-free.
    """

    strategy: str  # backend that completed the work
    retries: int = 0  # chunk re-executions (errors + timeouts)
    timeouts: int = 0  # chunk attempts that exceeded the budget
    pool_rebuilds: int = 0  # pools torn down and replaced
    fallbacks: int = 0  # backend downgrades taken


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully resolved execution strategy.

    Attributes
    ----------
    strategy:
        One of :data:`EXECUTOR_STRATEGIES`.
    n_jobs:
        Worker count, already resolved (``>= 1``; serial is always 1).
    chunk_size:
        Items per task, already resolved (``>= 1``).
    retry:
        The :class:`RetryPolicy` governing fault recovery.
    """

    strategy: str
    n_jobs: int
    chunk_size: int | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.strategy not in EXECUTOR_STRATEGIES:
            raise ConfigurationError(
                f"unknown executor strategy {self.strategy!r}; "
                f"available: {EXECUTOR_STRATEGIES}"
            )
        if self.n_jobs < 1:
            raise ConfigurationError(f"n_jobs must resolve to >= 1, got {self.n_jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be a positive integer, got {self.chunk_size}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def resolve(
        cls,
        executor: str | None = None,
        n_jobs: int | None = None,
        chunk_size: int | None = None,
        *,
        max_attempts: int | None = None,
        backoff_seconds: float | None = None,
        chunk_timeout: float | None = None,
        fallback: bool | None = None,
    ) -> "ExecutionPlan":
        """Resolve user-facing knobs into a concrete plan.

        ``None`` values fall back to ``REPRO_EXECUTOR`` / ``REPRO_N_JOBS``
        (and ``REPRO_MAX_ATTEMPTS`` / ``REPRO_CHUNK_TIMEOUT`` for the
        recovery knobs) and finally to the serial single-worker default.
        ``n_jobs = -1`` means "all available CPUs".  A serial strategy
        forces ``n_jobs = 1``; conversely ``n_jobs = 1`` with no explicit
        strategy stays serial rather than paying pool overhead.
        """
        if executor is None:
            executor = os.environ.get(ENV_EXECUTOR) or "serial"
        if executor not in EXECUTOR_STRATEGIES:
            raise ConfigurationError(
                f"unknown executor strategy {executor!r}; "
                f"available: {EXECUTOR_STRATEGIES}"
            )
        if n_jobs is None:
            raw = os.environ.get(ENV_N_JOBS)
            if raw:
                try:
                    n_jobs = int(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"{ENV_N_JOBS} must be an integer, got {raw!r}"
                    ) from None
            else:
                n_jobs = 1
        if n_jobs == -1:
            n_jobs = os.cpu_count() or 1
        if n_jobs < 1:
            raise ConfigurationError(
                f"n_jobs must be a positive integer or -1 (all CPUs), got {n_jobs}"
            )
        if executor == "serial":
            n_jobs = 1
        retry = RetryPolicy.resolve(
            max_attempts=max_attempts,
            backoff_seconds=backoff_seconds,
            timeout=chunk_timeout,
            fallback=fallback,
        )
        return cls(
            strategy=executor, n_jobs=n_jobs, chunk_size=chunk_size, retry=retry
        )

    def effective_chunk_size(self, n_items: int) -> int:
        """Items per task for an ``n_items`` workload under this plan."""
        if self.chunk_size is not None:
            return self.chunk_size
        if self.n_jobs <= 1:
            return max(n_items, 1)
        spread = self.n_jobs * _OVERSUBSCRIPTION
        return max(1, -(-n_items // spread))


def split_chunks(n_items: int, chunk_size: int) -> list[range]:
    """Partition ``range(n_items)`` into contiguous chunks of
    ``chunk_size`` (the last may be shorter).  The chunks cover every
    index exactly once, in ascending order — the invariant the
    determinism guarantee rests on."""
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        range(start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]


@contextmanager
def execution_env(
    executor: str | None = None,
    n_jobs: int | None = None,
    max_attempts: int | None = None,
    chunk_timeout: float | None = None,
) -> Iterator[None]:
    """Temporarily pin the environment fallbacks (CLI figure runs use this
    so every ``Tends`` built inside the harness picks up the backend and
    recovery knobs)."""
    saved = {
        name: os.environ.get(name)
        for name in (ENV_EXECUTOR, ENV_N_JOBS, ENV_MAX_ATTEMPTS, ENV_CHUNK_TIMEOUT)
    }
    try:
        if executor is not None:
            os.environ[ENV_EXECUTOR] = executor
        if n_jobs is not None:
            os.environ[ENV_N_JOBS] = str(n_jobs)
        if max_attempts is not None:
            os.environ[ENV_MAX_ATTEMPTS] = str(max_attempts)
        if chunk_timeout is not None:
            os.environ[ENV_CHUNK_TIMEOUT] = str(chunk_timeout)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# ----------------------------------------------------------------------
# process-backend plumbing (module level so it pickles by reference)
# ----------------------------------------------------------------------

_WORKER_STATE: dict[str, object] = {}


def _process_initializer(
    chunk_fn: ChunkFn, context: object, trace: bool = False
) -> None:
    """Runs once per worker process: receives the shared context a single
    time, however many chunks the worker later executes."""
    _WORKER_STATE["chunk_fn"] = chunk_fn
    _WORKER_STATE["context"] = context
    _WORKER_STATE["trace"] = trace


def _process_chunk(
    items: Sequence[object], index: int = 0
) -> tuple[list[object], int, float, tuple[dict, ...]]:
    """Execute one chunk in a worker, recording worker-local spans when
    tracing.

    The worker cannot see the dispatcher's tracer (a process starts with
    a fresh context), so a traced chunk records into a local
    :class:`~repro.obs.trace.Tracer` — installed as the ambient tracer so
    the chunk function's own spans nest under the chunk span — and ships
    the finished spans back as dicts for :meth:`Tracer.adopt`.
    """
    chunk_fn = _WORKER_STATE["chunk_fn"]
    context = _WORKER_STATE["context"]
    start = time.perf_counter()
    spans: tuple[dict, ...] = ()
    if not _WORKER_STATE.get("trace", False):
        results = list(chunk_fn(context, items))
    else:
        tracer = Tracer()
        with ambient_tracer(tracer):
            with tracer.span(
                "executor.chunk", chunk=index, items=len(items), strategy="process"
            ):
                results = list(chunk_fn(context, items))
        spans = tuple(span.to_dict() for span in tracer.finished())
    return results, os.getpid(), time.perf_counter() - start, spans


class _BackendUnusable(Exception):
    """Internal signal: this backend cannot make progress; fall back."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


class ParallelExecutor:
    """Map a chunk function over items under an :class:`ExecutionPlan`.

    Parameters
    ----------
    plan:
        Resolved strategy/worker-count/chunking/recovery; see
        :meth:`ExecutionPlan.resolve`.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When given (and
        enabled), every chunk execution records an ``executor.chunk``
        span — in the worker for the process backend, shipped back with
        the chunk outcome and merged under the span that was current
        when :meth:`map` was called.  The default
        :data:`~repro.obs.trace.NULL_TRACER` is the zero-overhead path.

    After each :meth:`map`, :attr:`last_report` holds a
    :class:`RecoveryReport` describing retries, timeouts, pool rebuilds,
    and backend fallbacks taken during the run.  Recovery events are
    additionally logged at WARNING level on the ``repro.core.executor``
    logger, so degraded-mode runs leave evidence even untraced.

    Examples
    --------
    The serial strategy runs any callable; the process strategy ships
    ``chunk_fn`` by reference, so there it must be a module-level
    function.

    >>> plan = ExecutionPlan.resolve("serial", chunk_size=3)
    >>> executor = ParallelExecutor(plan)
    >>> results, stats = executor.map(lambda ctx, chunk: [ctx * i for i in chunk],
    ...                               10, list(range(7)))
    >>> results
    [0, 10, 20, 30, 40, 50, 60]
    >>> [(s.worker, s.n_chunks) for s in stats]
    [('serial', 3)]
    """

    def __init__(
        self, plan: ExecutionPlan, tracer: "Tracer | NullTracer" = NULL_TRACER
    ) -> None:
        self.plan = plan
        self.last_report: RecoveryReport | None = None
        self._tracer = tracer
        self._trace = bool(getattr(tracer, "enabled", False))
        self._parent_span_id: int | None = None
        self._retries = 0
        self._timeouts = 0
        self._pool_rebuilds = 0

    # ------------------------------------------------------------------
    def map(
        self,
        chunk_fn: ChunkFn,
        context: ContextT,
        items: Sequence[ItemT],
    ) -> tuple[list[ResultT], list[WorkerStats]]:
        """Apply ``chunk_fn(context, chunk)`` to contiguous chunks of
        ``items`` and return ``(results, worker_stats)``.

        ``results`` preserves item order exactly — position ``i`` holds the
        result for ``items[i]`` under every strategy, worker count, and
        fault/recovery sequence.  For the ``process`` strategy both
        ``chunk_fn`` and ``context`` must be picklable, and ``chunk_fn``
        must be a module-level function (it is shipped to workers by
        reference); a pool that cannot run them falls back to serial.
        Chunk functions must be pure — recovery may execute a chunk more
        than once.
        """
        items = list(items)
        self._retries = self._timeouts = self._pool_rebuilds = 0
        dispatch_span = current_span()
        self._parent_span_id = (
            dispatch_span.span_id if dispatch_span is not None else None
        )
        if not items:
            self.last_report = RecoveryReport(strategy=self.plan.strategy)
            return [], []
        chunk_size = self.plan.effective_chunk_size(len(items))
        chunks = [
            [items[i] for i in chunk] for chunk in split_chunks(len(items), chunk_size)
        ]

        results: dict[int, list[ResultT]] = {}
        outcomes: list[tuple[int | None, int, float]] = []
        strategy, fallbacks = self.plan.strategy, 0
        if strategy == "process":
            try:
                self._run_pool(chunk_fn, context, chunks, results, outcomes)
            except _BackendUnusable as failure:
                if not self.plan.retry.fallback:
                    raise failure.cause from None
                # Serial runs in the dispatching process, so it survives
                # both worker crashes and a pool that cannot start.
                _LOGGER.warning(
                    "process pool unusable (%s); falling back to serial "
                    "for %d unfinished chunk(s)",
                    failure.cause,
                    len(chunks) - len(results),
                )
                strategy, fallbacks = "serial", 1
        if strategy == "serial":
            self._run_serial(chunk_fn, context, chunks, results, outcomes)

        self.last_report = RecoveryReport(
            strategy=strategy,
            retries=self._retries,
            timeouts=self._timeouts,
            pool_rebuilds=self._pool_rebuilds,
            fallbacks=fallbacks,
        )
        merged = [value for index in range(len(chunks)) for value in results[index]]
        return merged, self._aggregate_stats(outcomes)

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        chunk_fn: ChunkFn,
        context: ContextT,
        chunks: list[list[ItemT]],
        results: dict[int, list[ResultT]],
        outcomes: list[tuple[int | None, int, float]],
    ) -> None:
        retry = self.plan.retry
        for index in [i for i in range(len(chunks)) if i not in results]:
            failures = 0
            while True:
                start = time.perf_counter()
                try:
                    # The serial backend runs in the dispatching thread,
                    # so the ambient tracer/current span are already in
                    # scope — chunk spans nest without shipping.
                    with self._tracer.span(
                        "executor.chunk",
                        chunk=index,
                        items=len(chunks[index]),
                        strategy="serial",
                    ):
                        chunk_results = list(chunk_fn(context, chunks[index]))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    failures += 1
                    if failures >= retry.max_attempts:
                        raise
                    self._retries += 1
                    delay = retry.delay(failures, token=index)
                    _LOGGER.warning(
                        "serial chunk %d failed (attempt %d/%d): %s; "
                        "retrying after %.3gs backoff",
                        index, failures, retry.max_attempts, exc, delay,
                    )
                    time.sleep(delay)
                    continue
                results[index] = chunk_results
                outcomes.append(
                    (None, len(chunk_results), time.perf_counter() - start)
                )
                break

    def _new_pool(self, chunk_fn: ChunkFn, context: ContextT) -> ProcessPoolExecutor:
        try:
            return ProcessPoolExecutor(
                max_workers=self.plan.n_jobs,
                initializer=_process_initializer,
                initargs=(chunk_fn, context, self._trace),
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # pool construction itself failed
            raise _BackendUnusable(
                WorkerCrashError(f"could not start process pool: {exc}", attempts=1)
            ) from exc

    @staticmethod
    def _shutdown_pool(pool, *, kill: bool = False) -> None:
        """Shut a pool down without leaving orphans.

        ``kill=True`` is the fault path: signal shutdown first (so the
        pool's management machinery stops feeding work), then terminate
        the workers — they may be hung or already dead — and reap them,
        escalating to ``SIGKILL`` for anything that ignores the first
        signal.  The ordering matters: terminating before shutdown can
        wedge the executor's manager thread on its queues.
        """
        # The pool drops its references to the worker table and to its
        # manager thread on shutdown, but both live on: the table is
        # shared with the thread, so a worker spawned after the first
        # snapshot still shows up in the second.  Reap the union.
        table = getattr(pool, "_processes", None) or {}
        manager = getattr(pool, "_executor_manager_thread", None)
        before = list(table.values())
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:
            pass
        if not kill:
            return
        processes = before + [p for p in table.values() if p not in before]
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        # One shared deadline for the polite round, then SIGKILL whatever
        # is left (it may ignore SIGTERM).
        deadline = time.monotonic() + _REAP_SECONDS
        for process in processes:
            try:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.kill()
            except Exception:
                pass
        # The manager thread joins the same workers.  A worker it reaps
        # first looks alive to our own ``waitpid`` (ECHILD reads as "still
        # running"), so let it finish before the final join.
        if manager is not None:
            manager.join(timeout=_KILLED_JOIN_SECONDS)
        for process in processes:
            try:
                process.join(timeout=_KILLED_JOIN_SECONDS)
            except Exception:
                pass

    @staticmethod
    def _submit(pool: ProcessPoolExecutor, chunk: list[ItemT], index: int) -> Future:
        """Submit one chunk.  A worker that dies while chunks are still
        being submitted breaks the pool mid-submission; the failure is
        returned as the chunk's future so the pool-break path below
        rebuilds the pool, as it does for a break seen in a result."""
        try:
            return pool.submit(_process_chunk, chunk, index)
        except BrokenExecutor as exc:
            failed: Future = Future()
            failed.set_exception(exc)
            return failed

    def _run_pool(
        self,
        chunk_fn: ChunkFn,
        context: ContextT,
        chunks: list[list[ItemT]],
        results: dict[int, list[ResultT]],
        outcomes: list[tuple[int | None, int, float]],
    ) -> None:
        """Run every chunk on a (re)buildable process pool with retries.

        Results land in ``results`` keyed by chunk index, so the caller's
        merge order never depends on completion order, attempt count, or
        which backend finally produced each chunk.
        """
        retry = self.plan.retry
        failures: dict[int, int] = {index: 0 for index in range(len(chunks))}
        pool_breaks = 0
        pool = self._new_pool(chunk_fn, context)
        try:
            unfinished = list(range(len(chunks)))
            while unfinished:
                submitted = [
                    (self._submit(pool, chunks[index], index), index)
                    for index in unfinished
                ]
                resubmit: list[int] = []
                rebuild = False
                for position, (future, index) in enumerate(submitted):
                    if index in results:
                        continue
                    try:
                        chunk_results, pid, seconds, spans = future.result(
                            timeout=retry.timeout
                        )
                    except FutureTimeoutError:
                        self._timeouts += 1
                        failures[index] += 1
                        if failures[index] >= retry.max_attempts:
                            raise MethodTimeoutError(
                                f"chunk {index} ({len(chunks[index])} items) "
                                f"exceeded its {retry.timeout}s budget "
                                f"{failures[index]} time(s)",
                                timeout=retry.timeout,
                            ) from None
                        _LOGGER.warning(
                            "chunk %d (%d items) exceeded its %gs budget "
                            "(attempt %d/%d); rebuilding the process pool "
                            "and re-running it",
                            index, len(chunks[index]), retry.timeout,
                            failures[index], retry.max_attempts,
                        )
                        resubmit.append(index)
                        rebuild = True  # a worker may be wedged on this chunk
                        resubmit.extend(
                            self._drain_after_fault(
                                submitted[position + 1:], results, outcomes,
                                failures, retry,
                            )
                        )
                        break
                    except BrokenExecutor as exc:
                        # The whole pool is dead; every unfinished chunk is
                        # collateral.  Rebuild and re-run them.
                        pool_breaks += 1
                        if pool_breaks >= retry.max_attempts:
                            raise _BackendUnusable(
                                WorkerCrashError(
                                    f"process pool broke {pool_breaks} "
                                    f"time(s); giving up on this backend "
                                    f"({exc})",
                                    attempts=pool_breaks,
                                )
                            ) from exc
                        resubmit = [
                            i for _, i in submitted if i not in results
                        ]
                        _LOGGER.warning(
                            "process pool broke (%s); rebuilding it and "
                            "re-running %d chunk(s) (break %d/%d)",
                            exc, len(resubmit),
                            pool_breaks, retry.max_attempts,
                        )
                        rebuild = True
                        break
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        failures[index] += 1
                        if failures[index] >= retry.max_attempts:
                            raise
                        _LOGGER.warning(
                            "process chunk %d failed (attempt %d/%d): %s; "
                            "will retry",
                            index, failures[index],
                            retry.max_attempts, exc,
                        )
                        resubmit.append(index)
                        continue
                    else:
                        results[index] = chunk_results
                        outcomes.append((pid, len(chunk_results), seconds))
                        if spans:
                            self._tracer.adopt(
                                spans, parent_id=self._parent_span_id
                            )
                if rebuild:
                    self._shutdown_pool(pool, kill=True)
                    self._pool_rebuilds += 1
                    pool = self._new_pool(chunk_fn, context)
                if resubmit:
                    self._retries += len(resubmit)
                    delay = retry.delay(
                        max(failures[i] for i in resubmit)
                        if any(failures[i] for i in resubmit)
                        else 1,
                        token=min(resubmit),
                    )
                    if delay:
                        _LOGGER.warning(
                            "backing off %.3gs before re-running %d chunk(s)",
                            delay, len(resubmit),
                        )
                    time.sleep(delay)
                unfinished = resubmit
        except (KeyboardInterrupt, SystemExit):
            # Cancel what never started, kill what did, leave no orphans,
            # and hand the signal straight back to the caller.
            self._shutdown_pool(pool, kill=True)
            raise
        except BaseException:
            self._shutdown_pool(pool, kill=True)
            raise
        else:
            self._shutdown_pool(pool)

    def _drain_after_fault(
        self,
        remaining: list[tuple[Future, int]],
        results: dict[int, list[ResultT]],
        outcomes: list[tuple[int | None, int, float]],
        failures: dict[int, int],
        retry: RetryPolicy,
    ) -> list[int]:
        """After a timeout, harvest sibling futures that already finished
        and mark the rest for re-execution on the rebuilt pool."""
        resubmit: list[int] = []
        for future, index in remaining:
            if index in results:
                continue
            if future.done() and not future.cancelled():
                try:
                    chunk_results, pid, seconds, spans = future.result(
                        timeout=0
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    failures[index] += 1
                    if failures[index] >= retry.max_attempts:
                        raise
                    resubmit.append(index)
                else:
                    results[index] = chunk_results
                    outcomes.append((pid, len(chunk_results), seconds))
                    if spans:
                        self._tracer.adopt(
                            spans, parent_id=self._parent_span_id
                        )
            else:
                future.cancel()
                resubmit.append(index)
        return resubmit

    # ------------------------------------------------------------------
    @staticmethod
    def _aggregate_stats(
        outcomes: Sequence[tuple[int | None, int, float]],
    ) -> list[WorkerStats]:
        """Aggregate per-chunk ``(worker pid, n_items, seconds)`` records
        into stable ``process-K`` worker names, in pid order, followed by
        ``serial`` for chunks run in the dispatching process (pid
        ``None``)."""
        raw: dict[int | None, list[tuple[int, float]]] = {}
        for pid, n_items, seconds in outcomes:
            raw.setdefault(pid, []).append((n_items, seconds))
        pids = sorted(pid for pid in raw if pid is not None)
        names = [(pid, f"process-{index}") for index, pid in enumerate(pids)]
        if None in raw:
            names.append((None, "serial"))
        return [
            WorkerStats(
                worker=name,
                n_chunks=len(raw[pid]),
                n_items=sum(n for n, _ in raw[pid]),
                seconds=sum(s for _, s in raw[pid]),
            )
            for pid, name in names
        ]
