"""Executor recovery under injected faults.

Every test asserts the same two things: the merged output is exactly the
serial ground truth (the determinism contract survives recovery), and the
:class:`~repro.core.executor.RecoveryReport` records what the machinery
had to do.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.executor import ExecutionPlan, ParallelExecutor, RetryPolicy
from repro.exceptions import MethodTimeoutError, WorkerCrashError
from tests.faults import fault_lib

ITEMS = list(range(12))
EXPECTED = fault_lib.expected(ITEMS)


@pytest.fixture
def fault_context(tmp_path):
    context = {"dir": str(tmp_path), "main_pid": os.getpid()}
    yield context
    # Wake any abandoned hang simulations so they drain now, not after
    # sleeping out their full bound.
    fault_lib.release_workers(context)


def make_executor(
    strategy: str,
    *,
    max_attempts: int = 3,
    timeout: float | None = None,
    fallback: bool = True,
) -> ParallelExecutor:
    plan = ExecutionPlan(
        strategy=strategy,
        n_jobs=2,
        chunk_size=3,
        retry=RetryPolicy(
            max_attempts=max_attempts,
            backoff_seconds=0.01,
            timeout=timeout,
            fallback=fallback,
        ),
    )
    return ParallelExecutor(plan)


class TestTransientErrors:
    @pytest.mark.parametrize("strategy", ["serial", "process"])
    def test_raise_once_is_retried(self, strategy, fault_context):
        executor = make_executor(strategy)
        results, _ = executor.map(fault_lib.raise_once_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        report = executor.last_report
        assert report.strategy == strategy
        assert report.retries >= 1
        assert report.fallbacks == 0

    @pytest.mark.parametrize("strategy", ["serial", "process"])
    def test_exhaustion_raises_the_original_exception(
        self, strategy, fault_context
    ):
        executor = make_executor(strategy, max_attempts=2)
        with pytest.raises(ValueError, match="permanent failure"):
            executor.map(fault_lib.always_raise_chunk, fault_context, ITEMS)

    def test_single_attempt_disables_retries(self, fault_context):
        executor = make_executor("process", max_attempts=1)
        with pytest.raises(RuntimeError, match="transient failure"):
            executor.map(fault_lib.raise_once_chunk, fault_context, ITEMS)


class TestWorkerCrashes:
    def test_dead_worker_is_replaced(self, fault_context):
        executor = make_executor("process")
        results, _ = executor.map(fault_lib.crash_once_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        report = executor.last_report
        assert report.strategy == "process"
        assert report.pool_rebuilds >= 1

    def test_persistent_crashes_fall_back_to_serial(self, fault_context):
        executor = make_executor("process", max_attempts=2)
        results, stats = executor.map(
            fault_lib.crash_always_chunk, fault_context, ITEMS
        )
        assert results == EXPECTED
        report = executor.last_report
        assert report.strategy == "serial"
        assert report.fallbacks == 1
        assert report.pool_rebuilds >= 1
        assert [s.worker for s in stats] == ["serial"]
        assert stats[0].n_items == len(ITEMS)

    @pytest.mark.parametrize("fallback", [True, False])
    def test_pool_that_cannot_start(self, fallback, fault_context, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes left")

        monkeypatch.setattr("repro.core.executor.ProcessPoolExecutor", refuse)
        executor = make_executor("process", fallback=fallback)
        if not fallback:
            with pytest.raises(WorkerCrashError, match="could not start"):
                executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
            return
        results, _ = executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        report = executor.last_report
        assert (report.strategy, report.fallbacks) == ("serial", 1)

    def test_pool_broken_during_submission_is_rebuilt(
        self, fault_context, monkeypatch
    ):
        # A worker that dies while chunks are still being submitted makes
        # the pool's own submit() raise; that is a pool break like any
        # other, not an error that escapes the recovery machinery.
        submissions = []

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submissions.append(args)
                if len(submissions) == 2:
                    raise BrokenProcessPool("worker died during submission")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(
            "repro.core.executor.ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        executor = make_executor("process")
        results, _ = executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        report = executor.last_report
        assert (report.strategy, report.pool_rebuilds, report.fallbacks) == (
            "process", 1, 0
        )

    def test_fallback_disabled_raises_worker_crash_error(self, fault_context):
        executor = make_executor("process", max_attempts=2, fallback=False)
        with pytest.raises(WorkerCrashError):
            executor.map(fault_lib.crash_always_chunk, fault_context, ITEMS)

    def test_unpicklable_context_still_completes(self):
        # A closure context cannot be pickled.  Under fork it ships for
        # free; under spawn/forkserver the broken pool triggers the
        # serial fallback.  Either way the caller gets correct results.
        executor = make_executor("process")
        context = {"offset": (lambda: 5)()}

        results, _ = executor.map(
            lambda ctx, items: [i + ctx["offset"] for i in items],
            context,
            ITEMS,
        )
        assert results == [i + 5 for i in ITEMS]


class TestHungChunks:
    def test_hang_times_out_and_retry_recovers(self, fault_context):
        executor = make_executor("process", timeout=0.25)
        results, _ = executor.map(fault_lib.hang_once_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        report = executor.last_report
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 1
        assert report.strategy == "process"  # timeouts never fall back

    def test_timeout_exhaustion_raises(self, fault_context):
        executor = make_executor("process", max_attempts=2, timeout=0.2)
        with pytest.raises(MethodTimeoutError) as excinfo:
            executor.map(fault_lib.hang_always_chunk, fault_context, ITEMS)
        assert excinfo.value.timeout == 0.2

    def test_no_timeout_means_unlimited(self, fault_context):
        executor = make_executor("process", timeout=None)
        results, _ = executor.map(fault_lib.hang_once_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        assert executor.last_report.timeouts == 0


class TestDeterminismUnderFaults:
    """Recovery must never change *what* is computed, only *how*."""

    @pytest.mark.parametrize(
        "chunk_fn",
        [
            fault_lib.raise_once_chunk,
            fault_lib.crash_once_chunk,
            fault_lib.crash_always_chunk,
        ],
        ids=["transient-error", "worker-crash", "persistent-crash"],
    )
    def test_faulted_run_matches_clean_serial_run(self, chunk_fn, fault_context):
        clean = make_executor("serial")
        baseline, _ = clean.map(fault_lib.echo_chunk, fault_context, ITEMS)
        faulted = make_executor("process")
        recovered, _ = faulted.map(chunk_fn, fault_context, ITEMS)
        assert recovered == baseline

    def test_report_is_all_quiet_on_clean_runs(self, fault_context):
        executor = make_executor("process")
        results, _ = executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        report = executor.last_report
        assert (report.retries, report.timeouts, report.pool_rebuilds,
                report.fallbacks) == (0, 0, 0, 0)
        assert report.strategy == "process"
