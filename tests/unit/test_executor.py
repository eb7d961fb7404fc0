"""The stage-3 execution backend: plans, chunking, and strategy equivalence."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.executor import (
    ENV_EXECUTOR,
    ENV_N_JOBS,
    EXECUTOR_STRATEGIES,
    ExecutionPlan,
    ParallelExecutor,
    WorkerStats,
    execution_env,
    split_chunks,
)
from repro.exceptions import ConfigurationError


def _square_chunk(offset: int, items: list[int]) -> list[int]:
    """Module-level so the process backend can pickle it by reference."""
    return [offset + item * item for item in items]


def _failing_chunk(context: None, items: list[int]) -> list[int]:
    raise ValueError("worker failed")


def _ignore_sigterm(started) -> None:
    """Pool initializer: a worker deaf to SIGTERM, so only SIGKILL can
    stop it; the barrier tells the test every worker is."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    started.wait()


class TestExecutionPlan:
    def test_defaults_are_serial(self):
        plan = ExecutionPlan.resolve()
        assert plan.strategy == "serial"
        assert plan.n_jobs == 1

    def test_serial_forces_single_worker(self):
        plan = ExecutionPlan.resolve("serial", n_jobs=8)
        assert plan.n_jobs == 1

    def test_all_cpus_sentinel(self):
        plan = ExecutionPlan.resolve("process", n_jobs=-1)
        assert plan.n_jobs == (os.cpu_count() or 1)

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "process")
        monkeypatch.setenv(ENV_N_JOBS, "3")
        plan = ExecutionPlan.resolve()
        assert plan.strategy == "process"
        assert plan.n_jobs == 3

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "process")
        monkeypatch.setenv(ENV_N_JOBS, "8")
        plan = ExecutionPlan.resolve("serial", n_jobs=1)
        assert plan.strategy == "serial"
        assert plan.n_jobs == 1

    def test_malformed_env_n_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_N_JOBS, "four")
        with pytest.raises(ConfigurationError, match="REPRO_N_JOBS"):
            ExecutionPlan.resolve()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan.resolve("gpu")
        with pytest.raises(ConfigurationError):
            ExecutionPlan(strategy="gpu", n_jobs=1)

    def test_only_serial_and_process_remain(self):
        assert EXECUTOR_STRATEGIES == ("serial", "process")

    def test_retired_thread_strategy_names_the_backends(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="serial.*process"):
            ExecutionPlan.resolve("thread", n_jobs=2)
        monkeypatch.setenv(ENV_EXECUTOR, "thread")
        with pytest.raises(ConfigurationError, match="serial.*process"):
            ExecutionPlan.resolve()

    def test_bad_n_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan.resolve("process", n_jobs=0)
        with pytest.raises(ConfigurationError):
            ExecutionPlan.resolve("process", n_jobs=-2)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(strategy="serial", n_jobs=1, chunk_size=0)

    def test_effective_chunk_size_explicit(self):
        plan = ExecutionPlan("process", n_jobs=4, chunk_size=5)
        assert plan.effective_chunk_size(100) == 5

    def test_effective_chunk_size_auto_oversubscribes(self):
        plan = ExecutionPlan("process", n_jobs=4)
        size = plan.effective_chunk_size(160)
        assert 1 <= size <= 160
        # ~4 chunks per worker for load balancing
        assert -(-160 // size) >= 4

    def test_effective_chunk_size_single_worker_is_one_chunk(self):
        plan = ExecutionPlan("serial", n_jobs=1)
        assert plan.effective_chunk_size(50) == 50
        assert plan.effective_chunk_size(0) == 1


class TestSplitChunks:
    def test_exact_partition(self):
        chunks = split_chunks(10, 3)
        assert [list(c) for c in chunks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_covers_every_index_once(self):
        for n_items in (0, 1, 7, 32):
            for chunk_size in (1, 2, 5, 100):
                flat = [i for chunk in split_chunks(n_items, chunk_size) for i in chunk]
                assert flat == list(range(n_items))

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ConfigurationError):
            split_chunks(10, 0)


class TestExecutionEnv:
    def test_sets_and_restores(self, monkeypatch):
        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        monkeypatch.setenv(ENV_N_JOBS, "7")
        with execution_env(executor="process", n_jobs=2):
            assert os.environ[ENV_EXECUTOR] == "process"
            assert os.environ[ENV_N_JOBS] == "2"
        assert ENV_EXECUTOR not in os.environ
        assert os.environ[ENV_N_JOBS] == "7"

    def test_none_leaves_env_alone(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "process")
        with execution_env():
            assert os.environ[ENV_EXECUTOR] == "process"


class TestParallelExecutorMap:
    @pytest.mark.parametrize("strategy", EXECUTOR_STRATEGIES)
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_strategies_agree_with_serial(self, strategy, n_jobs):
        items = list(range(23))
        expected = [100 + i * i for i in items]
        plan = ExecutionPlan.resolve(strategy, n_jobs=n_jobs, chunk_size=4)
        results, stats = ParallelExecutor(plan).map(_square_chunk, 100, items)
        assert results == expected
        assert sum(s.n_items for s in stats) == len(items)
        assert sum(s.n_chunks for s in stats) == 6
        assert all(isinstance(s, WorkerStats) for s in stats)
        assert all(s.seconds >= 0.0 for s in stats)

    @pytest.mark.parametrize("strategy", EXECUTOR_STRATEGIES)
    def test_empty_items(self, strategy):
        plan = ExecutionPlan.resolve(strategy, n_jobs=2)
        results, stats = ParallelExecutor(plan).map(_square_chunk, 0, [])
        assert results == []
        assert stats == []

    def test_serial_worker_label(self):
        plan = ExecutionPlan.resolve()
        _, stats = ParallelExecutor(plan).map(_square_chunk, 0, [1, 2, 3])
        assert [s.worker for s in stats] == ["serial"]

    def test_process_worker_labels_are_stable(self):
        plan = ExecutionPlan.resolve("process", n_jobs=2, chunk_size=2)
        _, stats = ParallelExecutor(plan).map(_square_chunk, 0, list(range(8)))
        assert all(s.worker.startswith("process-") for s in stats)
        assert len({s.worker for s in stats}) == len(stats)

    def test_worker_exception_propagates(self):
        plan = ExecutionPlan.resolve("process", n_jobs=2)
        with pytest.raises(ValueError, match="worker failed"):
            ParallelExecutor(plan).map(_failing_chunk, None, [1, 2, 3])

    def test_results_preserve_order_with_uneven_chunks(self):
        items = list(range(31))
        plan = ExecutionPlan.resolve("process", n_jobs=4, chunk_size=3)
        results, _ = ParallelExecutor(plan).map(_square_chunk, 0, items)
        assert results == [i * i for i in items]


class TestRetryPolicyJitter:
    def test_zero_jitter_is_pure_exponential(self):
        from repro.core.executor import RetryPolicy

        policy = RetryPolicy(backoff_seconds=0.1, backoff_multiplier=2.0, jitter=0.0)
        assert [policy.delay(f) for f in range(4)] == [0.0, 0.1, 0.2, 0.4]

    def test_jittered_sequence_is_deterministic(self):
        from repro.core.executor import RetryPolicy

        policy = RetryPolicy(backoff_seconds=0.1, jitter=0.5, jitter_seed=7)
        again = RetryPolicy(backoff_seconds=0.1, jitter=0.5, jitter_seed=7)
        sequence = [policy.delay(f, token=3) for f in range(1, 5)]
        assert sequence == [again.delay(f, token=3) for f in range(1, 5)]

    def test_jitter_stays_within_the_backoff_envelope(self):
        from repro.core.executor import RetryPolicy

        policy = RetryPolicy(
            backoff_seconds=0.1, backoff_multiplier=2.0, jitter=0.5
        )
        for failures in range(1, 6):
            base = 0.1 * 2.0 ** (failures - 1)
            for token in range(20):
                delay = policy.delay(failures, token=token)
                assert base * 0.5 <= delay <= base

    def test_distinct_tokens_desynchronise(self):
        from repro.core.executor import RetryPolicy

        policy = RetryPolicy(backoff_seconds=0.1, jitter=0.5)
        delays = {policy.delay(1, token=t) for t in range(16)}
        assert len(delays) > 8  # chunks don't retry in lockstep

    def test_distinct_seeds_decorrelate(self):
        from repro.core.executor import RetryPolicy

        a = RetryPolicy(backoff_seconds=0.1, jitter=0.5, jitter_seed=1)
        b = RetryPolicy(backoff_seconds=0.1, jitter=0.5, jitter_seed=2)
        assert [a.delay(1, t) for t in range(8)] != [b.delay(1, t) for t in range(8)]

    def test_jitter_bounds_are_validated(self):
        from repro.core.executor import RetryPolicy

        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy(jitter=-0.1)


class TestShutdownPoolKill:
    def test_hung_workers_ignoring_sigterm_are_killed_and_reaped(self):
        started = multiprocessing.Barrier(3)
        pool = ProcessPoolExecutor(
            max_workers=2, initializer=_ignore_sigterm, initargs=(started,)
        )
        # One task per worker that never returns on its own.
        for _ in range(2):
            pool.submit(time.sleep, 60)
        started.wait(timeout=30)
        workers = list(pool._processes.values())
        assert len(workers) == 2

        ParallelExecutor._shutdown_pool(pool, kill=True)

        assert [worker.exitcode for worker in workers] == [-signal.SIGKILL] * 2
        assert multiprocessing.active_children() == []
