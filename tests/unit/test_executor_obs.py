"""Executor observability: chunk spans per backend, recovery WARNING logs."""

import json
import logging
import os

import pytest

from repro.core.executor import ExecutionPlan, ParallelExecutor, RetryPolicy
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.trace import NULL_TRACER, Tracer
from tests.faults import fault_lib

ITEMS = list(range(12))
EXPECTED = fault_lib.expected(ITEMS)


@pytest.fixture
def fault_context(tmp_path):
    context = {"dir": str(tmp_path), "main_pid": os.getpid()}
    yield context
    fault_lib.release_workers(context)


def make_executor(strategy, *, tracer=NULL_TRACER, max_attempts=3):
    plan = ExecutionPlan(
        strategy=strategy,
        n_jobs=2,
        chunk_size=3,
        retry=RetryPolicy(max_attempts=max_attempts, backoff_seconds=0.01),
    )
    return ParallelExecutor(plan, tracer=tracer)


class TestChunkSpans:
    @pytest.mark.parametrize("strategy", ["serial", "process"])
    def test_chunk_spans_merge_under_dispatch_span(
        self, strategy, fault_context
    ):
        tracer = Tracer()
        executor = make_executor(strategy, tracer=tracer)
        with tracer.span("dispatch") as dispatch:
            results, _ = executor.map(
                fault_lib.echo_chunk, fault_context, ITEMS
            )
        assert results == EXPECTED
        spans = tracer.finished()
        chunks = [s for s in spans if s.name == "executor.chunk"]
        assert len(chunks) == 4  # 12 items / chunk_size 3
        assert all(s.parent_id == dispatch.span_id for s in chunks)
        assert all(s.end >= s.start for s in chunks)

    def test_process_chunk_spans_carry_worker_pids(self, fault_context):
        tracer = Tracer()
        executor = make_executor("process", tracer=tracer)
        results, _ = executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        if executor.last_report.strategy != "process":
            pytest.skip("process pool unavailable; fell back")
        chunks = [
            s for s in tracer.finished() if s.name == "executor.chunk"
        ]
        assert chunks
        assert all(s.pid != os.getpid() for s in chunks)

    def test_chunk_span_attrs_identify_work(self, fault_context):
        tracer = Tracer()
        executor = make_executor("serial", tracer=tracer)
        executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
        chunks = sorted(
            (s for s in tracer.finished() if s.name == "executor.chunk"),
            key=lambda s: s.attrs["chunk"],
        )
        assert [s.attrs["chunk"] for s in chunks] == [0, 1, 2, 3]
        assert all(s.attrs["items"] == 3 for s in chunks)
        assert all(s.attrs["strategy"] == "serial" for s in chunks)

    @pytest.mark.parametrize("strategy", ["serial", "process"])
    def test_default_null_tracer_records_nothing(
        self, strategy, fault_context
    ):
        executor = make_executor(strategy)
        results, _ = executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
        assert results == EXPECTED
        assert NULL_TRACER.finished() == ()

    def test_spans_survive_retries_without_duplication(self, fault_context):
        tracer = Tracer()
        executor = make_executor("process", tracer=tracer)
        results, _ = executor.map(
            fault_lib.raise_once_chunk, fault_context, ITEMS
        )
        assert results == EXPECTED
        assert executor.last_report.retries >= 1
        chunks = [
            s for s in tracer.finished() if s.name == "executor.chunk"
        ]
        # Only successful chunk executions ship spans: one per chunk.
        assert len(chunks) == 4


class TestChromeTraceExport:
    """Adopted worker spans must survive the trip into Chrome trace JSON."""

    def _process_run(self, fault_context):
        tracer = Tracer()
        executor = make_executor("process", tracer=tracer)
        with tracer.span("dispatch") as dispatch:
            results, _ = executor.map(
                fault_lib.echo_chunk, fault_context, ITEMS
            )
        assert results == EXPECTED
        if executor.last_report.strategy != "process":
            pytest.skip("process pool unavailable; fell back")
        return tracer, dispatch

    def test_worker_pids_round_trip_into_lanes(self, fault_context):
        tracer, _dispatch = self._process_run(fault_context)
        document = chrome_trace(
            tracer.finished(), epoch_offset=tracer.epoch_offset
        )
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        chunks = [e for e in events if e["name"] == "executor.chunk"]
        assert len(chunks) == 4
        # Adopted spans keep the worker's pid, not the parent's...
        assert all(e["pid"] != os.getpid() for e in chunks)
        # ...and every (pid, tid) lane is named via thread_name metadata,
        # so workers render as their own rows in the viewer.
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        named_lanes = {(e["pid"], e["tid"]) for e in metadata}
        assert {(e["pid"], e["tid"]) for e in chunks} <= named_lanes
        dispatch_event = next(e for e in events if e["name"] == "dispatch")
        assert (dispatch_event["pid"], dispatch_event["tid"]) in named_lanes

    def test_adopted_spans_nest_under_dispatch_in_args(self, fault_context):
        tracer, dispatch = self._process_run(fault_context)
        document = chrome_trace(tracer.finished())
        chunks = [
            e for e in document["traceEvents"]
            if e.get("name") == "executor.chunk"
        ]
        assert all(
            e["args"]["parent_id"] == dispatch.span_id for e in chunks
        )
        assert all(e["dur"] >= 0 for e in chunks)

    def test_written_trace_is_loadable_with_worker_spans(
        self, fault_context, tmp_path
    ):
        tracer, _dispatch = self._process_run(fault_context)
        target = write_chrome_trace(
            tracer.finished(),
            tmp_path / "trace.json",
            epoch_offset=tracer.epoch_offset,
        )
        loaded = json.loads(target.read_text())
        names = {
            e["name"] for e in loaded["traceEvents"] if e["ph"] == "X"
        }
        assert {"dispatch", "executor.chunk"} <= names
        pids = {
            e["pid"] for e in loaded["traceEvents"]
            if e.get("name") == "executor.chunk"
        }
        assert pids and os.getpid() not in pids


class TestRecoveryLogs:
    LOGGER = "repro.core.executor"

    def _warnings(self, caplog):
        return [
            r for r in caplog.records
            if r.name == self.LOGGER and r.levelno == logging.WARNING
        ]

    def test_serial_retry_logged(self, caplog, fault_context):
        caplog.set_level(logging.WARNING, logger=self.LOGGER)
        executor = make_executor("serial")
        executor.map(fault_lib.raise_once_chunk, fault_context, ITEMS)
        messages = [r.getMessage() for r in self._warnings(caplog)]
        assert any(
            "serial chunk" in m and "retrying after" in m for m in messages
        )

    def test_pool_retry_and_backoff_logged(self, caplog, fault_context):
        caplog.set_level(logging.WARNING, logger=self.LOGGER)
        executor = make_executor("process")
        executor.map(fault_lib.raise_once_chunk, fault_context, ITEMS)
        messages = [r.getMessage() for r in self._warnings(caplog)]
        assert any(
            "process chunk" in m and "will retry" in m for m in messages
        )
        assert any("backing off" in m for m in messages)

    def test_pool_rebuild_logged_on_worker_crash(self, caplog, fault_context):
        caplog.set_level(logging.WARNING, logger=self.LOGGER)
        executor = make_executor("process")
        results, _ = executor.map(
            fault_lib.crash_once_chunk, fault_context, ITEMS
        )
        assert results == EXPECTED
        messages = [r.getMessage() for r in self._warnings(caplog)]
        assert any("pool broke" in m and "rebuilding" in m for m in messages)

    def test_fallback_logged_when_backend_gives_up(
        self, caplog, fault_context
    ):
        caplog.set_level(logging.WARNING, logger=self.LOGGER)
        executor = make_executor("process", max_attempts=2)
        results, _ = executor.map(
            fault_lib.crash_always_chunk, fault_context, ITEMS
        )
        assert results == EXPECTED
        assert executor.last_report.fallbacks >= 1
        messages = [r.getMessage() for r in self._warnings(caplog)]
        assert any(
            "unusable" in m and "falling back" in m for m in messages
        )

    def test_clean_run_logs_nothing(self, caplog, fault_context):
        caplog.set_level(logging.WARNING, logger=self.LOGGER)
        executor = make_executor("process")
        executor.map(fault_lib.echo_chunk, fault_context, ITEMS)
        assert self._warnings(caplog) == []
