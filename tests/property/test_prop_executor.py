"""Property-based checks of the execution backend invariants.

Whatever the item count, worker count, or chunk size, the executor must
(1) partition the items into contiguous in-order chunks that cover every
index exactly once and (2) merge chunk results back in item order.  These
are the two facts the parallel-determinism guarantee of ``Tends.fit``
reduces to.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import ExecutionPlan, ParallelExecutor, split_chunks

n_items_st = st.integers(0, 300)
chunk_size_st = st.integers(1, 64)
n_jobs_st = st.integers(1, 8)


def _tag_chunk(tag: int, items: list[int]) -> list[tuple[int, int]]:
    """Module-level (picklable) chunk function: tag every item."""
    return [(tag, item) for item in items]


@given(n_items=n_items_st, chunk_size=chunk_size_st)
@settings(max_examples=100, deadline=None)
def test_split_chunks_partitions_in_order(n_items, chunk_size):
    chunks = split_chunks(n_items, chunk_size)
    flat = [i for chunk in chunks for i in chunk]
    assert flat == list(range(n_items))
    assert all(len(chunk) <= chunk_size for chunk in chunks)
    assert all(len(chunk) >= 1 for chunk in chunks)


@given(n_items=n_items_st, n_jobs=n_jobs_st)
@settings(max_examples=100, deadline=None)
def test_auto_chunk_size_always_partitions(n_items, n_jobs):
    plan = ExecutionPlan("process", n_jobs=n_jobs)
    size = plan.effective_chunk_size(n_items)
    assert size >= 1
    flat = [i for chunk in split_chunks(n_items, size) for i in chunk]
    assert flat == list(range(n_items))


@given(
    n_items=n_items_st,
    n_jobs=n_jobs_st,
    chunk_size=st.one_of(st.none(), chunk_size_st),
)
@settings(max_examples=60, deadline=None)
def test_map_covers_every_item_once_in_order(n_items, n_jobs, chunk_size):
    # Chunking and merging do not depend on the backend, so the breadth
    # runs on the serial loop, chunked as an n_jobs-worker pool would be
    # (``resolve`` would pin a serial plan to one worker and one chunk).
    items = list(range(n_items))
    plan = ExecutionPlan("serial", n_jobs=n_jobs, chunk_size=chunk_size)
    results, stats = ParallelExecutor(plan).map(_tag_chunk, 7, items)
    assert [item for _, item in results] == items
    assert all(tag == 7 for tag, _ in results)
    assert sum(s.n_items for s in stats) == n_items


@given(n_items=st.integers(1, 40), chunk_size=st.one_of(st.none(), st.integers(1, 10)))
@settings(max_examples=5, deadline=None)
def test_process_map_covers_every_item_once_in_order(n_items, chunk_size):
    # The process pool is expensive to spin up, so this invariant gets a
    # handful of examples; the serial loop above carries the breadth.
    items = list(range(n_items))
    plan = ExecutionPlan.resolve("process", n_jobs=2, chunk_size=chunk_size)
    results, stats = ParallelExecutor(plan).map(_tag_chunk, 3, items)
    assert [item for _, item in results] == items
    assert sum(s.n_items for s in stats) == n_items
