"""The end-to-end benchmark's layer tracer still finds every name it wraps.

``benchmarks/e2e/trace.py`` replaces library callables at the module and
class attributes its ``TARGETS`` name (``repro.core.search.family_counts``
among them).  A rename or a dropped re-export there breaks every traced
benchmark run, so this loads the tracer by path, without changing it,
and resolves each target the way its ``Recorder.install`` does.

The tracer also sums search evaluations over its
``ParentSearch.find_parents`` spans, and the benchmark fails a traced
fit whose sum differs from the result's, so a fit must search each node
through exactly one ``find_parents`` call.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.search import ParentSearch
from repro.core.tends import Tends

TRACE_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "trace.py"


@pytest.fixture(scope="module")
def trace_module():
    name = "_e2e_trace_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_trace_target_resolves(trace_module):
    assert trace_module.TARGETS
    for target in trace_module.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attribute.split("."):
            assert hasattr(owner, part), f"{target.module}.{target.attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"{target.module}.{target.attribute}"


@pytest.mark.parametrize("nodes", [None, (2, 7, 11, 19)])
def test_fit_searches_each_node_in_one_find_parents_call(
    monkeypatch, small_observations, nodes
):
    calls = []
    find_parents = ParentSearch.find_parents

    def spy(self, node, candidates):
        parents, diag = find_parents(self, node, candidates)
        calls.append((node, diag))
        return parents, diag

    monkeypatch.setattr(ParentSearch, "find_parents", spy)
    statuses = small_observations.statuses
    result = Tends(executor="serial").fit(statuses, nodes=nodes)
    searched = range(statuses.n_nodes) if nodes is None else nodes
    assert [node for node, _ in calls] == list(searched)
    for node, diag in calls:
        assert diag.node == node
        assert result.diagnostics[node] == diag
    assert sum(diag.n_evaluations for _, diag in calls) == result.total_evaluations()
