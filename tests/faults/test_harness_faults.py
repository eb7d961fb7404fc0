"""Method isolation in the experiment harness.

One fragile baseline must never discard the rest of a sweep: the failure
boundary records crashes and timeouts as failed :class:`MethodResult`
cells and the aggregation keeps them visible without poisoning the means.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.baselines.base import TendsInferrer
from repro.baselines.netrate import NetRate
from repro.evaluation.harness import (
    ExperimentSpec,
    MethodSpec,
    SweepPoint,
    run_experiment,
)
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.graphs.generators.random_graphs import erdos_renyi_digraph

REPO_ROOT = Path(__file__).resolve().parents[2]


class BoomInferrer:
    def infer(self, observations):
        raise ValueError("kaboom")


class FlakyInferrer:
    """Fails on the first call of each instance's shared counter."""

    calls = 0

    def infer(self, observations):
        type(self).calls += 1
        if type(self).calls == 1:
            raise RuntimeError("flaky first attempt")
        return TendsInferrer().infer(observations)


class SlowInferrer:
    """Blocks until released (event-based, bounded) to trip the method
    timeout deterministically.

    The harness runs the method in a daemon thread it abandons on
    timeout; waiting on an event the test sets afterwards lets that
    thread exit immediately instead of sleeping out a fixed delay, and
    guarantees the timeout fires first however slow the runner is.
    """

    release = threading.Event()

    def infer(self, observations):
        type(self).release.wait(timeout=10.0)
        return TendsInferrer().infer(observations)


@pytest.fixture
def slow_release():
    SlowInferrer.release.clear()
    yield
    SlowInferrer.release.set()


def make_spec(*methods: MethodSpec, replicates: int = 1) -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="faults",
        title="fault harness",
        x_label="n",
        points=(
            SweepPoint(
                "n=20",
                20.0,
                lambda seed: erdos_renyi_digraph(20, 0.1, seed=seed),
                beta=40,
            ),
        ),
        methods=methods,
        replicates=replicates,
    )


TENDS = MethodSpec("TENDS", lambda ctx: TendsInferrer())
BOOM = MethodSpec("BOOM", lambda ctx: BoomInferrer())


class TestOnErrorPolicies:
    def test_default_raise_fails_fast(self):
        spec = make_spec(TENDS, BOOM)
        with pytest.raises(ValueError, match="kaboom"):
            run_experiment(spec, seed=1)

    def test_skip_records_the_failure_and_continues(self):
        spec = make_spec(BOOM, TENDS, replicates=2)
        result = run_experiment(spec, seed=1, on_error="skip")
        assert len(result.results) == 4
        failures = result.failures()
        assert [r.method for r in failures] == ["BOOM", "BOOM"]
        for r in failures:
            assert r.error == "ValueError: kaboom"
            assert math.isnan(r.f_score)
            assert not r.ok
        # TENDS cells are untouched by BOOM's crashes.
        good = [r for r in result.results if r.method == "TENDS"]
        assert all(r.ok and not math.isnan(r.f_score) for r in good)

    def test_skip_keeps_failures_out_of_the_aggregates(self):
        spec = make_spec(BOOM, TENDS, replicates=2)
        rows = run_experiment(spec, seed=1, on_error="skip").aggregated()
        by_method = {row["method"]: row for row in rows}
        assert by_method["BOOM"]["failed"] == 2
        assert math.isnan(by_method["BOOM"]["f_score"])
        assert by_method["TENDS"]["failed"] == 0
        assert not math.isnan(by_method["TENDS"]["f_score"])

    def test_retry_rehabilitates_a_flaky_method(self):
        FlakyInferrer.calls = 0
        spec = make_spec(MethodSpec("FLAKY", lambda ctx: FlakyInferrer()))
        result = run_experiment(
            spec, seed=1, on_error="retry", method_attempts=2
        )
        (cell,) = result.results
        assert cell.ok
        assert cell.attempts == 2

    def test_retry_exhaustion_records_the_failure(self):
        spec = make_spec(BOOM)
        result = run_experiment(
            spec, seed=1, on_error="retry", method_attempts=3
        )
        (cell,) = result.results
        assert not cell.ok
        assert cell.attempts == 3
        assert cell.error == "ValueError: kaboom"

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            run_experiment(make_spec(TENDS), seed=1, on_error="ignore")

    def test_bad_method_timeout_is_rejected(self):
        with pytest.raises(ConfigurationError, match="method_timeout"):
            run_experiment(make_spec(TENDS), seed=1, method_timeout=0.0)


class TestMethodTimeout:
    def test_timeout_is_recorded_as_a_failure(self, slow_release):
        spec = make_spec(MethodSpec("SLOW", lambda ctx: SlowInferrer()), TENDS)
        result = run_experiment(
            spec, seed=1, on_error="skip", method_timeout=0.2
        )
        slow = next(r for r in result.results if r.method == "SLOW")
        assert not slow.ok
        assert "MethodTimeoutError" in slow.error
        tends = next(r for r in result.results if r.method == "TENDS")
        assert tends.ok

    def test_timeout_under_raise_propagates(self, slow_release):
        from repro.exceptions import MethodTimeoutError

        spec = make_spec(MethodSpec("SLOW", lambda ctx: SlowInferrer()))
        with pytest.raises(MethodTimeoutError):
            run_experiment(spec, seed=1, method_timeout=0.2)

    def test_abandoned_method_does_not_delay_interpreter_exit(self):
        # The timed-out method sleeps 30 s; the process must still exit
        # as soon as its main thread is done.
        code = (
            "import time\n"
            "from repro.evaluation.harness import _infer_with_timeout\n"
            "from repro.exceptions import MethodTimeoutError\n"
            "class Hung:\n"
            "    def infer(self, observations):\n"
            "        time.sleep(30)\n"
            "try:\n"
            "    _infer_with_timeout(Hung(), None, 0.2)\n"
            "except MethodTimeoutError:\n"
            "    print('timed out')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=15, env=env,
        )
        assert completed.stdout.strip() == "timed out", completed.stderr

    def test_fast_method_is_unaffected_by_the_budget(self):
        result = run_experiment(
            make_spec(TENDS), seed=1, on_error="skip", method_timeout=30.0
        )
        assert result.results[0].ok


class TestNetRateConvergenceIsolation:
    """Regression: a NetRate ConvergenceError (iteration budget 1, strict)
    must surface as a failed cell, not kill the sweep."""

    def test_convergence_error_is_isolated(self):
        spec = make_spec(
            MethodSpec(
                "NetRate",
                lambda ctx: NetRate(max_iterations=1, strict=True),
                best_threshold=True,
            ),
            TENDS,
        )
        result = run_experiment(spec, seed=1, on_error="skip")
        netrate = next(r for r in result.results if r.method == "NetRate")
        assert not netrate.ok
        assert netrate.error.startswith("ConvergenceError:")
        assert math.isnan(netrate.f_score)
        tends = next(r for r in result.results if r.method == "TENDS")
        assert tends.ok

    def test_strict_netrate_raises_under_default_policy(self):
        spec = make_spec(
            MethodSpec(
                "NetRate", lambda ctx: NetRate(max_iterations=1, strict=True)
            )
        )
        with pytest.raises(ConvergenceError):
            run_experiment(spec, seed=1)

    def test_non_strict_netrate_still_succeeds_on_budget_one(self):
        spec = make_spec(
            MethodSpec("NetRate", lambda ctx: NetRate(max_iterations=1))
        )
        result = run_experiment(spec, seed=1)
        assert result.results[0].ok
