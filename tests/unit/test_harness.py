"""Experiment harness: specs, deterministic seeding, aggregation."""

import pytest

from repro.baselines.base import TendsInferrer
from repro.evaluation.harness import (
    ExperimentSpec,
    MethodSpec,
    SweepPoint,
    default_methods,
    run_experiment,
)
from repro.exceptions import ConfigurationError
from repro.graphs.generators.random_graphs import erdos_renyi_digraph


def _tiny_spec(replicates: int = 1) -> ExperimentSpec:
    points = tuple(
        SweepPoint(
            label=f"n={n}",
            value=n,
            graph_factory=lambda seed, n=n: erdos_renyi_digraph(n, 0.15, seed=seed),
            beta=40,
        )
        for n in (12, 16)
    )
    methods = (
        MethodSpec("TENDS", lambda ctx: TendsInferrer()),
        *default_methods(include=("LIFT",)),
    )
    return ExperimentSpec(
        experiment_id="tiny",
        title="Tiny",
        x_label="n",
        points=points,
        methods=methods,
        replicates=replicates,
    )


class TestSpecValidation:
    def test_empty_points_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("x", "t", "x", points=(), methods=default_methods())

    def test_empty_methods_rejected(self):
        point = SweepPoint("p", 1, lambda seed: erdos_renyi_digraph(5, 0.3, seed=seed))
        with pytest.raises(ConfigurationError):
            ExperimentSpec("x", "t", "x", points=(point,), methods=())

    def test_bad_replicates_rejected(self):
        point = SweepPoint("p", 1, lambda seed: erdos_renyi_digraph(5, 0.3, seed=seed))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                "x", "t", "x", points=(point,), methods=default_methods(), replicates=0
            )


class TestDefaultMethods:
    def test_paper_roster(self):
        names = [m.name for m in default_methods()]
        assert names == ["TENDS", "NetRate", "MulTree", "LIFT"]

    def test_netrate_gets_best_threshold(self):
        methods = {m.name: m for m in default_methods()}
        assert methods["NetRate"].best_threshold
        assert not methods["TENDS"].best_threshold

    def test_extensions_available(self):
        names = [m.name for m in default_methods(include=("NetInf", "CORR"))]
        assert names == ["NetInf", "CORR"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            default_methods(include=("Photoshop",))

    def test_tends_overrides_forwarded(self):
        from repro.graphs.digraph import DiffusionGraph
        from repro.evaluation.harness import MethodContext
        from repro.baselines.base import Observations
        from repro.simulation.statuses import StatusMatrix

        methods = {
            m.name: m
            for m in default_methods(
                include=("TENDS",),
                tends_overrides={"executor": "process", "n_jobs": 2, "mi_kind": "traditional"},
            )
        }
        context = MethodContext(
            truth=DiffusionGraph(3).freeze(),
            observations=Observations.from_statuses(
                StatusMatrix([[0, 1, 0], [1, 0, 1]])
            ),
        )
        inferrer = methods["TENDS"].factory(context)
        assert inferrer._estimator.config.executor == "process"
        assert inferrer._estimator.config.n_jobs == 2
        assert inferrer._estimator.config.mi_kind == "traditional"


class TestRunExperiment:
    def test_result_count(self):
        result = run_experiment(_tiny_spec(replicates=2), seed=0)
        # 2 points x 2 replicates x 2 methods
        assert len(result.results) == 8

    def test_deterministic(self):
        a = run_experiment(_tiny_spec(), seed=1)
        b = run_experiment(_tiny_spec(), seed=1)
        assert [r.f_score for r in a.results] == [r.f_score for r in b.results]

    def test_seed_changes_data(self):
        a = run_experiment(_tiny_spec(), seed=1)
        b = run_experiment(_tiny_spec(), seed=2)
        assert [r.f_score for r in a.results] != [r.f_score for r in b.results]

    def test_runtime_recorded(self):
        result = run_experiment(_tiny_spec(), seed=0)
        assert all(r.runtime_seconds >= 0 for r in result.results)

    def test_progress_callback(self):
        messages: list[str] = []
        run_experiment(_tiny_spec(), seed=0, progress=messages.append)
        assert len(messages) == 4
        assert all("tiny" in m for m in messages)

    def test_aggregation(self):
        result = run_experiment(_tiny_spec(replicates=2), seed=0)
        rows = result.aggregated()
        assert len(rows) == 4  # 2 points x 2 methods
        for row in rows:
            assert row["replicates"] == 2
            assert row["f_score_min"] <= row["f_score"] <= row["f_score_max"]

    def test_series_ordering(self):
        result = run_experiment(_tiny_spec(), seed=0)
        series = result.series("f_score")
        assert set(series) == {"TENDS", "LIFT"}
        assert all(len(v) == 2 for v in series.values())

    def test_methods_listing_preserves_order(self):
        result = run_experiment(_tiny_spec(), seed=0)
        assert result.methods() == ["TENDS", "LIFT"]
