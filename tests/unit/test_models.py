"""Diffusion process models (IC, SI, LT) and the compiled propagation table."""

import numpy as np
import pytest

from repro.exceptions import GraphError, SimulationError
from repro.graphs.digraph import DiffusionGraph
from repro.simulation.models import (
    IndependentCascadeModel,
    LinearThresholdModel,
    PropagationTable,
    SusceptibleInfectedModel,
)
from repro.simulation.probabilities import constant_probabilities
from repro.utils.rng import as_generator


def _run(model, graph, p, seeds, seed=0):
    return model.run(graph, constant_probabilities(graph, p), np.array(seeds), as_generator(seed))


class TestIndependentCascade:
    def test_seeds_at_time_zero(self, chain_graph):
        times = _run(IndependentCascadeModel(), chain_graph, 0.99, [0])
        assert times[0] == 0.0

    def test_chain_infection_times_are_rounds(self, chain_graph):
        times = _run(IndependentCascadeModel(), chain_graph, 0.99, [0], seed=1)
        for node, time in times.items():
            assert time == float(node)  # chain: node i infected in round i

    def test_probability_zero_stops_at_seeds(self, chain_graph):
        times = _run(IndependentCascadeModel(), chain_graph, 0.01, [0], seed=2)
        assert set(times) >= {0}
        assert len(times) <= 2  # p=0.01 rarely fires

    def test_duplicate_seeds_collapse(self, chain_graph):
        times = _run(IndependentCascadeModel(), chain_graph, 0.5, [0, 0, 0])
        assert times[0] == 0.0

    def test_single_attempt_per_edge(self):
        # In IC each edge fires at most once: with p tiny, node 1 is never
        # infected after round 1 even over many rounds.
        graph = DiffusionGraph(2, [(0, 1)]).freeze()
        infected = 0
        for trial in range(200):
            times = _run(IndependentCascadeModel(), graph, 0.3, [0], seed=trial)
            if 1 in times:
                infected += 1
                assert times[1] == 1.0  # only possible in round 1
        assert 30 < infected < 90  # ~Binomial(200, 0.3)

    def test_missing_probability_raises(self, chain_graph):
        model = IndependentCascadeModel()
        with pytest.raises(SimulationError):
            model.run(chain_graph, {}, np.array([0]), as_generator(0))

    def test_max_rounds_guard(self, chain_graph):
        model = IndependentCascadeModel(max_rounds=1)
        with pytest.raises(SimulationError):
            # p=0.99 keeps the frontier moving past round 1 on a chain.
            for trial in range(50):
                model.run(
                    chain_graph,
                    constant_probabilities(chain_graph, 0.99),
                    np.array([0]),
                    as_generator(trial),
                )

    def test_repr(self):
        assert "max_rounds" in repr(IndependentCascadeModel())


class TestSusceptibleInfected:
    def test_retries_every_round(self):
        # With p=0.3 and horizon 20, P(edge never fires) = 0.7^20 ~ 0.0008.
        graph = DiffusionGraph(2, [(0, 1)]).freeze()
        infected = sum(
            1
            for trial in range(100)
            if 1 in _run(SusceptibleInfectedModel(horizon=20), graph, 0.3, [0], seed=trial)
        )
        assert infected >= 95

    def test_horizon_limits_depth(self, chain_graph):
        times = _run(SusceptibleInfectedModel(horizon=2), chain_graph, 0.99, [0], seed=0)
        assert all(t <= 2.0 for t in times.values())
        assert 4 not in times  # node 4 needs four rounds

    def test_stops_when_everyone_infected(self, chain_graph):
        times = _run(SusceptibleInfectedModel(horizon=100), chain_graph, 0.99, [0], seed=0)
        assert len(times) == chain_graph.n_nodes

    def test_repr(self):
        assert "horizon" in repr(SusceptibleInfectedModel(horizon=5))


class TestLinearThreshold:
    def test_seeds_at_time_zero(self, chain_graph):
        times = _run(LinearThresholdModel(), chain_graph, 0.5, [0], seed=0)
        assert times[0] == 0.0

    def test_full_weight_always_fires(self):
        # Single parent with weight 0.99 >= almost every uniform threshold;
        # over many trials the infection rate approaches 0.99.
        graph = DiffusionGraph(2, [(0, 1)]).freeze()
        infected = sum(
            1
            for trial in range(300)
            if 1 in _run(LinearThresholdModel(), graph, 0.99, [0], seed=trial)
        )
        assert infected > 280

    def test_weights_normalised_when_overloaded(self):
        # Five parents each with weight 0.9 must be scaled to sum to 1, so
        # the child with ALL parents infected is always infected (sum = 1
        # >= any threshold < 1), and the model never crashes on overload.
        graph = DiffusionGraph(6, [(i, 5) for i in range(5)]).freeze()
        infected = sum(
            1
            for trial in range(100)
            if 5 in _run(LinearThresholdModel(), graph, 0.9, [0, 1, 2, 3, 4], seed=trial)
        )
        assert infected == 100

    def test_threshold_gates_low_weight_parents(self):
        # One parent at weight 0.3: the child fires iff its threshold
        # <= 0.3, i.e. ~30% of processes.
        graph = DiffusionGraph(2, [(0, 1)]).freeze()
        infected = sum(
            1
            for trial in range(400)
            if 1 in _run(LinearThresholdModel(), graph, 0.3, [0], seed=trial)
        )
        assert 80 < infected < 160

    def test_accumulation_across_rounds(self):
        # Chain 0 -> 1 and 2 -> 1 with weights 0.5 each: if both parents
        # eventually fire, node 1 always fires (sum = 1.0).
        graph = DiffusionGraph(3, [(0, 1), (2, 1)]).freeze()
        infected = sum(
            1
            for trial in range(100)
            if 1 in _run(LinearThresholdModel(), graph, 0.5, [0, 2], seed=trial)
        )
        assert infected == 100

    def test_missing_weight_raises(self, chain_graph):
        model = LinearThresholdModel()
        with pytest.raises(SimulationError):
            model.run(chain_graph, {}, np.array([0]), as_generator(0))

    def test_repr(self):
        assert "max_rounds" in repr(LinearThresholdModel())


class TestPropagationTable:
    @pytest.fixture
    def graph(self):
        return DiffusionGraph(4, [(0, 2), (0, 1), (2, 1), (3, 1)]).freeze()

    @pytest.fixture
    def probabilities(self):
        return {(0, 1): 0.2, (0, 2): 0.7, (2, 1): 0.6, (3, 1): 0.5}

    def test_rows_follow_successor_order(self, graph, probabilities):
        table = PropagationTable(graph, probabilities)
        assert table.rows == (((1, 0.2), (2, 0.7)), (), ((1, 0.6),), ((1, 0.5),))
        assert table.out_degrees == (2, 0, 1, 1)

    def test_read_only_mapping(self, graph, probabilities):
        table = PropagationTable(graph, probabilities)
        assert dict(table) == probabilities
        assert list(table) == list(graph.edges())
        assert len(table) == 4 and (2, 1) in table and (1, 2) not in table
        assert table[(0, 2)] == 0.7 and table.get((1, 2)) is None
        with pytest.raises(KeyError):
            table[(1, 0)]
        with pytest.raises(TypeError):
            table[(0, 1)] = 0.3

    def test_missing_probability_raises_before_any_draw(self, graph, probabilities):
        del probabilities[(3, 1)]
        with pytest.raises(SimulationError, match=r"\(3, 1\)"):
            PropagationTable(graph, probabilities)
        rng = as_generator(0)
        state = rng.bit_generator.state
        with pytest.raises(SimulationError):
            IndependentCascadeModel().run(graph, probabilities, np.array([0]), rng)
        assert rng.bit_generator.state == state

    def test_compile_reuses_a_table_only_for_its_frozen_graph(self, graph, probabilities):
        table = PropagationTable(graph, probabilities)
        assert PropagationTable.compile(graph, table) is table
        assert PropagationTable.compile(graph.copy().freeze(), table) is not table
        unfrozen = graph.copy()
        loose = PropagationTable(unfrozen, probabilities)
        assert PropagationTable.compile(unfrozen, loose) is not loose
        assert PropagationTable.compile(graph, probabilities).rows == table.rows

    def test_influence_rows_match_the_per_node_normalisation(self, graph, probabilities):
        # Node 1's parents 0, 2, 3 sum to 1.3 > 1, so their weights are
        # scaled; node 2's single parent (0.7) is not.
        total = 0.2 + 0.6 + 0.5
        rows = PropagationTable(graph, probabilities).influence_rows()
        assert rows == (
            ((1, 0.2 * (1.0 / total)), (2, 0.7)),
            (),
            ((1, 0.6 * (1.0 / total)),),
            ((1, 0.5 * (1.0 / total)),),
        )

    def test_out_of_range_seed_raises(self, chain_graph):
        for model in (IndependentCascadeModel(), SusceptibleInfectedModel(), LinearThresholdModel()):
            with pytest.raises(GraphError):
                _run(model, chain_graph, 0.5, [5])
