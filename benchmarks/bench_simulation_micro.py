"""Micro-benchmarks of the diffusion simulation substrate."""

import numpy as np

from repro.graphs.digraph import DiffusionGraph
from repro.graphs.generators.lfr import LFRParams, lfr_benchmark_graph
from repro.graphs.generators.realworld import dunf, netsci
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.models import SusceptibleInfectedModel
from repro.utils.rng import derive_seed


def test_lfr_generation_200_nodes(benchmark):
    graph = benchmark(
        lambda: lfr_benchmark_graph(LFRParams(n=200, avg_degree=4), seed=0)
    )
    assert graph.n_edges == 800


def test_netsci_surrogate_generation(benchmark):
    graph = benchmark.pedantic(lambda: netsci(0), rounds=3, iterations=1)
    assert graph.n_edges == 1602


def test_dunf_surrogate_generation(benchmark):
    graph = benchmark.pedantic(lambda: dunf(0), rounds=3, iterations=1)
    assert graph.n_edges == 2974


def test_simulate_150_processes_netsci(benchmark):
    graph = netsci(0)
    simulator = DiffusionSimulator(graph, mu=0.3, alpha=0.15, seed=1)
    result = benchmark.pedantic(lambda: simulator.run(beta=150), rounds=3, iterations=1)
    assert result.beta == 150


def test_simulate_500_processes_lfr1000(benchmark):
    """The ``lfr1000-fit`` end-to-end input: IC on LFR n=1000 at the
    paper defaults (μ=0.3, α=0.15), table compile included, as timed by
    the benchmark's set-up."""
    graph = lfr_benchmark_graph(
        LFRParams(n=1000, avg_degree=4), seed=derive_seed(0, "lfr1000-fit", "graph")
    )
    seed = derive_seed(0, "lfr1000-fit", "sim")

    def simulate():
        return DiffusionSimulator(graph, mu=0.3, alpha=0.15, seed=seed).run(beta=500)

    result = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert result.beta == 500


def test_simulate_150_processes_si_netsci(benchmark):
    """SI re-attempts every uninfected out-neighbour each round, so most
    attempts hit targets the round loop must skip without a draw."""
    simulator = DiffusionSimulator(
        netsci(0), mu=0.3, alpha=0.15, model=SusceptibleInfectedModel(horizon=4), seed=1
    )
    result = benchmark.pedantic(lambda: simulator.run(beta=150), rounds=3, iterations=1)
    assert result.beta == 150


def test_simulate_small_cascades_on_a_sparse_20000_node_graph(benchmark):
    """α=0.001 and μ=0.05 on 20,000 nodes and ~80,000 edges: each process
    infects a few dozen nodes, so its cost must follow its attempts, not
    E (no block of E uniforms per process)."""
    n = 20_000
    rng = np.random.default_rng(0)
    sources = np.repeat(np.arange(n), 4)
    targets = rng.integers(0, n, sources.size)
    keep = sources != targets
    graph = DiffusionGraph(n, zip(sources[keep].tolist(), targets[keep].tolist())).freeze()
    simulator = DiffusionSimulator(graph, mu=0.05, alpha=0.001, seed=1)
    result = benchmark.pedantic(lambda: simulator.run(beta=200), rounds=3, iterations=1)
    assert result.infection_fraction() < 0.01
