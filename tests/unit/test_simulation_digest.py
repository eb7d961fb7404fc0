"""Pinned digests of whole simulator runs, independent of TENDS.

Each digest hashes what one ``DiffusionSimulator(...).run`` produced —
the status bytes, every cascade's ``times`` and ``infectors`` in dict
order, and the generator's final ``bit_generator.state`` — so any change
to which uniform decides which attempt, or to how many values a process
takes from the generator, moves the digest.  The values were recorded
with the per-attempt simulator (one scalar ``rng.random()`` per attempt)
that the compiled propagation table replaced.
"""

import hashlib

import numpy as np

from repro.graphs.generators.lfr import LFRParams, lfr_benchmark_graph
from repro.graphs.generators.realworld import dunf
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.models import SusceptibleInfectedModel

IC_DUNF_DIGEST = "571fbff23209f5633da15659eec835ee04af3a06444174ad2f5358c308ddce28"
SI_LFR_DIGEST = "f84f1752d3f207302dcf63476fb69121cd39355e613151c7b99b05b5f6c25812"


def _digest(simulator: DiffusionSimulator, beta: int, rng: np.random.Generator) -> str:
    result = simulator.run(beta=beta)
    digest = hashlib.sha256()
    statuses = result.statuses.values
    digest.update(repr(statuses.shape).encode())
    digest.update(np.ascontiguousarray(statuses).tobytes())
    for cascade in result.cascades:
        digest.update(repr(list(cascade.times.items())).encode())
        digest.update(repr(list(cascade.infectors.items())).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    return digest.hexdigest()


def test_independent_cascade_on_dunf():
    rng = np.random.default_rng(2020)
    simulator = DiffusionSimulator(dunf(0), mu=0.3, alpha=0.15, seed=rng)
    assert _digest(simulator, 150, rng) == IC_DUNF_DIGEST


def test_susceptible_infected_on_small_lfr():
    graph = lfr_benchmark_graph(LFRParams(n=120, avg_degree=4), seed=11)
    rng = np.random.default_rng(7)
    simulator = DiffusionSimulator(
        graph,
        mu=0.2,
        alpha=0.05,
        model=SusceptibleInfectedModel(horizon=4),
        seed=rng,
    )
    assert _digest(simulator, 80, rng) == SI_LFR_DIGEST
