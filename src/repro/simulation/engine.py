"""The diffusion simulator: runs ``β`` processes and packages observations.

This is the experiment front door.  Given a ground-truth graph, it draws
per-edge propagation probabilities once (they are properties of the
network, not of a single process — §III) and compiles them into one
:class:`~repro.simulation.models.PropagationTable`, then runs ``β``
independent diffusion processes over that table and returns a
:class:`SimulationResult` exposing every observation view the algorithms
need:

* ``result.statuses`` — the ``β × n`` final-status matrix (TENDS input),
* ``result.cascades`` — timestamped cascades (NetRate/MulTree/NetInf),
* ``result.seed_sets`` — per-process seed sets (LIFT).

Example
-------
>>> from repro.graphs import erdos_renyi_digraph
>>> from repro.simulation import DiffusionSimulator
>>> graph = erdos_renyi_digraph(30, 0.1, seed=1)
>>> sim = DiffusionSimulator(graph, mu=0.3, alpha=0.15, seed=42)
>>> result = sim.run(beta=50)
>>> result.statuses.beta
50
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import DiffusionGraph
from repro.simulation.cascades import Cascade, CascadeSet
from repro.simulation.models import (
    DiffusionModel,
    IndependentCascadeModel,
    PropagationTable,
)
from repro.simulation.probabilities import gaussian_probabilities
from repro.simulation.seeds import SeedStrategy, uniform_random_seeds
from repro.simulation.statuses import StatusMatrix
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["DiffusionSimulator", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Observations from ``β`` simulated diffusion processes.

    The three views (statuses, cascades, seed sets) are projections of the
    same runs, so algorithm comparisons are apples-to-apples.
    """

    graph: DiffusionGraph
    probabilities: Mapping[tuple[int, int], float]
    cascades: CascadeSet

    @property
    def statuses(self) -> StatusMatrix:
        """Final infection statuses (TENDS' only input)."""
        return self.cascades.to_status_matrix()

    @property
    def seed_sets(self) -> list[frozenset[int]]:
        """Initially infected node set per process (LIFT's input)."""
        return self.cascades.seed_sets()

    @property
    def beta(self) -> int:
        return self.cascades.beta

    def infection_fraction(self) -> float:
        """Average fraction of nodes infected per process (diagnostics)."""
        return float(self.statuses.values.mean())


class DiffusionSimulator:
    """Simulate diffusion processes on a known graph.

    Parameters
    ----------
    graph:
        Ground-truth diffusion network.
    mu:
        Mean propagation probability; per-edge values are drawn
        ``N(mu, sigma²)`` clipped (paper §V-A) unless ``probabilities`` is
        given explicitly.
    alpha:
        Initial infection ratio; ``⌈α n⌉`` uniform random seeds per process
        unless ``seed_strategy`` is given explicitly.
    sigma:
        Propagation-probability standard deviation (default 0.05).
    model:
        Diffusion process model; default Independent Cascade.
    probabilities:
        Optional explicit edge-probability mapping, overriding ``mu``/``sigma``.
    seed_strategy:
        Optional explicit seed strategy, overriding ``alpha``.
    seed:
        Master seed; probability draws and every process derive from it.

    Attributes
    ----------
    probabilities:
        The edge-probability dict (also :attr:`SimulationResult.probabilities`).
    table:
        Those probabilities compiled once at construction; every process
        reads this table, so later edits to :attr:`probabilities` do not
        reach the simulation.
    """

    def __init__(
        self,
        graph: DiffusionGraph,
        *,
        mu: float = 0.3,
        alpha: float = 0.15,
        sigma: float = 0.05,
        model: DiffusionModel | None = None,
        probabilities: Mapping[tuple[int, int], float] | None = None,
        seed_strategy: SeedStrategy | None = None,
        seed: RandomState = None,
    ) -> None:
        if graph.n_nodes == 0:
            raise ConfigurationError("cannot simulate on an empty graph")
        self.graph = graph if graph.frozen else graph.copy().freeze()
        self.model: DiffusionModel = model or IndependentCascadeModel()
        self._rng = as_generator(seed)
        if probabilities is None:
            probabilities = gaussian_probabilities(
                self.graph, mu=mu, sigma=sigma, seed=self._rng
            )
        else:
            self._validate_probabilities(probabilities)
        self.probabilities = dict(probabilities)
        self.table = PropagationTable(self.graph, self.probabilities)
        self.seed_strategy = seed_strategy or uniform_random_seeds(alpha)

    def _validate_probabilities(
        self, probabilities: Mapping[tuple[int, int], float]
    ) -> None:
        for edge in self.graph.edges():
            p = probabilities.get(edge)
            if p is None:
                raise ConfigurationError(f"no probability supplied for edge {edge}")
            if not 0.0 < p < 1.0:
                raise ConfigurationError(
                    f"probability for edge {edge} must be in (0, 1), got {p}"
                )

    def run_one(self) -> Cascade:
        """Run a single diffusion process and return its cascade.

        Models implementing the full protocol (``simulate``) contribute
        ground-truth infector attribution to the cascade; times-only
        models (custom ``run``-only callables) still work.
        """
        seeds = self.seed_strategy(self.graph, self._rng)
        if hasattr(self.model, "simulate"):
            outcome = self.model.simulate(self.graph, self.table, seeds, self._rng)
            return Cascade(outcome.times, infectors=outcome.infectors)
        times = self.model.run(self.graph, self.table, seeds, self._rng)
        return Cascade(times)

    def run(self, beta: int) -> SimulationResult:
        """Run ``beta`` independent processes."""
        beta = check_positive_int("beta", beta)
        cascades = [self.run_one() for _ in range(beta)]
        return SimulationResult(
            graph=self.graph,
            probabilities=self.probabilities,
            cascades=CascadeSet(self.graph.n_nodes, cascades),
        )
