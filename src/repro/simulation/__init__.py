"""Diffusion simulation substrate.

Generates the observations every inference algorithm consumes:

* :class:`~repro.simulation.statuses.StatusMatrix` — final infection
  statuses (the only input TENDS needs),
* :class:`~repro.simulation.cascades.CascadeSet` — timestamped infection
  sequences (consumed by the NetRate / MulTree / NetInf baselines),
* seed sets per process (consumed by LIFT).
"""

from repro.simulation.cascades import Cascade, CascadeSet
from repro.simulation.engine import DiffusionSimulator, SimulationResult
from repro.simulation.models import (
    IndependentCascadeModel,
    LinearThresholdModel,
    ProcessOutcome,
    PropagationTable,
    SusceptibleInfectedModel,
)
from repro.simulation.probabilities import (
    constant_probabilities,
    gaussian_probabilities,
    uniform_probabilities,
)
from repro.simulation.seeds import (
    degree_biased_seeds,
    fixed_seeds,
    uniform_random_seeds,
)
from repro.simulation.statuses import StatusMatrix
from repro.simulation import io

__all__ = [
    "io",
    "Cascade",
    "CascadeSet",
    "DiffusionSimulator",
    "SimulationResult",
    "IndependentCascadeModel",
    "LinearThresholdModel",
    "ProcessOutcome",
    "PropagationTable",
    "SusceptibleInfectedModel",
    "gaussian_probabilities",
    "constant_probabilities",
    "uniform_probabilities",
    "uniform_random_seeds",
    "degree_biased_seeds",
    "fixed_seeds",
    "StatusMatrix",
]
