"""Diffusion process models.

The paper's generator is the discrete-time Independent Cascade (IC) model:
"each infected node tries to infect its uninfected child nodes with a given
propagation probability" (§V-A) — in IC, each infector gets exactly one
attempt per edge, in the round after it becomes infected.

:class:`SusceptibleInfectedModel` is a supported extension in which
infected nodes keep attempting every round until a horizon; it produces
denser infections and is used by the epidemic example and the robustness
benches.

Every model reads the edge probabilities through a
:class:`PropagationTable`: per-source ``(target, p)`` rows compiled once
(by :class:`~repro.simulation.engine.DiffusionSimulator`, or on entry to
``simulate`` when handed a plain mapping), so an infection attempt is one
tuple unpack and one comparison.  IC and SI share one round loop, which
takes its uniforms from a block drawn with ``rng.random(k)`` — the same
doubles as ``k`` scalar ``rng.random()`` calls — and hands them to the
attempts in order.  When a process ends (or fails), the generator is
rewound and advanced by exactly the values used, so it is left where one
scalar draw per attempt would have left it: the next process's seeds and
every cascade are the same as with per-attempt draws.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.exceptions import GraphError, SimulationError
from repro.graphs.digraph import DiffusionGraph
from repro.utils.validation import check_positive_int

__all__ = [
    "ProcessOutcome",
    "PropagationTable",
    "DiffusionModel",
    "IndependentCascadeModel",
    "SusceptibleInfectedModel",
    "LinearThresholdModel",
]

Edge = tuple[int, int]
EdgeProbabilities = Mapping[Edge, float]
Rows = tuple[tuple[tuple[int, float], ...], ...]


@dataclass(frozen=True)
class ProcessOutcome:
    """Everything one diffusion process produced.

    Attributes
    ----------
    times:
        Infection round per infected node; seeds at 0.0.
    infectors:
        The node credited with each non-seed infection — the parent whose
        attempt succeeded (IC/SI) or whose contribution crossed the
        threshold (LT; attribution there is to the final contributor).
        Seeds have no infector.  This ground-truth attribution powers the
        PATH baseline's diffusion-path extraction and white-box tests.
    """

    times: dict[int, float]
    infectors: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for child, parent in self.infectors.items():
            if child not in self.times:
                raise SimulationError(f"infector recorded for uninfected node {child}")
            if parent not in self.times:
                raise SimulationError(f"infector {parent} of {child} is uninfected")


class PropagationTable(Mapping[Edge, float]):
    """A graph's edge probabilities, compiled once for simulation.

    ``rows[source]`` holds the ``(target, p)`` pairs of ``source`` in
    ``graph.successors`` order and ``out_degrees[source]`` their number.
    The table is also a read-only ``Mapping[(source, target)] → p``, so
    a custom :class:`DiffusionModel` reads it like the plain mapping it
    was compiled from.

    Raises
    ------
    SimulationError
        At construction, when an edge of ``graph`` has no probability.
    """

    __slots__ = ("rows", "out_degrees", "_probabilities", "_graph", "_influence_rows")

    def __init__(self, graph: DiffusionGraph, probabilities: EdgeProbabilities) -> None:
        lookup: dict[Edge, float] = {}
        rows = []
        for source in range(graph.n_nodes):
            row = []
            for target in graph.successors(source).tolist():
                p = probabilities.get((source, target))
                if p is None:
                    raise SimulationError(
                        f"missing propagation probability for edge ({source}, {target})"
                    )
                row.append((target, p))
                lookup[(source, target)] = p
            rows.append(tuple(row))
        self.rows: Rows = tuple(rows)
        self.out_degrees: tuple[int, ...] = tuple(len(row) for row in rows)
        self._probabilities = lookup
        # Only a frozen graph cannot drift away from its compiled rows.
        self._graph = graph if graph.frozen else None
        self._influence_rows: Rows | None = None

    @classmethod
    def compile(
        cls, graph: DiffusionGraph, probabilities: EdgeProbabilities
    ) -> "PropagationTable":
        """``probabilities`` itself when it is a table compiled for this
        frozen ``graph``; otherwise a table compiled from it now."""
        if isinstance(probabilities, cls) and probabilities._graph is graph:
            return probabilities
        return cls(graph, probabilities)

    def influence_rows(self) -> Rows:
        """The rows with LT influence weights in place of probabilities.

        Each ``p`` is divided by its target's summed in-probability when
        that sum exceeds 1 (the standard LT normalisation, which keeps
        ``Σ_u w(u, v) ≤ 1``).  The sums run over parents in ascending
        order, as ``graph.predecessors`` lists them.  Derived on first
        use, then kept.
        """
        if self._influence_rows is None:
            incoming: list[list[float]] = [[] for _ in self.rows]
            for row in self.rows:
                for target, p in row:
                    incoming[target].append(p)
            scales = []
            for raw in incoming:
                total = sum(raw)
                scales.append(1.0 / total if total > 1.0 else 1.0)
            self._influence_rows = tuple(
                tuple((target, p * scales[target]) for target, p in row)
                for row in self.rows
            )
        return self._influence_rows

    def __getitem__(self, edge: Edge) -> float:
        return self._probabilities[edge]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._probabilities)

    def __len__(self) -> int:
        return len(self._probabilities)


class DiffusionModel(Protocol):
    """Protocol for diffusion process models.

    ``simulate`` turns (graph, edge probabilities, seed set, rng) into a
    :class:`ProcessOutcome`; ``run`` is the times-only convenience wrapper.
    The simulator hands models its :class:`PropagationTable`.
    """

    def simulate(
        self,
        graph: DiffusionGraph,
        probabilities: EdgeProbabilities,
        seeds: np.ndarray,
        rng: np.random.Generator,
    ) -> ProcessOutcome:
        ...

    def run(
        self,
        graph: DiffusionGraph,
        probabilities: EdgeProbabilities,
        seeds: np.ndarray,
        rng: np.random.Generator,
    ) -> dict[int, float]:
        ...


def _seeded(seeds: np.ndarray, n_nodes: int) -> tuple[dict[int, float], list[int]]:
    """Seed infection times (duplicates collapse) and the seeds in order."""
    times: dict[int, float] = {}
    order: list[int] = []
    for seed in np.asarray(seeds, dtype=np.int64).tolist():
        if not 0 <= seed < n_nodes:
            raise GraphError(f"node {seed} is out of range [0, {n_nodes})")
        if seed not in times:
            times[seed] = 0.0
            order.append(seed)
    return times, order


def _spread(
    table: PropagationTable,
    seeds: np.ndarray,
    rng: np.random.Generator,
    rounds: int,
    persistent: bool,
) -> tuple[dict[int, float], dict[int, int], list[int]]:
    """Up to ``rounds`` rounds of infection attempts (the IC/SI loop).

    The attempting nodes are the last round's new infections, or every
    infected node when ``persistent``.  An attempt on an already
    infected target is skipped without a draw.  Returns the times, the
    infectors and the nodes that would attempt in the next round.

    ``uniforms[i]`` is the ``i``-th scalar ``rng.random()`` the process
    would draw: each round tops the block up to cover its attempting
    nodes' out-degrees, and the generator is rewound and advanced by the
    ``used`` values on every exit.
    """
    rows, degrees = table.rows, table.out_degrees
    n_nodes = len(rows)
    times, active = _seeded(seeds, n_nodes)
    infectors: dict[int, int] = {}
    start = rng.bit_generator.state
    uniforms: list[float] = []
    used = 0
    try:
        for round_index in range(1, rounds + 1):
            if not active:
                break
            missing = used + sum(map(degrees.__getitem__, active)) - len(uniforms)
            if missing > 0:
                uniforms += rng.random(missing).tolist()
            when = float(round_index)
            newly: list[int] = []
            for source in active:
                for target, p in rows[source]:
                    if target in times:
                        continue
                    if uniforms[used] < p:
                        times[target] = when
                        infectors[target] = source
                        newly.append(target)
                    used += 1
            if not persistent:
                active = newly
            else:
                active.extend(newly)
                if len(times) == n_nodes:
                    break
    finally:
        if used != len(uniforms):
            rng.bit_generator.state = start
            rng.random(used)
    return times, infectors, active


class _TimesOnly:
    """The times-only ``run`` wrapper every model shares."""

    def run(
        self,
        graph: DiffusionGraph,
        probabilities: EdgeProbabilities,
        seeds: np.ndarray,
        rng: np.random.Generator,
    ) -> dict[int, float]:
        """Times-only wrapper around ``simulate``."""
        return self.simulate(graph, probabilities, seeds, rng).times


class IndependentCascadeModel(_TimesOnly):
    """Discrete-round Independent Cascade.

    Every node infected in round ``t`` makes a single infection attempt on
    each currently uninfected out-neighbour in round ``t + 1``; the attempt
    succeeds with the edge's propagation probability.  The process ends
    when a round produces no new infections (guaranteed because attempts
    are never repeated).

    Parameters
    ----------
    max_rounds:
        Safety valve; the process cannot run longer than ``n`` rounds
        anyway, so the default is generous.
    """

    def __init__(self, max_rounds: int = 10_000) -> None:
        self.max_rounds = check_positive_int("max_rounds", max_rounds)

    def simulate(
        self,
        graph: DiffusionGraph,
        probabilities: EdgeProbabilities,
        seeds: np.ndarray,
        rng: np.random.Generator,
    ) -> ProcessOutcome:
        table = PropagationTable.compile(graph, probabilities)
        times, infectors, frontier = _spread(
            table, seeds, rng, self.max_rounds, persistent=False
        )
        if frontier:
            raise SimulationError(f"IC process exceeded max_rounds={self.max_rounds}")
        return ProcessOutcome(times=times, infectors=infectors)

    def __repr__(self) -> str:
        return f"IndependentCascadeModel(max_rounds={self.max_rounds})"


class SusceptibleInfectedModel(_TimesOnly):
    """Discrete-round SI process with persistent infection attempts.

    Unlike IC, an infected node re-attempts every uninfected out-neighbour
    each round, so the process only stops at the horizon (or when everyone
    reachable is infected).  With per-round probability ``p`` an edge fires
    within ``h`` rounds with probability ``1 - (1 - p)^h``, so SI runs are
    a denser, more saturated observation regime than IC.

    Parameters
    ----------
    horizon:
        Number of rounds to simulate.
    """

    def __init__(self, horizon: int = 10) -> None:
        self.horizon = check_positive_int("horizon", horizon)

    def simulate(
        self,
        graph: DiffusionGraph,
        probabilities: EdgeProbabilities,
        seeds: np.ndarray,
        rng: np.random.Generator,
    ) -> ProcessOutcome:
        table = PropagationTable.compile(graph, probabilities)
        times, infectors, _ = _spread(table, seeds, rng, self.horizon, persistent=True)
        return ProcessOutcome(times=times, infectors=infectors)

    def __repr__(self) -> str:
        return f"SusceptibleInfectedModel(horizon={self.horizon})"


class LinearThresholdModel(_TimesOnly):
    """Discrete-round Linear Threshold diffusion (Kempe et al., KDD 2003).

    Each node ``v`` draws a private threshold ``θ_v ~ U(0, 1)`` per
    process; ``v`` becomes infected in the first round where the summed
    influence weight of its infected in-neighbours reaches ``θ_v``.  Edge
    influence weights are the supplied per-edge "probabilities" normalised
    by each node's weighted in-degree (the standard LT construction, which
    guarantees Σ_u w(u, v) ≤ 1); a table derives them once
    (:meth:`PropagationTable.influence_rows`).

    This model is *not* the paper's generator — it exists so the
    robustness benches can measure how TENDS (whose scoring assumes only
    that infections are caused by infected parents, not IC semantics)
    behaves under generative-model mismatch.

    Parameters
    ----------
    max_rounds:
        Safety valve; LT terminates within ``n`` rounds on its own.
    """

    def __init__(self, max_rounds: int = 10_000) -> None:
        self.max_rounds = check_positive_int("max_rounds", max_rounds)

    def simulate(
        self,
        graph: DiffusionGraph,
        probabilities: EdgeProbabilities,
        seeds: np.ndarray,
        rng: np.random.Generator,
    ) -> ProcessOutcome:
        rows = PropagationTable.compile(graph, probabilities).influence_rows()
        n = graph.n_nodes
        thresholds = rng.random(n).tolist()
        times, frontier = _seeded(seeds, n)
        infectors: dict[int, int] = {}
        accumulated = [0.0] * n
        round_index = 0
        while frontier:
            round_index += 1
            if round_index > self.max_rounds:
                raise SimulationError(
                    f"LT process exceeded max_rounds={self.max_rounds}"
                )
            # Add the newly infected nodes' influence to their children...
            touched: dict[int, int] = {}
            for source in frontier:
                for target, weight in rows[source]:
                    if target in times:
                        continue
                    accumulated[target] += weight
                    touched[target] = source  # last contributor this round
            # ...then fire every child whose threshold is now reached.
            when = float(round_index)
            frontier = []
            for target, last_contributor in touched.items():
                if accumulated[target] >= thresholds[target]:
                    times[target] = when
                    infectors[target] = last_contributor
                    frontier.append(target)
        return ProcessOutcome(times=times, infectors=infectors)

    def __repr__(self) -> str:
        return f"LinearThresholdModel(max_rounds={self.max_rounds})"
