"""Influence estimation and maximisation on diffusion networks.

Once a topology has been inferred (and optionally parameterised via
:func:`repro.core.edge_probabilities.estimate_edge_probabilities`), the
classic downstream question is *who to seed*: which ``k`` nodes maximise
the expected number of infected nodes under the Independent Cascade
process.  The expected-spread function is monotone submodular (Kempe et
al., KDD 2003), so the CELF lazy greedy achieves the standard
``1 − 1/e`` approximation; spread itself is #P-hard, so it is estimated
by Monte-Carlo simulation.

These utilities power the viral-marketing example and the seed-selection
end of the epidemic scenario (inverting the objective: the *best* seeds
are also the nodes most worth vaccinating).
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import DiffusionGraph
from repro.simulation.models import IndependentCascadeModel, PropagationTable
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["estimate_spread", "greedy_influence_maximization"]


def _resolve_probabilities(
    graph: DiffusionGraph,
    probabilities: Mapping[tuple[int, int], float] | float,
) -> PropagationTable:
    """The probabilities compiled for ``graph`` (a frozen graph reuses a
    table compiled for it, so every Monte-Carlo sample shares one)."""
    if isinstance(probabilities, (int, float)):
        p = float(probabilities)
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"uniform probability must be in (0, 1), got {p}")
        return PropagationTable(graph, {edge: p for edge in graph.edges()})
    missing = [edge for edge in graph.edges() if edge not in probabilities]
    if missing:
        raise ConfigurationError(
            f"missing probabilities for {len(missing)} edges, e.g. {missing[0]}"
        )
    return PropagationTable.compile(graph, probabilities)


def estimate_spread(
    graph: DiffusionGraph,
    seeds: Sequence[int],
    probabilities: Mapping[tuple[int, int], float] | float = 0.3,
    *,
    n_samples: int = 200,
    seed: RandomState = None,
) -> float:
    """Monte-Carlo estimate of the expected IC spread of ``seeds``.

    Parameters
    ----------
    graph:
        The diffusion network (inferred or known).
    seeds:
        Initially infected nodes.
    probabilities:
        Per-edge probability mapping, or a single float applied uniformly.
    n_samples:
        Number of simulated processes; the estimator's standard error
        shrinks as ``1/sqrt(n_samples)``.

    Returns
    -------
    float
        Expected number of infected nodes (including the seeds).
    """
    check_positive_int("n_samples", n_samples)
    seed_array = np.array(sorted(set(int(v) for v in seeds)), dtype=np.int64)
    if seed_array.size == 0:
        return 0.0
    graph = graph if graph.frozen else graph.copy().freeze()
    resolved = _resolve_probabilities(graph, probabilities)
    rng = as_generator(seed)
    model = IndependentCascadeModel()
    total = 0
    for _ in range(n_samples):
        total += len(model.run(graph, resolved, seed_array, rng))
    return total / n_samples


def greedy_influence_maximization(
    graph: DiffusionGraph,
    k: int,
    probabilities: Mapping[tuple[int, int], float] | float = 0.3,
    *,
    n_samples: int = 200,
    seed: RandomState = None,
) -> tuple[list[int], float]:
    """CELF lazy-greedy selection of ``k`` seeds maximising expected spread.

    Returns ``(seeds, estimated_spread)``.  Uses common random numbers
    per evaluation batch so marginal-gain comparisons are low-variance.

    Notes
    -----
    The marginal gains are Monte-Carlo estimates, so the lazy-evaluation
    invariant holds only approximately; with the default sample budget the
    selected sets match full greedy on the library's test networks.
    """
    check_positive_int("k", k)
    if k > graph.n_nodes:
        raise ConfigurationError(f"k ({k}) exceeds node count ({graph.n_nodes})")
    graph = graph if graph.frozen else graph.copy().freeze()
    resolved = _resolve_probabilities(graph, probabilities)
    rng = as_generator(seed)

    def spread(nodes: list[int], evaluation_seed: int) -> float:
        return estimate_spread(
            graph,
            nodes,
            resolved,
            n_samples=n_samples,
            seed=np.random.default_rng(evaluation_seed),
        )

    # CELF: heap of (-gain, evaluated_at, node) where evaluated_at is the
    # |chosen| at which the gain was computed.  A popped entry whose gain
    # is up to date (evaluated against the current chosen set) is selected
    # immediately; stale entries are re-evaluated and re-queued.
    base_seed = int(rng.integers(2**31))
    chosen: list[int] = []
    current_spread = 0.0
    heap: list[tuple[float, int, int]] = []
    for node in graph.nodes():
        gain = spread([node], base_seed)
        heapq.heappush(heap, (-gain, 0, node))

    while heap and len(chosen) < k:
        negative_gain, evaluated_at, node = heapq.heappop(heap)
        if evaluated_at == len(chosen):
            chosen.append(node)
            current_spread += -negative_gain
            continue
        fresh = (
            spread(chosen + [node], base_seed + len(chosen) + 1) - current_spread
        )
        heapq.heappush(heap, (-fresh, len(chosen), node))
    return chosen, current_spread
