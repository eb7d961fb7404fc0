"""The compiled diffusion models against the per-attempt oracle.

Production reads probabilities from a :class:`PropagationTable` and
draws each process's uniforms in blocks; :mod:`tests.oracle` keeps one
``graph.successors`` walk, one ``probabilities.get`` and one scalar
``rng.random()`` per attempt.  Both must produce the same ``times`` and
``infectors`` (dict order included) and leave every bit generator in the
same state — after each process and after a ``max_rounds`` error — so a
run of many processes draws the same seeds and cascades either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.graphs.digraph import DiffusionGraph
from repro.simulation.models import (
    IndependentCascadeModel,
    LinearThresholdModel,
    PropagationTable,
    SusceptibleInfectedModel,
)
from tests import oracle

BIT_GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64")
EDGE_PROBABILITIES = st.one_of(
    st.sampled_from([0.01, 0.0101, 0.5, 0.9899, 0.99]), st.floats(0.01, 0.99)
)


@st.composite
def instances(draw):
    """A graph (some nodes forced to be sinks, frozen or not), its edge
    probabilities, and a list of possibly repeated seed sets."""
    n = draw(st.integers(1, 14))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50)
    )
    sinks = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 3)))
    edges = [(s, t) for s, t in pairs if s != t and s not in sinks]
    graph = DiffusionGraph(n, edges)
    if draw(st.booleans()):
        graph.freeze()
    probabilities = {edge: draw(EDGE_PROBABILITIES) for edge in sorted(graph.edge_set())}
    seed_sets = draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=6), min_size=1, max_size=4)
    )
    return graph, probabilities, [np.array(seeds, dtype=np.int64) for seeds in seed_sets]


def _generators(kind: str, seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    bit_generator = getattr(np.random, kind)
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


def _same_state(left, right) -> bool:
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _same_state(left[key], right[key]) for key in left
        )
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def _production(model, graph, probabilities, seeds, rng):
    try:
        outcome = model.simulate(graph, probabilities, seeds, rng)
    except SimulationError as error:
        return str(error)
    return list(outcome.times.items()), list(outcome.infectors.items())


def _oracle(process, graph, probabilities, seeds, rng, limit):
    try:
        times, infectors = process(graph, probabilities, seeds, rng, limit)
    except SimulationError as error:
        return str(error)
    return list(times.items()), list(infectors.items())


def _check(model, process, limit, instance, kind, seed, as_table):
    graph, probabilities, seed_sets = instance
    mapping = PropagationTable(graph, probabilities) if as_table else probabilities
    compiled, reference = _generators(kind, seed)
    for seeds in seed_sets:
        expected = _oracle(process, graph, probabilities, seeds, reference, limit)
        assert _production(model, graph, mapping, seeds, compiled) == expected
        assert _same_state(compiled.bit_generator.state, reference.bit_generator.state)


common = dict(
    instance=instances(),
    kind=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    as_table=st.booleans(),
)


@given(max_rounds=st.integers(1, 5), **common)
@settings(max_examples=150, deadline=None)
def test_independent_cascade_matches_oracle(max_rounds, instance, kind, seed, as_table):
    model = IndependentCascadeModel(max_rounds=max_rounds)
    _check(model, oracle.independent_cascade, max_rounds, instance, kind, seed, as_table)


@given(horizon=st.integers(1, 6), **common)
@settings(max_examples=150, deadline=None)
def test_susceptible_infected_matches_oracle(horizon, instance, kind, seed, as_table):
    model = SusceptibleInfectedModel(horizon=horizon)
    _check(model, oracle.susceptible_infected, horizon, instance, kind, seed, as_table)


@given(max_rounds=st.integers(1, 5), **common)
@settings(max_examples=100, deadline=None)
def test_linear_threshold_matches_oracle(max_rounds, instance, kind, seed, as_table):
    model = LinearThresholdModel(max_rounds=max_rounds)
    _check(model, oracle.linear_threshold, max_rounds, instance, kind, seed, as_table)


def test_max_rounds_error_leaves_the_oracle_state():
    """A chain at p = 0.99 outruns ``max_rounds=2`` for most seeds; the
    error must leave the generator where the per-attempt loop did."""
    graph = DiffusionGraph(6, [(i, i + 1) for i in range(5)]).freeze()
    probabilities = {edge: 0.99 for edge in graph.edges()}
    compiled, reference = _generators("PCG64", 3)
    errors = 0
    for _ in range(20):
        expected = _oracle(
            oracle.independent_cascade, graph, probabilities, np.array([0]), reference, 2
        )
        got = _production(
            IndependentCascadeModel(max_rounds=2), graph, probabilities, np.array([0]), compiled
        )
        assert got == expected
        errors += isinstance(got, str)
        assert _same_state(compiled.bit_generator.state, reference.bit_generator.state)
    assert errors > 10


class _CountingGenerator:
    """A generator that counts every uniform handed out."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.drawn = 0

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def random(self, size=None):
        self.drawn += 1 if size is None else size
        return self._rng.random(size)


@pytest.mark.parametrize(
    "model", [IndependentCascadeModel(), SusceptibleInfectedModel(horizon=3)]
)
def test_small_cascade_on_a_large_graph_draws_per_round(model):
    """Blocks are sized by the attempting nodes' out-degrees, not by E:
    one seed with a single out-edge on a 6,000-edge graph draws a handful
    of uniforms, however many edges the rest of the graph has."""
    n = 3000
    graph = DiffusionGraph(
        n, [(0, 1)] + [(v, w) for v in range(2, n) for w in (v - 1, (v + 1) % n or 2)]
    ).freeze()
    table = PropagationTable(graph, {edge: 0.01 for edge in graph.edges()})
    rng = _CountingGenerator(np.random.default_rng(1))
    model.simulate(graph, table, np.array([0]), rng)
    # One block per round of one attempt, then the re-advance.
    assert 1 <= rng.drawn <= 8
