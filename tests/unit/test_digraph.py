"""DiffusionGraph data-structure behaviour."""

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.digraph import DiffusionGraph


class TestConstruction:
    def test_empty(self):
        graph = DiffusionGraph(0)
        assert graph.n_nodes == 0
        assert graph.n_edges == 0

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            DiffusionGraph(-1)

    def test_edges_in_constructor(self):
        graph = DiffusionGraph(3, [(0, 1), (1, 2)])
        assert graph.n_edges == 2

    def test_duplicate_edges_collapse(self):
        graph = DiffusionGraph(3, [(0, 1), (0, 1), (0, 1)])
        assert graph.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            DiffusionGraph(3, [(1, 1)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(GraphError):
            DiffusionGraph(3, [(0, 3)])
        with pytest.raises(GraphError):
            DiffusionGraph(3, [(-1, 0)])


class TestMutation:
    def test_add_edge_returns_newness(self):
        graph = DiffusionGraph(3)
        assert graph.add_edge(0, 1) is True
        assert graph.add_edge(0, 1) is False

    def test_add_edges_counts_new_only(self):
        graph = DiffusionGraph(4)
        assert graph.add_edges([(0, 1), (0, 1), (1, 2)]) == 2

    def test_remove_edge(self):
        graph = DiffusionGraph(3, [(0, 1)])
        assert graph.remove_edge(0, 1) is True
        assert graph.remove_edge(0, 1) is False
        assert graph.n_edges == 0

    def test_remove_updates_predecessors(self):
        graph = DiffusionGraph(3, [(0, 2), (1, 2)])
        graph.remove_edge(0, 2)
        assert graph.predecessors(2).tolist() == [1]

    def test_frozen_graph_rejects_mutation(self):
        graph = DiffusionGraph(3, [(0, 1)]).freeze()
        with pytest.raises(GraphError):
            graph.add_edge(1, 2)
        with pytest.raises(GraphError):
            graph.remove_edge(0, 1)

    def test_freeze_keeps_adjacency_and_blocks_mutation(self):
        # freeze() only sets the flag; the sorted adjacency arrays are
        # built on the first query, possibly by racing readers of a
        # published graph, and every reader must see the pre-freeze sets.
        rng = np.random.default_rng(0)
        edges = {(int(a), int(b)) for a, b in rng.integers(0, 60, (400, 2)) if a != b}

        def adjacency(graph):
            return [
                (graph.successors(v).tolist(), graph.predecessors(v).tolist())
                for v in graph.nodes()
            ]

        want = adjacency(DiffusionGraph(60, edges))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                graph = DiffusionGraph(60, edges).freeze()
                seen = []
                threads = [
                    threading.Thread(target=lambda: seen.append(adjacency(graph)))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [want] * len(threads)
        finally:
            sys.setswitchinterval(interval)
        source, target = sorted(edges)[0]
        with pytest.raises(GraphError):
            graph.remove_edge(source, target)
        with pytest.raises(GraphError):
            graph.add_edge(target, source)
        assert adjacency(graph) == want

    def test_copy_is_mutable_and_independent(self):
        graph = DiffusionGraph(3, [(0, 1)]).freeze()
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert clone.n_edges == 2
        assert graph.n_edges == 1


class TestQueries:
    def test_successors_sorted(self):
        graph = DiffusionGraph(5, [(0, 4), (0, 1), (0, 3)])
        assert graph.successors(0).tolist() == [1, 3, 4]

    def test_predecessors_sorted(self):
        graph = DiffusionGraph(5, [(4, 2), (1, 2), (3, 2)])
        assert graph.predecessors(2).tolist() == [1, 3, 4]

    def test_frozen_adjacency_cached_arrays(self):
        graph = DiffusionGraph(3, [(0, 1), (0, 2)]).freeze()
        first = graph.successors(0)
        second = graph.successors(0)
        assert first is second  # cached array identity

    def test_degrees(self, star_graph):
        assert star_graph.out_degree(0) == 5
        assert star_graph.in_degree(1) == 1
        assert star_graph.out_degrees().tolist() == [5, 0, 0, 0, 0, 0]
        assert star_graph.in_degrees().tolist() == [0, 1, 1, 1, 1, 1]

    def test_has_edge(self, chain_graph):
        assert chain_graph.has_edge(0, 1)
        assert not chain_graph.has_edge(1, 0)

    def test_node_range_check(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.successors(99)

    def test_edges_lexicographic(self):
        graph = DiffusionGraph(3, [(2, 0), (0, 2), (0, 1)])
        assert list(graph.edges()) == [(0, 1), (0, 2), (2, 0)]

    def test_edge_set_and_array(self, chain_graph):
        assert chain_graph.edge_set() == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
        array = chain_graph.edge_array()
        assert array.shape == (4, 2)

    def test_empty_edge_array(self):
        assert DiffusionGraph(3).edge_array().shape == (0, 2)

    def test_adjacency_matrix(self, chain_graph):
        matrix = chain_graph.adjacency_matrix()
        assert matrix.dtype == np.bool_
        assert matrix[0, 1] and not matrix[1, 0]
        assert matrix.sum() == 4

    def test_reverse(self, chain_graph):
        reversed_graph = chain_graph.reverse()
        assert reversed_graph.has_edge(1, 0)
        assert reversed_graph.n_edges == chain_graph.n_edges

    def test_induced_subgraph_relabels(self, chain_graph):
        subgraph = chain_graph.induced_subgraph([1, 2, 4])
        # Old edge (1, 2) survives as (0, 1); 4 has no selected neighbour.
        assert subgraph.n_nodes == 3
        assert subgraph.edge_set() == {(0, 1)}

    def test_induced_subgraph_order_defines_labels(self, chain_graph):
        subgraph = chain_graph.induced_subgraph([2, 1])
        assert subgraph.edge_set() == {(1, 0)}  # old (1, 2) -> new (1, 0)

    def test_induced_subgraph_full_selection_is_identity(self, chain_graph):
        subgraph = chain_graph.induced_subgraph(range(5))
        assert subgraph.edge_set() == chain_graph.edge_set()

    def test_induced_subgraph_validates_nodes(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.induced_subgraph([0, 99])


class TestInterop:
    def test_networkx_round_trip(self, small_er_graph):
        nx_graph = small_er_graph.to_networkx()
        back = DiffusionGraph.from_networkx(nx_graph)
        assert back == small_er_graph.copy()

    def test_from_networkx_undirected_doubles_edges(self):
        import networkx as nx

        undirected = nx.Graph([(0, 1), (1, 2)])
        graph = DiffusionGraph.from_networkx(undirected)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph.n_edges == 4

    def test_from_networkx_requires_contiguous_ids(self):
        import networkx as nx

        with pytest.raises(GraphError):
            DiffusionGraph.from_networkx(nx.DiGraph([(0, 5)]))

    def test_adjacency_matrix_round_trip(self, small_er_graph):
        matrix = small_er_graph.adjacency_matrix()
        back = DiffusionGraph.from_adjacency_matrix(matrix)
        assert back.edge_set() == small_er_graph.edge_set()

    def test_from_adjacency_rejects_non_square(self):
        with pytest.raises(GraphError):
            DiffusionGraph.from_adjacency_matrix(np.zeros((2, 3)))

    def test_from_adjacency_ignores_diagonal(self):
        matrix = np.eye(3)
        graph = DiffusionGraph.from_adjacency_matrix(matrix)
        assert graph.n_edges == 0


class TestDunders:
    def test_equality(self):
        a = DiffusionGraph(3, [(0, 1)])
        b = DiffusionGraph(3, [(0, 1)])
        c = DiffusionGraph(3, [(1, 0)])
        assert a == b
        assert a != c
        assert a != "not a graph"

    def test_repr_mentions_state(self):
        graph = DiffusionGraph(3, [(0, 1)])
        assert "mutable" in repr(graph)
        graph.freeze()
        assert "frozen" in repr(graph)
