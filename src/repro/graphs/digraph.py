"""A lightweight directed graph tuned for diffusion workloads.

:class:`DiffusionGraph` stores nodes as contiguous integers ``0..n-1`` and
keeps both out- and in-adjacency as sorted numpy arrays, because the hot
paths in this library are:

* the simulator compiling each node's out-neighbours into propagation rows,
* the inference algorithms comparing an inferred edge set against the truth,
* exporting a boolean adjacency matrix for vectorised scoring.

The class is deliberately *not* a general-purpose graph: no attributes, no
multi-edges, no node relabelling.  For anything richer, convert to
:mod:`networkx` via :meth:`DiffusionGraph.to_networkx`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import GraphError

__all__ = ["DiffusionGraph"]

Edge = tuple[int, int]


def _sorted_array(nodes: set[int]) -> np.ndarray:
    return np.fromiter(sorted(nodes), dtype=np.int64, count=len(nodes))


class DiffusionGraph:
    """An immutable-after-freeze directed graph on nodes ``0..n-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes; nodes are the integers ``0..n_nodes-1``.
    edges:
        Optional iterable of ``(source, target)`` pairs.  Duplicates are
        collapsed; self-loops raise :class:`~repro.exceptions.GraphError`.

    Examples
    --------
    >>> g = DiffusionGraph(3, [(0, 1), (1, 2)])
    >>> g.successors(0).tolist()
    [1]
    >>> g.has_edge(1, 2)
    True
    >>> g.n_edges
    2
    """

    __slots__ = ("_n", "_out", "_in", "_n_edges", "_frozen", "_out_arrays", "_in_arrays")

    def __init__(self, n_nodes: int, edges: Iterable[Edge] | None = None) -> None:
        if n_nodes < 0:
            raise GraphError(f"n_nodes must be non-negative, got {n_nodes}")
        self._n = int(n_nodes)
        self._out: list[set[int]] = [set() for _ in range(self._n)]
        self._in: list[set[int]] = [set() for _ in range(self._n)]
        self._n_edges = 0
        self._frozen = False
        self._out_arrays: list[np.ndarray] | None = None
        self._in_arrays: list[np.ndarray] | None = None
        if edges is not None:
            self.add_edges(edges)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, source: int, target: int) -> bool:
        """Insert a directed edge; return ``True`` if it was new."""
        if self._frozen:
            raise GraphError("graph is frozen; copy() it to modify")
        self._check_node(source)
        self._check_node(target)
        if source == target:
            raise GraphError(f"self-loop ({source}, {target}) is not allowed")
        if target in self._out[source]:
            return False
        self._out[source].add(target)
        self._in[target].add(source)
        self._n_edges += 1
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges; return the number actually added."""
        added = 0
        for source, target in edges:
            if self.add_edge(int(source), int(target)):
                added += 1
        return added

    def remove_edge(self, source: int, target: int) -> bool:
        """Remove a directed edge; return ``True`` if it existed."""
        if self._frozen:
            raise GraphError("graph is frozen; copy() it to modify")
        self._check_node(source)
        self._check_node(target)
        if target not in self._out[source]:
            return False
        self._out[source].discard(target)
        self._in[target].discard(source)
        self._n_edges -= 1
        return True

    def freeze(self) -> "DiffusionGraph":
        """Disallow further mutation.  Returns ``self`` for chaining.

        The sorted adjacency arrays behind :meth:`successors` /
        :meth:`predecessors` are built on the first such call, not here:
        most frozen graphs (every fit result) are never traversed.  The
        simulator walks them once, to compile its
        :class:`~repro.simulation.models.PropagationTable`.
        """
        self._frozen = True
        return self

    def copy(self) -> "DiffusionGraph":
        """Return an unfrozen deep copy."""
        clone = DiffusionGraph(self._n)
        for source in range(self._n):
            for target in self._out[source]:
                clone._out[source].add(target)
                clone._in[target].add(source)
        clone._n_edges = self._n_edges
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of directed edges."""
        return self._n_edges

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def nodes(self) -> range:
        """The node ids as a ``range`` object."""
        return range(self._n)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        self._check_node(source)
        self._check_node(target)
        return target in self._out[source]

    def successors(self, node: int) -> np.ndarray:
        """Out-neighbours of ``node`` as a sorted ``int64`` array."""
        self._check_node(node)
        if not self._frozen:
            return _sorted_array(self._out[node])
        arrays = self._out_arrays
        if arrays is None:
            # Built whole, then published by one assignment: a concurrent
            # reader sees either None or the complete list.
            arrays = self._out_arrays = [_sorted_array(s) for s in self._out]
        return arrays[node]

    def predecessors(self, node: int) -> np.ndarray:
        """In-neighbours (parents) of ``node`` as a sorted ``int64`` array."""
        self._check_node(node)
        if not self._frozen:
            return _sorted_array(self._in[node])
        arrays = self._in_arrays
        if arrays is None:
            arrays = self._in_arrays = [_sorted_array(s) for s in self._in]
        return arrays[node]

    def out_degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._in[node])

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all nodes."""
        return np.fromiter((len(s) for s in self._out), dtype=np.int64, count=self._n)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all nodes."""
        return np.fromiter((len(s) for s in self._in), dtype=np.int64, count=self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in (source, target) lexicographic order."""
        for source in range(self._n):
            for target in sorted(self._out[source]):
                yield (source, target)

    def edge_set(self) -> frozenset[Edge]:
        """The edge set as a frozenset of pairs (for metric computations)."""
        return frozenset(
            (source, target) for source in range(self._n) for target in self._out[source]
        )

    def edge_array(self) -> np.ndarray:
        """Edges as an ``(m, 2)`` int64 array in lexicographic order."""
        if self._n_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(list(self.edges()), dtype=np.int64)

    def adjacency_matrix(self, dtype: type = np.bool_) -> np.ndarray:
        """Dense ``(n, n)`` adjacency matrix, ``A[i, j] == 1`` iff edge i->j."""
        matrix = np.zeros((self._n, self._n), dtype=dtype)
        for source in range(self._n):
            targets = list(self._out[source])
            if targets:
                matrix[source, targets] = 1
        return matrix

    def reverse(self) -> "DiffusionGraph":
        """Graph with every edge direction flipped."""
        clone = DiffusionGraph(self._n)
        clone.add_edges((t, s) for s, t in self.edges())
        return clone

    def induced_subgraph(self, nodes: Iterable[int]) -> "DiffusionGraph":
        """Subgraph on the given nodes, relabelled to ``0..k-1``.

        Node ``nodes[i]`` becomes node ``i`` (matching
        :meth:`repro.simulation.statuses.StatusMatrix.select_nodes`, so a
        partially observed experiment can evaluate against the visible
        ground truth).  Only edges with both endpoints selected survive.
        """
        selected = list(dict.fromkeys(int(v) for v in nodes))
        for node in selected:
            self._check_node(node)
        relabel = {old: new for new, old in enumerate(selected)}
        subgraph = DiffusionGraph(len(selected))
        for source in selected:
            for target in self._out[source]:
                if target in relabel:
                    subgraph.add_edge(relabel[source], relabel[target])
        return subgraph

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (imported lazily)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self._n))
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph) -> "DiffusionGraph":
        """Build from any networkx graph whose nodes are ``0..n-1`` ints.

        Undirected inputs are converted to two directed edges per edge,
        which matches how the paper treats the undirected NetSci network.
        """
        nodes = sorted(graph.nodes())
        n = len(nodes)
        if nodes != list(range(n)):
            raise GraphError("nodes must be the contiguous integers 0..n-1; relabel first")
        result = cls(n)
        directed = graph.is_directed()
        for u, v in graph.edges():
            if u == v:
                continue
            result.add_edge(int(u), int(v))
            if not directed:
                result.add_edge(int(v), int(u))
        return result

    @classmethod
    def from_adjacency_matrix(cls, matrix: np.ndarray) -> "DiffusionGraph":
        """Build from a square (n, n) matrix; nonzero off-diagonals are edges."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphError(f"adjacency matrix must be square, got shape {matrix.shape}")
        n = matrix.shape[0]
        sources, targets = np.nonzero(matrix)
        graph = cls(n)
        for s, t in zip(sources.tolist(), targets.tolist()):
            if s != t:
                graph.add_edge(s, t)
        return graph

    # ------------------------------------------------------------------
    # dunders
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffusionGraph):
            return NotImplemented
        return self._n == other._n and self._out == other._out

    def __hash__(self) -> int:  # graphs are mutable until frozen; id-hash
        return id(self)

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "mutable"
        return f"DiffusionGraph(n_nodes={self._n}, n_edges={self._n_edges}, {state})"

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise GraphError(f"node {node} is out of range [0, {self._n})")
