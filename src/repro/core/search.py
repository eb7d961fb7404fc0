"""Greedy parent-set search (paper §IV-A and Algorithm 1, lines 6–20).

Given node ``v_i``'s pruned candidate set ``P_i``, the search grows a
parent set ``F_i`` that (locally) maximises the score ``g(v_i, F_i)``
subject to the Theorem-2 size bound ``|F_i| ≤ log2(φ_{F_i} + δ_i)``.

Two strategies are implemented (see DESIGN.md §1 for why both exist):

``greedy-rescoring``
    The procedure described in the paper's prose: starting from ``F_i = ∅``
    (whose score is Eq. 18), repeatedly evaluate every combination
    ``W ⊆ P_i \\ F_i`` with ``|W| ≤ max_combination_size``, pick the one
    whose union with ``F_i`` yields the highest score, and accept it only
    if it strictly improves on the current score and respects the bound.

``ranked-union``
    The literal Algorithm 1: score each combination **once** against the
    empty set, sort descending, and union combinations into ``F_i`` in
    that order while the bound admits them.

Both run in ``O(iterations · |combinations| · β · |F_i|)`` per node; the
pruning stage is what keeps ``|P_i|`` (the paper's ``κ``) small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import TendsConfig
from repro.core.kernels import PackedStatuses
from repro.core.scoring import (
    FamilyCounts,
    delta_i,
    family_counts,
    log_likelihood,
    penalty,
    size_bound,
)
from repro.obs.trace import current_tracer
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "ParentSearch",
    "SearchDiagnostics",
    "MAX_PARENT_SET_SIZE",
    "prune_candidates",
    "search_chunk",
]

#: Hard cap on |F_i|.  Theorem 2's bound |F| <= log2(phi + delta) is
#: self-satisfying once 2^|F| dwarfs beta (phi ~ 2^|F|), so on weak-signal
#: inputs the literal Algorithm-1 strategy would otherwise grow parent
#: sets without limit; 62 is the bit-packing limit of the contingency
#: counter and far beyond any statistically meaningful parent set.
MAX_PARENT_SET_SIZE = 62


@dataclass
class SearchDiagnostics:
    """Per-node bookkeeping from one parent search.

    Attributes
    ----------
    node:
        The child node searched for.
    n_candidates:
        ``|P_i|`` after pruning.
    n_evaluations:
        Number of (family-counts + score) evaluations performed.
    iterations:
        Greedy acceptance rounds (``greedy-rescoring``) or union steps
        attempted (``ranked-union``).
    final_score:
        ``g(v_i, F_i)`` of the returned parent set.
    empty_score:
        ``g(v_i, ∅)`` baseline.
    bound_hits:
        How many candidate extensions were rejected by the Theorem-2 bound.
    """

    node: int
    n_candidates: int = 0
    n_evaluations: int = 0
    iterations: int = 0
    final_score: float = 0.0
    empty_score: float = 0.0
    bound_hits: int = 0


def prune_candidates(
    mi: np.ndarray,
    node: int,
    threshold: float,
    config: TendsConfig,
    stable_pairs: np.ndarray | None = None,
) -> list[int]:
    """``P_i``: nodes whose MI with ``node`` strictly exceeds ``τ``,
    optionally capped to the strongest ``max_candidates``.  In stable
    mode, candidates must additionally have their bootstrap-CI lower
    bound above ``τ`` (``stable_pairs`` row).

    Module-level (rather than a :class:`~repro.core.tends.Tends` method)
    so the incremental engine can diff candidate sets against a previous
    fit through the exact same code path that produced them.
    """
    row = mi[node]
    above = row > threshold
    if stable_pairs is not None:
        above &= stable_pairs[node]
    candidates = np.nonzero(above)[0]
    candidates = candidates[candidates != node]
    cap = config.max_candidates
    if cap is not None and candidates.size > cap:
        # Stable sort on the negated MI: equal-MI candidates keep their
        # ascending-index order, so the cap is deterministic across
        # numpy versions (plain argsort[::-1] reverses tie order and
        # the default introsort is not even stable to begin with).
        order = np.argsort(-row[candidates], kind="stable")
        candidates = candidates[order[:cap]]
    return sorted(int(c) for c in candidates)


def search_chunk(
    search: "ParentSearch",
    items: Sequence[tuple[int, Sequence[int]]],
) -> list[tuple[list[int], SearchDiagnostics]]:
    """Run :meth:`ParentSearch.find_parents` over a chunk of
    ``(node, candidates)`` pairs, preserving their order.

    Module-level so the process execution backend can ship it to workers
    by reference (see :mod:`repro.core.executor`); the ``search`` context
    travels once per worker, the chunks once per task.

    On a traced run (the executor installs an ambient tracer in its
    worker wrappers — see :func:`repro.obs.trace.current_tracer`) each
    node's search records a ``search.node`` span; untraced runs hit the
    shared null tracer, whose span is a do-nothing context manager.
    """
    tracer = current_tracer()
    results: list[tuple[list[int], SearchDiagnostics]] = []
    for node, candidates in items:
        with tracer.span(
            "search.node", node=node, candidates=len(candidates)
        ) as span:
            parents, diag = search.find_parents(node, candidates)
            span.set(
                n_parents=len(parents),
                evaluations=diag.n_evaluations,
                iterations=diag.iterations,
            )
        results.append((parents, diag))
    return results


class ParentSearch:
    """Search for the most probable parent set of each node.

    Instances are picklable (the status matrix plus the frozen config),
    which is what lets the process execution backend share one search
    object per worker instead of re-serialising it per node.

    Parameters
    ----------
    statuses:
        Observed final infection statuses.
    config:
        TENDS configuration (strategy, combination size, improvement gate).
    """

    def __init__(self, statuses: StatusMatrix, config: TendsConfig) -> None:
        self.statuses = statuses
        self.config = config
        # Lazy bit-packed cache for the contingency kernel; built on
        # first use so serial fits that never score pay nothing, and
        # dropped from pickles so workers re-pack locally (see
        # __getstate__) instead of shipping the words over the wire.
        self._packed: PackedStatuses | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_packed"] = None
        return state

    def _family_counts(self, node: int, parents: Sequence[int]) -> FamilyCounts:
        """Contingency counts over the cached bit-packed statuses."""
        if self._packed is None:
            self._packed = PackedStatuses.from_statuses(self.statuses)
        return family_counts(self.statuses, node, parents, packed=self._packed)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def find_parents(
        self, node: int, candidates: Sequence[int]
    ) -> tuple[list[int], SearchDiagnostics]:
        """Return ``(parent_list, diagnostics)`` for one child node."""
        diag = SearchDiagnostics(node=node, n_candidates=len(candidates))
        pool = [int(c) for c in candidates if int(c) != node]
        diag.empty_score = self._score(node, [], diag)
        if not pool:
            diag.final_score = diag.empty_score
            return [], diag
        delta = delta_i(self.statuses, node)
        if self.config.search_strategy == "ranked-union":
            parents = self._ranked_union(node, pool, delta, diag)
        else:
            parents = self._greedy_rescoring(node, pool, delta, diag)
        return parents, diag

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def _greedy_rescoring(
        self,
        node: int,
        pool: list[int],
        delta: float,
        diag: SearchDiagnostics,
    ) -> list[int]:
        current_parents: list[int] = []
        current_score = diag.empty_score
        available = set(pool)
        while available:
            best_combo: tuple[int, ...] | None = None
            best_score = -np.inf
            for combo in self._combinations(sorted(available)):
                trial = current_parents + list(combo)
                if len(trial) > MAX_PARENT_SET_SIZE:
                    diag.bound_hits += 1
                    continue
                counts = self._family_counts(node, trial)
                diag.n_evaluations += 1
                if len(trial) > size_bound(counts.phi, delta):
                    diag.bound_hits += 1
                    continue
                score = log_likelihood(counts) - penalty(counts)
                if score > best_score:
                    best_score = score
                    best_combo = combo
            if best_combo is None:
                break
            if best_score <= current_score + self.config.min_improvement:
                break
            diag.iterations += 1
            current_parents.extend(best_combo)
            current_score = best_score
            available.difference_update(best_combo)
        diag.final_score = current_score
        return sorted(current_parents)

    def _ranked_union(
        self,
        node: int,
        pool: list[int],
        delta: float,
        diag: SearchDiagnostics,
    ) -> list[int]:
        scored: list[tuple[float, tuple[int, ...]]] = []
        for combo in self._combinations(pool):
            counts = self._family_counts(node, list(combo))
            diag.n_evaluations += 1
            if len(combo) > size_bound(counts.phi, delta):
                diag.bound_hits += 1
                continue
            score = log_likelihood(counts) - penalty(counts)
            scored.append((score, combo))
        scored.sort(key=lambda item: (-item[0], item[1]))

        parents: set[int] = set()
        for score, combo in scored:
            union = parents | set(combo)
            if union == parents:
                continue
            if len(union) > MAX_PARENT_SET_SIZE:
                diag.bound_hits += 1
                continue
            diag.iterations += 1
            counts = self._family_counts(node, sorted(union))
            diag.n_evaluations += 1
            if len(union) > size_bound(counts.phi, delta):
                diag.bound_hits += 1
                continue
            parents = union
        result = sorted(parents)
        diag.final_score = self._score(node, result, diag)
        return result

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _combinations(self, pool: Sequence[int]) -> Iterable[tuple[int, ...]]:
        """All combinations of ``pool`` up to the configured size."""
        top = min(self.config.max_combination_size, len(pool))
        for size in range(1, top + 1):
            yield from combinations(pool, size)

    def _score(self, node: int, parents: list[int], diag: SearchDiagnostics) -> float:
        counts = self._family_counts(node, parents)
        diag.n_evaluations += 1
        return log_likelihood(counts) - penalty(counts)
