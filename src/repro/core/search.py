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

Candidates are scored in batches.  A node's search holds the current
parent set's *pattern tree*: its family-complete processes split into
one bit-packed word row per observed parent pattern, in ascending code
order.  Every remaining combination of one size refines that tree by
its columns (:func:`~repro.core.kernels.refine_patterns`), one popcount
pass counts all of them, and :func:`~repro.core.scoring.batch_scores`
turns the counts into Eq. 13 scores that equal the scalar
``log_likelihood − penalty`` bit for bit.  The accepted combination's
rows become the next iteration's tree, so no tree is rebuilt.  An
iteration costs ``O(|combinations| · R · 2^η · β / 64)`` word operations
for ``R ≤ min(2^{|F_i|}, β)`` observed patterns, in a fixed number of
numpy calls per combination size rather than per candidate; the
pruning stage is what keeps ``|P_i|`` (the paper's ``κ``) small.  A
tree keeps only its observed rows after every level, so it stays at
most ``β`` rows for any parent-set width up to
:data:`MAX_PARENT_SET_SIZE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.config import TendsConfig
from repro.core.kernels import (
    PackedStatuses,
    packed_pattern_counts,
    packed_split_words,
    refine_patterns,
)
from repro.core.scoring import batch_scores, delta_i, size_bound

# Not called here: the search scores through batch_scores alone.  The
# one-family scorers stay importable from this module because the
# benchmark's layer tracer (benchmarks/e2e/trace.py) wraps them here.
from repro.core.scoring import family_counts, log_likelihood, penalty  # noqa: F401
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

#: Word budget of one scoring batch's pattern rows (uint64 words, so
#: 2 MiB of scratch); larger combination sets are scored in chunks.
_BATCH_WORD_BUDGET = 1 << 18


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
        Number of candidate families scored — one per family, whether
        it was scored in a batch or on its own.
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
        # Lazy bit-packed cache (statuses plus each node's zeros/ones
        # split words); built on first use so serial fits that never
        # score pay nothing, and dropped from pickles so workers re-pack
        # locally (see __getstate__) instead of shipping the words over
        # the wire.
        self._packed: PackedStatuses | None = None
        self._split: tuple[np.ndarray, np.ndarray] | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_packed"] = None
        state["_split"] = None
        return state

    def _split_words(self) -> tuple[np.ndarray, np.ndarray]:
        if self._split is None:
            self._packed = PackedStatuses.from_statuses(self.statuses)
            self._split = packed_split_words(self._packed)
        return self._split

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
        tree = self._tree(node, current_parents)
        available = sorted(set(pool))
        while available:
            best_combo: tuple[int, ...] | None = None
            best_score = -np.inf
            best_tree = tree
            top = min(self.config.max_combination_size, len(available))
            for size in range(1, top + 1):
                combos = list(combinations(available, size))
                if len(current_parents) + size > MAX_PARENT_SET_SIZE:
                    diag.bound_hits += len(combos)
                    continue
                for block, scores, allowed, rows in self._rate(
                    node, current_parents, tree, combos, delta, diag
                ):
                    # First maximum in candidate order wins, as in a
                    # one-at-a-time loop with a strict comparison.
                    ranked = np.where(allowed, scores, -np.inf)
                    index = int(np.argmax(ranked))
                    if allowed[index] and ranked[index] > best_score:
                        best_score = float(ranked[index])
                        best_combo = block[index]
                        best_tree = _observed(rows[index])
            if best_combo is None:
                break
            if best_score <= current_score + self.config.min_improvement:
                break
            diag.iterations += 1
            current_parents.extend(best_combo)
            current_score = best_score
            tree = best_tree
            available = [c for c in available if c not in best_combo]
        diag.final_score = current_score
        return sorted(current_parents)

    def _ranked_union(
        self,
        node: int,
        pool: list[int],
        delta: float,
        diag: SearchDiagnostics,
    ) -> list[int]:
        root = self._tree(node, [])
        scored: list[tuple[float, tuple[int, ...]]] = []
        for size in range(1, min(self.config.max_combination_size, len(pool)) + 1):
            for block, scores, allowed, _ in self._rate(
                node, [], root, list(combinations(pool, size)), delta, diag
            ):
                scored.extend(
                    (score, combo)
                    for score, combo, ok in zip(scores.tolist(), block, allowed)
                    if ok
                )
        scored.sort(key=lambda item: (-item[0], item[1]))

        # A union step only checks the bound, which needs the union's
        # observed-pattern count; that count does not depend on parent
        # order, so each step refines the accepted set's tree by the
        # combination's new members alone.
        parents: list[int] = []
        tree = root
        for _, combo in scored:
            added = [c for c in dict.fromkeys(combo) if c not in parents]
            if not added:
                continue
            width = len(parents) + len(added)
            if width > MAX_PARENT_SET_SIZE:
                diag.bound_hits += 1
                continue
            diag.iterations += 1
            diag.n_evaluations += 1
            grown = self._grow(tree, added)
            if _within_bound(width, [grown.shape[0]], delta, diag)[0]:
                parents.extend(added)
                tree = grown
        result = sorted(parents)
        diag.final_score = self._score(node, result, diag)
        return result

    # ------------------------------------------------------------------
    # batch scorer
    # ------------------------------------------------------------------
    def _grow(self, tree: np.ndarray, parents: Iterable[int]) -> np.ndarray:
        """``tree`` refined by each of ``parents`` in turn, dropping empty
        rows after every level so it never exceeds ``β`` rows."""
        zeros, ones = self._split_words()
        for parent in parents:
            tree = _observed(refine_patterns(tree, zeros[parent], ones[parent]))
        return tree

    def _tree(self, node: int, parents: Sequence[int]) -> np.ndarray:
        """The observed pattern rows ``(R, W)`` of the family ``(node,
        parents)``, first parent least significant."""
        zeros, ones = self._split_words()
        return self._grow(_observed((zeros[node] | ones[node])[None, :]), parents)

    def _rate(
        self,
        node: int,
        parents: list[int],
        tree: np.ndarray,
        combos: list[tuple[int, ...]],
        delta: float,
        diag: SearchDiagnostics,
    ) -> Iterator[tuple[list[tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray]]:
        """Score every family ``parents + combo`` for ``combos`` of one size.

        Yields ``(combos, scores, allowed, rows)`` per chunk, in candidate
        order: ``allowed`` marks the families within the Theorem-2 bound,
        and ``rows`` are their ``(C, P, W)`` pattern rows (``tree``
        refined by each combination).  Counts every family as one
        evaluation and every family outside the bound as one bound hit.
        """
        width = len(parents) + len(combos[0])
        diag.n_evaluations += len(combos)
        zeros, ones = self._split_words()
        child = self._packed.ones[node]
        columns = np.array(combos, dtype=np.intp)
        row_words = max(1, tree.size) << columns.shape[1]
        chunk = max(1, _BATCH_WORD_BUDGET // row_words)
        for start in range(0, len(combos), chunk):
            # One level per combination member, each candidate's tree
            # split by its own column.
            rows = tree[None]
            for column in columns[start : start + chunk].T:
                rows = refine_patterns(rows, zeros[column], ones[column])
            scores, n_observed = batch_scores(*packed_pattern_counts(rows, child))
            allowed = _within_bound(width, n_observed.tolist(), delta, diag)
            yield combos[start : start + chunk], scores, allowed, rows

    def _score(self, node: int, parents: list[int], diag: SearchDiagnostics) -> float:
        """``g(node, parents)`` of one family, as one evaluation."""
        diag.n_evaluations += 1
        tree = self._tree(node, parents)
        counts = packed_pattern_counts(tree[None], self._packed.ones[node])
        return float(batch_scores(*counts)[0][0])


def _observed(rows: np.ndarray) -> np.ndarray:
    """The pattern rows with at least one process — a family's tree."""
    return rows[rows.any(axis=-1)]


def _within_bound(
    width: int, n_observed: list[int], delta: float, diag: SearchDiagnostics
) -> np.ndarray:
    """Which families of ``width`` parents satisfy the Theorem-2 bound,
    given each one's observed-pattern count; counts the bound hits."""
    possible = 1 << width
    allowed = np.array(
        [width <= size_bound(possible - k, delta) for k in n_observed], dtype=bool
    )
    diag.bound_hits += int(allowed.size - np.count_nonzero(allowed))
    return allowed
