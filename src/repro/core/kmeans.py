"""Modified 2-means with one centroid pinned at zero (Algorithm 1, line 5).

TENDS needs a data-driven threshold ``τ`` separating the "essentially
uncorrelated" IMI values (a dense cluster hugging 0) from the significant
positive ones.  The paper runs K-means with ``K = 2`` where one mean is
*fixed at 0 through all iterations*; ``τ`` is the largest value assigned to
the zero cluster.

With one centroid frozen, each iteration reduces to: assign every value to
whichever of {0, c} is closer (i.e. values below ``c / 2`` go to the zero
cluster), then recompute ``c`` as the mean of its cluster.  This is a
monotone fixed-point iteration on a sorted array, so it converges in a
handful of steps.

>>> import numpy as np
>>> values = np.array([0.01, 0.02, 0.015, 0.5, 0.55, 0.6])
>>> result = fixed_zero_two_means(values)
>>> result.threshold
0.02
>>> result.n_upper_cluster
3
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError

__all__ = ["TwoMeansResult", "fixed_zero_two_means"]


@dataclass(frozen=True)
class TwoMeansResult:
    """Outcome of the fixed-zero 2-means clustering.

    Attributes
    ----------
    threshold:
        ``τ`` — the largest value in the zero cluster (0.0 when that
        cluster is empty, meaning nothing gets pruned).
    upper_centroid:
        Final position of the free centroid.
    n_zero_cluster / n_upper_cluster:
        Cluster sizes.
    iterations:
        Number of update iterations until the assignment stabilised.
    """

    threshold: float
    upper_centroid: float
    n_zero_cluster: int
    n_upper_cluster: int
    iterations: int


def fixed_zero_two_means(
    values: np.ndarray,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-12,
    overwrite_input: bool = False,
) -> TwoMeansResult:
    """Cluster non-negative 1-D ``values`` into {near-zero, significant}.

    Parameters
    ----------
    values:
        Non-negative observations (negative entries are a caller bug and
        raise :class:`~repro.exceptions.DataError`; the TENDS pipeline
        removes negative IMI values before calling this).
    max_iterations:
        Iteration cap; convergence typically takes < 10 iterations.
    tolerance:
        Centroid-movement threshold for declaring convergence, and the
        spread, relative to the largest value, below which the values
        count as all equal.
    overwrite_input:
        As in :func:`numpy.median`: when true, ``values`` may be sorted
        in place instead of copied (it is when it is a contiguous 1-D
        float64 array), saving a copy the size of the input.  The result
        is the same either way; with the default ``False`` the input is
        left untouched.

    Returns
    -------
    TwoMeansResult
        With ``threshold`` = the largest value in the zero cluster.

    Notes
    -----
    Degenerate inputs are handled explicitly: an empty array or an
    all-equal array yields ``threshold = 0`` and puts everything in the
    upper cluster, so that pruning never removes *all* candidates merely
    because the values are uniform.
    """
    data = np.asarray(values, dtype=np.float64).ravel()
    if data.size and float(data.min()) < 0:
        raise DataError("fixed_zero_two_means expects non-negative values")
    if data.size == 0:
        return TwoMeansResult(0.0, 0.0, 0, 0, 0)
    # Relative, so that scaling the values never turns a split into a
    # degenerate input or back: the clustering is shape-based.
    largest = float(data.max())
    if largest - float(data.min()) <= tolerance * largest:
        # No structure to split: treat every value as significant.
        return TwoMeansResult(0.0, float(data.mean()), 0, int(data.size), 0)

    if overwrite_input:
        data.sort()
        ordered = data
    else:
        ordered = np.sort(data)
    centroid = float(ordered[-1])  # free centroid starts at the max
    boundary_index = -1
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # Values below centroid/2 are closer to 0 than to the centroid.
        split = centroid / 2.0
        new_boundary = int(np.searchsorted(ordered, split, side="right"))
        upper = ordered[new_boundary:]
        if upper.size == 0:
            # Centroid collapsed past every point; everything is "zero".
            boundary_index = ordered.size
            break
        new_centroid = float(upper.mean())
        moved = abs(new_centroid - centroid)
        centroid = new_centroid
        if new_boundary == boundary_index and moved <= tolerance:
            break
        boundary_index = new_boundary

    n_zero = boundary_index if boundary_index >= 0 else 0
    n_zero = min(max(n_zero, 0), ordered.size)
    threshold = float(ordered[n_zero - 1]) if n_zero > 0 else 0.0
    return TwoMeansResult(
        threshold=threshold,
        upper_centroid=centroid,
        n_zero_cluster=n_zero,
        n_upper_cluster=int(ordered.size - n_zero),
        iterations=iterations,
    )
