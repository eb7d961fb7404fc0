"""Property suite for the tiled sufficient-statistics layer.

The tiled path is a pure re-blocking of the dense one: every count
tile is an integer popcount/matmul over a slice of the same statuses,
and the MI pipeline is elementwise per tile.  So for **any** history —
tile sizes that do not divide ``n``, all-zero rows, a single cascade,
masked pairs — the tiled joint counts, pairwise-complete counts, IMI
matrix, and checksum must be bit-identical to the dense ones, and a
sharded fit reassembled with :func:`merge_results` must reproduce the
full-fit fingerprint exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.stats import COUNT_KEYS, SufficientStats
from repro.core.tends import Tends, merge_results
from repro.core.tiles import TiledSufficientStats
from repro.simulation.statuses import StatusMatrix
from tests import oracle


@st.composite
def histories(draw, with_mask: bool, min_beta: int = 1):
    """A status history plus a tile size chosen independently of ``n``
    (so ragged edge blocks — ``n % tile_size != 0`` — are common)."""
    beta = draw(st.integers(min_beta, 20))
    n = draw(st.integers(2, 9))
    data = draw(
        arrays(dtype=np.uint8, shape=(beta, n), elements=st.integers(0, 1))
    )
    mask = None
    if with_mask:
        mask = draw(
            arrays(dtype=np.bool_, shape=(beta, n), elements=st.booleans())
        )
    tile_size = draw(st.integers(1, n + 2))
    return StatusMatrix(data, mask), tile_size


@st.composite
def sharded_histories(draw):
    """A history plus a partition of its nodes into 1–3 shards."""
    statuses, tile_size = draw(histories(with_mask=False, min_beta=3))
    n = statuses.n_nodes
    n_shards = draw(st.integers(1, min(3, n)))
    owners = draw(
        st.lists(
            st.integers(0, n_shards - 1), min_size=n, max_size=n
        )
    )
    shards = [
        [node for node, owner in enumerate(owners) if owner == shard]
        for shard in range(n_shards)
    ]
    shards = [shard for shard in shards if shard]
    return statuses, tile_size, shards


def _assert_counts_identical(statuses, tile_size):
    """Tiled counts equal both the numpy oracle and the dense path;
    returns the tiled statistics."""
    reference = oracle.pairwise_complete_counts(statuses)
    dense = SufficientStats.from_statuses(statuses)
    tiled = TiledSufficientStats.from_statuses(statuses, tile_size=tile_size)
    for key in COUNT_KEYS:
        assert np.array_equal(tiled.count_matrix(key), reference[key]), key
        assert np.array_equal(dense.counts[key], reference[key]), key
    return tiled


@given(history=histories(with_mask=False))
@settings(max_examples=60, deadline=None)
def test_counts_identical_unmasked(history):
    statuses, tile_size = history
    _assert_counts_identical(statuses, tile_size)


@given(history=histories(with_mask=True))
@settings(max_examples=60, deadline=None)
def test_counts_identical_masked(history):
    statuses, tile_size = history
    _assert_counts_identical(statuses, tile_size)


@given(beta=st.integers(1, 20), n=st.integers(2, 9), tile_size=st.integers(1, 11))
@settings(max_examples=30, deadline=None)
def test_all_zero_history_counts(beta, n, tile_size):
    """Nothing ever infected: n00 == obs == beta everywhere, the rest 0."""
    statuses = StatusMatrix(np.zeros((beta, n), dtype=np.uint8))
    tiled = _assert_counts_identical(statuses, tile_size)
    assert np.all(tiled.count_matrix("00") == beta)
    assert np.all(tiled.count_matrix("11") == 0)


@given(history=histories(with_mask=False, min_beta=1))
@settings(max_examples=30, deadline=None)
def test_single_cascade_counts(history):
    """One process is the smallest legal counting input (fit needs two,
    counting does not): still bit-identical."""
    statuses, tile_size = history
    single = statuses.subset(range(1))
    _assert_counts_identical(single, tile_size)


@given(history=histories(with_mask=True, min_beta=2))
@settings(max_examples=25, deadline=None)
def test_stats_mi_and_checksum_identical(history, tmp_path_factory):
    statuses, tile_size = history
    spill = tmp_path_factory.mktemp("spill")
    dense = SufficientStats.from_statuses(statuses)
    tiled = TiledSufficientStats.from_statuses(
        statuses, tile_size=tile_size, spill_dir=spill
    )
    for kind in ("infection", "traditional"):
        assert np.array_equal(
            np.asarray(tiled.mi_matrix(kind)), dense.mi_matrix(kind)
        ), kind
    assert tiled.checksum() == dense.checksum()
    for key in COUNT_KEYS:
        assert np.array_equal(tiled.count_matrix(key), dense.counts[key]), key


@given(history=histories(with_mask=False, min_beta=4))
@settings(max_examples=20, deadline=None)
def test_tiled_update_equals_dense_update(history, tmp_path_factory):
    """Copy-on-write generation roll: counting a prefix then absorbing
    the rest tiled matches dense one-shot counting bit for bit."""
    statuses, tile_size = history
    spill = tmp_path_factory.mktemp("spill")
    cut = statuses.beta // 2
    tiled = TiledSufficientStats.from_statuses(
        statuses.subset(range(cut)), tile_size=tile_size, spill_dir=spill
    ).updated(statuses.subset(range(cut, statuses.beta)))
    assert tiled.checksum() == SufficientStats.from_statuses(statuses).checksum()


@given(history=histories(with_mask=True, min_beta=2))
@settings(max_examples=15, deadline=None)
def test_tiled_fit_fingerprint_identical(history, tmp_path_factory):
    statuses, tile_size = history
    spill = tmp_path_factory.mktemp("spill")
    dense = Tends(audit="ignore").fit(statuses)
    tiled = Tends(
        audit="ignore", tile_size=tile_size, spill_dir=str(spill)
    ).fit(statuses)
    assert tiled.fingerprint() == dense.fingerprint()
    assert tiled.parent_sets == dense.parent_sets


@given(sharded=sharded_histories())
@settings(max_examples=20, deadline=None)
def test_shard_fit_merge_round_trips_fingerprint(sharded):
    statuses, _, shards = sharded
    full = Tends(audit="ignore").fit(statuses)
    results = [
        Tends(audit="ignore").fit(statuses, nodes=shard) for shard in shards
    ]
    merged = merge_results(results)
    assert merged.fingerprint() == full.fingerprint()
    assert merged.parent_sets == full.parent_sets
    assert np.array_equal(
        np.asarray(merged.mi_matrix), np.asarray(full.mi_matrix)
    )
    assert merged.threshold == full.threshold
