"""Property suite for the tiled sufficient-statistics layer.

The tiled path is a pure re-blocking of the dense one: every count
tile is an integer popcount/matmul over a slice of the same statuses,
and the MI pipeline is elementwise per tile.  So for **any** history —
tile sizes that do not divide ``n``, all-zero rows, a single cascade,
masked pairs — the tiled joint counts, pairwise-complete counts, IMI
matrix, and checksum must be bit-identical to the dense ones, and a
sharded fit reassembled with :func:`merge_results` must reproduce the
full-fit fingerprint exactly.

Tiles store only their independent count planes and rebuild the rest
on read, an update may switch that layout (an unmasked history
absorbing a masked batch, or the reverse), off-diagonal IMI tiles are
written as mirrors of their upper partners, and the MI pass collects
the threshold's sample as it goes; each of these is held bit-identical
to the dense statistics here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kmeans import fixed_zero_two_means
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


@st.composite
def transitions(draw, masked_base: bool):
    """A base history and a batch of which exactly one carries missing
    entries (the base when ``masked_base``), plus a tile size."""
    n = draw(st.integers(2, 9))
    parts = []
    for masked in (masked_base, not masked_base):
        beta = draw(st.integers(1, 12))
        data = draw(
            arrays(dtype=np.uint8, shape=(beta, n), elements=st.integers(0, 1))
        )
        mask = None
        if masked:
            mask = draw(
                arrays(dtype=np.bool_, shape=(beta, n), elements=st.booleans())
            )
            mask[draw(st.integers(0, beta - 1)), draw(st.integers(0, n - 1))] = False
        parts.append(StatusMatrix(data, mask))
    base, batch = parts
    return base, batch, draw(st.integers(1, n + 2))


def _assert_stats_identical(tiled, dense):
    """Checksum, every count plane and both MI matrices, byte for byte."""
    assert tiled.has_missing == dense.has_missing
    assert tiled.checksum() == dense.checksum()
    for key in COUNT_KEYS:
        assert np.array_equal(tiled.count_matrix(key), dense.count_matrix(key)), key
    for kind in ("infection", "traditional"):
        assert (
            np.asarray(tiled.mi_matrix(kind)).tobytes()
            == dense.mi_matrix(kind).tobytes()
        ), kind


def _assert_counts_identical(statuses, tile_size):
    """Tiled counts equal both the numpy oracle and the dense path;
    returns the tiled statistics."""
    reference = oracle.pairwise_complete_counts(statuses)
    dense = SufficientStats.from_statuses(statuses)
    tiled = TiledSufficientStats.from_statuses(statuses, tile_size=tile_size)
    for key in COUNT_KEYS:
        assert np.array_equal(tiled.count_matrix(key), reference[key]), key
        assert np.array_equal(dense.count_matrix(key), reference[key]), key
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
        assert np.array_equal(tiled.count_matrix(key), dense.count_matrix(key)), key


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


@given(history=transitions(masked_base=False))
@settings(max_examples=25, deadline=None)
def test_update_unmasked_history_with_masked_batch(history, tmp_path_factory):
    """The new generation switches from the one-plane to the four-plane
    layout; its sums still equal the dense update's."""
    base, batch, tile_size = history
    spill = tmp_path_factory.mktemp("spill")
    tiled = TiledSufficientStats.from_statuses(
        base, tile_size=tile_size, spill_dir=spill
    ).updated(batch)
    assert tiled.has_missing
    _assert_stats_identical(tiled, SufficientStats.from_statuses(base).updated(batch))


@given(history=transitions(masked_base=True))
@settings(max_examples=25, deadline=None)
def test_update_masked_history_with_unmasked_batch(history, tmp_path_factory):
    base, batch, tile_size = history
    spill = tmp_path_factory.mktemp("spill")
    tiled = TiledSufficientStats.from_statuses(
        base, tile_size=tile_size, spill_dir=spill
    ).updated(batch)
    assert tiled.has_missing
    _assert_stats_identical(tiled, SufficientStats.from_statuses(base).updated(batch))


@given(
    n=st.integers(3, 40),
    beta=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    masked=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_mirrored_off_diagonal_mi_bytes(n, beta, seed, masked, data, tmp_path_factory):
    """Tile sizes below n, so off-diagonal tiles (and their mirrors)
    exist: both MI kinds equal the dense matrices byte for byte.  The
    statuses are drawn from a seed at sizes where the float sums of the
    terms round differently when their order changes."""
    rng = np.random.default_rng(seed)
    values = (rng.random((beta, n)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
    mask = rng.random((beta, n)) > 0.2 if masked else None
    statuses = StatusMatrix(values, mask)
    tile_size = data.draw(st.integers(1, n - 1))
    spill = tmp_path_factory.mktemp("spill")
    tiled = TiledSufficientStats.from_statuses(
        statuses, tile_size=tile_size, spill_dir=spill
    )
    dense = SufficientStats.from_statuses(statuses)
    for kind in ("infection", "traditional"):
        assert (
            np.asarray(tiled.mi_matrix(kind)).tobytes()
            == dense.mi_matrix(kind).tobytes()
        ), kind


@given(
    history=histories(with_mask=True, min_beta=2),
    kind=st.sampled_from(["infection", "traditional"]),
)
@settings(max_examples=30, deadline=None)
def test_collected_sample_and_tau_equal_the_band_scan(history, kind, tmp_path_factory):
    """The sample the MI passes collect is the old scan's, value for
    value and in order (in one band or many), so τ is too."""
    statuses, tile_size = history
    spill = tmp_path_factory.mktemp("spill")
    dense = SufficientStats.from_statuses(statuses)
    tiled = TiledSufficientStats.from_statuses(
        statuses, tile_size=tile_size, spill_dir=spill
    )
    for stats in (dense, tiled):
        sample = []
        mi = stats.mi_matrix(kind, sample)
        collected = np.concatenate(sample)
        for band_bytes in (8, 8 * 1024 * 1024):
            scanned = oracle.threshold_sample(mi, band_bytes)
            assert collected.tobytes() == scanned.tobytes()
    expected = fixed_zero_two_means(oracle.threshold_sample(dense.mi_matrix(kind)))
    for config in ({}, {"tile_size": tile_size, "spill_dir": str(spill / "fit")}):
        result = Tends(audit="ignore", mi_kind=kind, **config).fit(statuses)
        assert repr(result.threshold) == repr(expected.threshold)
