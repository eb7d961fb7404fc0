"""Unit tests for the tiled sufficient-statistics layer (repro.core.tiles).

Grid geometry, crash-atomic tile files + CRC validation, the LRU tile
store with mirrored lower-triangle reads, dense-path parity of the
tiled counts / IMI / checksum, checkpoint resume, copy-on-write update
generations, and the TendsConfig / Tends wiring.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.core.config import TendsConfig
from repro.core.stats import COUNT_KEYS, SufficientStats
from repro.core.tends import Tends, TendsModel, merge_results
from repro.core.tiles import (
    DEFAULT_MAX_RESIDENT_TILES,
    STACK_KEYS,
    TileGrid,
    TileStore,
    TiledSufficientStats,
    read_tile,
    tiled_batch_counts,
    validate_tile,
    write_tile,
)
from repro.exceptions import ConfigurationError, DataError, InferenceError
from repro.graphs.generators.random_graphs import erdos_renyi_digraph
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.statuses import StatusMatrix
from tests import oracle


def _observations(n=19, beta=70, seed=7, masked=False) -> StatusMatrix:
    truth = erdos_renyi_digraph(n, 0.12, seed=seed)
    statuses = DiffusionSimulator(truth, seed=seed).run(beta=beta).statuses
    if not masked:
        return statuses
    rng = np.random.default_rng(seed)
    mask = rng.random(statuses.values.shape) > 0.2
    return StatusMatrix(statuses.values, mask)


class TestStackKeys:
    def test_matches_canonical_count_key_order(self):
        # tiles duplicates the tuple to stay import-cycle-free; the
        # serialisation order must never drift.
        assert STACK_KEYS == COUNT_KEYS


class TestTileGrid:
    def test_block_count_and_ragged_edge(self):
        grid = TileGrid(n_nodes=10, tile_size=4)
        assert grid.n_blocks == 3
        assert grid.span(0) == (0, 4)
        assert grid.span(2) == (8, 10)
        assert grid.block_shape(2, 2) == (2, 2)
        assert grid.block_shape(0, 2) == (4, 2)

    def test_blocks_cover_exactly_the_upper_triangle(self):
        grid = TileGrid(n_nodes=10, tile_size=4)
        blocks = grid.blocks()
        assert blocks == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def test_tile_size_larger_than_n_is_one_block(self):
        grid = TileGrid(n_nodes=3, tile_size=100)
        assert grid.n_blocks == 1
        assert grid.span(0) == (0, 3)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(DataError):
            TileGrid(n_nodes=0, tile_size=4)
        with pytest.raises(DataError):
            TileGrid(n_nodes=4, tile_size=0)
        with pytest.raises(DataError):
            TileGrid(n_nodes=4, tile_size=2).span(2)


class TestTileFiles:
    def test_round_trip_and_crc(self, tmp_path):
        stack = np.arange(5 * 3 * 2, dtype=np.int64).reshape(5, 3, 2)
        crc = write_tile(tmp_path, (0, 1), stack)
        assert isinstance(crc, int)
        assert validate_tile(tmp_path, (0, 1), (5, 3, 2))
        back = read_tile(tmp_path, (0, 1), (5, 3, 2))
        assert np.array_equal(back, stack)

    def test_corruption_detected(self, tmp_path):
        stack = np.ones((5, 2, 2), dtype=np.int64)
        write_tile(tmp_path, (0, 0), stack)
        tile = tmp_path / "tile-00000-00000.npy"
        payload = bytearray(tile.read_bytes())
        payload[-1] ^= 0xFF  # flip one data byte
        tile.write_bytes(bytes(payload))
        assert not validate_tile(tmp_path, (0, 0), (5, 2, 2))

    def test_truncation_detected(self, tmp_path):
        stack = np.ones((5, 2, 2), dtype=np.int64)
        write_tile(tmp_path, (0, 0), stack)
        tile = tmp_path / "tile-00000-00000.npy"
        tile.write_bytes(tile.read_bytes()[:-8])
        assert not validate_tile(tmp_path, (0, 0), (5, 2, 2))

    def test_missing_sidecar_is_incomplete(self, tmp_path):
        stack = np.ones((5, 2, 2), dtype=np.int64)
        write_tile(tmp_path, (0, 0), stack)
        (tmp_path / "tile-00000-00000.npy.crc").unlink()
        assert not validate_tile(tmp_path, (0, 0), (5, 2, 2))

    def test_shape_mismatch_detected(self, tmp_path):
        # A stale tile from a different grid has a valid CRC but the
        # wrong recorded shape — still rejected.
        stack = np.ones((5, 3, 3), dtype=np.int64)
        write_tile(tmp_path, (0, 0), stack)
        assert not validate_tile(tmp_path, (0, 0), (5, 2, 2))
        with pytest.raises(DataError):
            read_tile(tmp_path, (0, 0), (5, 2, 2))

    def test_garbage_sidecar_is_invalid(self, tmp_path):
        stack = np.ones((5, 2, 2), dtype=np.int64)
        write_tile(tmp_path, (0, 0), stack)
        (tmp_path / "tile-00000-00000.npy.crc").write_text("not json")
        assert not validate_tile(tmp_path, (0, 0), (5, 2, 2))

    def test_sidecar_crc_matches_on_disk_bytes(self, tmp_path):
        stack = np.zeros((5, 2, 2), dtype=np.int64)
        write_tile(tmp_path, (1, 2), stack)
        sidecar = json.loads((tmp_path / "tile-00001-00002.npy.crc").read_text())
        payload = (tmp_path / "tile-00001-00002.npy").read_bytes()
        assert sidecar["crc32"] == (zlib.crc32(payload) & 0xFFFFFFFF)


#: The dense counts tiled counting must reproduce: the numpy oracle and
#: the production (bit-packed) one-shot path.
DENSE_REFERENCES = {
    "numpy": oracle.pairwise_complete_counts,
    "packed": lambda statuses: SufficientStats.from_statuses(statuses).counts,
}


class TestTiledBatchCounts:
    @pytest.mark.parametrize("reference", sorted(DENSE_REFERENCES))
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("tile_size", [1, 4, 7, 100])
    def test_bit_identical_to_dense(self, reference, masked, tile_size):
        statuses = _observations(masked=masked)
        dense = DENSE_REFERENCES[reference](statuses)
        tiled = tiled_batch_counts(statuses, tile_size=tile_size)
        for key in COUNT_KEYS:
            assert np.array_equal(tiled[key], dense[key]), key


class TestTileStore:
    @pytest.fixture
    def spilled(self, tmp_path):
        statuses = _observations()
        stats = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path
        )
        return statuses, stats

    def test_lower_triangle_reads_are_mirrored_views(self, spilled):
        statuses, stats = spilled
        dense = SufficientStats.from_statuses(statuses)
        grid = stats.grid
        bi, bj = 2, 0  # below the diagonal: served via transpose
        a0, a1 = grid.span(bi)
        b0, b1 = grid.span(bj)
        counts = stats.store.counts(bi, bj)
        for key in COUNT_KEYS:
            assert np.array_equal(
                counts[key], dense.counts[key][a0:a1, b0:b1]
            ), key

    def test_direct_lower_triangle_load_refused(self, spilled):
        _, stats = spilled
        with pytest.raises(DataError):
            stats.store.load((2, 0))

    def test_lru_eviction_caps_residency(self, tmp_path):
        statuses = _observations()
        stats = TiledSufficientStats.from_statuses(
            statuses, tile_size=4, spill_dir=tmp_path, max_resident_tiles=2
        )
        for block in stats.grid.blocks():
            stats.store.load(block)
            assert stats.store.resident_tiles <= 2
        stats.store.drop_cache()
        assert stats.store.resident_tiles == 0

    def test_default_residency_cap(self, spilled):
        _, stats = spilled
        assert stats.store.max_resident == DEFAULT_MAX_RESIDENT_TILES

    def test_spilled_bytes_positive(self, spilled):
        _, stats = spilled
        assert stats.store.spilled_bytes() > 0


class TestTiledSufficientStats:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("kind", ["infection", "traditional"])
    def test_mi_matrix_bit_identical(self, tmp_path, masked, kind):
        statuses = _observations(masked=masked)
        dense = SufficientStats.from_statuses(statuses)
        tiled = TiledSufficientStats.from_statuses(
            statuses, tile_size=6, spill_dir=tmp_path
        )
        assert np.array_equal(
            np.asarray(tiled.mi_matrix(kind)), dense.mi_matrix(kind)
        )

    def test_checksum_equals_dense_checksum(self, tmp_path):
        statuses = _observations()
        dense = SufficientStats.from_statuses(statuses)
        tiled = TiledSufficientStats.from_statuses(
            statuses, tile_size=6, spill_dir=tmp_path
        )
        assert tiled.checksum() == dense.checksum()
        assert tiled.equals(dense)

    def test_count_matrix_and_to_dense(self, tmp_path):
        statuses = _observations(masked=True)
        dense = SufficientStats.from_statuses(statuses)
        tiled = TiledSufficientStats.from_statuses(
            statuses, tile_size=6, spill_dir=tmp_path
        )
        for key in COUNT_KEYS:
            assert np.array_equal(tiled.count_matrix(key), dense.counts[key])
        assert tiled.to_dense().equals(dense)
        with pytest.raises(DataError):
            tiled.count_matrix("nope")

    def test_resume_reuses_valid_tiles(self, tmp_path):
        statuses = _observations()
        first = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path
        )
        mtimes = {
            path.name: path.stat().st_mtime_ns
            for path in (tmp_path / "gen-00000000").glob("tile-*.npy")
        }
        second = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path
        )
        assert second.checksum() == first.checksum()
        after = {
            path.name: path.stat().st_mtime_ns
            for path in (tmp_path / "gen-00000000").glob("tile-*.npy")
        }
        assert after == mtimes, "resume rewrote already-valid tiles"

    def test_different_data_wipes_stale_spill(self, tmp_path):
        first = _observations(seed=1)
        other = _observations(seed=2)
        TiledSufficientStats.from_statuses(first, tile_size=5, spill_dir=tmp_path)
        stats = TiledSufficientStats.from_statuses(
            other, tile_size=5, spill_dir=tmp_path
        )
        assert stats.checksum() == SufficientStats.from_statuses(other).checksum()

    def test_updated_rolls_generation_and_matches_dense(self, tmp_path):
        statuses = _observations(beta=80)
        head = statuses.subset(range(50))
        tail = statuses.subset(range(50, 80))
        tiled = TiledSufficientStats.from_statuses(
            head, tile_size=5, spill_dir=tmp_path
        ).updated(tail)
        assert tiled.generation == 1
        dense = SufficientStats.from_statuses(head).updated(tail)
        assert tiled.checksum() == dense.checksum()
        generations = sorted(p.name for p in tmp_path.glob("gen-*"))
        assert generations == ["gen-00000000", "gen-00000001"]

    def test_update_prunes_grandparent_generations(self, tmp_path):
        statuses = _observations(beta=90)
        stats = TiledSufficientStats.from_statuses(
            statuses.subset(range(30)), tile_size=5, spill_dir=tmp_path
        )
        stats = stats.updated(statuses.subset(range(30, 60)))
        stats = stats.updated(statuses.subset(range(60, 90)))
        generations = sorted(p.name for p in tmp_path.glob("gen-*"))
        assert generations == ["gen-00000001", "gen-00000002"]
        assert stats.checksum() == SufficientStats.from_statuses(statuses).checksum()

    def test_empty_batch_returns_self(self, tmp_path):
        statuses = _observations()
        stats = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path
        )
        assert stats.updated(statuses.subset(range(0))) is stats

    def test_node_count_mismatch_rejected(self, tmp_path):
        stats = TiledSufficientStats.from_statuses(
            _observations(n=19), tile_size=5, spill_dir=tmp_path
        )
        with pytest.raises(DataError):
            stats.updated(_observations(n=7))

    def test_temporary_spill_when_unconfigured(self):
        statuses = _observations()
        stats = TiledSufficientStats.from_statuses(statuses, tile_size=5)
        assert stats.checksum() == SufficientStats.from_statuses(statuses).checksum()

    def test_unknown_mi_kind_rejected(self, tmp_path):
        stats = TiledSufficientStats.from_statuses(
            _observations(), tile_size=5, spill_dir=tmp_path
        )
        with pytest.raises(DataError):
            stats.mi_matrix("nope")


class TestConfigWiring:
    def test_tiling_fields_validate(self):
        with pytest.raises(ConfigurationError):
            TendsConfig(tile_size=0)
        with pytest.raises(ConfigurationError):
            TendsConfig(max_resident_tiles=0)
        config = TendsConfig(tile_size=64, spill_dir="/tmp/x", max_resident_tiles=4)
        assert config.tile_size == 64

    def test_tiling_fields_are_not_algorithm_fields(self):
        # Execution knobs only: a resumed service may turn tiling on/off
        # without invalidating its model.
        for name in ("tile_size", "spill_dir", "max_resident_tiles"):
            assert name not in TendsConfig.ALGORITHM_FIELDS
        a = TendsConfig().algorithm_fingerprint()
        b = TendsConfig(tile_size=8, spill_dir="/tmp/y").algorithm_fingerprint()
        assert a == b

    def test_from_model_accepts_tiling_overrides(self, tmp_path):
        statuses = _observations()
        estimator = Tends()
        estimator.fit(statuses)
        resumed = Tends.from_model(
            estimator.model, tile_size=5, spill_dir=str(tmp_path)
        )
        assert resumed.config.tile_size == 5


class TestTendsTiledFit:
    def test_fit_bit_identical_and_spills(self, tmp_path):
        statuses = _observations()
        dense = Tends().fit(statuses)
        tiled = Tends(tile_size=5, spill_dir=str(tmp_path)).fit(statuses)
        assert np.array_equal(
            np.asarray(dense.mi_matrix), np.asarray(tiled.mi_matrix)
        )
        assert repr(dense.threshold) == repr(tiled.threshold)
        assert dense.parent_sets == tiled.parent_sets
        assert dense.fingerprint() == tiled.fingerprint()
        assert list((tmp_path / "gen-00000000").glob("tile-*.npy"))

    def test_tiled_model_fingerprint_matches_dense(self, tmp_path):
        statuses = _observations()
        dense = Tends()
        dense.fit(statuses)
        tiled = Tends(tile_size=5, spill_dir=str(tmp_path))
        tiled.fit(statuses)
        assert tiled.model.fingerprint() == dense.model.fingerprint()

    def test_tiled_model_snapshot_round_trips(self, tmp_path):
        statuses = _observations()
        estimator = Tends(tile_size=5, spill_dir=str(tmp_path / "spill"))
        estimator.fit(statuses)
        path = estimator.model.save(tmp_path / "model.npz")
        loaded = TendsModel.load(path)
        assert loaded.fingerprint() == estimator.model.fingerprint()

    def test_tiled_partial_fit_matches_dense(self, tmp_path):
        statuses = _observations(beta=90)
        head = statuses.subset(range(60))
        tail = statuses.subset(range(60, 90))
        dense = Tends()
        dense.fit(head)
        dense_result = dense.partial_fit(tail)
        tiled = Tends(tile_size=5, spill_dir=str(tmp_path))
        tiled.fit(head)
        tiled_result = tiled.partial_fit(tail)
        assert dense_result.parent_sets == tiled_result.parent_sets
        assert np.array_equal(
            np.asarray(dense_result.mi_matrix),
            np.asarray(tiled_result.mi_matrix),
        )
        assert dense.model.fingerprint() == tiled.model.fingerprint()


class TestShardFitAndMerge:
    def test_merge_matches_full_fit(self):
        statuses = _observations()
        full = Tends().fit(statuses)
        n = statuses.n_nodes
        shards = [
            Tends().fit(statuses, nodes=range(start, min(start + 7, n)))
            for start in range(0, n, 7)
        ]
        merged = merge_results(shards)
        assert merged.parent_sets == full.parent_sets
        assert merged.fingerprint() == full.fingerprint()
        assert merged.nodes is None

    def test_shard_fit_installs_no_model(self):
        statuses = _observations()
        estimator = Tends()
        estimator.fit(statuses, nodes=[0, 1, 2])
        assert estimator.model is None

    def test_shard_result_is_partial(self):
        statuses = _observations()
        result = Tends().fit(statuses, nodes=[3, 4])
        assert result.nodes == (3, 4)
        full = Tends().fit(statuses)
        assert result.parent_sets[3] == full.parent_sets[3]
        assert result.parent_sets[4] == full.parent_sets[4]
        untouched = [
            result.parent_sets[i] for i in range(statuses.n_nodes) if i not in (3, 4)
        ]
        assert all(parents == () for parents in untouched)

    def test_invalid_shards_rejected(self):
        statuses = _observations()
        with pytest.raises(ConfigurationError):
            Tends().fit(statuses, nodes=[])
        with pytest.raises(ConfigurationError):
            Tends().fit(statuses, nodes=[statuses.n_nodes])
        with pytest.raises(ConfigurationError):
            Tends().fit(statuses, nodes=[-1])

    def test_merge_rejects_gaps_overlaps_and_full_results(self):
        statuses = _observations()
        n = statuses.n_nodes
        left = Tends().fit(statuses, nodes=range(0, 10))
        right = Tends().fit(statuses, nodes=range(10, n))
        with pytest.raises(InferenceError):
            merge_results([])
        with pytest.raises(InferenceError):
            merge_results([left])  # gap: nodes 10..n missing
        with pytest.raises(InferenceError):
            merge_results([left, left, right])  # overlap
        full = Tends().fit(statuses)
        with pytest.raises(InferenceError):
            merge_results([full, right])

    def test_merge_rejects_mismatched_observations(self):
        a = _observations(seed=1)
        b = _observations(seed=2)
        left = Tends().fit(a, nodes=range(0, 10))
        right = Tends().fit(b, nodes=range(10, b.n_nodes))
        with pytest.raises(InferenceError):
            merge_results([left, right])

    def test_tiled_shard_fit_merges_too(self, tmp_path):
        statuses = _observations()
        n = statuses.n_nodes
        full = Tends().fit(statuses)
        left = Tends(tile_size=5, spill_dir=str(tmp_path / "a")).fit(
            statuses, nodes=range(0, 10)
        )
        right = Tends(tile_size=5, spill_dir=str(tmp_path / "b")).fit(
            statuses, nodes=range(10, n)
        )
        merged = merge_results([left, right])
        assert merged.fingerprint() == full.fingerprint()
