"""Snapshot/restore and fault-tolerance tests for :class:`TendsModel`.

The snapshot contract (docs/INCREMENTAL.md): ``save``/``load`` round-trips
are bit-stable, ``load`` refuses tampered or mismatched snapshots with
:class:`CheckpointError` instead of degrading silently, and an interrupted
``partial_fit`` leaves the previous model intact (copy-on-write).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.stats import COUNT_KEYS, stored_count_keys
from repro.core.tends import Tends, TendsModel
from repro.exceptions import CheckpointError, ConfigurationError
from repro.simulation.statuses import StatusMatrix


def _history(beta=40, n=8, seed=0, mask_fraction=0.0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(beta, n), dtype=np.uint8)
    mask = None
    if mask_fraction:
        mask = rng.random((beta, n)) >= mask_fraction
    return StatusMatrix(data, mask)


def _fitted(statuses, **overrides):
    estimator = Tends(audit="ignore", **overrides)
    estimator.fit(statuses)
    return estimator


def _tamper(path, mutate):
    """Rewrite the NPZ at ``path`` after applying ``mutate(arrays)``."""
    with np.load(path) as archive:
        arrays = {name: archive[name].copy() for name in archive.files}
    mutate(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _rewrite_meta(arrays, mutate):
    meta = json.loads(bytes(bytearray(arrays["meta_json"])).decode())
    mutate(meta)
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("mask_fraction", [0.0, 0.3])
    def test_round_trip_is_bit_stable(self, tmp_path, mask_fraction):
        statuses = _history(mask_fraction=mask_fraction)
        estimator = _fitted(statuses)
        model = estimator.model
        loaded = TendsModel.load(model.save(tmp_path / "model.npz"))

        assert loaded.stats.equals(model.stats)
        assert loaded.stats.checksum() == model.stats.checksum()
        assert loaded.statuses == model.statuses
        assert loaded.threshold == model.threshold
        assert loaded.candidates == model.candidates
        assert loaded.parent_sets == model.parent_sets
        assert loaded.diagnostics == model.diagnostics
        assert loaded.config == model.config
        assert loaded.data_fingerprint() == model.data_fingerprint()
        assert set(loaded.graph().edge_set()) == set(model.graph().edge_set())

    def test_resumed_model_updates_bit_identically(self, tmp_path):
        statuses = _history(seed=1)
        batch = _history(beta=10, seed=2)

        original = _fitted(statuses)
        path = original.model.save(tmp_path / "model.npz")
        direct = original.partial_fit(batch)

        resumed = Tends.from_model(TendsModel.load(path))
        restored = resumed.partial_fit(batch)

        assert restored.parent_sets == direct.parent_sets
        assert np.array_equal(restored.mi_matrix, direct.mi_matrix)
        assert restored.threshold == direct.threshold
        assert restored.update.dirty_nodes == direct.update.dirty_nodes

    def test_save_load_save_is_stable(self, tmp_path):
        estimator = _fitted(_history(seed=3, mask_fraction=0.2))
        first = estimator.model.save(tmp_path / "a.npz")
        loaded = TendsModel.load(first)
        second = loaded.save(tmp_path / "b.npz")
        assert first.read_bytes() == second.read_bytes()


class TestSnapshotLayout:
    """Version 2 writes only the stored count planes; a version-1
    snapshot, which wrote all five, still loads to the same model."""

    @pytest.mark.parametrize("mask_fraction", [0.0, 0.3])
    def test_snapshot_holds_only_the_stored_planes(self, tmp_path, mask_fraction):
        model = _fitted(_history(seed=12, mask_fraction=mask_fraction)).model
        path = model.save(tmp_path / "model.npz")
        with np.load(path) as archive:
            planes = sorted(
                name for name in archive.files if name.startswith("counts_")
            )
            meta = json.loads(bytes(bytearray(archive["meta_json"])).decode())
        keys = stored_count_keys(model.stats.has_missing)
        assert planes == sorted(f"counts_{key}" for key in keys)
        assert meta["version"] == TendsModel.SNAPSHOT_VERSION == 2

    @pytest.mark.parametrize("mask_fraction", [0.0, 0.3])
    def test_version_1_snapshot_loads_to_the_same_fingerprint(
        self, tmp_path, mask_fraction
    ):
        model = _fitted(_history(seed=13, mask_fraction=mask_fraction)).model
        path = _version_1(model, tmp_path / "v1.npz")
        loaded = TendsModel.load(path)
        assert loaded.fingerprint() == model.fingerprint()
        assert set(loaded.stats.counts) == set(model.stats.counts)
        assert loaded.stats.equals(model.stats)

    @pytest.mark.parametrize("key", ["11", "obs"])
    def test_corrupted_stored_plane_refused(self, tmp_path, key):
        model = _fitted(_history(seed=14, mask_fraction=0.3)).model
        v1 = _version_1(model, tmp_path / "v1.npz")
        for path in (model.save(tmp_path / "v2.npz"), v1):

            def bump(arrays):
                arrays[f"counts_{key}"][0, 1] += 1

            _tamper(path, bump)
            with pytest.raises(CheckpointError, match="checksum"):
                TendsModel.load(path)


def _version_1(model, path):
    """``model`` saved in the version-1 layout: all five count planes."""
    model.save(path)

    def five_planes(arrays):
        for key in COUNT_KEYS:
            arrays[f"counts_{key}"] = model.stats.count_matrix(key)
        _rewrite_meta(arrays, lambda meta: meta.update(version=1))

    _tamper(path, five_planes)
    return path


class TestLoadRefusals:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        estimator = _fitted(_history(seed=4))
        return estimator.model.save(tmp_path / "model.npz")

    def test_tampered_history_fails_data_fingerprint(self, snapshot):
        def flip_status(arrays):
            arrays["statuses"][0, 0] ^= 1

        _tamper(snapshot, flip_status)
        with pytest.raises(CheckpointError, match="data-fingerprint"):
            TendsModel.load(snapshot)

    def test_tampered_counts_fail_stats_checksum(self, snapshot):
        def bump_count(arrays):
            arrays["counts_11"][0, 1] += 1

        _tamper(snapshot, bump_count)
        with pytest.raises(CheckpointError, match="checksum"):
            TendsModel.load(snapshot)

    def test_tampered_config_fails_fingerprint(self, snapshot):
        def change_scale(arrays):
            _rewrite_meta(
                arrays, lambda meta: meta["config"].update(threshold_scale=0.5)
            )

        _tamper(snapshot, change_scale)
        with pytest.raises(CheckpointError, match="config-fingerprint"):
            TendsModel.load(snapshot)

    def test_unknown_format_refused(self, snapshot):
        def wrong_format(arrays):
            _rewrite_meta(arrays, lambda meta: meta.update(format="other"))

        _tamper(snapshot, wrong_format)
        with pytest.raises(CheckpointError, match="not a TENDS model"):
            TendsModel.load(snapshot)

    def test_future_version_refused(self, snapshot):
        def future_version(arrays):
            _rewrite_meta(arrays, lambda meta: meta.update(version=99))

        _tamper(snapshot, future_version)
        with pytest.raises(CheckpointError, match="version"):
            TendsModel.load(snapshot)

    def test_missing_metadata_refused(self, tmp_path):
        path = tmp_path / "bare.npz"
        with open(path, "wb") as handle:
            np.savez(handle, statuses=np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(CheckpointError, match="no metadata"):
            TendsModel.load(path)

    def test_garbage_file_refused(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an npz archive at all")
        with pytest.raises(CheckpointError, match="cannot read"):
            TendsModel.load(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            TendsModel.load(tmp_path / "absent.npz")


class TestRetiredConfigKeys:
    """Snapshots written while ``TendsConfig`` still had its ``kernel``
    field (a choice between two bit-identical counting backends) or its
    ``executor="thread"`` backend keep loading: exactly that retired key
    is dropped, and that retired value reset, on load."""

    @pytest.mark.parametrize("backend", ["numpy", "packed"])
    def test_kernel_key_dropped_and_updates_match_refit(self, tmp_path, backend):
        history = _history(seed=8, mask_fraction=0.2)
        batch = _history(beta=12, seed=9, mask_fraction=0.2)
        path = _fitted(history).model.save(tmp_path / "model.npz")

        def add_kernel(arrays):
            _rewrite_meta(arrays, lambda meta: meta["config"].update(kernel=backend))

        _tamper(path, add_kernel)
        model = TendsModel.load(path)
        assert "kernel" not in model.config.as_dict()

        resumed = Tends.from_model(model)
        updated = resumed.partial_fit(batch)
        refit = Tends(audit="ignore")
        assert updated.fingerprint() == refit.fit(history.append(batch)).fingerprint()
        assert resumed.model.fingerprint() == refit.model.fingerprint()

    def test_retired_thread_executor_loads_as_unset(self, tmp_path):
        # Snapshots saved while the thread backend existed may store
        # executor="thread"; it was never an algorithm field, so the
        # value resets to None and the fingerprints are unchanged.
        estimator = _fitted(_history(seed=11), executor="serial")
        path = estimator.model.save(tmp_path / "model.npz")

        def store_thread(arrays):
            _rewrite_meta(
                arrays, lambda meta: meta["config"].update(executor="thread")
            )

        _tamper(path, store_thread)
        model = TendsModel.load(path)
        assert model.config.executor is None
        assert model.fingerprint() == estimator.model.fingerprint()
        assert (
            model.config.algorithm_fingerprint()
            == estimator.model.config.algorithm_fingerprint()
        )
        updated = Tends.from_model(model).partial_fit(_history(beta=8, seed=12))
        assert updated.parent_sets == estimator.partial_fit(
            _history(beta=8, seed=12)
        ).parent_sets

    def test_other_unknown_config_keys_still_refused(self, tmp_path):
        path = _fitted(_history(seed=10)).model.save(tmp_path / "model.npz")

        def add_unknown(arrays):
            _rewrite_meta(arrays, lambda meta: meta["config"].update(kernels="packed"))

        _tamper(path, add_unknown)
        with pytest.raises(CheckpointError, match="kernels"):
            TendsModel.load(path)


class TestFromModel:
    def test_algorithm_override_refused(self, tmp_path):
        model = _fitted(_history(seed=5)).model
        with pytest.raises(ConfigurationError, match="mi_kind"):
            Tends.from_model(model, mi_kind="traditional")

    def test_execution_overrides_allowed_and_equivalent(self):
        statuses = _history(seed=6)
        batch = _history(beta=12, seed=7)
        direct = _fitted(statuses).partial_fit(batch)
        parallel = Tends.from_model(
            _fitted(statuses).model, executor="process", n_jobs=2, chunk_size=2
        )
        result = parallel.partial_fit(batch)
        assert result.parent_sets == direct.parent_sets
        assert np.array_equal(result.mi_matrix, direct.mi_matrix)


class TestCopyOnWrite:
    def test_interrupted_partial_fit_keeps_previous_model(self, monkeypatch):
        statuses = _history(seed=8)
        batch = _history(beta=10, seed=9)
        estimator = _fitted(statuses, executor="serial", max_attempts=1)
        before = estimator.model

        def explode(context, items):
            raise RuntimeError("worker lost mid-search")

        with monkeypatch.context() as patch:
            patch.setattr("repro.core.tends.search_chunk", explode)
            with pytest.raises(RuntimeError, match="worker lost"):
                estimator.partial_fit(batch)

        # The failed update never touched the installed model ...
        assert estimator.model is before
        # ... so the retry proceeds from unchanged state and still matches
        # a one-shot fit of the concatenated history.
        retried = estimator.partial_fit(batch)
        full = Tends(audit="ignore").fit(statuses.append(batch))
        assert retried.parent_sets == full.parent_sets
        assert np.array_equal(retried.mi_matrix, full.mi_matrix)
        assert retried.threshold == full.threshold

    def test_failed_batch_validation_keeps_previous_model(self):
        estimator = _fitted(_history(seed=10), missing="refuse")
        before = estimator.model
        with pytest.raises(Exception):
            estimator.partial_fit(_history(beta=5, seed=11, mask_fraction=0.4))
        assert estimator.model is before
