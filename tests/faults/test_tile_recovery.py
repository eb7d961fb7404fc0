"""Crash and corruption recovery for the tiled statistics layer.

Three guarantees under fault:

* **Worker death mid-tile** — the stage-3 executor machinery replaces
  the dead process, retries the chunk, and the recomputed tiles are
  bit-identical (integer counts have one value; recomputation is
  invisible in the result).
* **Torn / corrupted spill** — a resume over a spill directory with
  missing tiles, flipped bytes, truncated payloads, or garbage CRC
  sidecars recomputes exactly the invalid tiles and completes to the
  same checksum as an uninterrupted dense run.
* **Power cut** — tiles and sidecars are never fsynced, so a power cut
  may leave a tile zeroed, emptied or truncated under an intact
  sidecar, a tile without its sidecar, or a sidecar without its tile;
  the next fit recounts each one and ends on the clean fingerprint.
* **Old or mismatched layouts** — spill directories from the earlier
  five-plane and int64 formats are wiped by their meta version and
  recounted, and a tile whose plane count does not fit its
  generation's missing flag fails validation.
* **Serve under tiling** — ``kill -9`` an ingest service running with
  ``tile_size``/``spill_dir`` overrides; the recovered model's
  fingerprint equals an uninterrupted *dense* reference over the same
  acknowledged batches (docs/SERVING.md contract, now with spill).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.executor import ExecutionPlan, ParallelExecutor, RetryPolicy
from repro.core.stats import COUNT_KEYS, SufficientStats, stored_count_keys
from repro.core.tends import Tends
from repro.core.tiles import (
    TileGrid,
    TiledSufficientStats,
    _build_context,
    _statuses_digest,
    read_tile,
    validate_tile,
    write_tile,
)
from repro.graphs.generators.random_graphs import erdos_renyi_digraph
from repro.obs.metrics import MetricsRegistry
from repro.serve import IngestJournal, IngestService, QuarantineStore
from repro.simulation import io as sim_io
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.statuses import StatusMatrix
from tests.faults import tile_fault_lib

WAIT = 60.0


def _observations(n=18, beta=60, seed=3):
    truth = erdos_renyi_digraph(n, 0.12, seed=seed)
    return DiffusionSimulator(truth, seed=seed).run(beta=beta).statuses


def _plan(strategy="process", max_attempts=3):
    return ExecutionPlan(
        strategy=strategy,
        n_jobs=2,
        chunk_size=2,
        retry=RetryPolicy(max_attempts=max_attempts, backoff_seconds=0.01),
    )


def _tile_mtimes(directory: Path) -> dict:
    return {
        path.name: path.stat().st_mtime_ns
        for path in directory.glob("tile-*.npy")
    }


class TestWorkerCrashMidTile:
    def test_crashed_worker_is_retried_bit_identically(self, tmp_path):
        """A worker dies before spilling anything; the retried chunks
        spill tiles byte-identical to an unfaulted spill."""
        statuses = _observations()
        grid = TileGrid(statuses.n_nodes, 5)
        spill = tmp_path / "recovered"
        clean = tmp_path / "clean"
        spill.mkdir()
        clean.mkdir()
        context = {
            "inner": _build_context(statuses, grid, directory=str(spill)),
            "dir": str(tmp_path),
            "main_pid": os.getpid(),
        }
        executor = ParallelExecutor(_plan())
        results, _ = executor.map(
            tile_fault_lib.crash_once_tile_chunk, context, grid.blocks()
        )
        assert (tmp_path / "crashed").exists(), "fault never fired"

        control = {
            "inner": _build_context(statuses, grid, directory=str(clean)),
            "dir": str(tmp_path),
            "main_pid": os.getpid(),
        }
        truth = dict(tile_fault_lib.echo_tile_chunk(control, grid.blocks()))
        assert dict(results) == truth  # same block set, same CRCs
        # Workers killed with the pool may leave torn ``.tmp`` files
        # behind; only the renamed tiles and their sidecars count.
        def spilled(directory):
            return sorted(
                path.name
                for path in directory.iterdir()
                if path.name.endswith((".npy", ".npy.crc"))
            )

        names = spilled(clean)
        assert len(names) == 2 * len(grid.blocks())
        assert spilled(spill) == names
        for name in names:
            assert (spill / name).read_bytes() == (clean / name).read_bytes(), name

    def test_crash_while_spilling_completes_every_tile(self, tmp_path):
        """The worker dies after writing one tile of its chunk; the
        retried chunk rewrites the identical bytes and the spill ends up
        complete and valid."""
        statuses = _observations()
        grid = TileGrid(statuses.n_nodes, 5)
        spill = tmp_path / "gen"
        spill.mkdir()
        inner = _build_context(statuses, grid, directory=str(spill))
        context = {
            "inner": inner,
            "dir": str(tmp_path),
            "main_pid": os.getpid(),
        }
        executor = ParallelExecutor(_plan())
        executor.map(
            tile_fault_lib.crash_after_one_tile_chunk, context, grid.blocks()
        )
        assert (tmp_path / "crashed").exists(), "fault never fired"

        dense = SufficientStats.from_statuses(statuses)
        stored = stored_count_keys(statuses.has_missing)
        for block in grid.blocks():
            shape = (len(stored),) + grid.block_shape(*block)
            assert validate_tile(spill, block, shape), block
            stack = read_tile(spill, block, shape)
            a0, a1 = grid.span(block[0])
            b0, b1 = grid.span(block[1])
            for index, key in enumerate(stored):
                assert np.array_equal(
                    stack[index], dense.counts[key][a0:a1, b0:b1]
                ), (block, key)


class TestTornSpillRecovery:
    @pytest.fixture
    def spilled(self, tmp_path):
        statuses = _observations()
        stats = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path
        )
        checksum = stats.checksum()
        stats.store.drop_cache()
        return statuses, tmp_path / "gen-00000000", checksum

    def _resume(self, statuses, spill_root, metrics=None):
        return TiledSufficientStats.from_statuses(
            statuses,
            tile_size=5,
            spill_dir=spill_root,
            metrics=metrics or MetricsRegistry(),
        )

    def test_deleted_tiles_are_recomputed(self, spilled, tmp_path):
        statuses, gen, checksum = spilled
        tiles = sorted(gen.glob("tile-*.npy"))
        tiles[0].unlink()
        tiles[2].unlink()
        (tiles[2].with_suffix(".npy.crc")).unlink()
        # A torn temp file from a killed writer must be ignored too.
        (gen / "tile-xxxxx.npy.tmp-dead").write_bytes(b"torn")
        survivors = _tile_mtimes(gen)

        metrics = MetricsRegistry()
        stats = self._resume(statuses, tmp_path, metrics)
        assert stats.checksum() == checksum
        counters = metrics.snapshot()["counters"]
        assert counters["tiles_computed_total"] == 2
        assert counters["tiles_reused_total"] == len(survivors)
        after = _tile_mtimes(gen)
        for name, mtime in survivors.items():
            assert after[name] == mtime, f"valid tile {name} was rewritten"

    def test_corrupted_payload_is_recomputed(self, spilled, tmp_path):
        statuses, gen, checksum = spilled
        victim = sorted(gen.glob("tile-*.npy"))[1]
        payload = bytearray(victim.read_bytes())
        payload[-3] ^= 0x5A
        victim.write_bytes(bytes(payload))

        metrics = MetricsRegistry()
        stats = self._resume(statuses, tmp_path, metrics)
        assert stats.checksum() == checksum
        assert metrics.snapshot()["counters"]["tiles_computed_total"] == 1

    def test_truncated_payload_is_recomputed(self, spilled, tmp_path):
        statuses, gen, checksum = spilled
        victim = sorted(gen.glob("tile-*.npy"))[3]
        victim.write_bytes(victim.read_bytes()[:17])
        assert self._resume(statuses, tmp_path).checksum() == checksum

    def test_garbage_sidecar_is_recomputed(self, spilled, tmp_path):
        statuses, gen, checksum = spilled
        victim = sorted(gen.glob("tile-*.npy.crc"))[0]
        victim.write_text("{torn json")
        assert self._resume(statuses, tmp_path).checksum() == checksum

    def test_clean_resume_skips_every_completed_tile(self, spilled, tmp_path):
        statuses, gen, checksum = spilled
        before = _tile_mtimes(gen)
        metrics = MetricsRegistry()
        stats = self._resume(statuses, tmp_path, metrics)
        assert stats.checksum() == checksum
        counters = metrics.snapshot()["counters"]
        assert counters.get("tiles_computed_total", 0) == 0
        assert counters["tiles_reused_total"] == len(before)
        assert _tile_mtimes(gen) == before

    def test_torn_metadata_wipes_and_recounts(self, spilled, tmp_path):
        statuses, gen, checksum = spilled
        (gen / "spill-meta.json").write_text("{half a rec")
        metrics = MetricsRegistry()
        stats = self._resume(statuses, tmp_path, metrics)
        assert stats.checksum() == checksum
        counters = metrics.snapshot()["counters"]
        assert counters["tiles_computed_total"] == len(
            stats.grid.blocks()
        )


def _traced_fit(statuses, spill_root):
    """A tiled fit over ``spill_root``: its result and metric counters."""
    result = Tends(tile_size=5, spill_dir=str(spill_root), trace=True).fit(statuses)
    return result, result.telemetry.metrics["counters"]


class TestPowerCutRecovery:
    """What an unsynced tile write can leave behind after a power cut.

    Each case damages one tile of a finished fit's spill; the next fit
    over the same spill recounts exactly that tile and reaches the
    fingerprint of a clean fit."""

    @pytest.fixture
    def spilled(self, tmp_path):
        statuses = _observations()
        clean = Tends().fit(statuses).fingerprint()
        result, _ = _traced_fit(statuses, tmp_path)
        assert result.fingerprint() == clean
        gen = tmp_path / "gen-00000000"
        # The first diagonal tile stores the nodes' infection counts,
        # which are non-zero, so zeroing its data changes it.
        victim = gen / "tile-00000-00000.npy"
        assert np.load(victim).any()
        return statuses, victim, clean

    def _assert_recounted(self, statuses, victim, clean):
        result, counters = _traced_fit(statuses, victim.parent.parent)
        assert counters["tiles_computed_total"] == 1
        assert result.fingerprint() == clean

    @pytest.mark.parametrize("damage", ["zeroed", "data-zeroed", "emptied", "truncated"])
    def test_damaged_tile_under_an_intact_sidecar(self, spilled, damage):
        statuses, victim, clean = spilled
        payload = victim.read_bytes()
        data_bytes = np.load(victim, mmap_mode="r").nbytes
        damaged = {
            "zeroed": bytes(len(payload)),
            "data-zeroed": payload[:-data_bytes] + bytes(data_bytes),
            "emptied": b"",
            "truncated": payload[: len(payload) // 2],
        }[damage]
        victim.write_bytes(damaged)
        assert (victim.parent / (victim.name + ".crc")).is_file()
        self._assert_recounted(statuses, victim, clean)

    def test_tile_without_its_sidecar(self, spilled):
        statuses, victim, clean = spilled
        (victim.parent / (victim.name + ".crc")).unlink()
        self._assert_recounted(statuses, victim, clean)

    def test_sidecar_without_its_tile(self, spilled):
        statuses, victim, clean = spilled
        victim.unlink()
        self._assert_recounted(statuses, victim, clean)


def _masked(statuses, seed=5):
    mask = np.random.default_rng(seed).random(statuses.values.shape) > 0.2
    return StatusMatrix(statuses.values, mask)


def _old_spill(root, statuses, version, keys, dtype=np.int64):
    """A generation directory as an earlier layout wrote it: meta
    ``version`` and CRC-valid tiles of the dense counts' ``keys``
    planes in ``dtype``.  Returns the dense statistics."""
    grid = TileGrid(statuses.n_nodes, 5)
    gen = root / "gen-00000000"
    gen.mkdir()
    meta = {
        "version": version,
        "n_nodes": statuses.n_nodes,
        "tile_size": 5,
        "beta": statuses.beta,
        "has_missing": statuses.has_missing,
        "source": _statuses_digest(statuses),
    }
    (gen / "spill-meta.json").write_text(
        json.dumps(meta, sort_keys=True, separators=(",", ":"))
    )
    dense = SufficientStats.from_statuses(statuses)
    for bi, bj in grid.blocks():
        a0, a1 = grid.span(bi)
        b0, b1 = grid.span(bj)
        planes = [dense.count_matrix(key)[a0:a1, b0:b1] for key in keys]
        write_tile(gen, (bi, bj), np.stack(planes).astype(dtype))
    return dense


def _assert_wiped_and_recounted(root, statuses, dense, old_version):
    metrics = MetricsRegistry()
    stats = TiledSufficientStats.from_statuses(
        statuses, tile_size=5, spill_dir=root, metrics=metrics
    )
    assert metrics.snapshot()["counters"]["tiles_computed_total"] == len(
        stats.grid.blocks()
    )
    gen = root / "gen-00000000"
    assert json.loads((gen / "spill-meta.json").read_text())["version"] != old_version
    assert stats.checksum() == dense.checksum()
    fitted = Tends(tile_size=5, spill_dir=str(root)).fit(statuses)
    assert fitted.fingerprint() == Tends().fit(statuses).fingerprint()


class TestSpillLayout:
    @pytest.mark.parametrize("masked", [False, True])
    def test_five_plane_spill_of_old_version_is_wiped(self, tmp_path, masked):
        """A version-1 directory of five-plane tiles, one of them posing
        as a valid current-layout tile with wrong counts, is wiped and
        recounted; the fit equals the dense fit."""
        statuses = _observations()
        if masked:
            statuses = _masked(statuses)
        dense = _old_spill(tmp_path, statuses, 1, COUNT_KEYS)
        planes = len(stored_count_keys(statuses.has_missing))
        write_tile(
            tmp_path / "gen-00000000",
            (0, 1),
            np.full((planes, 5, 5), 7, dtype=np.uint8),
        )
        _assert_wiped_and_recounted(tmp_path, statuses, dense, 1)

    @pytest.mark.parametrize("masked", [False, True])
    def test_int64_spill_of_version_2_is_wiped(self, tmp_path, masked):
        """A version-2 directory stores the current planes as int64:
        every tile is CRC- and shape-valid, but the directory is wiped
        by its meta version and recounted into narrow tiles."""
        statuses = _observations()
        if masked:
            statuses = _masked(statuses)
        keys = stored_count_keys(statuses.has_missing)
        dense = _old_spill(tmp_path, statuses, 2, keys)
        _assert_wiped_and_recounted(tmp_path, statuses, dense, 2)
        dtypes = {
            np.load(path, mmap_mode="r").dtype
            for path in (tmp_path / "gen-00000000").glob("tile-*.npy")
        }
        assert dtypes == {np.dtype(np.uint8)}

    @pytest.mark.parametrize("masked", [False, True])
    def test_plane_count_must_match_the_missing_flag(self, tmp_path, masked):
        statuses = _observations()
        if masked:
            statuses = _masked(statuses)
        stats = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path
        )
        gen = tmp_path / "gen-00000000"
        block = (0, 1)
        shape = stats.store.stack_shape(*block)
        assert shape[0] == len(stored_count_keys(masked))
        assert validate_tile(gen, block, shape)
        # The other layout's stack, CRC-valid in itself.
        other = len(stored_count_keys(not masked))
        write_tile(gen, block, np.zeros((other,) + shape[1:], dtype=np.int64))
        assert not validate_tile(gen, block, shape)
        resumed = TiledSufficientStats.from_statuses(
            statuses, tile_size=5, spill_dir=tmp_path
        )
        assert validate_tile(gen, block, shape)
        assert resumed.checksum() == SufficientStats.from_statuses(statuses).checksum()


#: Ingest service child identical to the test_serve_crash one, except the
#: estimator runs with tiling overrides — counts fan out over tiles and
#: spill under the service directory while batches stream in.
CHILD = textwrap.dedent(
    """
    import itertools, sys
    from pathlib import Path

    from repro.core.tends import TendsModel
    from repro.serve import BatchPolicy, IngestService
    from repro.simulation import io as sim_io

    directory, spool = Path(sys.argv[1]), Path(sys.argv[2])
    batches = [
        sim_io.read_statuses_npz(path) for path in sorted(spool.glob("*.npz"))
    ]
    service = IngestService(
        directory,
        TendsModel.load(spool / "bootstrap" / "model.npz"),
        batch_policy=BatchPolicy(max_cascades=15, max_delay_seconds=0.01),
        snapshot_every=3,
        estimator_overrides={
            "tile_size": 5,
            "spill_dir": str(directory / "spill"),
        },
    ).start()
    print("READY", flush=True)
    for batch in itertools.cycle(batches):
        try:
            service.submit(batch, timeout=5.0)
        except Exception:
            break
    """
)


@pytest.fixture(scope="module")
def spool(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiled-spool")
    truth = erdos_renyi_digraph(12, 0.15, seed=11)
    statuses = DiffusionSimulator(truth, seed=11).run(beta=200).statuses
    base = statuses.subset(range(120))
    estimator = Tends()
    estimator.fit(base)
    (root / "bootstrap").mkdir()
    estimator.model.save(root / "bootstrap" / "model.npz")
    sim_io.write_statuses_npz(base, root / "bootstrap" / "base.npz")
    for i in range(8):
        sim_io.write_statuses_npz(
            statuses.subset(range(120 + i * 10, 120 + (i + 1) * 10)),
            root / f"batch{i}.npz",
        )
    return root


def spawn_child(directory: Path, spool: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH", "")])
    )
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(directory), str(spool)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert child.stdout.readline().strip() == "READY", (
        "child failed to start: " + child.stderr.read()
    )
    return child


def wait_for_journal(directory: Path, min_bytes: int, timeout: float = WAIT):
    journal = directory / "ingest.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if journal.exists() and journal.stat().st_size >= min_bytes:
            return
        time.sleep(0.01)
    raise AssertionError("child never journaled enough traffic")


def dense_reference(spool: Path, directory: Path) -> str:
    """Fingerprint of an uninterrupted, *untiled* run over exactly the
    acknowledged (journaled, non-quarantined) sequence."""
    estimator = Tends()
    estimator.fit(sim_io.read_statuses_npz(spool / "bootstrap" / "base.npz"))
    quarantined = set(QuarantineStore.load(directory / "quarantine.jsonl"))
    for record in IngestJournal.replay(directory / "ingest.jsonl"):
        if record.seq not in quarantined:
            estimator.partial_fit(record.statuses)
    return estimator.model.fingerprint()


class TestServeUnderTilingSigkill:
    def test_recovery_matches_dense_reference(self, tmp_path, spool):
        directory = tmp_path / "svc"
        child = spawn_child(directory, spool)
        try:
            wait_for_journal(directory, 6_000)
        finally:
            child.kill()  # SIGKILL mid-absorb, spill half-written
            child.wait(WAIT)

        recovered = IngestService(directory)
        try:
            fingerprint = recovered.model.fingerprint()
            watermark = recovered.stats().absorbed_seq
        finally:
            recovered.close()
        assert fingerprint == dense_reference(spool, directory)
        assert watermark > 0
