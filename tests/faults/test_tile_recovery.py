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
* **Serve under tiling** — ``kill -9`` an ingest service running with
  ``tile_size``/``spill_dir`` overrides; the recovered model's
  fingerprint equals an uninterrupted *dense* reference over the same
  acknowledged batches (docs/SERVING.md contract, now with spill).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.executor import ExecutionPlan, ParallelExecutor, RetryPolicy
from repro.core.stats import COUNT_KEYS, SufficientStats
from repro.core.tends import Tends
from repro.core.tiles import (
    TileGrid,
    TiledSufficientStats,
    _build_context,
    validate_tile,
)
from repro.graphs.generators.random_graphs import erdos_renyi_digraph
from repro.obs.metrics import MetricsRegistry
from repro.serve import IngestJournal, IngestService, QuarantineStore
from repro.simulation import io as sim_io
from repro.simulation.engine import DiffusionSimulator
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
        statuses = _observations()
        grid = TileGrid(statuses.n_nodes, 5)
        inner = _build_context(statuses, grid)
        context = {
            "inner": inner,
            "dir": str(tmp_path),
            "main_pid": os.getpid(),
        }
        executor = ParallelExecutor(_plan())
        results, _ = executor.map(
            tile_fault_lib.crash_once_tile_chunk, context, grid.blocks()
        )
        assert (tmp_path / "crashed").exists(), "fault never fired"

        truth = dict(
            tile_fault_lib.echo_tile_chunk(context, grid.blocks())
        )
        recovered = dict(results)
        assert recovered.keys() == truth.keys()
        for block, stack in truth.items():
            assert np.array_equal(recovered[block], stack), block

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
        from repro.core.tiles import read_tile

        for block in grid.blocks():
            shape = (len(COUNT_KEYS),) + grid.block_shape(*block)
            assert validate_tile(spill, block, shape), block
            stack = read_tile(spill, block, shape)
            a0, a1 = grid.span(block[0])
            b0, b1 = grid.span(block[1])
            for index, key in enumerate(COUNT_KEYS):
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
