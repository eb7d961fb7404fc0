"""Tiled sufficient statistics: shard the O(n²) pair-count memory wall.

TENDS' stage 1 needs five ``(n, n)`` int64 count matrices and an
``(n, n)`` float64 IMI matrix — ~80 n² bytes resident with the dense
pipeline, which caps single-machine fits around a few thousand nodes
even after the packed kernels made them fast.  Every one of
those matrices is *blockwise computable*: the counts of the pair block
``(A, B)`` depend only on the status rows of ``A`` and ``B``, and the
MI float pipeline is purely elementwise on top of the counts and the
per-node marginals.  This module exploits that:

* :class:`TileGrid` partitions the (i, j) pair space into fixed-size
  square tiles; only the upper triangle of blocks is computed (the
  counts obey ``n11 = n11ᵀ``, ``n10 = n01ᵀ``, ``obs = obsᵀ``), and the
  lower triangle is derived by exact integer transposition.
* :func:`count_tile_chunk` is a module-level executor chunk function —
  each tile is a retryable unit under the *same*
  :class:`~repro.core.executor.ParallelExecutor` backoff / fallback /
  timeout machinery as the stage-3 parent search.  Workers write their
  tiles straight to the spill directory (crash-atomic ``.npy`` +
  CRC-32 sidecar), so no worker ever ships an O(n²) payload back.
* :class:`TileStore` reads spilled tiles back as memory-maps under an
  LRU cap (``max_resident_tiles``), exposing mirrored lower-triangle
  views without materialising them.
* :class:`TiledSufficientStats` duck-types
  :class:`~repro.core.stats.SufficientStats` for everything the
  pipeline consumes — :meth:`~TiledSufficientStats.mi_matrix`
  assembles the IMI into a float64 memory-map tile by tile,
  :meth:`~TiledSufficientStats.checksum` streams the count bytes in
  dense row-major order so the digest is *equal* to the dense one, and
  :meth:`~TiledSufficientStats.updated` rolls a new copy-on-write
  generation of tiles (old tile + batch tile, fanned out the same way).

This module stores and fans out; it computes nothing of its own.  A
tile's counts are the block form of
:func:`repro.core.kernels.packed_pairwise_complete_counts` over the
tile's row and column spans, and a tile's MI is
:mod:`repro.core.imi` applied to those counts with the row and column
marginals of the two spans — the single statistics pipeline the dense
path runs too.

**Bit-identity.**  Tile counts are exact integer counts over row and
column slices, so they equal the corresponding dense-matrix slices
exactly; the MI pipeline is elementwise, so per tile it runs the
identical float operations on identical inputs, and the assembled IMI
matrix, the 2-means threshold, and everything downstream are
bit-identical to the dense path (held by
``tests/property/test_prop_tiles.py``).

**Memory model.**  Peak residency of the counting stage is
O(n·tile) packed words + O(tile²) per in-flight tile, instead of
O(n²); the IMI lives in a spill-directory memory-map.  The 2-means
threshold stage still extracts the off-diagonal value vector (one
float64 O(n²) term — the algorithm sorts the full vector), which is
~10× below the dense pipeline's peak.  See docs/SCALING.md.

**Spill format.**  A spill root holds one generation directory per
copy-on-write update (``gen-00000000`` for the fit, ``gen-00000001``
after the first ``updated`` batch, ...).  Each generation contains a
``spill-meta.json`` identity header (node count, tile size, β, missing
flag, and a source digest chained over the absorbed batches) plus one
``tile-<bi>-<bj>.npy`` per upper-triangle block — a ``(5, h, w)`` int64
stack in :data:`~repro.core.stats.COUNT_KEYS` order — with a
``.npy.crc`` JSON sidecar recording the CRC-32 and shape.  Tiles whose
file, CRC, and shape all validate are *reused* on resume; anything
missing, truncated, or corrupted is recomputed (held by
``tests/faults/test_tile_recovery.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.executor import ExecutionPlan, ParallelExecutor
from repro.core.imi import (
    imi_from_terms,
    mi_from_terms,
    mi_terms_from_joint_counts,
    mi_terms_from_pairwise_counts,
)
from repro.core.kernels import PackedStatuses, packed_pairwise_complete_counts
from repro.core.stats import COUNT_KEYS, SufficientStats
from repro.exceptions import DataError
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.simulation.statuses import StatusMatrix

__all__ = [
    "DEFAULT_MAX_RESIDENT_TILES",
    "TileGrid",
    "TileStore",
    "TiledSufficientStats",
    "count_tile_chunk",
    "write_tile",
    "read_tile",
    "validate_tile",
]

#: Default LRU cap on simultaneously memory-mapped tiles.
DEFAULT_MAX_RESIDENT_TILES = 16

_META_NAME = "spill-meta.json"
_META_VERSION = 1


# ----------------------------------------------------------------------
# grid geometry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TileGrid:
    """Fixed-size square blocking of the ``n × n`` pair space.

    Block ``(bi, bj)`` covers rows ``span(bi)`` × columns ``span(bj)``;
    edge blocks are ragged when ``tile_size`` does not divide
    ``n_nodes``.  Only upper-triangle blocks (``bi <= bj``) are ever
    computed or stored — the pairwise counts are transpose-symmetric
    (with the ``"10"``/``"01"`` planes swapping), so the lower triangle
    is derived exactly.
    """

    n_nodes: int
    tile_size: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise DataError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.tile_size < 1:
            raise DataError(f"tile_size must be >= 1, got {self.tile_size}")

    @property
    def n_blocks(self) -> int:
        """Blocks per axis: ``ceil(n_nodes / tile_size)``."""
        return -(-self.n_nodes // self.tile_size)

    def span(self, block: int) -> tuple[int, int]:
        """``[start, stop)`` node range of one block index."""
        if not 0 <= block < self.n_blocks:
            raise DataError(
                f"block {block} out of range for {self.n_blocks} blocks"
            )
        start = block * self.tile_size
        return start, min(start + self.tile_size, self.n_nodes)

    def block_shape(self, bi: int, bj: int) -> tuple[int, int]:
        """``(height, width)`` of block ``(bi, bj)``."""
        a0, a1 = self.span(bi)
        b0, b1 = self.span(bj)
        return a1 - a0, b1 - b0

    def blocks(self) -> list[tuple[int, int]]:
        """Every upper-triangle block, row-major — the unit of fan-out,
        spill, retry, and checkpoint resume."""
        return [
            (bi, bj)
            for bi in range(self.n_blocks)
            for bj in range(bi, self.n_blocks)
        ]


# ----------------------------------------------------------------------
# crash-atomic tile files
# ----------------------------------------------------------------------

def _tile_name(block: tuple[int, int]) -> str:
    return f"tile-{block[0]:05d}-{block[1]:05d}.npy"


def _write_atomic(path: Path, payload: bytes) -> None:
    """Same-directory temp file + fsync + rename, so a crash at any
    instruction leaves either the old file or the new file — never a
    torn one (the same discipline as ``TendsModel.save``)."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):  # pragma: no cover - cleanup path
            os.unlink(tmp_name)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_tile(directory: Path | str, block: tuple[int, int], stack: np.ndarray) -> int:
    """Persist one ``(5, h, w)`` int64 tile stack crash-atomically.

    The ``.npy`` payload is serialised in memory first so its CRC-32 is
    computed over exactly the bytes that land on disk; the CRC and shape
    go to a ``.npy.crc`` JSON sidecar written second (a crash between
    the two writes leaves a tile without a sidecar, which
    :func:`validate_tile` treats as incomplete → recomputed on resume).
    Returns the CRC.
    """
    directory = Path(directory)
    stack = np.ascontiguousarray(stack, dtype=np.int64)
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, stack, allow_pickle=False)
    payload = buffer.getvalue()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    tile_path = directory / _tile_name(block)
    _write_atomic(tile_path, payload)
    sidecar = json.dumps({"crc32": crc, "shape": list(stack.shape)}).encode()
    _write_atomic(Path(str(tile_path) + ".crc"), sidecar)
    return crc


def validate_tile(
    directory: Path | str, block: tuple[int, int], expected_shape: tuple[int, ...]
) -> bool:
    """Whether a spilled tile is complete and uncorrupted.

    Checks existence of both files, the sidecar's recorded shape against
    the grid's expectation, and the CRC-32 of the on-disk ``.npy`` bytes
    against the sidecar — so truncation, bit rot, and a stale tile from
    a different grid are all detected (and trigger recomputation).
    """
    directory = Path(directory)
    tile_path = directory / _tile_name(block)
    crc_path = Path(str(tile_path) + ".crc")
    if not tile_path.is_file() or not crc_path.is_file():
        return False
    try:
        sidecar = json.loads(crc_path.read_text())
        recorded_crc = int(sidecar["crc32"])
        recorded_shape = tuple(int(v) for v in sidecar["shape"])
    except (ValueError, KeyError, TypeError, json.JSONDecodeError):
        return False
    if recorded_shape != tuple(expected_shape):
        return False
    return zlib.crc32(tile_path.read_bytes()) & 0xFFFFFFFF == recorded_crc


def read_tile(
    directory: Path | str,
    block: tuple[int, int],
    expected_shape: tuple[int, ...],
    *,
    mmap: bool = True,
) -> np.ndarray:
    """Load one tile stack, memory-mapped read-only by default.

    Shape and dtype are re-validated on every read so a corrupted or
    stale file raises :class:`~repro.exceptions.DataError` instead of
    feeding wrong counts downstream.
    """
    tile_path = Path(directory) / _tile_name(block)
    try:
        array = np.load(
            tile_path, mmap_mode="r" if mmap else None, allow_pickle=False
        )
    except (OSError, ValueError) as error:
        raise DataError(f"cannot read spilled tile {tile_path}: {error}") from error
    if array.shape != tuple(expected_shape) or array.dtype != np.int64:
        raise DataError(
            f"spilled tile {tile_path} has shape {array.shape} / dtype "
            f"{array.dtype}, expected {tuple(expected_shape)} int64"
        )
    return array


def _spilled_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("tile-*.npy"))


# ----------------------------------------------------------------------
# spill metadata (per generation directory)
# ----------------------------------------------------------------------

def _read_meta(directory: Path) -> dict | None:
    path = directory / _META_NAME
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _prepare_directory(directory: Path, meta: dict) -> None:
    """Make ``directory`` a valid spill target for ``meta``.

    A directory whose recorded identity matches is kept as-is (its valid
    tiles become the resume checkpoint); anything else — different data,
    different grid, torn metadata — is wiped so stale tiles can never
    satisfy a CRC check for the wrong statistics.
    """
    if directory.is_dir():
        if _read_meta(directory) == meta:
            return
        shutil.rmtree(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_atomic(
        directory / _META_NAME,
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(),
    )


def _statuses_digest(statuses: StatusMatrix) -> str:
    """Content digest identifying the counted data (resume safety)."""
    digest = hashlib.sha256()
    digest.update(f"beta={statuses.beta};n={statuses.n_nodes};".encode())
    digest.update(np.ascontiguousarray(statuses.values, dtype=np.uint8).tobytes())
    if statuses.mask is not None:
        digest.update(b"mask")
        digest.update(np.ascontiguousarray(statuses.mask, dtype=np.bool_).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# per-tile counting (runs inside executor workers)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TileContext:
    """Picklable per-fan-out context shipped once per worker.

    ``packed`` is the counted batch in bit-packed form, ``directory`` the
    spill target.  When ``base_directory`` is set each computed batch
    tile is added to the previous generation's tile before spilling —
    the copy-on-write update step.
    """

    grid: TileGrid
    packed: PackedStatuses
    directory: str
    base_directory: str | None = None


def _tile_stack(context: TileContext, block: tuple[int, int]) -> np.ndarray:
    """The ``(5, h, w)`` int64 count stack of one upper-triangle block:
    the block form of the dense counting kernel, so exactly equal to
    slicing the dense count matrices."""
    counts = packed_pairwise_complete_counts(
        context.packed, context.grid.span(block[0]), context.grid.span(block[1])
    )
    return np.stack([counts[key] for key in COUNT_KEYS])


def count_tile_chunk(
    context: TileContext, blocks: Sequence[tuple[int, int]]
) -> list[tuple[tuple[int, int], int]]:
    """Executor chunk function: count and spill tiles.

    Module-level and pure so the process backend can ship it by
    reference and recovery can re-execute it: recomputing a tile writes
    the identical bytes (integer counts), so retries and worker crashes
    are invisible in the result.  Workers return only ``(block, crc)`` —
    no O(tile²) payload travels back to the dispatcher.
    """
    results: list[tuple[tuple[int, int], int]] = []
    for block in blocks:
        block = (int(block[0]), int(block[1]))
        stack = _tile_stack(context, block)
        if context.base_directory is not None:
            expected = (len(COUNT_KEYS),) + context.grid.block_shape(*block)
            base = read_tile(context.base_directory, block, expected)
            stack = stack + base
        results.append((block, write_tile(context.directory, block, stack)))
    return results


def _build_context(
    statuses: StatusMatrix,
    grid: TileGrid,
    *,
    directory: str,
    base_directory: str | None = None,
) -> TileContext:
    return TileContext(
        grid=grid,
        packed=PackedStatuses.from_statuses(statuses),
        directory=directory,
        base_directory=base_directory,
    )


# ----------------------------------------------------------------------
# spilled-tile store (dispatcher-side reads)
# ----------------------------------------------------------------------

class TileStore:
    """Memory-mapped reads of one generation's spilled tiles, LRU-capped.

    :meth:`counts` serves *any* block — lower-triangle requests load the
    mirrored upper-triangle tile and return transposed views (with the
    ``"10"``/``"01"`` planes swapped), so consumers never notice that
    only half the grid exists on disk.  At most ``max_resident`` tiles
    stay mapped at once; eviction is LRU and the ``tiles_resident``
    gauge tracks the live count.
    """

    def __init__(
        self,
        directory: Path | str,
        grid: TileGrid,
        *,
        max_resident: int | None = None,
        metrics=NULL_METRICS,
    ) -> None:
        self.directory = Path(directory)
        self.grid = grid
        self.max_resident = (
            DEFAULT_MAX_RESIDENT_TILES if max_resident is None else int(max_resident)
        )
        if self.max_resident < 1:
            raise DataError(
                f"max_resident must be >= 1, got {self.max_resident}"
            )
        self._metrics = metrics
        self._resident: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()

    def stack_shape(self, bi: int, bj: int) -> tuple[int, int, int]:
        return (len(COUNT_KEYS),) + self.grid.block_shape(bi, bj)

    def is_valid(self, block: tuple[int, int]) -> bool:
        return validate_tile(self.directory, block, self.stack_shape(*block))

    def load(self, block: tuple[int, int]) -> np.ndarray:
        """The ``(5, h, w)`` stack of one *upper-triangle* block, mmapped."""
        bi, bj = block
        if bi > bj:
            raise DataError(
                f"tile ({bi}, {bj}) is below the diagonal; only upper-"
                "triangle tiles are stored (use counts() for mirrored reads)"
            )
        cached = self._resident.get(block)
        if cached is not None:
            self._resident.move_to_end(block)
            return cached
        array = read_tile(self.directory, block, self.stack_shape(bi, bj))
        self._resident[block] = array
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)
        self._metrics.set_gauge("tiles_resident", len(self._resident))
        return array

    def counts(self, bi: int, bj: int) -> dict[str, np.ndarray]:
        """The five count planes of block ``(bi, bj)``, either triangle."""
        if bi <= bj:
            stack = self.load((bi, bj))
            return {key: stack[index] for index, key in enumerate(COUNT_KEYS)}
        stack = self.load((bj, bi))
        return {
            "11": stack[0].T,
            "10": stack[2].T,
            "01": stack[1].T,
            "00": stack[3].T,
            "obs": stack[4].T,
        }

    @property
    def resident_tiles(self) -> int:
        return len(self._resident)

    def drop_cache(self) -> None:
        self._resident.clear()
        self._metrics.set_gauge("tiles_resident", 0)

    def spilled_bytes(self) -> int:
        return _spilled_bytes(self.directory)


# ----------------------------------------------------------------------
# the tiled statistics object
# ----------------------------------------------------------------------

def _generation_name(generation: int) -> str:
    return f"gen-{generation:08d}"


class TiledSufficientStats:
    """Spilled, tile-backed sufficient statistics of a status history.

    Drop-in for :class:`~repro.core.stats.SufficientStats` wherever the
    pipeline consumes statistics — ``beta`` / ``n_nodes`` /
    ``has_missing`` / :meth:`mi_matrix` / :meth:`updated` /
    :meth:`checksum` — but the five ``(n, n)`` count matrices live as
    tiles on disk and the IMI matrix is assembled into a float64
    memory-map, so nothing O(n²·10) ever materialises.
    :meth:`checksum` streams the tile bytes in dense row-major order and
    therefore returns the *same* digest as the dense statistics, which
    is what keeps model fingerprints identical across the two paths.
    """

    def __init__(
        self,
        *,
        grid: TileGrid,
        store: TileStore,
        infected: np.ndarray,
        observed: np.ndarray,
        beta: int,
        has_missing: bool,
        root: Path,
        generation: int,
        source: str,
        retain=None,
    ) -> None:
        self.grid = grid
        self.store = store
        self.infected = infected
        self.observed = observed
        self.beta = beta
        self.has_missing = has_missing
        self.root = Path(root)
        self.generation = generation
        self.source = source
        # Keepalive for the implicit TemporaryDirectory when no
        # spill_dir was configured: the spill lives as long as any
        # statistics generation derived from it.
        self._retain = retain

    # ------------------------------------------------------------------
    @classmethod
    def from_statuses(
        cls,
        statuses: StatusMatrix,
        *,
        tile_size: int,
        spill_dir: str | Path | None = None,
        max_resident_tiles: int | None = None,
        plan: ExecutionPlan | None = None,
        tracer=NULL_TRACER,
        metrics=NULL_METRICS,
    ) -> "TiledSufficientStats":
        """Count a status matrix tile-by-tile into a spill directory.

        With a persistent ``spill_dir``, an interrupted run resumes:
        tiles already on disk with matching metadata and valid CRCs are
        skipped (``tiles_reused_total``), only the rest are recomputed.
        """
        if not isinstance(statuses, StatusMatrix):
            statuses = StatusMatrix(statuses)
        retain = None
        if spill_dir is None:
            retain = tempfile.TemporaryDirectory(prefix="repro-tiles-")
            root = Path(retain.name)
        else:
            root = Path(spill_dir)
        grid = TileGrid(statuses.n_nodes, tile_size)
        source = _statuses_digest(statuses)
        meta = {
            "version": _META_VERSION,
            "n_nodes": statuses.n_nodes,
            "tile_size": tile_size,
            "beta": statuses.beta,
            "has_missing": statuses.has_missing,
            "source": source,
        }
        directory = root / _generation_name(0)
        _prepare_directory(directory, meta)
        context = _build_context(statuses, grid, directory=str(directory))
        _compute_missing_tiles(
            context, grid, directory, plan=plan, tracer=tracer, metrics=metrics
        )
        store = TileStore(
            directory, grid, max_resident=max_resident_tiles, metrics=metrics
        )
        return cls(
            grid=grid,
            store=store,
            infected=statuses.infection_counts(),
            observed=statuses.observed_counts(),
            beta=statuses.beta,
            has_missing=statuses.has_missing,
            root=root,
            generation=0,
            source=source,
            retain=retain,
        )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def updated(
        self,
        batch: StatusMatrix,
        *,
        plan: ExecutionPlan | None = None,
        tracer=NULL_TRACER,
        metrics=NULL_METRICS,
    ) -> "TiledSufficientStats":
        """Statistics with ``batch`` absorbed — a new copy-on-write tile
        generation (``old tile + batch tile`` per block, fanned out as
        retryable chunks), leaving this generation untouched so a failed
        ``partial_fit`` cannot corrupt the model it started from.
        Generations older than the immediate parent are pruned."""
        if not isinstance(batch, StatusMatrix):
            batch = StatusMatrix(batch)
        if batch.n_nodes != self.n_nodes:
            raise DataError(
                f"cannot update {self.n_nodes}-node tiled statistics with "
                f"a {batch.n_nodes}-node batch"
            )
        if batch.beta == 0:
            return self
        generation = self.generation + 1
        directory = self.root / _generation_name(generation)
        chain = hashlib.sha256(
            f"{self.source}:{_statuses_digest(batch)}".encode()
        ).hexdigest()
        meta = {
            "version": _META_VERSION,
            "n_nodes": self.n_nodes,
            "tile_size": self.grid.tile_size,
            "beta": self.beta + batch.beta,
            "has_missing": self.has_missing or batch.has_missing,
            "source": chain,
        }
        _prepare_directory(directory, meta)
        context = _build_context(
            batch,
            self.grid,
            directory=str(directory),
            base_directory=str(self.store.directory),
        )
        _compute_missing_tiles(
            context, self.grid, directory, plan=plan, tracer=tracer, metrics=metrics
        )
        store = TileStore(
            directory,
            self.grid,
            max_resident=self.store.max_resident,
            metrics=metrics,
        )
        self._prune_generations(keep=(self.generation, generation))
        return TiledSufficientStats(
            grid=self.grid,
            store=store,
            infected=self.infected + batch.infection_counts(),
            observed=self.observed + batch.observed_counts(),
            beta=self.beta + batch.beta,
            has_missing=self.has_missing or batch.has_missing,
            root=self.root,
            generation=generation,
            source=chain,
            retain=self._retain,
        )

    def _prune_generations(self, keep: tuple[int, ...]) -> None:
        """Drop generation directories other than ``keep`` (the parent
        and the new child): disk stays O(2 · tiles) however long an
        incremental service runs.  Open memory-maps into pruned
        generations stay readable (POSIX unlink semantics)."""
        survivors = {_generation_name(index) for index in keep}
        for entry in sorted(self.root.glob("gen-*")):
            if entry.name not in survivors and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)

    # ------------------------------------------------------------------
    # derived estimates (assembled tile by tile)
    # ------------------------------------------------------------------
    def mi_matrix(self, kind: str = "infection") -> np.ndarray:
        """The MI matrix assembled into a spill-directory memory-map.

        Per tile, :mod:`repro.core.imi` runs its elementwise float
        pipeline on the tile's counts and the marginals of the tile's
        row and column nodes, so every entry is bit-identical to the
        dense matrix; only one tile's terms are resident at a time.
        """
        if kind == "infection":
            combine = imi_from_terms
        elif kind == "traditional":
            combine = mi_from_terms
        else:
            raise DataError(f"unknown MI kind: {kind!r}")
        if self.beta == 0:
            raise DataError("cannot estimate MI from zero diffusion processes")
        n = self.n_nodes
        path = self.store.directory / f"imi-{kind}.float64.npy"
        out = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.float64, shape=(n, n)
        )
        for bi in range(self.grid.n_blocks):
            a0, a1 = self.grid.span(bi)
            for bj in range(self.grid.n_blocks):
                b0, b1 = self.grid.span(bj)
                counts = self.store.counts(bi, bj)
                diagonal = bi == bj
                if self.has_missing:
                    terms = mi_terms_from_pairwise_counts(counts, square=diagonal)
                else:
                    terms = mi_terms_from_joint_counts(
                        counts,
                        self.infected[a0:a1],
                        self.beta,
                        column_counts=None if diagonal else self.infected[b0:b1],
                    )
                out[a0:a1, b0:b1] = combine(terms, zero_diagonal=diagonal)
        out.flush()
        return out

    # ------------------------------------------------------------------
    # dense interop
    # ------------------------------------------------------------------
    def count_matrix(self, key: str) -> np.ndarray:
        """One dense ``(n, n)`` count matrix assembled from the tiles
        (transient O(n²) — snapshot serialisation and drift detection
        densify one plane at a time)."""
        if key not in COUNT_KEYS:
            raise DataError(f"unknown count key: {key!r}")
        n = self.n_nodes
        dense = np.empty((n, n), dtype=np.int64)
        for bi in range(self.grid.n_blocks):
            a0, a1 = self.grid.span(bi)
            for bj in range(self.grid.n_blocks):
                b0, b1 = self.grid.span(bj)
                dense[a0:a1, b0:b1] = self.store.counts(bi, bj)[key]
        return dense

    def to_dense(self) -> SufficientStats:
        """The equivalent dense :class:`SufficientStats` (tests, drift)."""
        return SufficientStats(
            counts={key: self.count_matrix(key) for key in COUNT_KEYS},
            infected=self.infected,
            observed=self.observed,
            beta=self.beta,
            has_missing=self.has_missing,
        )

    def subtracted(self, other) -> SufficientStats:
        """Dense subtraction (drift's recent-vs-reference windows are
        dense already, so the result is too)."""
        return self.to_dense().subtracted(other)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def checksum(self) -> str:
        """SHA-256 over every count, **equal** to the dense
        :meth:`SufficientStats.checksum` hex digest.

        The dense digest hashes each count matrix's contiguous int64
        bytes row-major; assembling each row band from its tiles in
        column order reproduces that byte stream exactly, one band
        resident at a time.
        """
        digest = hashlib.sha256()
        digest.update(f"beta={self.beta};missing={self.has_missing};".encode())
        n = self.n_nodes
        for key in COUNT_KEYS:
            digest.update(key.encode())
            digest.update(str((n, n)).encode())
            for bi in range(self.grid.n_blocks):
                band = np.concatenate(
                    [
                        np.ascontiguousarray(
                            self.store.counts(bi, bj)[key], dtype=np.int64
                        )
                        for bj in range(self.grid.n_blocks)
                    ],
                    axis=1,
                )
                digest.update(band.tobytes())
        for name, array in (("infected", self.infected), ("observed", self.observed)):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def equals(self, other) -> bool:
        """Exact equality of every count with dense or tiled statistics."""
        if not hasattr(other, "checksum"):
            return False
        return self.checksum() == other.checksum()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"TiledSufficientStats(n_nodes={self.n_nodes}, beta={self.beta}, "
            f"tile_size={self.grid.tile_size}, generation={self.generation}, "
            f"spill={str(self.store.directory)!r})"
        )


def _compute_missing_tiles(
    context: TileContext,
    grid: TileGrid,
    directory: Path,
    *,
    plan: ExecutionPlan | None,
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
) -> None:
    """Fan out every not-yet-valid tile, then verify the full grid.

    The validity scan *is* the checkpoint-resume step: tiles spilled by
    an earlier (possibly crashed) run with matching metadata and CRC are
    kept, everything else is recomputed.  A tile still invalid after the
    fan-out (e.g. a worker ran out of disk) fails loudly here rather
    than downstream.
    """
    blocks = grid.blocks()
    expected = {
        block: (len(COUNT_KEYS),) + grid.block_shape(*block) for block in blocks
    }
    todo = [
        block for block in blocks if not validate_tile(directory, block, expected[block])
    ]
    reused = len(blocks) - len(todo)
    with tracer.span(
        "tiles.compute",
        mode="spill" if context.base_directory is None else "update",
        n_tiles=len(blocks),
        computed=len(todo),
        reused=reused,
    ):
        if todo:
            # The stage-3 executor machinery: retries, deterministic-jitter
            # backoff, process → thread → serial fallback, chunk timeouts.
            executor = ParallelExecutor(plan or ExecutionPlan.resolve(), tracer)
            executor.map(count_tile_chunk, context, todo)
    invalid = [
        block for block in blocks if not validate_tile(directory, block, expected[block])
    ]
    if invalid:
        raise DataError(
            f"{len(invalid)} tile(s) failed to spill under {directory} "
            f"(first: {invalid[0]})"
        )
    if reused:
        metrics.inc("tiles_reused_total", reused)
    metrics.inc("tiles_computed_total", len(todo))
    metrics.set_gauge("tiles_spilled_bytes", _spilled_bytes(directory))
