"""End-to-end benchmark of the TENDS library: four workloads, one process each.

Usage (from the repository root)::

    python benchmarks/e2e/run.py --workload lfr1000-fit --seed 0
    python benchmarks/e2e/run.py --workload serve-stream --seed 3 --trace 1

The runner treats the library as a black box: it clears ``REPRO_*``
environment variables, uses the default ``TendsConfig`` apart from the
parameters a workload lists, and imports ``repro`` from ``src/`` of the
checkout it runs in.  All load comes from this process: its main thread,
plus the ingest service's own absorb and watchdog threads; the fit
executor resolves to serial.  The process pins itself to one CPU, turns
transparent huge pages off, and reports every time it measures in
reference seconds, corrected for the host's changing speed by the probe
of ``hostspeed.py``.

Every metric is printed as a ``name value unit`` line; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced runs (``--trace 0``)
report the end-to-end metrics of ``BENCHMARK.json``; traced runs
(``--trace 1``) install the wrappers of ``trace.py`` and report its
per-layer metrics, writing every span to
``benchmarks/e2e/results/trace-<workload>-<seed>.json``.  A failed
correctness gate exits 1; a checkout without ``src/repro`` exits 2
before printing a result.  See README.md for the workloads, metrics and
bounds.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# benchmarks/e2e/trace.py: the script's own directory is first on sys.path.
import hostspeed
import trace as layer_trace
from trace import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

#: Repeats of each part of set-up; ``setup_s`` adds the two medians.
#: Five, so that the median ignores two repeats hit by a burst of
#: contention the speed correction misses (the cascade simulator's large
#: dictionaries suffer from cache contention more than the probe does).
SETUP_REPEATS = 5

#: The library modules the workloads use.
LIBRARY_MODULES = (
    "repro.core.tends",
    "repro.evaluation.metrics",
    "repro.graphs.generators.lfr",
    "repro.graphs.generators.realworld",
    "repro.serve",
    "repro.simulation.engine",
)


#: Fewest timed fits per run, however long they take: the traced run
#: alternates untraced and traced fits and needs both.
MIN_FITS = 3

#: Width of the untimed warm-up fit, in nodes (the first columns).
WARMUP_NODES = 50


@dataclass(frozen=True)
class FitSpec:
    """A workload of repeated timed ``Tends().fit`` calls on one input."""

    graph: str  # "lfr" or "dunf"
    n: int
    beta: int
    tile_size: int | None = None
    shard: int | None = None


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop stream of batches into an ``IngestService``."""

    n: int
    beta0: int
    batch: int
    rate: float  # batches per second


WORKLOADS = {
    "lfr1000-fit": FitSpec("lfr", n=1000, beta=500),
    "dunf-fit": FitSpec("dunf", n=750, beta=150),
    "tiled3000-shard": FitSpec("lfr", n=3000, beta=200, tile_size=256, shard=8),
    "serve-stream": ServeSpec(n=100, beta0=150, batch=8, rate=5.0),
}

#: ``--smoke`` sizes: every workload in a few seconds, same code paths.
SMOKE = {
    "lfr1000-fit": FitSpec("lfr", n=120, beta=120),
    "dunf-fit": FitSpec("dunf", n=150, beta=150),
    "tiled3000-shard": FitSpec("lfr", n=300, beta=80, tile_size=64, shard=2),
    "serve-stream": ServeSpec(n=60, beta0=80, batch=8, rate=8.0),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


#: prctl(2) option that turns transparent huge pages off for the calling
#: process and every process it starts.
PR_SET_THP_DISABLE = 41


def disable_huge_pages() -> None:
    """Back this process's memory with 4 KiB pages only.

    With transparent huge pages numpy asks for 2 MiB pages for large
    arrays, and whether the kernel has one free depends on how
    fragmented the host's memory is: the same tiled fit peaked 205 MB
    above its baseline in some runs and 230 MB in others."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_THP_DISABLE): {os.strerror(errno)}")


def memory_baseline() -> int:
    """Collect garbage, hand freed heap memory back to the kernel,
    restart its peak-RSS counter (``VmHWM``) and return the current RSS.

    ``peak_rss_mb`` is then the peak of the measured phase above the
    memory still in use, not of set-up.  Without the trim, part of a
    fit's arrays lands in heap pages that set-up freed but left
    resident, which hides them, and how much depends on the allocation
    history: ``lfr1000-fit`` read 90.5 MB in some series and 98.5 MB (one
    more n×n array) in others."""
    from repro.obs.memory import read_rss_bytes

    gc.collect()
    libc = ctypes.CDLL(None)
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")
    return read_rss_bytes()


def import_spans() -> list[tuple[float, float]]:
    """``(start, end)`` of :data:`SETUP_REPEATS` fresh interpreters
    starting and importing :data:`LIBRARY_MODULES` — the first part of
    ``setup_s``."""
    command = [sys.executable, "-c", "import " + ", ".join(LIBRARY_MODULES)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    spans = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        spans.append((start, time.perf_counter()))
    return spans


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

#: Every workload fits one fixed problem instance (graph and cascades)
#: drawn from this seed.  ``--seed`` draws a relabelling of the nodes:
#: the input bytes differ per seed but the work does not, so the spread
#: between seeds measures the machine, not how hard one random instance
#: happened to be (search cost varies 2-4x between random DUNF cascade
#: sets or small LFR graphs).
INSTANCE_SEED = 0


def make_input(kind: str, n: int, beta: int, seed: int, workload: str):
    """``(truth, statuses, label, simulation_seconds)``: the workload's
    instance with node ``i`` renamed ``label[i]``, drawn from ``seed``."""
    import numpy as np

    from repro.graphs.digraph import DiffusionGraph
    from repro.graphs.generators import realworld
    from repro.graphs.generators.lfr import LFRParams, lfr_benchmark_graph
    from repro.simulation.engine import DiffusionSimulator
    from repro.simulation.statuses import StatusMatrix
    from repro.utils.rng import derive_seed

    if kind == "dunf":
        graph = realworld.dunf(INSTANCE_SEED)
        if n < graph.n_nodes:  # --smoke: the subgraph induced on the first n
            edges = [(u, v) for u, v in graph.edges() if u < n and v < n]
            graph = DiffusionGraph(n, edges).freeze()
    else:
        graph = lfr_benchmark_graph(
            LFRParams(n=n, avg_degree=4),
            seed=derive_seed(INSTANCE_SEED, workload, "graph"),
        )
    start = time.perf_counter()
    # Paper defaults: mean propagation probability 0.3, seed ratio 0.15.
    simulated = DiffusionSimulator(
        graph, mu=0.3, alpha=0.15, seed=derive_seed(INSTANCE_SEED, workload, "sim")
    ).run(beta=beta).statuses
    simulation_seconds = time.perf_counter() - start
    label = np.random.default_rng(derive_seed(seed, workload, "label")).permutation(n)
    truth = DiffusionGraph(
        n, [(int(label[u]), int(label[v])) for u, v in graph.edges()]
    ).freeze()
    statuses = StatusMatrix(simulated.values[:, np.argsort(label)])
    return truth, statuses, label, simulation_seconds


def f_score(truth, predicted, children=None) -> float:
    """Edge F1; with ``children`` only edges into those nodes count."""
    from repro.evaluation.metrics import evaluate_edges

    true_edges, predicted_edges = truth.edge_set(), predicted.edge_set()
    if children is not None:
        keep = set(children)
        true_edges = {edge for edge in true_edges if edge[1] in keep}
        predicted_edges = {edge for edge in predicted_edges if edge[1] in keep}
    return evaluate_edges(true_edges, predicted_edges).f_score


# ----------------------------------------------------------------------
# fit workloads
# ----------------------------------------------------------------------

class FitRun:
    def __init__(self, name: str, spec: FitSpec, seed: int, workdir: Path) -> None:
        self.name, self.spec, self.seed, self.workdir = name, spec, seed, workdir

    def estimator(self):
        """A fresh default estimator (plus a fresh spill dir when tiled,
        so no fit times the resume path); returns ``(tends, spill)``."""
        from repro.core.tends import Tends

        if self.spec.tile_size is None:
            return Tends(), None
        spill = Path(tempfile.mkdtemp(prefix="spill-", dir=self.workdir))
        return Tends(tile_size=self.spec.tile_size, spill_dir=str(spill)), spill

    def setup(self) -> float:
        """Build the inputs and warm up; returns the simulation seconds."""
        from repro.simulation.statuses import StatusMatrix

        spec = self.spec
        self.truth, self.statuses, label, sim_seconds = make_input(
            spec.graph, spec.n, spec.beta, self.seed, self.name
        )
        # The shard is the same instance nodes under every relabelling.
        self.shard = (
            None if spec.shard is None
            else tuple(sorted(int(node) for node in label[: spec.shard]))
        )
        warm = StatusMatrix(self.statuses.values[:, :WARMUP_NODES])
        tends, spill = self.estimator()
        tends.fit(warm)
        if spill is not None:
            shutil.rmtree(spill)
        return sim_seconds

    def measure(self, seconds: float, recorder) -> dict:
        """Timed fits until ``seconds`` have passed (at least
        :data:`MIN_FITS`), as ``(start, end)`` intervals.  With a
        recorder, every second fit is traced."""
        untraced, traced, fingerprints, evaluations = [], [], set(), set()
        attempted = failed = 0
        score = None
        spilled = {}
        began = time.perf_counter()
        while attempted < MIN_FITS or time.perf_counter() - began < seconds:
            attempted += 1
            use_trace = recorder is not None and attempted % 2 == 0
            tends, spill = self.estimator()
            gc.collect()
            if use_trace:
                recorder.install()
            try:
                start = time.perf_counter()
                result = tends.fit(self.statuses, nodes=self.shard)
                end = time.perf_counter()
            except Exception:
                failed += 1
                log(traceback.format_exc())
                continue
            finally:
                if use_trace:
                    recorder.uninstall()
            (traced if use_trace else untraced).append((start, end))
            fingerprints.add(result.fingerprint())
            evaluations.add(result.total_evaluations())
            if score is None:
                score = f_score(self.truth, result.graph, self.shard)
            del result, tends
            if spill is not None:
                files = [path for path in spill.rglob("*") if path.is_file()]
                spilled = {
                    "tiles.spilled_mb": sum(p.stat().st_size for p in files) / 1e6,
                    "tiles.files": len(files),
                }
                shutil.rmtree(spill)
        return {
            "spilled": spilled,
            "attempted": attempted,
            "failed": failed,
            "untraced": untraced,
            "traced": traced,
            "fingerprints": fingerprints,
            "evaluations": evaluations,
            "f_score": score,
        }


def run_fit(name, spec, seed, seconds, recorder, workdir, golden, probe):
    """One fit workload; ``golden`` holds the stored fingerprint and
    evaluation count for this seed, when there is one."""
    from repro.obs.memory import read_peak_rss_bytes

    run = FitRun(name, spec, seed, workdir)
    setups, sims = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sims.append(run.setup())
        setups.append((start, time.perf_counter()))
    rss_base = memory_baseline()
    outcome = run.measure(seconds, recorder)
    peak = read_peak_rss_bytes()
    speed = probe.stop()

    problems = []
    if len(outcome["fingerprints"]) > 1:
        problems.append(f"timed fits disagree: {len(outcome['fingerprints'])} fingerprints")
    if len(outcome["evaluations"]) > 1:
        problems.append(f"search.evaluations differ across fits: {outcome['evaluations']}")
    fingerprint = min(outcome["fingerprints"], default=None)
    evaluations = min(outcome["evaluations"], default=None)
    if golden:
        if fingerprint != golden["fingerprint"]:
            problems.append(f"fingerprint {fingerprint} != golden {golden['fingerprint']}")
        if evaluations != golden["evaluations"]:
            problems.append(f"evaluations {evaluations} != golden {golden['evaluations']}")

    times = [speed.corrected(*span) for span in outcome["untraced"]]
    walls = [end - start for start, end in outcome["untraced"]]
    values = {
        "setup_s": statistics.median(speed.corrected(*span) for span in setups),
        "fit_s": statistics.median(times),
        "peak_rss_mb": (peak - rss_base) / 1e6,
        "f_score": outcome["f_score"],
        # A fit's result is available when the call returns: each timed
        # fit is one closed-loop operation, due when the previous ended.
        "publish_p50_ms": percentile(times, 50) * 1e3,
        "simulation.s": statistics.median(sims),
    }
    measured = outcome["untraced"] + outcome["traced"]
    info = {
        "fit_s.samples": (len(times), "count"),
        "fit_s.q1": (percentile(times, 25), "s"),
        "fit_s.q3": (percentile(times, 75), "s"),
        "fit_s.wall": (statistics.median(walls), "s"),
        "host.slowdown": (
            speed.slowdown(min(s for s, _ in measured), max(e for _, e in measured)), "1"
        ),
        "search.evaluations.fit": (evaluations, "count"),
        "kernels.pair_words.fit": (pair_words(run.statuses), "count"),
    }
    if recorder is not None:
        values.update(trace_metrics(recorder))
        traced = statistics.median(speed.corrected(*span) for span in outcome["traced"])
        info["traced.fit_s"] = (traced, "s")
        values["trace.overhead_frac"] = traced / statistics.median(times) - 1.0
        if values["tends.unattributed_frac"] > layer_trace.MAX_UNATTRIBUTED:
            problems.append(
                f"tends.unattributed_frac {values['tends.unattributed_frac']:.4f} "
                f"> {layer_trace.MAX_UNATTRIBUTED}"
            )
        if values["search.evaluations"] != evaluations:
            problems.append(
                f"traced search.evaluations {values['search.evaluations']} "
                f"!= untraced {evaluations}"
            )
        if values["kernels.pair_words"] != pair_words(run.statuses):
            problems.append(
                f"traced kernels.pair_words {values['kernels.pair_words']} "
                f"!= n²·⌈β/64⌉ = {pair_words(run.statuses)}"
            )
        values.update(outcome["spilled"])
    return {
        "values": values,
        "info": info,
        "fingerprint": fingerprint,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": problems,
    }


def pair_words(statuses) -> int:
    return statuses.n_nodes ** 2 * math.ceil(statuses.beta / 64)


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------

class ServeRun:
    def __init__(self, spec: ServeSpec, seed: int, seconds: float, workdir: Path) -> None:
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.n_batches = max(1, round(spec.rate * seconds))

    def setup(self) -> float:
        """Inputs, bootstrap fit and an open, started service; returns
        the simulation seconds."""
        from repro.core.tends import Tends
        from repro.serve import BatchPolicy, IngestService
        from repro.simulation.statuses import StatusMatrix

        spec = self.spec
        self.truth, history, _, sim_seconds = make_input(
            "lfr", spec.n, spec.beta0 + spec.batch * self.n_batches, self.seed,
            "serve-stream",
        )
        values = history.values
        self.bootstrap = StatusMatrix(values[: spec.beta0])
        self.batches = [
            StatusMatrix(values[start : start + spec.batch])
            for start in range(spec.beta0, values.shape[0], spec.batch)
        ]
        tends = Tends()
        tends.fit(self.bootstrap)
        directory = Path(tempfile.mkdtemp(prefix="serve-", dir=self.workdir))
        self.service = IngestService(
            directory,
            model=tends.model,
            batch_policy=BatchPolicy(max_cascades=spec.batch),
            flight_recorder=1024,
        ).start()
        self.directory = directory
        return sim_seconds

    def discard(self) -> None:
        self.service.close(timeout=60)
        shutil.rmtree(self.directory)

    def stream(self) -> dict:
        """Open loop: batch ``i`` is due at ``i / rate`` seconds."""
        from repro.exceptions import ServiceError

        service = self.service
        sent, refused = [], 0
        begin = time.perf_counter() + 0.05
        for index, batch in enumerate(self.batches):
            due = begin + index / self.spec.rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            started = time.perf_counter()
            try:
                seq = service.submit(batch)
            except ServiceError:
                refused += 1
                continue
            sent.append((seq, due, started, time.perf_counter()))
        last_submit = time.perf_counter()
        service.close(timeout=60)
        drained = time.perf_counter() - last_submit
        recorder = service.recorder
        events = recorder.events()
        absorbs = sorted(
            (span for span in recorder.finished() if span.name == "serve.absorb"),
            key=lambda span: span.end,
        )
        return {
            "sent": sent,
            "refused": refused,
            "drained_s": drained,
            "events": events,
            "epoch_offset": recorder.epoch_offset,
            "absorbs": absorbs,
        }


def serve_latencies(outcome: dict, speed) -> dict:
    """Publish, submit, queue-wait and backlog figures from one stream,
    every interval in reference milliseconds (``speed``).

    A batch is published by the first ``publish`` event whose watermark
    covers its sequence number; its absorb is the last ``serve.absorb``
    span that ended before that publish."""

    def ms(start: float, end: float) -> float:
        return speed.corrected(start, end) * 1e3

    offset = outcome["epoch_offset"]
    publishes = sorted(
        (event["unix_time"] - offset, event["seq"])
        for event in outcome["events"]
        if event["kind"] == "publish"
    )
    bad = {
        event["seq"] for event in outcome["events"] if event["kind"] == "quarantine"
    }
    absorbs = outcome["absorbs"]
    publish, submit, late, queue_wait, published_at = [], [], [], [], []
    unpublished = 0
    for seq, due, started, returned in outcome["sent"]:
        submit.append(ms(due, returned))
        late.append(ms(due, started))
        when = next((t for t, watermark in publishes if watermark >= seq), None)
        if when is None or seq in bad:
            unpublished += 1
            continue
        publish.append(ms(due, when))
        published_at.append(when)
        absorb = [span for span in absorbs if span.end <= when]
        if absorb:
            queue_wait.append(ms(returned, absorb[-1].start))
    returns = [returned for _, _, _, returned in outcome["sent"]]
    backlog = max(
        (
            sum(1 for r in returns if r <= moment)
            - sum(1 for p in published_at if p <= moment)
            for moment in returns
        ),
        default=0,
    )
    durations = [speed.corrected(span.start, span.end) for span in absorbs]
    return {
        "publish": publish,
        "submit": submit,
        "late": late,
        "queue_wait": queue_wait,
        "backlog_max": backlog,
        "unpublished": unpublished,
        "absorb_s": durations,
        "absorbs": len(publishes),
    }


def run_serve(spec, seed, seconds, recorder, workdir, probe):
    from repro.core.tends import Tends
    from repro.obs.memory import read_peak_rss_bytes
    from repro.simulation.statuses import StatusMatrix

    run = ServeRun(spec, seed, seconds, workdir)
    setups, sims = [], []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            run.discard()
        start = time.perf_counter()
        sims.append(run.setup())
        setups.append((start, time.perf_counter()))
    rss_base = memory_baseline()
    if recorder is not None:
        recorder.install()
    try:
        outcome = run.stream()
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak = read_peak_rss_bytes()
    service = run.service

    # Untimed, after the metrics: the streamed model must equal a
    # one-shot fit on the bootstrap plus every batch.  The traced run
    # times this refit untraced and traced for trace.overhead_frac.
    history = StatusMatrix.concat([run.bootstrap, *run.batches])
    start = time.perf_counter()
    reference = Tends().fit(history)
    untraced_fit = (start, time.perf_counter())
    if recorder is not None:
        with layer_trace.Recorder():
            start = time.perf_counter()
            Tends().fit(history)
            traced_fit = (start, time.perf_counter())
    speed = probe.stop()
    problems = []
    streamed = service.last_result
    if streamed is None or streamed.fingerprint() != reference.fingerprint():
        problems.append("streamed model fingerprint != one-shot fit on the same history")

    figures = serve_latencies(outcome, speed)
    attempted = len(run.batches)
    failed = outcome["refused"] + figures["unpublished"]
    stream_window = (
        min(due for _, due, _, _ in outcome["sent"]),
        max(returned for _, _, _, returned in outcome["sent"]) + outcome["drained_s"],
    )
    values = {
        "setup_s": statistics.median(speed.corrected(*span) for span in setups),
        "fit_s": statistics.median(figures["absorb_s"]),
        "peak_rss_mb": (peak - rss_base) / 1e6,
        "f_score": f_score(run.truth, service.model.graph()),
        "publish_p50_ms": percentile(figures["publish"], 50),
        "serve.publish_p90_ms": percentile(figures["publish"], 90),
        "simulation.s": statistics.median(sims),
        "serve.submit_p50_ms": percentile(figures["submit"], 50),
        "serve.submit_p90_ms": percentile(figures["submit"], 90),
        "serve.absorb_p50_ms": percentile(figures["absorb_s"], 50) * 1e3,
        "serve.absorb_p90_ms": percentile(figures["absorb_s"], 90) * 1e3,
        "serve.queue_wait_p50_ms": percentile(figures["queue_wait"], 50),
        "serve.absorbs": figures["absorbs"],
        "serve.batches_per_absorb": len(figures["publish"]) / max(1, figures["absorbs"]),
        "serve.backlog_max": figures["backlog_max"],
        "loadgen.late_p90_ms": percentile(figures["late"], 90),
    }
    info = {
        "publish.samples": (len(figures["publish"]), "count"),
        "fit_s.samples": (len(figures["absorb_s"]), "count"),
        "serve.drain_s": (outcome["drained_s"], "s"),
        "host.slowdown": (speed.slowdown(*stream_window), "1"),
    }
    if recorder is not None:
        values.update(trace_metrics(recorder))
        values["trace.overhead_frac"] = (
            speed.corrected(*traced_fit) / speed.corrected(*untraced_fit) - 1.0
        )
    shutil.rmtree(run.directory)
    return {
        "values": values,
        "info": info,
        "fingerprint": reference.fingerprint(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

#: Layer metrics only the serve or tiled workload produces: a workload
#: that never enters the layer reports 0.
UNENTERED_ZERO = (
    "serve.submit_p50_ms", "serve.submit_p90_ms", "serve.absorb_p50_ms",
    "serve.absorb_p90_ms", "serve.queue_wait_p50_ms", "serve.publish_p90_ms",
    "serve.absorbs",
    "serve.batches_per_absorb", "serve.backlog_max", "loadgen.late_p90_ms",
    "tiles.spilled_mb", "tiles.files",
)


def trace_metrics(recorder) -> dict:
    return layer_trace.layer_metrics(recorder.spans, recorder.orphan_leaves)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a few seconds (tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no library sources at {SRC}; run from a repository checkout")
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    disable_huge_pages()
    cpu = hostspeed.pin_to_one_cpu()
    for module in LIBRARY_MODULES:
        importlib.import_module(module)

    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    recorder = layer_trace.Recorder() if args.trace else None
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    print(f"# run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={seconds:g} smoke={int(args.smoke)} cpu={cpu}", flush=True)
    try:
        with hostspeed.SpeedProbe() as probe:
            imports = import_spans()
            if isinstance(spec, ServeSpec):
                report = run_serve(spec, args.seed, seconds, recorder, workdir, probe)
            else:
                golden = None if args.smoke else json.loads(GOLDEN.read_text()).get(
                    args.workload, {}
                ).get(str(args.seed))
                report = run_fit(
                    args.workload, spec, args.seed, seconds, recorder, workdir,
                    golden, probe,
                )
            speed = probe.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = report["values"]
    values["setup_s"] += statistics.median(speed.corrected(*span) for span in imports)
    if recorder is not None:
        for name in UNENTERED_ZERO:
            values.setdefault(name, 0)
    selected = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = [metric["name"] for metric in selected if metric["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in selected
    }
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    for name, (value, unit) in report["info"].items():
        print(f"{name} {value!r} {unit}")
    print(f"fingerprint {report['fingerprint']}")
    if recorder is not None:
        suffix = "-smoke" if args.smoke else ""
        path = RESULTS / f"trace-{args.workload}-{args.seed}{suffix}.json"
        recorder.write(path, values)
        print(f"trace {path.relative_to(ROOT)}")
    for problem in report["problems"]:
        log(f"FAIL: {problem}")
    correct = not report["problems"] and report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
