"""Command-line interface: ``python -m repro <command>``.

The CLI chains the library's stages through files, so each step can be
run, inspected, and re-run independently:

    python -m repro generate lfr --n 200 --avg-degree 4 -o truth.txt
    python -m repro simulate truth.txt --beta 150 -o statuses.csv
    python -m repro infer statuses.csv -o inferred.txt --model-out model.npz
    python -m repro update --model-in model.npz --batch batch.csv \\
        --model-out model.npz -o inferred.txt
    python -m repro evaluate truth.txt inferred.txt
    python -m repro estimate-probabilities inferred.txt statuses.csv
    python -m repro analyze truth.txt inferred.txt
    python -m repro influence inferred.txt --k 5 --statuses statuses.csv
    python -m repro figure fig1 --scale quick

Graphs travel as edge lists (``repro.graphs.io``), statuses as CSV or NPZ
(``repro.simulation.io``); formats are chosen by file extension.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.analysis.compare import compare_topologies
from repro.analysis.influence import greedy_influence_maximization
from repro.core.edge_probabilities import estimate_edge_probabilities
from repro.core.tends import Tends
from repro.evaluation.figures import figure_spec, list_figures
from repro.evaluation.harness import run_experiment
from repro.evaluation.metrics import evaluate_edges
from repro.evaluation.reporting import (
    format_result_table,
    format_series,
    render_markdown_report,
)
from repro.exceptions import ReproError
from repro.graphs import io as graph_io
from repro.graphs.digraph import DiffusionGraph
from repro.graphs.generators.lfr import LFRParams, lfr_benchmark_graph
from repro.graphs.generators.random_graphs import (
    barabasi_albert_digraph,
    erdos_renyi_digraph,
    random_tree_digraph,
)
from repro.graphs.generators.realworld import dunf, netsci
from repro.graphs.metrics import summarize_graph
from repro.simulation import io as sim_io
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.statuses import StatusMatrix
from repro.utils.logging import enable_console_logging

__all__ = ["main", "build_parser"]

#: ``--log-level`` choices → :mod:`logging` levels.
_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """Stage-3 execution backend knobs shared by ``infer`` and ``figure``."""
    parser.add_argument(
        "--executor",
        choices=("serial", "process"),
        default=None,
        help="parent-search execution backend (default: REPRO_EXECUTOR or serial)",
    )
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="parallel workers; -1 = all CPUs (default: REPRO_N_JOBS or 1)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="executions per parallel chunk before its failure is permanent "
        "(default: REPRO_MAX_ATTEMPTS or 3)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="per-chunk wall-clock budget in seconds for the pool backends "
        "(default: REPRO_CHUNK_TIMEOUT or unlimited)",
    )


def _add_tiling_arguments(parser: argparse.ArgumentParser) -> None:
    """Tiled sufficient-statistics knobs shared by ``infer``/``update``/
    ``serve`` (see docs/SCALING.md).  Results are bit-identical to the
    dense path; tiling only bounds memory."""
    parser.add_argument(
        "--tile-size",
        type=int,
        default=None,
        help="block the pair-count/IMI matrices into tiles of this many "
        "nodes per side and spill them to disk, so memory stays "
        "~O(n*tile + tile^2) instead of O(n^2); results are bit-identical "
        "(default: dense)",
    )
    parser.add_argument(
        "--spill-dir",
        type=Path,
        default=None,
        help="directory for spilled tiles; persists across runs, so an "
        "interrupted fit resumes from its completed tiles "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--max-resident-tiles",
        type=int,
        default=None,
        help="LRU cap on simultaneously memory-mapped tiles (default 16)",
    )


def _tiling_overrides(args: argparse.Namespace) -> dict:
    """The non-None tiling fields of ``args`` as TendsConfig overrides."""
    overrides = {}
    if args.tile_size is not None:
        overrides["tile_size"] = args.tile_size
    if args.spill_dir is not None:
        overrides["spill_dir"] = str(args.spill_dir)
    if args.max_resident_tiles is not None:
        overrides["max_resident_tiles"] = args.max_resident_tiles
    return overrides


def _read_statuses(path: Path) -> StatusMatrix:
    if path.suffix == ".npz":
        return sim_io.read_statuses_npz(path)
    return sim_io.read_statuses_csv(path)


def _write_statuses(statuses: StatusMatrix, path: Path) -> None:
    if path.suffix == ".npz":
        sim_io.write_statuses_npz(statuses, path)
    else:
        sim_io.write_statuses_csv(statuses, path)


def _read_graph(path: Path) -> DiffusionGraph:
    if path.suffix == ".json":
        return graph_io.read_json(path)
    return graph_io.read_edge_list(path)


def _write_graph(graph: DiffusionGraph, path: Path) -> None:
    if path.suffix == ".json":
        graph_io.write_json(graph, path)
    else:
        graph_io.write_edge_list(graph, path)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability outputs shared by ``infer`` (see docs/OBSERVABILITY.md)."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans/metrics during the fit even without an output "
        "file (inference results are bit-identical either way)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the span trace here: .jsonl = one span per line, "
        "anything else = Chrome trace_event JSON (chrome://tracing, "
        "ui.perfetto.dev); implies tracing",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the metrics snapshot as a Prometheus-style text dump; "
        "implies tracing",
    )
    parser.add_argument(
        "--manifest-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a run manifest (config, seeds, environment, git "
        "revision, metrics, stage timings) as JSON; implies tracing — "
        "feed it to `repro perf-check`",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="attribute memory per pipeline stage (tracemalloc + peak "
        "RSS) on the telemetry and in the run manifest; results are "
        "bit-identical either way",
    )
    parser.add_argument(
        "--trend-out",
        type=Path,
        default=None,
        metavar="LEDGER",
        help="append this run's timing/memory profile to a perf trend "
        "ledger (JSONL; check it with `repro perf-check --trend`); "
        "implies tracing",
    )


def _write_fit_observability(
    args: argparse.Namespace, estimator: Tends, result
) -> None:
    """Emit ``repro infer`` trace / metrics / manifest outputs."""
    telemetry = result.telemetry
    if telemetry is None:
        return
    if args.trace_out is not None:
        from repro.obs import write_chrome_trace, write_spans_jsonl

        if args.trace_out.suffix == ".jsonl":
            write_spans_jsonl(telemetry.spans, args.trace_out)
        else:
            write_chrome_trace(
                telemetry.spans,
                args.trace_out,
                epoch_offset=telemetry.epoch_offset,
            )
        print(f"trace ({len(telemetry.spans)} spans) written to {args.trace_out}")
    if args.metrics_out is not None:
        from repro.obs import write_prometheus

        write_prometheus(telemetry.metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.manifest_out is not None or args.trend_out is not None:
        from repro.obs import append_trend, manifest_for_fit, write_manifest

        manifest = manifest_for_fit(
            result,
            config=estimator.config,
            seeds={
                "bootstrap_seed": args.bootstrap_seed,
                "corruption_seed": args.corruption_seed,
            },
            extra={"statuses": str(args.statuses), "output": str(args.output)},
        )
        if args.manifest_out is not None:
            write_manifest(manifest, args.manifest_out)
            print(f"run manifest written to {args.manifest_out}")
        if args.trend_out is not None:
            append_trend(args.trend_out, manifest, label="infer")
            print(f"trend ledger entry appended to {args.trend_out}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "lfr":
        graph = lfr_benchmark_graph(
            LFRParams(
                n=args.n,
                avg_degree=args.avg_degree,
                tau=args.tau,
                orientation=args.orientation,
            ),
            seed=args.seed,
        )
    elif args.kind == "er":
        graph = erdos_renyi_digraph(args.n, args.density, seed=args.seed)
    elif args.kind == "ba":
        graph = barabasi_albert_digraph(args.n, args.attach, seed=args.seed)
    elif args.kind == "tree":
        graph = random_tree_digraph(args.n, seed=args.seed)
    elif args.kind == "netsci":
        graph = netsci(args.seed)
    else:  # dunf — choices are closed by argparse
        graph = dunf(args.seed)
    _write_graph(graph, args.output)
    summary = summarize_graph(graph)
    print(f"wrote {args.output}: {summary.as_row()}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    simulator = DiffusionSimulator(
        graph, mu=args.mu, alpha=args.alpha, seed=args.seed
    )
    result = simulator.run(beta=args.beta)
    _write_statuses(result.statuses, args.output)
    print(
        f"simulated {args.beta} processes on {graph.n_nodes} nodes; "
        f"infection fraction {result.infection_fraction():.3f}; "
        f"wrote {args.output}"
    )
    if args.cascades is not None:
        sim_io.write_cascades_jsonl(result.cascades, args.cascades)
        print(f"wrote cascades to {args.cascades}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    statuses = _read_statuses(args.statuses)
    # Optional observation corruption before inference (robustness
    # stress-testing from the command line; deterministic per seed).
    if args.flip_rate is not None or args.missing_rate is not None:
        from repro.robustness import apply_corruptions

        steps = []
        if args.flip_rate is not None:
            steps.append(("flip", args.flip_rate))
        if args.missing_rate is not None:
            steps.append(("missing", args.missing_rate))
        records = apply_corruptions(statuses, steps, seed=args.corruption_seed)
        for record in records:
            print(
                f"corrupted: kind={record.kind} rate={record.rate:g} "
                f"realised={record.realised_fraction:.3f}"
            )
        statuses = records[-1].statuses
    # Any observability output implies a traced fit (tracing never
    # changes the inference result, only records it).
    want_telemetry = args.trace or any(
        value is not None
        for value in (
            args.trace_out, args.metrics_out, args.manifest_out, args.trend_out
        )
    )
    estimator = Tends(
        mi_kind=args.mi_kind,
        threshold="stable" if args.stable_threshold else args.threshold,
        threshold_scale=args.threshold_scale,
        search_strategy=args.search_strategy,
        max_combination_size=args.max_combination_size,
        executor=args.executor,
        n_jobs=args.n_jobs,
        chunk_size=args.chunk_size,
        max_attempts=args.max_attempts,
        chunk_timeout=args.chunk_timeout,
        audit=args.audit,
        missing=args.missing,
        bootstrap_samples=args.bootstrap,
        bootstrap_seed=args.bootstrap_seed,
        trace=want_telemetry,
        memory=args.memory,
        **_tiling_overrides(args),
    )
    result = estimator.fit(statuses)
    _write_graph(result.graph, args.output)
    if args.model_out is not None:
        if estimator.model is None:
            print(
                "warning: bootstrap-backed fits have no incremental model; "
                f"nothing written to {args.model_out}",
                file=sys.stderr,
            )
        else:
            estimator.model.save(args.model_out)
            print(f"incremental model written to {args.model_out}")
    _write_fit_observability(args, estimator, result)
    if result.edge_confidence:
        confidences = sorted(result.edge_confidence.values())
        print(
            f"edge confidence over {result.imi_bootstrap.n_samples} bootstrap "
            f"resamples: min={confidences[0]:.2f} "
            f"median={confidences[len(confidences) // 2]:.2f} "
            f"max={confidences[-1]:.2f}"
        )
    total = sum(
        seconds
        for stage, seconds in result.stage_seconds.items()
        if "/" not in stage  # per-worker entries overlap the stage totals
    )
    print(
        f"TENDS: tau = {result.threshold:.6f}, inferred {result.n_edges} edges "
        f"from {statuses.beta} processes in {total:.2f}s; wrote {args.output}"
    )
    if args.verbose_timing:
        for stage, seconds in result.stage_seconds.items():
            print(f"  {stage}: {seconds:.3f}s")
        for stats in result.worker_stats:
            print(
                f"  worker {stats.worker}: {stats.n_items} nodes in "
                f"{stats.n_chunks} chunks"
            )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    """``repro update``: incremental ``partial_fit`` on a saved model."""
    from repro.core.tends import TendsModel

    model = TendsModel.load(args.model_in)
    overrides = {
        name: value
        for name, value in (
            ("executor", args.executor),
            ("n_jobs", args.n_jobs),
            ("chunk_size", args.chunk_size),
            ("max_attempts", args.max_attempts),
            ("chunk_timeout", args.chunk_timeout),
        )
        if value is not None
    }
    overrides.update(_tiling_overrides(args))
    estimator = Tends.from_model(model, **overrides)
    batch = _read_statuses(args.batch)
    result = estimator.partial_fit(batch)
    estimator.model.save(args.model_out)
    info = result.update
    print(
        f"absorbed {info.batch_beta} processes "
        f"(history now {estimator.model.beta}): tau = {result.threshold:.6f}, "
        f"{result.n_edges} edges; re-searched {info.n_dirty} dirty node(s), "
        f"warm-started {info.n_clean}; model written to {args.model_out}"
    )
    if args.output is not None:
        _write_graph(result.graph, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the crash-safe streaming ingest service.

    Batches arrive either as status files dropped into ``--spool``
    (absorbed in name order, then moved to ``<spool>/done/``) or over
    the optional ``--http`` frontend; both paths journal durably before
    acknowledging.  SIGTERM/SIGINT drains the queue, snapshots, and
    exits 0.  See docs/SERVING.md.
    """
    from repro.core.tends import TendsModel
    from repro.serve import BatchPolicy, IngestService

    model = None
    if args.model is not None:
        model = TendsModel.load(args.model)
    overrides = {
        name: value
        for name, value in (
            ("executor", args.executor),
            ("n_jobs", args.n_jobs),
            ("chunk_size", args.chunk_size),
            ("max_attempts", args.max_attempts),
            ("chunk_timeout", args.chunk_timeout),
        )
        if value is not None
    }
    overrides.update(_tiling_overrides(args))
    drift_config = None
    if args.drift_alpha is not None:
        from repro.core.drift import DriftConfig

        drift_config = DriftConfig(alpha=args.drift_alpha)
    service = IngestService(
        args.directory,
        model,
        batch_policy=BatchPolicy(
            max_cascades=args.max_cascades,
            max_delay_seconds=args.max_delay,
        ),
        queue_capacity=args.queue_capacity,
        backpressure=args.backpressure,
        snapshot_every=args.snapshot_every,
        hang_timeout=args.hang_timeout,
        drift=args.drift,
        drift_window=args.drift_window,
        drift_config=drift_config,
        quarantine_limit=args.quarantine_limit,
        estimator_overrides=overrides,
    )
    if service.recovered_batches:
        print(f"replayed {service.recovered_batches} journaled batch(es)")
    service.start()
    service.handle_signals()

    server = None
    if args.http is not None:
        from repro.serve.http import start_http_server

        host, _, port = args.http.rpartition(":")
        server = start_http_server(service, host or "127.0.0.1", int(port))
        print("HTTP on %s:%d" % server.server_address[:2])

    spool = args.spool
    done_dir = None
    if spool is not None:
        spool.mkdir(parents=True, exist_ok=True)
        done_dir = spool / "done"
        done_dir.mkdir(exist_ok=True)
    stats = service.stats()
    print(
        f"serving from {args.directory} (model: {stats.model_beta} processes, "
        f"{stats.model_edges} edges; journal at seq {stats.journal_seq})"
    )
    try:
        while not service.shutdown_requested:
            absorbed_any = False
            if spool is not None:
                for path in sorted(spool.iterdir()):
                    if path.is_dir() or path.name.startswith("."):
                        continue
                    if path.suffix not in (".npz", ".csv", ".txt"):
                        continue
                    try:
                        seq = service.submit(_read_statuses(path))
                    except ReproError as error:
                        print(f"spool {path.name}: refused ({error})",
                              file=sys.stderr)
                        path.rename(done_dir / f"{path.name}.refused")
                        continue
                    path.rename(done_dir / path.name)
                    print(f"spool {path.name}: journaled as seq {seq}")
                    absorbed_any = True
            if args.once and not absorbed_any:
                break
            service.wait_for_shutdown(args.poll_interval)
    finally:
        if server is not None:
            server.shutdown()
        service.close(drain=True, timeout=args.drain_timeout)
    final = service.stats()
    print(
        f"stopped at seq {final.absorbed_seq}: {final.absorbed_batches} "
        f"batch(es) absorbed, {final.quarantined} quarantined, "
        f"{final.snapshots_written} snapshot(s) written"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    truth = _read_graph(args.truth)
    inferred = _read_graph(args.inferred)
    metrics = evaluate_edges(truth, inferred, undirected=args.undirected)
    mode = "undirected" if args.undirected else "directed"
    print(
        f"{mode}: precision = {metrics.precision:.4f}, "
        f"recall = {metrics.recall:.4f}, F-score = {metrics.f_score:.4f} "
        f"(tp={metrics.true_positives}, fp={metrics.false_positives}, "
        f"fn={metrics.false_negatives})"
    )
    return 0


def _cmd_estimate_probabilities(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    statuses = _read_statuses(args.statuses)
    probabilities = estimate_edge_probabilities(graph, statuses)
    lines = [
        f"{source} {target} {probability:.6f}"
        for (source, target), probability in sorted(probabilities.items())
    ]
    if args.output is not None:
        args.output.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} edge probabilities to {args.output}")
    else:
        print("\n".join(lines))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.evaluation.archive import load_result

    archives = sorted(args.archives)
    if not archives:
        print("no archive files given", file=sys.stderr)
        return 2
    results = [load_result(path) for path in archives]
    text = render_markdown_report(results)
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote report for {len(results)} experiments to {args.output}")
    else:
        print(text)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    truth = _read_graph(args.truth)
    inferred = _read_graph(args.inferred)
    report = compare_topologies(truth, inferred, top_hub_count=args.hubs)
    width = max(len(key) for key in report)
    for key, value in report.items():
        print(f"{key.ljust(width)}  {value:.4f}")
    return 0


def _cmd_influence(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    if args.statuses is not None:
        statuses = _read_statuses(args.statuses)
        probabilities = estimate_edge_probabilities(graph, statuses)
        # Clamp away zero estimates so every edge stays usable.
        probabilities = {
            edge: max(p, 0.01) for edge, p in probabilities.items()
        }
        source = "estimated from statuses"
    else:
        probabilities = {edge: args.probability for edge in graph.edges()}
        source = f"uniform {args.probability}"
    seeds, spread = greedy_influence_maximization(
        graph,
        args.k,
        probabilities,
        n_samples=args.samples,
        seed=args.seed,
    )
    print(
        f"top-{args.k} seeds (edge probabilities {source}): "
        f"{' '.join(str(s) for s in seeds)}"
    )
    print(f"estimated expected spread: {spread:.1f} of {graph.n_nodes} nodes")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.list:
        from repro.evaluation.robustness import list_robustness_figures

        print("available figures:", ", ".join(list_figures()))
        print("robustness benchmarks:", ", ".join(list_robustness_figures()))
        print("drift benchmark: drift")
        print("perf trend charts: trend (requires --ledger)")
        return 0
    if args.figure is not None and (
        args.figure == "robustness" or args.figure.startswith("robustness-")
    ):
        return _run_robustness_figure(args)
    if args.figure == "drift":
        return _run_drift_figure(args)
    if args.figure == "trend":
        return _run_trend_figure(args)
    if args.all:
        figure_ids = list_figures()
    elif args.figure is not None:
        figure_ids = [args.figure]
    else:
        print("specify a figure id, --all, or --list", file=sys.stderr)
        return 2
    from repro.core.executor import execution_env
    from repro.evaluation.checkpoint import checkpoint_path_for

    if (args.resume or args.retry_failed) and args.checkpoint_dir is None:
        print("--resume/--retry-failed require --checkpoint-dir", file=sys.stderr)
        return 2
    for figure_id in figure_ids:
        spec = figure_spec(figure_id, scale=args.scale)
        checkpoint = resume = None
        if args.checkpoint_dir is not None:
            checkpoint = checkpoint_path_for(args.checkpoint_dir, spec.experiment_id)
            if args.resume:
                resume = checkpoint
        harness_metrics = None
        if args.manifest_out is not None:
            from repro.obs import MetricsRegistry

            harness_metrics = MetricsRegistry()
        # Every Tends the harness builds inside this block picks up the
        # requested backend through the environment fallbacks.
        with execution_env(
            executor=args.executor,
            n_jobs=args.n_jobs,
            max_attempts=args.max_attempts,
            chunk_timeout=args.chunk_timeout,
        ):
            result = run_experiment(
                spec,
                seed=args.seed,
                on_error=args.on_error,
                method_timeout=args.method_timeout,
                checkpoint_path=checkpoint,
                resume_from=resume,
                retry_failed=args.retry_failed,
                **({"metrics": harness_metrics} if harness_metrics else {}),
            )
        if args.manifest_out is not None:
            from repro.obs import manifest_for_experiment, write_manifest

            manifest_path = args.manifest_out
            if len(figure_ids) > 1:
                manifest_path = manifest_path.with_name(
                    f"{manifest_path.stem}-{figure_id}{manifest_path.suffix}"
                )
            manifest = manifest_for_experiment(
                result,
                seeds={"seed": args.seed},
                metrics=harness_metrics.snapshot(),
                extra={"scale": args.scale},
            )
            write_manifest(manifest, manifest_path)
            print(f"run manifest written to {manifest_path}")
        failures = result.failures()
        if failures:
            print(
                f"warning: {len(failures)} cell(s) failed "
                f"(on_error={args.on_error})",
                file=sys.stderr,
            )
        print(format_result_table(result))
        print()
        print(format_series(result))
        if args.out is not None:
            from repro.evaluation.archive import save_result

            args.out.mkdir(parents=True, exist_ok=True)
            save_result(result, args.out / f"{figure_id}.json")
            print(f"archived to {args.out / (figure_id + '.json')}")
        if len(figure_ids) > 1:
            print()
    return 0


def _run_robustness_figure(args: argparse.Namespace) -> int:
    """``repro figure robustness[-<kind>]``: the degradation benchmark.

    Bare ``robustness`` sweeps the default corruption kinds; a suffixed id
    runs one kind.  Results archive per kind (JSON) and render as a single
    SVG degradation chart when ``--out`` is given; checkpoint/resume works
    per kind through the standard harness journal.
    """
    from repro.core.executor import execution_env
    from repro.evaluation.robustness import DEFAULT_KINDS, run_robustness_experiment

    if (args.resume or args.retry_failed) and args.checkpoint_dir is None:
        print("--resume/--retry-failed require --checkpoint-dir", file=sys.stderr)
        return 2
    if args.figure == "robustness":
        kinds: tuple[str, ...] = DEFAULT_KINDS
    else:
        kinds = (args.figure[len("robustness-"):],)
    with execution_env(
        executor=args.executor,
        n_jobs=args.n_jobs,
        max_attempts=args.max_attempts,
        chunk_timeout=args.chunk_timeout,
    ):
        results = run_robustness_experiment(
            kinds=kinds,
            scale=args.scale,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            retry_failed=args.retry_failed,
            on_error=args.on_error,
            method_timeout=args.method_timeout,
        )
    failures = [f for result in results.values() for f in result.failures()]
    if failures:
        print(
            f"warning: {len(failures)} cell(s) failed (on_error={args.on_error})",
            file=sys.stderr,
        )
    for kind, result in results.items():
        print(format_result_table(result))
        print()
        print(format_series(result))
        print()
    if args.out is not None:
        from repro.evaluation.archive import save_result
        from repro.evaluation.plotting import robustness_chart

        args.out.mkdir(parents=True, exist_ok=True)
        for kind, result in results.items():
            save_result(result, args.out / f"robustness-{kind}.json")
            print(f"archived to {args.out / f'robustness-{kind}.json'}")
        figure_path = args.out / "robustness.svg"
        figure_path.write_text(robustness_chart(results), encoding="utf-8")
        print(f"figure written to {figure_path}")
    return 0


def _run_drift_figure(args: argparse.Namespace) -> int:
    """``repro figure drift``: the drift detection/recovery benchmark.

    Streams a mid-stream-rewire scenario through one estimator per mode
    (``ignore`` / ``detect`` / ``adapt``), prints per-mode recovery
    against the post-change-only oracle refit, and (with ``--out``)
    writes the F-score trajectory chart.
    """
    from repro.core.executor import execution_env
    from repro.evaluation.drift import run_drift_experiment

    quick = args.scale == "quick"
    with execution_env(
        executor=args.executor,
        n_jobs=args.n_jobs,
        max_attempts=args.max_attempts,
        chunk_timeout=args.chunk_timeout,
    ):
        # Quick scale trades graph size for a stronger rewire so the
        # change is still detectable from 60-cascade windows.
        result = run_drift_experiment(
            n_nodes=60 if quick else 100,
            beta_pre=180 if quick else 240,
            beta_post=180 if quick else 240,
            batch_beta=60,
            rewire_fraction=0.3 if quick else 0.1,
            seed=args.seed if args.seed else 7,
        )
    print(
        f"drift benchmark: n={result.n_nodes}, change at cascade "
        f"{result.change_point}, rewire {result.rewire_fraction:g}, "
        f"oracle F={result.oracle_f:.3f}"
    )
    for row in result.summary_rows():
        latency = row["detection_latency"]
        latency_text = "-" if latency is None else f"{latency} cascades"
        print(
            f"  {row['mode']:<7} final F={row['final_f']:.3f}  "
            f"recovery={row['recovery_ratio']:.3f}  "
            f"detection latency={latency_text}"
        )
    if args.out is not None:
        from repro.evaluation.plotting import drift_chart

        args.out.mkdir(parents=True, exist_ok=True)
        figure_path = args.out / "drift.svg"
        figure_path.write_text(drift_chart(result), encoding="utf-8")
        print(f"figure written to {figure_path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: one fit under the sampling profiler + memory
    attribution, with collapsed-stack / flamegraph / manifest / trend
    artifacts."""
    from repro.obs import (
        SamplingProfiler,
        append_trend,
        manifest_for_fit,
        write_flamegraph,
        write_manifest,
    )

    statuses = _read_statuses(args.statuses)
    estimator = Tends(
        executor=args.executor,
        n_jobs=args.n_jobs,
        max_attempts=args.max_attempts,
        chunk_timeout=args.chunk_timeout,
        trace=True,
        memory=True,
    )
    with SamplingProfiler(hz=args.hz) as profiler:
        result = estimator.fit(statuses)
    profile = profiler.profile
    if args.output is not None:
        _write_graph(result.graph, args.output)
    total = sum(
        seconds
        for stage, seconds in result.stage_seconds.items()
        if "/" not in stage
    )
    print(
        f"profiled fit: {result.n_edges} edges from {statuses.beta} "
        f"processes in {total:.2f}s "
        f"({profile.samples} samples @ {profile.hz:g} Hz)"
    )
    for stage, seconds in result.stage_seconds.items():
        if "/" not in stage:
            print(f"  stage {stage}: {seconds:.3f}s")
    telemetry = result.telemetry
    if telemetry is not None and telemetry.memory:
        for stage, stats in telemetry.memory.items():
            peak_rss = stats.get("peak_rss_bytes") or 0
            print(
                f"  memory {stage}: alloc={stats['alloc_bytes'] / 1e6:.1f}MB "
                f"peak_alloc={stats['peak_alloc_bytes'] / 1e6:.1f}MB "
                f"peak_rss={peak_rss / 1e6:.1f}MB"
            )
    if profile.samples:
        print(f"hottest frames (top {args.top} by self samples):")
        for frame, count in profile.top(args.top):
            print(f"  {count:>6}  {frame}")
    else:
        print(
            "no samples captured (fit finished within one sampling "
            "interval; raise --hz or use a larger input)"
        )
    if args.collapsed is not None:
        args.collapsed.parent.mkdir(parents=True, exist_ok=True)
        text = profile.collapsed()
        args.collapsed.write_text(text + "\n" if text else "", encoding="utf-8")
        print(f"collapsed stacks written to {args.collapsed}")
    if args.flamegraph is not None:
        write_flamegraph(
            profile.stacks,
            args.flamegraph,
            title=f"repro profile: {args.statuses.name}",
        )
        print(f"flamegraph written to {args.flamegraph}")
    if args.manifest_out is not None or args.trend_out is not None:
        manifest = manifest_for_fit(
            result,
            config=estimator.config,
            seeds={},
            extra={
                "statuses": str(args.statuses),
                "profile_samples": profile.samples,
                "profile_hz": profile.hz,
            },
        )
        if args.manifest_out is not None:
            write_manifest(manifest, args.manifest_out)
            print(f"run manifest written to {args.manifest_out}")
        if args.trend_out is not None:
            append_trend(args.trend_out, manifest, label="profile")
            print(f"trend ledger entry appended to {args.trend_out}")
    return 0


def _run_trend_figure(args: argparse.Namespace) -> int:
    """``repro figure trend``: time/memory trajectory SVGs off a ledger."""
    from repro.exceptions import DataError
    from repro.evaluation.plotting import save_line_chart
    from repro.obs import load_trend, trend_series

    if args.ledger is None:
        print("figure trend requires --ledger LEDGER.jsonl", file=sys.stderr)
        return 2
    entries = load_trend(args.ledger)
    if not entries:
        print(f"error: no readable entries in {args.ledger}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    timings = trend_series(entries, section="timings")
    if timings:
        path = out_dir / "trend-time.svg"
        save_line_chart(
            timings,
            path,
            title=f"perf trend: stage timings ({len(entries)} runs)",
            x_label="ledger entry",
            y_label="seconds",
        )
        written.append(path)
    memory = trend_series(entries, section="memory")
    if memory:
        scaled = {
            metric: [(x, value / 1e6) for x, value in points]
            for metric, points in memory.items()
        }
        path = out_dir / "trend-memory.svg"
        save_line_chart(
            scaled,
            path,
            title=f"perf trend: memory ({len(entries)} runs)",
            x_label="ledger entry",
            y_label="MB",
        )
        written.append(path)
    if not written:
        raise DataError(f"ledger {args.ledger} has no timing or memory series")
    for path in written:
        print(f"figure written to {path}")
    return 0


def _cmd_perf_check(args: argparse.Namespace) -> int:
    """``repro perf-check``: 0 = within budget, 1 = regression, 2 = bad input."""
    from repro.exceptions import DataError
    from repro.obs import (
        check_trend,
        compare_profiles,
        format_report,
        load_timing_profile,
        load_trend,
    )

    try:
        if args.trend is not None:
            if args.subject is not None or args.baseline is not None:
                print(
                    "error: --trend takes no subject/--baseline (the ledger "
                    "is both)",
                    file=sys.stderr,
                )
                return 2
            entries = load_trend(args.trend)
            report = check_trend(
                entries,
                window=args.window,
                max_slowdown=args.max_slowdown,
                min_seconds=args.min_seconds,
                max_memory_growth=args.max_memory_growth,
            )
        else:
            if args.subject is None or args.baseline is None:
                print(
                    "error: need a subject and --baseline (or --trend LEDGER)",
                    file=sys.stderr,
                )
                return 2
            current = load_timing_profile(args.subject)
            baseline = load_timing_profile(args.baseline)
            report = compare_profiles(
                current,
                baseline,
                max_slowdown=args.max_slowdown,
                min_seconds=args.min_seconds,
            )
    except DataError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_report(report))
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TENDS diffusion-network reconstruction toolkit",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="enable console logging on the repro logger: -v = INFO, "
        "-vv = DEBUG (recovery events always log at WARNING)",
    )
    parser.add_argument(
        "--log-level",
        choices=tuple(_LOG_LEVELS),
        default=None,
        help="explicit console log level (overrides -v)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a ground-truth network")
    generate.add_argument(
        "kind", choices=("lfr", "er", "ba", "tree", "netsci", "dunf")
    )
    generate.add_argument("--n", type=int, default=200)
    generate.add_argument("--avg-degree", type=float, default=4.0)
    generate.add_argument("--tau", type=float, default=2.0)
    generate.add_argument(
        "--orientation", choices=("reciprocal", "random"), default="reciprocal"
    )
    generate.add_argument("--density", type=float, default=0.02, help="ER edge probability")
    generate.add_argument("--attach", type=int, default=2, help="BA attachment count")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", type=Path, required=True)
    generate.set_defaults(func=_cmd_generate)

    simulate = subparsers.add_parser("simulate", help="simulate diffusion processes")
    simulate.add_argument("graph", type=Path)
    simulate.add_argument("--beta", type=int, default=150)
    simulate.add_argument("--mu", type=float, default=0.3)
    simulate.add_argument("--alpha", type=float, default=0.15)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("-o", "--output", type=Path, required=True)
    simulate.add_argument(
        "--cascades", type=Path, default=None, help="also write cascades (JSONL)"
    )
    simulate.set_defaults(func=_cmd_simulate)

    infer = subparsers.add_parser("infer", help="run TENDS on a status matrix")
    infer.add_argument("statuses", type=Path)
    infer.add_argument("--mi-kind", choices=("infection", "traditional"), default="infection")
    infer.add_argument("--threshold", type=float, default=None)
    infer.add_argument("--threshold-scale", type=float, default=1.0)
    infer.add_argument(
        "--search-strategy",
        choices=("greedy-rescoring", "ranked-union"),
        default="greedy-rescoring",
    )
    infer.add_argument("--max-combination-size", type=int, default=1)
    _add_executor_arguments(infer)
    _add_tiling_arguments(infer)
    infer.add_argument("--chunk-size", type=int, default=None)
    infer.add_argument(
        "--audit",
        choices=("warn", "strict", "ignore"),
        default="warn",
        help="degenerate-observation policy: warn (default), strict "
        "(refuse), or ignore",
    )
    infer.add_argument(
        "--missing",
        choices=("pairwise", "refuse", "zero-fill"),
        default="pairwise",
        help="missing-data policy for masked observations: pairwise "
        "(default, mask-aware counts), refuse, or zero-fill",
    )
    infer.add_argument(
        "--flip-rate",
        type=float,
        default=None,
        help="corrupt the observations first: flip each status with this "
        "probability (robustness stress test)",
    )
    infer.add_argument(
        "--missing-rate",
        type=float,
        default=None,
        help="corrupt the observations first: mark each status unobserved "
        "with this probability (applied after --flip-rate)",
    )
    infer.add_argument(
        "--corruption-seed",
        type=int,
        default=0,
        help="seed for --flip-rate/--missing-rate corruption (default 0)",
    )
    infer.add_argument(
        "--bootstrap",
        type=int,
        default=None,
        metavar="B",
        help="bootstrap the IMI matrix with B resamples and report "
        "per-edge confidence scores",
    )
    infer.add_argument(
        "--bootstrap-seed",
        type=int,
        default=0,
        help="seed for the bootstrap resampling streams (default 0)",
    )
    infer.add_argument(
        "--stable-threshold",
        action="store_true",
        help="stability-screened pruning: keep only pairs whose bootstrap "
        "IMI confidence interval clears the auto-selected tau "
        "(implies a bootstrap; overrides --threshold)",
    )
    infer.add_argument(
        "--verbose-timing",
        action="store_true",
        help="print per-stage and per-worker timing breakdowns",
    )
    infer.add_argument(
        "--model-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="checkpoint the fitted incremental model (NPZ) for later "
        "`repro update` runs",
    )
    _add_obs_arguments(infer)
    infer.add_argument("-o", "--output", type=Path, required=True)
    infer.set_defaults(func=_cmd_infer)

    update = subparsers.add_parser(
        "update",
        help="incrementally absorb a batch of processes into a saved model",
        description="Load a TENDS model checkpoint, partial_fit a batch of "
        "newly observed statuses (bit-identical to refitting the full "
        "history), and save the updated model.",
    )
    update.add_argument(
        "--model-in",
        type=Path,
        required=True,
        help="model checkpoint written by `repro infer --model-out` or a "
        "previous `repro update`",
    )
    update.add_argument(
        "--batch",
        type=Path,
        required=True,
        help="newly observed statuses (CSV or NPZ) to absorb",
    )
    update.add_argument(
        "--model-out",
        type=Path,
        required=True,
        help="where to write the updated model (may equal --model-in)",
    )
    _add_executor_arguments(update)
    _add_tiling_arguments(update)
    update.add_argument("--chunk-size", type=int, default=None)
    update.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="also write the updated inferred graph",
    )
    update.set_defaults(func=_cmd_update)

    serve = subparsers.add_parser(
        "serve",
        help="run the crash-safe streaming ingest service",
        description="Long-running service that journals incoming cascade "
        "batches durably (WAL, fsync + CRC), absorbs them incrementally "
        "via partial_fit, and serves the current inferred network to "
        "concurrent readers.  Kill-safe: restart replays the journal to a "
        "bit-identical model.  See docs/SERVING.md.",
    )
    serve.add_argument(
        "directory",
        type=Path,
        help="service state directory (journal, quarantine, snapshots)",
    )
    serve.add_argument(
        "--model",
        type=Path,
        default=None,
        help="bootstrap model checkpoint; required on first open of an "
        "empty directory, ignored afterwards",
    )
    serve.add_argument(
        "--spool",
        type=Path,
        default=None,
        help="directory watched for status files (.npz/.csv/.txt) to "
        "ingest; processed files move to <spool>/done/",
    )
    serve.add_argument(
        "--http",
        default=None,
        metavar="[HOST:]PORT",
        help="also serve the HTTP frontend (POST /ingest, GET /edges "
        "/health /stats /metrics); binds 127.0.0.1 unless HOST is given",
    )
    serve.add_argument(
        "--max-cascades",
        type=int,
        default=64,
        help="absorb as soon as this many cascades are pending",
    )
    serve.add_argument(
        "--max-delay",
        type=float,
        default=1.0,
        help="absorb after the oldest pending batch waited this many seconds",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=1024,
        help="bounded-queue capacity in pending cascades",
    )
    serve.add_argument(
        "--backpressure",
        choices=("block", "reject", "shed"),
        default="block",
        help="full-queue policy (docs/SERVING.md#backpressure)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        help="crash-atomic model snapshot cadence, in absorbed batches",
    )
    serve.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        help="watchdog restarts the absorb loop after this many seconds "
        "without a heartbeat",
    )
    serve.add_argument(
        "--drift",
        choices=("off", "detect", "adapt", "snapshot-adapt"),
        default="off",
        help="per-pair drift policy after each absorb: log-only detection, "
        "self-healing adaptation, or snapshot-before-adapt "
        "(docs/ROBUSTNESS.md#drift)",
    )
    serve.add_argument(
        "--drift-window",
        type=int,
        default=None,
        help="recent-window size in cascades for the drift comparison "
        "(default: the just-absorbed batch)",
    )
    serve.add_argument(
        "--drift-alpha",
        type=float,
        default=None,
        help="drift detector significance level (default 0.01; lower it "
        "on large graphs — the BH correction runs over ~n²/2 pair tests)",
    )
    serve.add_argument(
        "--quarantine-limit",
        type=int,
        default=1024,
        help="max quarantined batches kept on disk; older entries covered "
        "by a snapshot are compacted away",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="spool scan interval in seconds",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="max seconds to wait for the queue to drain on shutdown "
        "(default: wait indefinitely; undrained batches stay journaled)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="drain the spool once, absorb, snapshot, and exit (scripting)",
    )
    _add_executor_arguments(serve)
    _add_tiling_arguments(serve)
    serve.add_argument("--chunk-size", type=int, default=None)
    serve.set_defaults(func=_cmd_serve)

    evaluate = subparsers.add_parser("evaluate", help="score an inferred topology")
    evaluate.add_argument("truth", type=Path)
    evaluate.add_argument("inferred", type=Path)
    evaluate.add_argument("--undirected", action="store_true")
    evaluate.set_defaults(func=_cmd_evaluate)

    estimate = subparsers.add_parser(
        "estimate-probabilities",
        help="estimate per-edge propagation probabilities",
    )
    estimate.add_argument("graph", type=Path)
    estimate.add_argument("statuses", type=Path)
    estimate.add_argument("-o", "--output", type=Path, default=None)
    estimate.set_defaults(func=_cmd_estimate_probabilities)

    report = subparsers.add_parser(
        "report", help="render archived experiment results as Markdown"
    )
    report.add_argument("archives", type=Path, nargs="*")
    report.add_argument("-o", "--output", type=Path, default=None)
    report.set_defaults(func=_cmd_report)

    analyze = subparsers.add_parser(
        "analyze", help="structural truth-vs-inferred comparison report"
    )
    analyze.add_argument("truth", type=Path)
    analyze.add_argument("inferred", type=Path)
    analyze.add_argument("--hubs", type=int, default=10)
    analyze.set_defaults(func=_cmd_analyze)

    influence = subparsers.add_parser(
        "influence", help="greedy influence-maximising seed selection"
    )
    influence.add_argument("graph", type=Path)
    influence.add_argument("--k", type=int, default=5)
    influence.add_argument(
        "--statuses",
        type=Path,
        default=None,
        help="estimate edge probabilities from these statuses",
    )
    influence.add_argument("--probability", type=float, default=0.3)
    influence.add_argument("--samples", type=int, default=100)
    influence.add_argument("--seed", type=int, default=0)
    influence.set_defaults(func=_cmd_influence)

    figure = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("figure", nargs="?", default=None)
    figure.add_argument("--scale", choices=("quick", "full"), default="quick")
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--list", action="store_true")
    figure.add_argument("--all", action="store_true", help="run every figure")
    _add_executor_arguments(figure)
    figure.add_argument(
        "--out", type=Path, default=None, help="archive results (JSON) here"
    )
    figure.add_argument(
        "--on-error",
        choices=("raise", "skip", "retry"),
        default="raise",
        help="per-method failure boundary: raise (default, fail fast), "
        "skip (record the failure, keep sweeping), retry (re-run, then skip)",
    )
    figure.add_argument(
        "--method-timeout",
        type=float,
        default=None,
        help="per-method wall-clock budget in seconds "
        "(a timeout counts as a failure under --on-error)",
    )
    figure.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="journal completed cells to DIR/<figure>.checkpoint.jsonl",
    )
    figure.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already journaled under --checkpoint-dir",
    )
    figure.add_argument(
        "--retry-failed",
        action="store_true",
        help="with --resume: re-run journaled cells that recorded a failure",
    )
    figure.add_argument(
        "--manifest-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write one run manifest per figure (method timings, harness "
        "counters); with --all the figure id is appended to the stem",
    )
    figure.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="LEDGER",
        help="for `figure trend`: the perf trend ledger (JSONL) to chart",
    )
    figure.set_defaults(func=_cmd_figure)

    perf_check = subparsers.add_parser(
        "perf-check",
        help="fail when a run manifest regressed against a baseline",
        description="Compare the timing profile of a run manifest (or "
        "benchmark archive) against a baseline one and exit non-zero on "
        "slowdowns beyond the budget.",
    )
    perf_check.add_argument(
        "subject",
        type=Path,
        nargs="?",
        default=None,
        help="current run manifest / benchmark archive",
    )
    perf_check.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline manifest / archive to compare against",
    )
    perf_check.add_argument(
        "--trend",
        type=Path,
        default=None,
        metavar="LEDGER",
        help="check the newest entry of a perf trend ledger (JSONL, see "
        "`repro infer --trend-out`) against the rolling median of the "
        "previous --window entries instead of a pairwise comparison",
    )
    perf_check.add_argument(
        "--window",
        type=int,
        default=5,
        help="with --trend: rolling-baseline window size (default 5)",
    )
    perf_check.add_argument(
        "--max-slowdown",
        type=float,
        default=1.5,
        help="permitted current/baseline ratio per timing entry (default 1.5)",
    )
    perf_check.add_argument(
        "--min-seconds",
        type=float,
        default=0.01,
        help="skip entries faster than this on both sides (default 0.01s)",
    )
    perf_check.add_argument(
        "--max-memory-growth",
        type=float,
        default=1.5,
        help="with --trend: permitted current/baseline ratio per memory "
        "entry (default 1.5)",
    )
    perf_check.set_defaults(func=_cmd_perf_check)

    profile = subparsers.add_parser(
        "profile",
        help="run one profiled fit (sampling profiler + memory attribution)",
        description="Fit the status matrix under the sampling wall-clock "
        "profiler with per-stage memory attribution enabled, and print the "
        "hottest frames and peak memory per stage.  Optional artifacts: "
        "collapsed stacks, an SVG flamegraph, a run manifest, and a perf "
        "trend ledger entry.",
    )
    profile.add_argument(
        "statuses", type=Path, help="status matrix (.npz) to fit"
    )
    profile.add_argument(
        "--hz",
        type=float,
        default=97.0,
        help="sampling rate in samples/second (default 97; prime, to dodge "
        "lockstep with periodic work)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many hottest frames to print (default 10)",
    )
    profile.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="also write the inferred graph here",
    )
    profile.add_argument(
        "--collapsed",
        type=Path,
        default=None,
        metavar="FILE",
        help="write collapsed stacks ('frame;frame count' lines, the "
        "flamegraph.pl interchange format)",
    )
    profile.add_argument(
        "--flamegraph",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a self-contained SVG flamegraph",
    )
    profile.add_argument(
        "--manifest-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a run manifest (timings + memory) for `repro perf-check`",
    )
    profile.add_argument(
        "--trend-out",
        type=Path,
        default=None,
        metavar="LEDGER",
        help="append this run's profile to a perf trend ledger (JSONL)",
    )
    _add_executor_arguments(profile)
    profile.set_defaults(func=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        enable_console_logging(_LOG_LEVELS[args.log_level])
    elif args.verbose:
        enable_console_logging(
            logging.DEBUG if args.verbose >= 2 else logging.INFO
        )
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): exit quietly.
        sys.stderr.close()
        return 0
