"""Command-line interface: each command and the full pipeline."""

import pytest

from repro.cli import main
from repro.graphs.io import read_edge_list


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


class TestGenerate:
    @pytest.mark.parametrize("kind", ["lfr", "er", "ba", "tree"])
    def test_kinds(self, workspace, kind, capsys):
        output = workspace / "g.txt"
        code = main(
            ["generate", kind, "--n", "40", "--seed", "1", "-o", str(output)]
        )
        assert code == 0
        graph = read_edge_list(output)
        assert graph.n_nodes == 40
        assert "wrote" in capsys.readouterr().out

    def test_json_output(self, workspace):
        output = workspace / "g.json"
        assert main(["generate", "er", "--n", "20", "-o", str(output)]) == 0
        from repro.graphs.io import read_json

        assert read_json(output).n_nodes == 20

    def test_netsci_fixed_size(self, workspace):
        output = workspace / "netsci.txt"
        assert main(["generate", "netsci", "-o", str(output)]) == 0
        assert read_edge_list(output).n_edges == 1602


class TestPipeline:
    def test_generate_simulate_infer_evaluate(self, workspace, capsys):
        truth = workspace / "truth.txt"
        statuses = workspace / "statuses.csv"
        inferred = workspace / "inferred.txt"

        assert main(["generate", "lfr", "--n", "60", "-o", str(truth)]) == 0
        assert (
            main(
                [
                    "simulate",
                    str(truth),
                    "--beta",
                    "100",
                    "--seed",
                    "3",
                    "-o",
                    str(statuses),
                ]
            )
            == 0
        )
        assert main(["infer", str(statuses), "-o", str(inferred)]) == 0
        assert main(["evaluate", str(truth), str(inferred)]) == 0
        out = capsys.readouterr().out
        assert "F-score" in out
        assert "tau" in out

    def test_npz_statuses_path(self, workspace):
        truth = workspace / "truth.txt"
        statuses = workspace / "statuses.npz"
        inferred = workspace / "inferred.txt"
        assert main(["generate", "er", "--n", "30", "--density", "0.1", "-o", str(truth)]) == 0
        assert main(["simulate", str(truth), "--beta", "60", "-o", str(statuses)]) == 0
        assert main(["infer", str(statuses), "-o", str(inferred)]) == 0

    def test_cascades_side_output(self, workspace):
        truth = workspace / "truth.txt"
        statuses = workspace / "s.csv"
        cascades = workspace / "c.jsonl"
        assert main(["generate", "tree", "--n", "20", "-o", str(truth)]) == 0
        assert (
            main(
                [
                    "simulate",
                    str(truth),
                    "--beta",
                    "20",
                    "-o",
                    str(statuses),
                    "--cascades",
                    str(cascades),
                ]
            )
            == 0
        )
        from repro.simulation.io import read_cascades_jsonl

        assert read_cascades_jsonl(cascades).beta == 20

    def test_estimate_probabilities(self, workspace, capsys):
        truth = workspace / "truth.txt"
        statuses = workspace / "s.csv"
        probs = workspace / "p.txt"
        assert main(["generate", "lfr", "--n", "50", "-o", str(truth)]) == 0
        assert main(["simulate", str(truth), "--beta", "80", "-o", str(statuses)]) == 0
        assert (
            main(
                [
                    "estimate-probabilities",
                    str(truth),
                    str(statuses),
                    "-o",
                    str(probs),
                ]
            )
            == 0
        )
        lines = probs.read_text().strip().splitlines()
        assert len(lines) == 200  # 50 nodes * avg degree 4


class TestInferOptions:
    def test_tuned_inference_flags(self, workspace):
        truth = workspace / "t.txt"
        statuses = workspace / "s.csv"
        inferred = workspace / "i.txt"
        assert main(["generate", "lfr", "--n", "50", "-o", str(truth)]) == 0
        assert main(["simulate", str(truth), "--beta", "80", "-o", str(statuses)]) == 0
        code = main(
            [
                "infer",
                str(statuses),
                "--mi-kind",
                "traditional",
                "--threshold-scale",
                "1.5",
                "--search-strategy",
                "ranked-union",
                "-o",
                str(inferred),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executor_flags_do_not_change_the_graph(
        self, workspace, executor, capsys
    ):
        truth = workspace / "t.txt"
        statuses = workspace / "s.csv"
        serial_out = workspace / "serial.txt"
        parallel_out = workspace / f"{executor}.txt"
        assert main(["generate", "lfr", "--n", "40", "-o", str(truth)]) == 0
        assert main(["simulate", str(truth), "--beta", "60", "-o", str(statuses)]) == 0
        assert main(["infer", str(statuses), "-o", str(serial_out)]) == 0
        code = main(
            [
                "infer",
                str(statuses),
                "--executor",
                executor,
                "--n-jobs",
                "2",
                "--chunk-size",
                "8",
                "--verbose-timing",
                "-o",
                str(parallel_out),
            ]
        )
        assert code == 0
        assert parallel_out.read_text() == serial_out.read_text()
        out = capsys.readouterr().out
        assert "search" in out  # verbose timing breakdown printed


class TestReport:
    def test_report_from_archive(self, workspace, capsys):
        from repro.baselines.base import TendsInferrer
        from repro.evaluation.archive import save_result
        from repro.evaluation.harness import (
            ExperimentSpec,
            MethodSpec,
            SweepPoint,
            run_experiment,
        )
        from repro.graphs.generators.random_graphs import erdos_renyi_digraph

        spec = ExperimentSpec(
            experiment_id="cli-report",
            title="CLI report demo",
            x_label="n",
            points=(
                SweepPoint(
                    "n=10", 10, lambda s: erdos_renyi_digraph(10, 0.2, seed=s), beta=20
                ),
            ),
            methods=(MethodSpec("TENDS", lambda ctx: TendsInferrer()),),
        )
        archive = workspace / "cli-report.json"
        save_result(run_experiment(spec, seed=0), archive)

        out_file = workspace / "report.md"
        assert main(["report", str(archive), "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "CLI report demo" in text
        assert "**F-score**" in text

    def test_report_without_archives_is_usage_error(self, capsys):
        assert main(["report"]) == 2


class TestAnalyzeAndInfluence:
    def test_analyze_report(self, workspace, capsys):
        truth = workspace / "t.txt"
        assert main(["generate", "lfr", "--n", "50", "-o", str(truth)]) == 0
        assert main(["analyze", str(truth), str(truth)]) == 0
        out = capsys.readouterr().out
        assert "f_score" in out
        assert "hub_overlap" in out
        assert "1.0000" in out  # self-comparison is perfect

    def test_influence_uniform(self, workspace, capsys):
        graph = workspace / "g.txt"
        assert main(["generate", "ba", "--n", "30", "-o", str(graph)]) == 0
        code = main(
            ["influence", str(graph), "--k", "2", "--samples", "30", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-2 seeds" in out
        assert "expected spread" in out

    def test_influence_with_estimated_probabilities(self, workspace, capsys):
        truth = workspace / "t.txt"
        statuses = workspace / "s.csv"
        assert main(["generate", "lfr", "--n", "40", "-o", str(truth)]) == 0
        assert main(["simulate", str(truth), "--beta", "60", "-o", str(statuses)]) == 0
        code = main(
            [
                "influence",
                str(truth),
                "--k",
                "2",
                "--statuses",
                str(statuses),
                "--samples",
                "20",
            ]
        )
        assert code == 0
        assert "estimated from statuses" in capsys.readouterr().out


class TestFigure:
    def test_list(self, capsys):
        assert main(["figure", "--list"]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_missing_figure_id_is_usage_error(self, capsys):
        assert main(["figure"]) == 2

    def test_figure_archive_output(self, workspace, capsys, monkeypatch):
        # Shrink fig3 to a single tiny run by monkeypatching the spec.
        import repro.cli as cli_module
        from repro.evaluation.figures import figure_spec as real_spec

        def tiny_spec(figure_id, scale="full"):
            spec = real_spec(figure_id, scale="quick")
            from dataclasses import replace

            return replace(spec, points=spec.points[:1], methods=spec.methods[:1])

        monkeypatch.setattr(cli_module, "figure_spec", tiny_spec)
        out_dir = workspace / "archives"
        code = main(["figure", "fig3", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "fig3.json").exists()
        from repro.evaluation.archive import load_result

        assert load_result(out_dir / "fig3.json").spec.experiment_id == "fig3"

    def test_repro_error_is_clean_exit(self, workspace, capsys):
        missing = workspace / "does-not-exist.csv"
        missing.write_text("")  # empty -> DataError from the reader
        code = main(["infer", str(missing), "-o", str(workspace / "x.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUpdate:
    def test_infer_checkpoint_then_update(self, workspace, capsys):
        truth = workspace / "truth.txt"
        statuses = workspace / "statuses.csv"
        batch = workspace / "batch.csv"
        model = workspace / "model.npz"
        graph_out = workspace / "updated.txt"
        assert main(["generate", "er", "--n", "24", "--density", "0.12",
                     "--seed", "5", "-o", str(truth)]) == 0
        assert main(["simulate", str(truth), "--beta", "80", "--seed", "3",
                     "-o", str(statuses)]) == 0
        assert main(["simulate", str(truth), "--beta", "20", "--seed", "4",
                     "-o", str(batch)]) == 0
        assert main(["infer", str(statuses),
                     "-o", str(workspace / "initial.txt"),
                     "--model-out", str(model)]) == 0
        assert model.exists()

        code = main(["update", "--model-in", str(model), "--batch", str(batch),
                     "--model-out", str(model), "-o", str(graph_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "absorbed 20 processes" in out
        assert "history now 100" in out

        # The CLI chain must agree with the in-process incremental path.
        from repro.core.tends import Tends
        from repro.simulation import io as sim_io

        first = sim_io.read_statuses_csv(statuses)
        estimator = Tends()
        estimator.fit(first)
        expected = estimator.partial_fit(sim_io.read_statuses_csv(batch))
        assert read_edge_list(graph_out).edge_set() == set(
            expected.graph.edge_set()
        )

        # And the re-written checkpoint keeps absorbing batches.
        assert main(["update", "--model-in", str(model),
                     "--batch", str(batch), "--model-out", str(model)]) == 0

    def test_update_refuses_corrupt_model(self, workspace, capsys):
        bad = workspace / "bad.npz"
        bad.write_bytes(b"definitely not a model")
        batch = workspace / "batch.csv"
        truth = workspace / "truth.txt"
        assert main(["generate", "er", "--n", "10", "-o", str(truth)]) == 0
        assert main(["simulate", str(truth), "--beta", "10",
                     "-o", str(batch)]) == 0
        code = main(["update", "--model-in", str(bad), "--batch", str(batch),
                     "--model-out", str(workspace / "out.npz")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
