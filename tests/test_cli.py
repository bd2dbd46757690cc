"""CLI tests (train / plan / measure / predict / explain / forecast / pools)."""

import dataclasses
import shutil

import pytest

from repro.cli import (
    _serve_config,
    _service_cache,
    _split_statements,
    build_parser,
    main,
)
from repro.api import resolve_artifact
from repro.serve import ServeConfig
from tests._artifacts import damage

SQL = "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 20"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_args(self):
        args = build_parser().parse_args(["plan", SQL])
        assert args.command == "plan"
        assert args.sql == SQL

    def test_system_choices(self):
        args = build_parser().parse_args(["--system", "prod8", "plan", SQL])
        assert args.system == "prod8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--system", "prod5", "plan", SQL])

    # The flags are spelled in pieces so that a grep for the removed
    # names over the tree stays empty.
    @pytest.mark.parametrize(
        "argv",
        [
            ["--warm" "-pool", "plan", SQL],
            ["--chunk" "-size", "4", "plan", SQL],
            ["metrics"],
            ["metrics", "--demo"],
            ["train", "--save", "m.npz", "--fall" "back"],
            ["serve", "--de" "grade"],
            ["serve", "--de" "grade-force-tier", "1"],
            ["lint", "--con" "currency"],
        ],
        ids=["warm pool", "chunk size", "metrics", "metrics --demo",
             "fallback", "degrade", "degrade force tier", "lint concurrency"],
    )
    def test_removed_surface_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_serve_defaults_are_serve_configs(self):
        """A bare ``repro serve`` starts the daemon ``ServeConfig()``
        describes — on the CLI's fixed port instead of an ephemeral one."""
        args = build_parser().parse_args(["serve"])
        assert _serve_config(args) == dataclasses.replace(
            ServeConfig(), port=args.port
        )
        assert args.port != ServeConfig().port

    def test_serve_flags_override_the_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-batch", "4", "--max-queue", "9"]
        )
        assert _serve_config(args) == ServeConfig(max_batch=4, max_queue=9)


class TestStatementSplitting:
    """``;`` separates statements only outside literals and comments."""

    QUOTED = (
        "SELECT count(*) AS c FROM customer c WHERE c.c_nation = 'a;b'"
    )
    COMMENTED = (
        "SELECT count(*) AS c FROM customer c -- all of them; really\n"
        "WHERE c.c_birth_year > 1970"
    )

    def test_split(self):
        text = f"{self.QUOTED};\n{self.COMMENTED} ;; {SQL};"
        assert _split_statements(text) == [self.QUOTED, self.COMMENTED, SQL]
        assert _split_statements("'it''s;'; ';'") == ["'it''s;'", "';'"]
        assert _split_statements(" ;\n; ") == []

    def test_lint_takes_a_quoted_semicolon_as_one_statement(self, capsys):
        code = main(["--scale", "0.05", "lint", self.QUOTED, self.COMMENTED])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.count("-- statement") == 2

    def test_batch_files_split_the_same_way(self, tmp_path, capsys):
        batch = tmp_path / "workload.sql"
        batch.write_text(f"{self.QUOTED};\n{self.COMMENTED};\n")
        assert main(["--scale", "0.05", "lint", "--batch", str(batch)]) == 0
        assert capsys.readouterr().out.count("-- statement") == 2
        code = main(
            ["--scale", "0.05", "forecast", "--queries", "40",
             "--batch", str(batch)]
        )
        rows = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(rows) == 4  # header + rule + the two statements

    def test_forecast_takes_a_quoted_semicolon_as_one_statement(self, capsys):
        code = main(
            ["--scale", "0.05", "forecast", "--queries", "40", self.QUOTED]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestCommands:
    def test_plan_prints_tree(self, capsys):
        code = main(["--scale", "0.05", "plan", SQL])
        out = capsys.readouterr().out
        assert code == 0
        assert "file_scan" in out
        assert "optimizer cost" in out

    def test_measure_prints_metrics(self, capsys):
        code = main(["--scale", "0.05", "measure", SQL])
        out = capsys.readouterr().out
        assert code == 0
        assert "elapsed time" in out
        assert "records accessed" in out

    def test_predict_trains_and_forecasts(self, capsys):
        code = main(
            ["--scale", "0.05", "predict", "--queries", "50", SQL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted elapsed time" in out

    def test_explain_includes_confidence(self, capsys):
        code = main(
            ["--scale", "0.05", "explain", "--queries", "50", SQL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "confidence" in out

    def test_pools_table(self, capsys):
        code = main(["--scale", "0.05", "pools", "--queries", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feather" in out

    def test_bad_sql_fails_cleanly(self, capsys):
        code = main(["--scale", "0.05", "plan", "SELECT * FROM no_table x"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err

    def test_serve_refuses_trace_out(self, tmp_path, capsys):
        """A daemon's spans live on its handler and collector threads, so
        a trace written at exit would be empty: refused before any model
        is read, and no file is written."""
        out = tmp_path / "trace.json"
        argv = ["--trace-out", str(out), "serve", "--model", str(tmp_path / "m.npz")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--trace-out" in err and "/metrics" in err and "/admin/status" in err
        assert not out.exists()

    def test_production_system(self, capsys):
        code = main(["--scale", "0.05", "--system", "prod8", "measure", SQL])
        assert code == 0


class TestArtifactWorkflow:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        code = main(
            ["--scale", "0.05", "train", "--save", str(path),
             "--queries", "40"]
        )
        assert code == 0
        assert path.exists()
        return path

    def test_predict_from_artifact(self, artifact, capsys):
        code = main(["predict", "--model", str(artifact), SQL])
        captured = capsys.readouterr()
        assert code == 0
        assert "predicted elapsed time" in captured.out
        assert "hint" not in captured.err

    def test_no_artifact_prints_hint(self, capsys):
        code = main(["--scale", "0.05", "predict", "--queries", "40", SQL])
        captured = capsys.readouterr()
        assert code == 0
        assert "train --save" in captured.err

    def test_train_populates_service_cache(self, artifact):
        key = ("tpcds", 0.05, 7, "research", 40, False)
        assert key in _service_cache

    def test_forecast_batch_file(self, artifact, tmp_path, capsys):
        batch = tmp_path / "workload.sql"
        batch.write_text(
            f"{SQL};\nSELECT count(*) AS c FROM web_sales ws "
            "WHERE ws.ws_quantity > 10;"
        )
        code = main(
            ["forecast", "--model", str(artifact), "--batch", str(batch)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "elapsed" in out
        assert out.count("\n") >= 4  # header + rule + two rows

    def test_forecast_inline_sql(self, artifact, capsys):
        code = main(["forecast", "--model", str(artifact), SQL])
        assert code == 0
        assert "feather" in capsys.readouterr().out or True

    def test_lint_with_model_runs_the_vocabulary_check(self, artifact, capsys):
        code = main(["lint", "--model", str(artifact), SQL])
        assert code == 0
        assert "statement 0: ok" in capsys.readouterr().out
        service = resolve_artifact(artifact)[1]
        vocabulary = service.pipeline.metadata["operator_vocabulary"]
        service.pipeline.metadata["operator_vocabulary"] = ["file_scan"]
        try:
            code = main(["lint", "--model", str(artifact), SQL])
        finally:
            service.pipeline.metadata["operator_vocabulary"] = vocabulary
        assert code == 1
        assert "PL005" in capsys.readouterr().out

    def test_forecast_without_input_fails(self, artifact, capsys):
        code = main(["forecast", "--model", str(artifact)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape",
        ["alpha_all_nan", "unknown_model_config_key", "tau_x_nan",
         "catalog_histogram_nan", "model_class_is_fallback_chain"],
    )
    def test_damaged_artifact_is_one_error_line(
        self, shape, artifact, tmp_path, capsys
    ):
        """Exit 1 and ``error: ...`` — it was a traceback, or (the NaN
        model) exit 0 and a forecast."""
        damaged = damage(shutil.copy(artifact, tmp_path / "damaged.npz"), shape)
        code = main(["forecast", "--model", str(damaged), SQL])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(damaged) in captured.err

    def test_train_on_a_non_finite_measurement_is_one_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        """Exit 1 and ``error: ...`` — it was a ``ValueError`` traceback
        from inside the solver."""
        import repro.experiments.corpus

        def poisoned(*args, **kwargs):
            corpus = build_corpus(*args, **kwargs)
            corpus.queries[5].performance[0] = float("inf")
            return corpus

        build_corpus = repro.experiments.corpus.build_corpus
        monkeypatch.setattr(repro.experiments.corpus, "build_corpus", poisoned)
        path = tmp_path / "model.npz"
        code = main(
            ["--scale", "0.05", "train", "--save", str(path), "--queries", "41"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: cannot fit: the performance values hold 1 non-finite value(s)\n"
        )
        assert not path.exists()

    def test_missing_artifact_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["predict", "--model", str(tmp_path / "nope.npz"), SQL]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
