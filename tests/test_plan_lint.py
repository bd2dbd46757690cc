"""Pack B of repro.analysis: plan lint on compiled PlanNode trees.

Each PL rule is exercised on a hand-built tree (positive and negative),
then the wiring is checked end to end: ``Optimizer.optimize`` attaches
warnings, the metrics counter increments, the trained service surfaces
warnings on :class:`Forecast` / ``lint()`` / ``explain()``, and the
``repro lint`` CLI exits 1 with the rule ID in its output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import cli
from repro.analysis import (
    corpus_vocabulary,
    lint_plan,
    plan_vocabulary,
    vocabulary_warnings,
)
from repro.analysis.planlint import BROADCAST_WARN_BYTES
from repro.api import QueryPerformancePredictor
from repro.core.features import PLAN_FEATURE_NAMES, plan_feature_matrix
from repro.engine.plan import OperatorKind, PlanNode
from repro.engine.system import research_4node
from repro.obs import metrics as obs_metrics

#: Joins two small tables without a predicate at every tested scale.
CROSS_JOIN_SQL = (
    "SELECT count(*) AS c FROM store_sales ss, promotion p"
)
CLEAN_SQL = (
    "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 30"
)


def scan(rows: float, row_bytes: float = 8.0) -> PlanNode:
    return PlanNode(
        kind=OperatorKind.FILE_SCAN,
        estimated_rows=rows,
        estimated_row_bytes=row_bytes,
        table_name="t",
    )


def join(
    kind: OperatorKind,
    left: PlanNode,
    right: PlanNode,
    estimate: float,
    join_pairs=(("a", "b"),),
) -> PlanNode:
    return PlanNode(
        kind=kind,
        children=(left, right),
        estimated_rows=estimate,
        join_pairs=join_pairs,
    )


def rule_ids(warnings) -> list[str]:
    return sorted(w.rule_id for w in warnings)


class TestStructuralRules:
    def test_pl001_cartesian_product(self):
        plan = join(
            OperatorKind.NESTED_JOIN,
            scan(100.0),
            scan(200.0),
            estimate=20_000.0,
            join_pairs=(),
        )
        warnings = lint_plan(plan)
        assert rule_ids(warnings) == ["PL001"]
        assert warnings[0].operator == "nested_join"
        assert warnings[0].severity == "warning"

    def test_pl001_negative_with_predicate(self):
        plan = join(
            OperatorKind.NESTED_JOIN, scan(100.0), scan(200.0), 150.0
        )
        assert lint_plan(plan) == []

    def test_pl002_inflated_estimate(self):
        plan = join(OperatorKind.HASH_JOIN, scan(10.0), scan(10.0), 200.0)
        assert rule_ids(lint_plan(plan)) == ["PL002"]

    def test_pl002_negative_at_the_cross_product_bound(self):
        plan = join(OperatorKind.HASH_JOIN, scan(10.0), scan(10.0), 100.0)
        assert lint_plan(plan) == []

    def test_pl003_collapsed_estimate(self):
        plan = join(
            OperatorKind.HASH_JOIN, scan(100_000.0), scan(50_000.0), 10.0
        )
        assert rule_ids(lint_plan(plan)) == ["PL003"]

    def test_pl003_negative_small_inputs_and_semi_joins(self):
        # Tiny inputs shrink legitimately.
        small = join(OperatorKind.HASH_JOIN, scan(500.0), scan(400.0), 0.0)
        assert lint_plan(small) == []
        # Semi/anti joins exist to shrink; excluded by design.
        semi = join(
            OperatorKind.SEMI_JOIN, scan(100_000.0), scan(50_000.0), 10.0
        )
        assert lint_plan(semi) == []

    def test_pl004_broadcast_blowup(self):
        child = scan(1_000_000.0, row_bytes=100.0)
        plan = PlanNode(
            kind=OperatorKind.EXCHANGE,
            children=(child,),
            estimated_rows=1_000_000.0,
            estimated_row_bytes=100.0,
            exchange_kind="broadcast",
        )
        warnings = lint_plan(plan)
        assert rule_ids(warnings) == ["PL004"]
        assert 1_000_000.0 * 100.0 > BROADCAST_WARN_BYTES

    def test_pl004_negative_small_or_partitioned(self):
        small = PlanNode(
            kind=OperatorKind.EXCHANGE,
            children=(scan(10.0),),
            estimated_rows=10.0,
            estimated_row_bytes=8.0,
            exchange_kind="broadcast",
        )
        assert lint_plan(small) == []
        partitioned = PlanNode(
            kind=OperatorKind.EXCHANGE,
            children=(scan(1e6, 100.0),),
            estimated_rows=1e6,
            estimated_row_bytes=100.0,
            exchange_kind="hash",
        )
        assert lint_plan(partitioned) == []

    def test_clean_tree_is_clean(self):
        plan = PlanNode(
            kind=OperatorKind.ROOT,
            children=(
                PlanNode(
                    kind=OperatorKind.SCALAR_AGGREGATE,
                    children=(
                        join(
                            OperatorKind.HASH_JOIN,
                            scan(10_000.0),
                            scan(500.0),
                            9_000.0,
                        ),
                    ),
                    estimated_rows=1.0,
                ),
            ),
            estimated_rows=1.0,
        )
        assert lint_plan(plan) == []


class TestVocabulary:
    def test_pl005_flags_unknown_operators(self):
        plan = join(OperatorKind.MERGE_JOIN, scan(10.0), scan(10.0), 10.0)
        vocabulary = ("file_scan", "hash_join")
        warnings = vocabulary_warnings(plan, vocabulary)
        assert rule_ids(warnings) == ["PL005"]
        assert "merge_join" in warnings[0].message
        # lint_plan with a vocabulary runs PL005 too.
        assert "PL005" in rule_ids(lint_plan(plan, vocabulary=vocabulary))

    def test_pl005_negative_inside_vocabulary(self):
        plan = join(OperatorKind.MERGE_JOIN, scan(10.0), scan(10.0), 10.0)
        assert vocabulary_warnings(plan, plan_vocabulary(plan)) == []

    def test_plan_vocabulary(self):
        plan = join(OperatorKind.HASH_JOIN, scan(10.0), scan(10.0), 10.0)
        assert plan_vocabulary(plan) == ("file_scan", "hash_join")

    def test_corpus_vocabulary_from_feature_matrix(self):
        plan = join(OperatorKind.HASH_JOIN, scan(10.0), scan(20.0), 15.0)
        matrix = plan_feature_matrix([plan])
        assert corpus_vocabulary(matrix) == ("file_scan", "hash_join")
        # log1p scaling keeps zero columns zero, so the vocabulary is
        # identical on the scaled matrix the pipeline actually stores.
        assert corpus_vocabulary(np.log1p(matrix)) == (
            "file_scan",
            "hash_join",
        )

    def test_corpus_vocabulary_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            corpus_vocabulary(np.zeros((3, len(PLAN_FEATURE_NAMES) + 1)))


class TestOptimizerWiring:
    def test_optimize_attaches_cartesian_warning(self, optimizer):
        optimized = optimizer.optimize(CROSS_JOIN_SQL)
        assert "PL001" in rule_ids(optimized.warnings)

    def test_optimize_clean_query_has_no_warnings(self, optimizer):
        assert optimizer.optimize(CLEAN_SQL).warnings == ()

    def test_warning_counter_increments(self, optimizer):
        was_enabled = obs_metrics.metrics_enabled()
        obs_metrics.enable_metrics()
        try:
            registry = obs_metrics.get_registry()
            counter = registry.counter("repro_lint_warnings_total")
            before = counter.value
            optimizer.optimize(CROSS_JOIN_SQL)
            assert counter.value >= before + 1
        finally:
            if not was_enabled:
                obs_metrics.disable_metrics()


@pytest.fixture(scope="module")
def service():
    return QueryPerformancePredictor.train_on_tpcds(
        n_queries=40,
        scale_factor=0.05,
        seed=7,
        config=research_4node(),
    )


class TestServiceWiring:
    def test_metadata_records_operator_vocabulary(self, service):
        vocabulary = service.pipeline.metadata["operator_vocabulary"]
        assert "file_scan" in vocabulary

    def test_forecast_carries_plan_warnings(self, service):
        clean, crossed = service.forecast_many([CLEAN_SQL, CROSS_JOIN_SQL])
        assert clean.warnings == ()
        assert "PL001" in rule_ids(crossed.warnings)

    def test_lint_method_matches_forecast(self, service):
        assert "PL001" in rule_ids(service.lint(CROSS_JOIN_SQL))
        assert service.lint(CLEAN_SQL) == ()

    def test_pl005_fires_outside_training_vocabulary(self, service):
        original = service.pipeline.metadata["operator_vocabulary"]
        service.pipeline.metadata["operator_vocabulary"] = ["file_scan"]
        try:
            warnings = service.lint(CLEAN_SQL)
            assert "PL005" in rule_ids(warnings)
        finally:
            service.pipeline.metadata["operator_vocabulary"] = original

    def test_explain_renders_warnings(self, service):
        text = service.explain(CROSS_JOIN_SQL)
        assert "plan lint" in text and "PL001" in text


class TestLintCli:
    def run(self, argv):
        return cli.main(["--scale", "0.05", "lint", *argv])

    def test_warning_exits_one(self, capsys):
        assert self.run([CROSS_JOIN_SQL]) == 1
        out = capsys.readouterr().out
        assert "PL001" in out and "1 warning(s)" in out

    def test_clean_exits_zero(self, capsys):
        assert self.run([CLEAN_SQL]) == 0
        assert "statement 0: ok" in capsys.readouterr().out

    def test_json_format(self, capsys):
        code = self.run(["--format", "json", CROSS_JOIN_SQL])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["total_warnings"] >= 1
        warning = payload["statements"][0]["warnings"][0]
        assert warning["rule_id"] == "PL001"
        assert warning["severity"] == "warning"

    def test_batch_file(self, tmp_path, capsys):
        batch = tmp_path / "workload.sql"
        batch.write_text(f"{CLEAN_SQL};\n{CROSS_JOIN_SQL};\n")
        assert self.run(["--batch", str(batch)]) == 1
        out = capsys.readouterr().out
        assert "statement 0: ok" in out and "statement 1:" in out

    def test_no_input_exits_two(self, capsys):
        assert self.run([]) == 2
        assert "lint needs" in capsys.readouterr().err
