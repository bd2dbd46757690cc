"""Spec-driven workload tests: golden identity, determinism, validation.

The refactor's central promise is that moving the template layer into
``specs/`` changed *nothing* about the generated workloads: the golden
tests here compare ``generate_pool`` output bitwise against a frozen
verbatim copy of the legacy hard-coded layer
(``tests/_legacy_templates.py``), and a subprocess round-trip proves the
spec path is deterministic across interpreter runs.
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests._legacy_templates as legacy
from repro.errors import WorkloadSpecError
from repro.workloads.generator import generate_pool
from repro.workloads.spec import (
    _STRATEGIES,
    SPEC_SCHEMA_VERSION,
    builtin_workload_names,
    describe_workload,
    load_workload_spec,
    parse_simple_yaml,
    resolve_workload,
    validate_spec_data,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC_DIR = REPO_ROOT / "specs"
MALFORMED_DIR = REPO_ROOT / "tests" / "fixtures" / "specs" / "malformed"

#: One malformed spec per shape that once escaped as a raw traceback, and
#: the message its refusal must carry.
MALFORMED = {
    "defaults_list.yaml": "defaults must be a mapping",
    "strategy_list.yaml": "unknown strategy ['int_uniform']",
    "family_list.yaml": "family ['standard'] is not declared",
    "pool_list.yaml": "pool ['quantities'] is not declared",
    "alpha_text.yaml": "option 'alpha' must be a finite number",
    "round_text.yaml": "option 'round' must be an integer",
    "offset_bound_text.yaml": "param #3: option 'low' must be a finite number",
    "high_infinity.json": "need numeric low <= high",
    "sql_lone_brace.yaml": "sql is not a str.format template",
}


def as_dict(instance):
    return {
        "query_id": instance.query_id,
        "sql": instance.sql,
        "template": instance.template,
        "family": instance.family,
        "params": instance.params,
    }


# ----------------------------------------------------------------------
# Golden identity against the frozen legacy layer
# ----------------------------------------------------------------------


class TestGoldenIdentity:
    @pytest.mark.parametrize("pf", [0.0, 0.2, 0.25, 0.5, 1.0])
    def test_tpcds_pool_bitwise_identical(self, pf):
        expected = legacy.generate_pool(80, seed=7, problem_fraction=pf)
        actual = generate_pool(
            80, seed=7, workload="tpcds", problem_fraction=pf
        )
        assert [as_dict(q) for q in actual] == expected

    def test_default_workload_is_tpcds(self):
        expected = legacy.generate_pool(50, seed=11)
        actual = generate_pool(50, seed=11)
        assert [as_dict(q) for q in actual] == expected

    def test_customer_pool_bitwise_identical(self):
        expected = legacy.generate_pool(
            40, seed=17, templates=legacy.customer_templates()
        )
        actual = generate_pool(40, seed=17, workload="customer")
        assert [as_dict(q) for q in actual] == expected

    def test_template_shim_matches_legacy(self):
        from repro.workloads.templates import (
            problem_templates,
            tpcds_templates,
        )

        legacy_names = [t.name for t in legacy.tpcds_templates()]
        assert [t.name for t in tpcds_templates()] == legacy_names
        legacy_problems = [t.name for t in legacy.problem_templates()]
        assert [t.name for t in problem_templates()] == legacy_problems


# ----------------------------------------------------------------------
# Determinism across processes
# ----------------------------------------------------------------------


SUBPROCESS_SNIPPET = """
import json, sys
from repro.workloads.generator import generate_pool
pool = generate_pool(30, seed=13, workload=sys.argv[1])
rows = [
    [q.query_id, q.sql, q.template, q.family, sorted(q.params.items())]
    for q in pool
]
print(json.dumps(rows, default=repr))
"""


class TestSubprocessDeterminism:
    @pytest.mark.parametrize("workload", ["tpcds", "oltp"])
    def test_pool_identical_across_interpreters(self, workload):
        def run():
            proc = subprocess.run(
                [sys.executable, "-c", SUBPROCESS_SNIPPET, workload],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""},
                cwd=str(REPO_ROOT),
            )
            return proc.stdout

        first, second = run(), run()
        assert first == second
        assert json.loads(first)  # valid, non-empty


# ----------------------------------------------------------------------
# Spec loading and validation
# ----------------------------------------------------------------------


class TestSpecLoading:
    def test_builtin_names_cover_shipped_specs(self):
        names = builtin_workload_names()
        for expected in ("tpcds", "customer", "oltp", "analytics",
                         "tpcds_skew"):
            assert expected in names

    @pytest.mark.parametrize(
        "name", ["tpcds", "customer", "oltp", "analytics", "tpcds_skew"]
    )
    def test_shipped_specs_load_and_compile(self, name):
        compiled = resolve_workload(name)
        assert compiled.spec.name == name
        assert compiled.templates
        assert abs(sum(compiled.weights.values()) - 1.0) < 1e-9

    def test_describe_mentions_families(self):
        text = describe_workload("oltp")
        assert "oltp_point" in text and "oltp_range" in text

    def test_example_spec_loads(self):
        spec = load_workload_spec(
            REPO_ROOT / "examples" / "workloads" / "minimal.yaml"
        )
        assert spec.name == "minimal"
        assert len(spec.templates) == 2

    def test_resolve_accepts_path_string(self):
        compiled = resolve_workload(str(SPEC_DIR / "oltp.yaml"))
        assert compiled.spec.name == "oltp"

    def test_unknown_builtin_raises(self):
        with pytest.raises(WorkloadSpecError):
            resolve_workload("no_such_workload")


def minimal_spec_data(**overrides):
    data = {
        "spec_version": SPEC_SCHEMA_VERSION,
        "name": "unit",
        "catalog": {"kind": "tpcds", "scale_factor": 0.05, "seed": 1},
        "tables": {
            "store_sales": ["ss_item_sk", "ss_quantity", "ss_sales_price"],
        },
        "families": [{"name": "standard", "weight": 1.0}],
        "templates": [
            {
                "name": "t1",
                "family": "standard",
                "sql": (
                    "SELECT count(*) AS c FROM store_sales ss "
                    "WHERE ss.ss_quantity > {q}"
                ),
                "params": [
                    {"strategy": "int_uniform", "name": "q", "low": 1,
                     "high": 50},
                ],
            },
        ],
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal_spec_is_valid(self):
        spec, errors = validate_spec_data(minimal_spec_data())
        assert errors == []
        assert spec is not None

    def test_missing_placeholder_strategy(self):
        data = minimal_spec_data()
        data["templates"][0]["params"] = []
        spec, errors = validate_spec_data(data)
        assert spec is None
        assert any("q" in e for e in errors)

    def test_unknown_table_is_reported(self):
        data = minimal_spec_data()
        data["templates"][0]["sql"] = (
            "SELECT count(*) AS c FROM nonexistent_table nt "
            "WHERE nt.ss_quantity > {q}"
        )
        spec, errors = validate_spec_data(data)
        assert spec is None
        assert any("nonexistent_table" in e for e in errors)

    def test_unknown_strategy_is_reported(self):
        data = minimal_spec_data()
        data["templates"][0]["params"][0]["strategy"] = "made_up"
        spec, errors = validate_spec_data(data)
        assert spec is None
        assert any("made_up" in e for e in errors)

    def test_unknown_family_is_reported(self):
        data = minimal_spec_data()
        data["templates"][0]["family"] = "phantom"
        spec, errors = validate_spec_data(data)
        assert spec is None
        assert any("phantom" in e for e in errors)

    def test_bad_spec_version_is_reported(self):
        spec, errors = validate_spec_data(
            minimal_spec_data(spec_version=999)
        )
        assert spec is None
        assert any("version" in e.lower() for e in errors)

    def test_load_error_carries_structured_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_spec_data(spec_version=999)))
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_workload_spec(bad)
        assert excinfo.value.errors

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_spec_is_a_typed_error(self, name):
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_workload_spec(MALFORMED_DIR / name)
        assert any(MALFORMED[name] in e for e in excinfo.value.errors), (
            excinfo.value.errors
        )

    def test_strategy_table_is_the_documented_one(self):
        """docs/WORKLOADS.md's "Value strategies" table lists exactly the
        strategy table's rows, with the same required and optional options."""
        doc = (REPO_ROOT / "docs" / "WORKLOADS.md").read_text()
        lines = doc.split("## Value strategies", 1)[1].splitlines()
        lines = itertools.dropwhile(lambda line: line[:1] != "|", lines)
        rows = list(itertools.takewhile(lambda line: line[:1] == "|", lines))[2:]
        documented = {}
        for row in rows:
            strategy, required, optional = row.strip("|").split("|")[:3]
            documented[strategy.strip().strip("`")] = (
                set(re.findall(r"`(\w+)`", required)),
                set(re.findall(r"`(\w+)`", optional)),
            )
        assert documented == {
            name: (set(row.required), set(row.optional))
            for name, row in _STRATEGIES.items()
        }


def _nodes(node, path=()):
    """Every node of nested spec data, as the path of keys reaching it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _nodes(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(alphabet=st.characters() | st.sampled_from("{}"), max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


class TestSpecFuzz:
    """Any damaged spec is a spec or a typed refusal, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_one_node_replaced_is_a_spec_or_a_typed_error(self, data, value):
        spec_data = minimal_spec_data()
        path = data.draw(st.sampled_from(list(_nodes(spec_data))))
        if path:
            parent = spec_data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            spec_data = value
        try:
            spec, errors = validate_spec_data(spec_data)
        except WorkloadSpecError:
            return
        assert (spec is None) == bool(errors)
        assert all(isinstance(e, str) for e in errors)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet=st.characters() | st.sampled_from(" -:[]'\"{}\t\n#>")))
    def test_any_text_parses_or_is_a_typed_error(self, text):
        try:
            assert isinstance(parse_simple_yaml(text), dict)
        except WorkloadSpecError:
            pass


# ----------------------------------------------------------------------
# YAML-subset parser units
# ----------------------------------------------------------------------


class TestYamlSubset:
    def test_nested_mappings_sequences_and_scalars(self):
        text = "\n".join(
            [
                "name: demo",
                "count: 3",
                "ratio: 0.5",
                "flag: true",
                "items:",
                "  - name: a",
                "    weight: 1.0",
                "  - name: b",
                "pools:",
                "  colors: [red, 'green', blue]",
            ]
        )
        data = parse_simple_yaml(text)
        assert data["name"] == "demo"
        assert data["count"] == 3
        assert data["ratio"] == 0.5
        assert data["flag"] is True
        assert data["items"] == [
            {"name": "a", "weight": 1.0},
            {"name": "b"},
        ]
        assert data["pools"]["colors"] == ["red", "green", "blue"]
        # A tab in the indentation and an unterminated quote or flow list
        # are refused with their line; nesting past the stack is refused.
        deep = "".join(f"{' ' * depth}k{depth}:\n" for depth in range(2000))
        for bad, where in (
            ("a:\n\tb: 1\nc: 2", "line 2: tabs"),
            ("a: 'x", "line 1: unterminated quote"),
            ("a: [1,2", "line 1: unterminated flow list"),
            (deep, "nests too deeply"),
        ):
            with pytest.raises(WorkloadSpecError, match=where):
                parse_simple_yaml(bad)

    def test_folded_scalar_joins_with_spaces(self):
        text = "\n".join(
            [
                "sql: >",
                "  SELECT count(*) AS c",
                "  FROM store_sales",
            ]
        )
        assert (
            parse_simple_yaml(text)["sql"]
            == "SELECT count(*) AS c FROM store_sales"
        )

    def test_comments_stripped_outside_quotes(self):
        data = parse_simple_yaml(
            "name: demo  # trailing comment\nvalue: '# not a comment'"
        )
        assert data == {"name": "demo", "value": "# not a comment"}


# ----------------------------------------------------------------------
# Generator error handling (satellite: clear empty-pool errors)
# ----------------------------------------------------------------------


class TestGeneratorErrors:
    def test_empty_template_list_raises_value_error(self):
        with pytest.raises(ValueError, match="no templates"):
            generate_pool(5, templates=[])

    def test_templates_and_workload_are_exclusive(self):
        from repro.workloads.templates import tpcds_templates

        with pytest.raises(ValueError, match="either"):
            generate_pool(
                5, templates=tpcds_templates(), workload="tpcds"
            )


# ----------------------------------------------------------------------
# New spec-only families end to end
# ----------------------------------------------------------------------


class TestNewFamilies:
    @pytest.mark.parametrize(
        "workload,families",
        [
            ("oltp", {"oltp_point", "oltp_range"}),
            ("analytics", {"rollup", "pivot"}),
            ("tpcds_skew", {"problem", "standard"}),
        ],
    )
    def test_pool_realises_declared_families(self, workload, families):
        pool = generate_pool(40, seed=3, workload=workload)
        assert {q.family for q in pool} == families

    def test_per_family_accuracy_end_to_end(self):
        from repro.experiments.experiments import workload_family_accuracy

        result = workload_family_accuracy(
            "oltp", n_queries=32, scale=0.05, seed=29
        )
        assert result.n_train + result.n_test == 32
        assert set(result.families) == {"oltp_point", "oltp_range"}
        for row in result.families.values():
            assert row["n"] >= 1
            fractions = row["within_tolerance"]
            assert "elapsed_time" in fractions
            assert all(0.0 <= v <= 1.0 for v in fractions.values())
        assert 0.0 <= result.within_20pct_elapsed <= 1.0

    def test_family_helpers(self):
        from repro.workloads.categories import (
            QueryCategory,
            family_category_breakdown,
            family_mix,
        )

        pool = generate_pool(30, seed=5, workload="analytics")
        mix = family_mix(q.family for q in pool)
        assert sum(mix.values()) == 30
        assert set(mix) == {"rollup", "pivot"}
        breakdown = family_category_breakdown(
            (q.family, 1.0) for q in pool
        )
        assert breakdown["rollup"][QueryCategory.FEATHER] == mix["rollup"]


# ----------------------------------------------------------------------
# API plumbing
# ----------------------------------------------------------------------


class TestApiPlumbing:
    @pytest.fixture(scope="class")
    def oltp_predictor(self):
        from repro.api import QueryPerformancePredictor

        return QueryPerformancePredictor.train_on_workload(
            "oltp", n_queries=40, scale=0.05, seed=7
        )

    def test_train_on_workload_records_recipe(self, oltp_predictor):
        assert oltp_predictor._catalog_spec["workload"] == "oltp"
        assert oltp_predictor._catalog_spec["kind"] == "tpcds"

    def test_forecast_workload_per_family(self, oltp_predictor):
        rows = oltp_predictor.forecast_workload(
            "oltp", n_queries=8, seed=101
        )
        assert len(rows) == 8
        for instance, forecast in rows:
            assert instance.family in ("oltp_point", "oltp_range")
            assert forecast.metrics.elapsed_time > 0


# ----------------------------------------------------------------------
# CLI workload subcommand
# ----------------------------------------------------------------------


class TestCliWorkload:
    def test_validate_shipped_specs(self, capsys):
        from repro.cli import main

        code = main(
            ["workload", "validate", str(SPEC_DIR),
             str(REPO_ROOT / "examples" / "workloads")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "6/6 specs valid" in out

    def test_validate_rejects_broken_spec(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "broken.yaml"
        bad.write_text("spec_version: 999\nname: broken\n")
        # Neither UTF-8 nor JSON an int() can read: refused, not raised.
        (tmp_path / "binary.yaml").write_bytes(b"name: \xff\n")
        (tmp_path / "huge.json").write_text('{"spec_version": ' + "1" * 5000 + "}")
        code = main(["workload", "validate", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("FAIL") == 3

    def test_validate_refuses_malformed_specs_without_a_traceback(self, capsys):
        from repro.cli import main

        assert sorted(p.name for p in MALFORMED_DIR.iterdir()) == sorted(MALFORMED)
        code = main(["workload", "validate", str(MALFORMED_DIR)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("FAIL ") == len(MALFORMED)
        assert f"0/{len(MALFORMED)} specs valid" in out

    def test_describe_and_sample(self, capsys):
        from repro.cli import main

        assert main(["workload", "describe", "analytics"]) == 0
        described = capsys.readouterr().out
        assert "rollup" in described
        assert (
            main(
                ["--workload", "tpcds_skew", "workload", "sample",
                 "--queries", "3"]
            )
            == 0
        )
        sampled = capsys.readouterr().out
        assert sampled.count("-- q") == 3
