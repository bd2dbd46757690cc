"""Pack A of repro.analysis: the AST rule engine and codebase contracts.

Every RD rule gets a violating and a clean fixture (tests/fixtures/lint/),
linted under a virtual repo-relative path so the scoped rules (RD004,
RD009, RD012, RD013) see the directory they guard.  On top of the
per-rule pairs: suppression comments, the registry, the JSON report
schema, the runner, and the self-lint invariant that ``src/repro``
itself is clean.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    CODE_RULES,
    CheckReport,
    Finding,
    all_rules,
    lint_source,
    run_checks,
    self_lint,
)
from repro.analysis.codebase import STRICT_TYPING_DIRS
from repro.analysis.engine import (
    dotted_name,
    findings_to_report,
    parse_suppressions,
)
from repro.analysis.findings import LINT_SCHEMA_VERSION
from repro.analysis.rules import RuleInfo, get, is_known, register

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: A path outside every rule scope/allowlist — the neutral default.
NEUTRAL_PATH = "repro/workloads/fixture.py"
#: A path inside the strict-typing scope.
CORE_PATH = "repro/core/fixture.py"


def lint_fixture(name: str, relpath: str = NEUTRAL_PATH) -> list[Finding]:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, relpath, CODE_RULES)


# ----------------------------------------------------------------------
# Per-rule fixture pairs
# ----------------------------------------------------------------------

PAIRS = [
    ("rd004", "RD004", NEUTRAL_PATH),
    ("rd006", "RD006", NEUTRAL_PATH),
    ("rd009", "RD009", CORE_PATH),
    ("rd010", "RD010", NEUTRAL_PATH),
    ("rd012", "RD012", NEUTRAL_PATH),
    ("rd013", "RD013", NEUTRAL_PATH),
]


class TestRulePairs:
    @pytest.mark.parametrize("stem,rule_id,relpath", PAIRS)
    def test_bad_fixture_flags_exactly_its_rule(self, stem, rule_id, relpath):
        findings = lint_fixture(f"{stem}_bad.py", relpath)
        assert findings, f"{stem}_bad.py produced no findings"
        assert {f.rule_id for f in findings} == {rule_id}

    @pytest.mark.parametrize("stem,rule_id,relpath", PAIRS)
    def test_ok_fixture_is_clean(self, stem, rule_id, relpath):
        assert lint_fixture(f"{stem}_ok.py", relpath) == []

    @pytest.mark.parametrize("stem,rule_id,relpath", PAIRS)
    def test_findings_carry_rule_metadata(self, stem, rule_id, relpath):
        for finding in lint_fixture(f"{stem}_bad.py", relpath):
            info = get(finding.rule_id)
            assert info.severity == finding.severity == "error"
            assert finding.path == relpath
            assert finding.line >= 1

    def test_parse_error_is_rd000(self):
        findings = lint_fixture("rd000_bad.py")
        assert [f.rule_id for f in findings] == ["RD000"]
        assert findings[0].severity == "error"


class TestRuleScoping:
    def test_rd004_allowlisted_paths_may_read_the_clock(self):
        source = (FIXTURES / "rd004_bad.py").read_text()
        for allowed in (
            "repro/obs/clock.py",
            "repro/engine/timing.py",
            "repro/resilience/breaker.py",
        ):
            assert lint_source(source, allowed, CODE_RULES) == []

    def test_rd009_only_guards_the_strict_dirs(self):
        source = (FIXTURES / "rd009_bad.py").read_text()
        assert lint_source(source, "repro/engine/fixture.py", CODE_RULES) == []
        assert lint_source(source, "repro/analysis/fixture.py", CODE_RULES)

    def test_rd012_exempts_the_serve_package(self):
        """The serve package may open sockets; the stdlib HTTP client is
        refused there too."""
        source = (FIXTURES / "rd012_bad.py").read_text()
        findings = lint_source(source, "repro/serve/fixture.py", CODE_RULES)
        assert [f.line for f in findings] == [5]
        assert "'http.client'" in findings[0].message
        assert lint_source("import socket\n", "repro/serve/fixture.py", CODE_RULES) == []

    @pytest.mark.parametrize(
        "statement",
        [
            "import http.server",
            "import http.client as hc",
            "from http.server import BaseHTTPRequestHandler",
            "from http import client",
        ],
    )
    def test_rd012_refuses_the_stdlib_http_stacks_everywhere(self, statement):
        for path in (NEUTRAL_PATH, "repro/serve/fixture.py"):
            findings = lint_source(statement + "\n", path, CODE_RULES)
            assert [f.rule_id for f in findings] == ["RD012"], (path, findings)
        # ``http`` itself (HTTPStatus) is no HTTP stack.
        assert lint_source("from http import HTTPStatus\n", NEUTRAL_PATH, CODE_RULES) == []

    def test_rd013_exempts_supervisor_and_resilience(self):
        source = (FIXTURES / "rd013_bad.py").read_text()
        for allowed in (
            "repro/serve/supervisor.py",
            "repro/resilience/faults.py",
        ):
            assert lint_source(source, allowed, CODE_RULES) == []

    def test_rd013_flags_each_process_control_call(self):
        findings = lint_fixture("rd013_bad.py")
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "os.kill" in messages
        assert "os.fork" in messages
        assert "signal.signal" in messages

    def test_rd006_ignores_on_without_resilience_import(self):
        source = 'plan.on("bogus.site", mode="raise")\n'
        assert lint_source(source, NEUTRAL_PATH, CODE_RULES) == []

    def test_rd006_fstring_prefix(self):
        source = (
            "from repro.resilience.faults import FaultPlan\n"
            'p = FaultPlan(seed=0).on(f"nonsense.{x}", mode="raise")\n'
        )
        findings = lint_source(source, NEUTRAL_PATH, CODE_RULES)
        assert [f.rule_id for f in findings] == ["RD006"]
        ok = (
            "from repro.resilience.faults import FaultPlan\n"
            'p = FaultPlan(seed=0).on(f"serve.{x}", mode="raise")\n'
        )
        assert lint_source(ok, NEUTRAL_PATH, CODE_RULES) == []


    def test_rd006_reads_the_stage_table_rows(self):
        findings = lint_fixture("rd006_bad.py")
        assert [f.line for f in findings] == [6, 7]
        assert "'bogus.stage'" in findings[1].message

    def test_every_registered_site_is_fired(self):
        """A chaos plan can name only sites that a stage or a call fires."""
        from repro.obs.seam import STAGES
        from repro.resilience.faults import REGISTERED_SITES

        fired = {row.fault_site for row in STAGES.values() if row.fault_site}
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and (dotted_name(node.func) or "").endswith("fault_site")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    fired.add(node.args[0].value)
        assert REGISTERED_SITES <= fired


class TestSuppressions:
    def test_allow_comment_silences_exactly_that_rule(self):
        assert lint_fixture("suppressed.py") == []

    def test_allow_comment_for_another_rule_does_not_silence(self):
        source = (
            "import time\n"
            "stamp = time.time()  # repro: allow[RD013]\n"
        )
        findings = lint_source(source, NEUTRAL_PATH, CODE_RULES)
        assert [f.rule_id for f in findings] == ["RD004"]

    def test_parse_suppressions_multiple_ids(self):
        allowed = parse_suppressions(
            "x = 1\ny = 2  # repro: allow[RD004, RD013]\n"
        )
        assert allowed == {2: frozenset({"RD004", "RD013"})}

    def test_suppression_only_applies_to_its_line(self):
        source = (
            "import time\n"
            "# repro: allow[RD004]\n"
            "stamp = time.time()\n"
        )
        findings = lint_source(source, NEUTRAL_PATH, CODE_RULES)
        assert [f.rule_id for f in findings] == ["RD004"]


class TestRegistryAndReport:
    def test_registry_knows_both_packs(self):
        code_ids = {info.id for info in all_rules(pack="code")}
        plan_ids = {info.id for info in all_rules(pack="plan")}
        concurrency_ids = {info.id for info in all_rules(pack="concurrency")}
        assert code_ids == {
            "RD000", "RD004", "RD006", "RD009", "RD010", "RD012", "RD013",
        }
        assert {f"PL00{i}" for i in range(1, 6)} == plan_ids
        assert concurrency_ids == {
            "CC001", "CC003", "CC007", "CC008", "CC101", "CC102", "CC103",
        }
        assert len(all_rules()) == 19
        assert is_known("RD004") and not is_known("RD999")

    def test_bad_rule_id_message_names_every_namespace(self):
        with pytest.raises(ValueError, match="RDnnn, PLnnn or CCnnn"):
            register(
                RuleInfo(
                    id="XX001",
                    name="bad-namespace",
                    severity="error",
                    pack="code",
                    summary="not a namespace",
                )
            )

    def test_typing_gate_and_mypy_strict_set_agree(self):
        """RD009's scope and pyproject's strict mypy modules are one
        decision written twice; they must name the same packages."""
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(
            r"module = \[([^\]]*)\]\s*ignore_errors = false", pyproject
        )
        assert match is not None
        modules = re.findall(r'"repro\.(\w+)\.\*"', match.group(1))
        assert tuple(f"repro/{name}/" for name in modules) == (
            STRICT_TYPING_DIRS
        )

    def test_registry_is_complete_in_a_fresh_process(self):
        """A pack registers its rules when imported, and nothing imports a
        pack on ``import repro.analysis`` any more: asking the registry
        loads them all."""
        code = (
            "from repro.analysis import all_rules\n"
            "print(sorted({info.pack for info in all_rules()}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), check=True,
        )
        assert result.stdout.strip() == "['code', 'concurrency', 'plan']"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(
                RuleInfo(
                    id="RD004",
                    name="duplicate",
                    severity="error",
                    pack="code",
                    summary="clash",
                )
            )

    def test_dotted_name(self):
        import ast

        expr = ast.parse("a.b.c()").body[0].value
        assert dotted_name(expr.func) == "a.b.c"
        subscripted = ast.parse("a[0].b()").body[0].value
        assert dotted_name(subscripted.func) is None

    def test_json_report_schema_and_ordering(self):
        findings = lint_fixture("rd004_bad.py") + lint_fixture(
            "rd009_bad.py", CORE_PATH
        )
        report = findings_to_report(findings)
        assert report["schema_version"] == LINT_SCHEMA_VERSION
        assert report["count"] == len(findings)
        rows = report["findings"]
        assert rows == sorted(
            rows,
            key=lambda r: (r["path"], r["line"], r["column"], r["rule_id"]),
        )
        for row in rows:
            assert set(row) == {
                "rule_id", "severity", "path", "line", "column", "message",
            }

    def test_finding_render(self):
        finding = lint_fixture("rd004_bad.py")[0]
        assert finding.render().startswith(
            f"{NEUTRAL_PATH}:{finding.line}:{finding.column}: RD004 "
        )


class TestRunner:
    def test_self_lint_is_clean(self):
        assert self_lint() == []

    def test_run_checks_clean_repo(self):
        report = run_checks(repo_root=REPO_ROOT, with_mypy=False)
        assert isinstance(report, CheckReport)
        assert report.exit_code == 0 and report.clean
        payload = report.as_dict()
        assert payload["clean"] is True
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["mypy"]["ran"] is False

    def test_run_checks_flags_a_violating_package(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "bad.py").write_text("import time\nstamp = time.time()\n")
        report = run_checks(
            repo_root=REPO_ROOT, package_root=package, with_mypy=False
        )
        assert report.exit_code == 1 and not report.clean
        assert [f["rule_id"] for f in report.as_dict()["findings"]] == [
            "RD004"
        ]

    def test_check_script_end_to_end(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "check.py"),
                "--format",
                "json",
                "--no-mypy",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["clean"] is True and payload["count"] == 0
