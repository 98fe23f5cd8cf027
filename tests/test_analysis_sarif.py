"""SARIF emitter + structural-validator tests."""

import json

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import all_rules
from repro.analysis.sarif import (
    SARIF_VERSION,
    render_sarif,
    sarif_document,
    validate_sarif,
)


def sample_diagnostics():
    return [
        Diagnostic(
            code="SIM109",
            message="host-clock call outside the sanctioned readers",
            severity=Severity.ERROR,
            path="src/repro/obs/fixture.py",
            line=12,
            col=4,
            hint="route through hostmetrics",
        ),
        Diagnostic(
            code="SIM106",
            message="raw byte magnitude literal",
            severity=Severity.WARNING,
            path="src/repro/sim/flow.py",
            line=3,
            col=0,
        ),
    ]


class TestEmitter:
    def test_document_is_valid(self):
        assert validate_sarif(sarif_document(sample_diagnostics())) == []

    def test_empty_run_is_valid(self):
        assert validate_sarif(sarif_document([])) == []

    def test_render_roundtrips_through_json(self):
        payload = json.loads(render_sarif(sample_diagnostics()))
        assert payload["version"] == SARIF_VERSION
        assert len(payload["runs"]) == 1

    def test_every_registered_rule_listed(self):
        document = sarif_document([])
        listed = {r["id"] for r in document["runs"][0]["tool"]["driver"]["rules"]}
        assert listed == {rule.code for rule in all_rules()}

    def test_result_fields(self):
        document = sarif_document(sample_diagnostics())
        result = document["runs"][0]["results"][0]
        assert result["ruleId"] == "SIM109"
        assert result["level"] == "error"
        assert "hostmetrics" in result["message"]["text"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 12
        assert region["startColumn"] == 5  # SARIF columns are 1-based

    def test_rule_index_points_at_rule(self):
        document = sarif_document(sample_diagnostics())
        run = document["runs"][0]
        for result in run["results"]:
            rule = run["tool"]["driver"]["rules"][result["ruleIndex"]]
            assert rule["id"] == result["ruleId"]

    def test_severity_levels_mapped(self):
        document = sarif_document(sample_diagnostics())
        levels = [r["level"] for r in document["runs"][0]["results"]]
        assert levels == ["error", "warning"]


class TestValidator:
    def test_rejects_wrong_version(self):
        document = sarif_document([])
        document["version"] = "2.0.0"
        assert any("version" in e for e in validate_sarif(document))

    def test_rejects_missing_runs(self):
        assert validate_sarif({"version": SARIF_VERSION, "runs": []})

    def test_rejects_result_without_message(self):
        document = sarif_document(sample_diagnostics())
        del document["runs"][0]["results"][0]["message"]
        assert any("message" in e for e in validate_sarif(document))

    def test_rejects_bad_level(self):
        document = sarif_document(sample_diagnostics())
        document["runs"][0]["results"][0]["level"] = "fatal"
        assert any("level" in e for e in validate_sarif(document))

    def test_rejects_out_of_range_rule_index(self):
        document = sarif_document(sample_diagnostics())
        document["runs"][0]["results"][0]["ruleIndex"] = 9999
        assert any("ruleIndex" in e for e in validate_sarif(document))

    def test_rejects_zero_based_region(self):
        document = sarif_document(sample_diagnostics())
        document["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "region"
        ]["startLine"] = 0
        assert any("startLine" in e for e in validate_sarif(document))

    def test_rejects_non_object(self):
        assert validate_sarif([]) == ["document must be an object"]
