"""Tests for the ``python -m repro.analysis`` CLI and repo cleanliness."""

import json
import os
import time

import pytest

from repro.analysis.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


class TestCli:
    def test_repo_tree_is_clean(self, capsys):
        """The acceptance gate: the shipped tree has zero violations."""
        assert main([SRC]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main([SRC, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["diagnostics"] == []

    def test_violating_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\nCHUNK = 4096\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM101" in out and "SIM106" in out

    def test_select_restricts_codes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\nCHUNK = 4096\n")
        assert main([str(bad), "--select", "SIM106"]) == 1
        out = capsys.readouterr().out
        assert "SIM106" in out and "SIM101" not in out

    def test_ignore_suppresses_codes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("CHUNK = 4096\n")
        assert main([str(bad), "--ignore", "SIM106"]) == 0

    def test_unknown_code_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--select", "NOPE1"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM101", "SIM106", "SPEC201", "PLAT301"):
            assert code in out

    def test_platform_only(self, capsys):
        assert main(["--platform-only"]) == 0

    @pytest.mark.parametrize("prefix", ["SIM2", "SVC4", "UNIT6"])
    def test_removed_rule_families_are_unknown(self, tmp_path, prefix):
        # Cross-process determinism is a runtime oracle now
        # (tests/test_determinism.py), not a rule family.
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--select", prefix])
        assert excinfo.value.code == 2


class TestAnalysisRuntime:
    def test_full_tree_analysis_under_ten_seconds(self):
        """The CI wall guard: everything the CLI checks over src/."""
        from repro.analysis.cli import run_analysis
        from repro.analysis.diagnostics import DiagnosticSink

        start = time.perf_counter()
        run_analysis([SRC], DiagnosticSink())
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"analysis took {elapsed:.1f}s (budget 10s)"
