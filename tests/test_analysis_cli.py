"""Tests for the ``python -m repro.analysis`` CLI and repo cleanliness."""

import os
import re
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

    def test_violating_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(engine):\n    return engine.now == 3.5\nCHUNK = 4096\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM103" in out and "SIM106" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM103", "SIM106", "SPEC201", "PLAT301"):
            assert code in out

    def test_platform_only(self, capsys):
        assert main(["--platform-only"]) == 0

    @pytest.mark.parametrize("prefix", ["SIM2", "SVC4", "UNIT6"])
    def test_removed_rule_families_are_unknown(self, capsys, prefix):
        # Cross-process determinism is a runtime oracle now
        # (tests/test_determinism.py), not a rule family.
        assert main(["--list-rules"]) == 0
        assert prefix not in capsys.readouterr().out

    def test_help_lists_only_two_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--list-rules", "--platform-only"}


class TestAnalysisRuntime:
    def test_full_tree_analysis_under_ten_seconds(self):
        """The CI wall guard: everything the CLI checks over src/."""
        from repro.analysis.cli import run_analysis
        from repro.analysis.diagnostics import DiagnosticSink

        start = time.perf_counter()
        run_analysis([SRC], DiagnosticSink())
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"analysis took {elapsed:.1f}s (budget 10s)"
