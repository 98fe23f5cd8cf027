"""Tests for the ``python -m repro.analysis`` CLI."""

import dataclasses
import re

import pytest

from repro.analysis.cli import main
from repro.pmem.calibration import DEFAULT_CALIBRATION


class TestCli:
    def test_repo_tree_is_clean(self, capsys):
        """The acceptance gate: the shipped platform tables have zero findings."""
        assert main([]) == 0
        assert capsys.readouterr().out == "0 error(s), 0 warning(s)\n"

    def test_bad_calibration_fails(self, monkeypatch, capsys):
        import repro.pmem.calibration as calibration

        broken = dataclasses.replace(DEFAULT_CALIBRATION, read_latency_local=0.0)
        monkeypatch.setattr(calibration, "DEFAULT_CALIBRATION", broken)
        assert main([]) == 1
        assert "calibration: PLAT302 error" in capsys.readouterr().out

    def test_platform_only(self, monkeypatch, capsys):
        """A bare run checks the platform tables and nothing else."""
        import repro.pmem.calibration as calibration

        broken = dataclasses.replace(DEFAULT_CALIBRATION, read_latency_local=0.0)
        monkeypatch.setattr(calibration, "DEFAULT_CALIBRATION", broken)
        main([])
        codes = re.findall(r"\b([A-Z]+\d{3})\b", capsys.readouterr().out)
        assert codes and all(code.startswith("PLAT3") for code in codes)

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SPEC201", "SPEC207", "PLAT301", "PLAT304"):
            assert code in out

    @pytest.mark.parametrize("prefix", ["SIM1", "SIM2", "SVC4", "UNIT6"])
    def test_removed_rule_families_are_unknown(self, capsys, prefix):
        # Determinism, host effects and hot-loop allocation are checked at
        # run time or by tests (tests/test_determinism.py, test_sim_flow.py),
        # not by rule families.
        assert main(["--list-rules"]) == 0
        assert prefix not in capsys.readouterr().out

    def test_help_lists_only_two_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--list-rules"}

    def test_paths_are_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["src"])
        assert excinfo.value.code == 2
