"""Campaign runner acceptance tests.

The PR's acceptance criteria made executable:

* re-running the same campaign yields byte-identical deterministic
  payloads and identical cell ids (wall-clock fields excluded);
* the store round-trips and stays append-only;
* diffing a campaign against itself reports zero regressions;
* a perturbed-calibration campaign reports the induced winner flips,
  claim changes and drift;
* the markdown dashboard is golden-stable for a synthetic campaign;
* the ``python -m repro.obs campaign`` CLI works end to end in a tmp dir.
"""

import json

import pytest

from repro.core.configs import ALL_CONFIGS, P_LOCR, S_LOCW
from repro.errors import ConfigurationError
from repro.obs.campaign import (
    SUITE_PRESETS,
    CampaignRun,
    CellResult,
    bench_record,
    campaign_from_store,
    campaign_report,
    cell_key,
    diff_campaigns,
    parse_cell_key,
    run_campaign,
    run_cell,
)
from repro.obs.cli import main as obs_main
from repro.obs.hostmetrics import HostMetrics, KIND_SIMULATED
from repro.obs.store import CampaignStore, canonical_json
from repro.pmem.calibration import DEFAULT_CALIBRATION

TWO_CONFIGS = (S_LOCW, P_LOCR)

#: The calibration perturbation used to induce winner flips: collapsing
#: local write bandwidth makes write-placement matter far more.
PERTURBED = DEFAULT_CALIBRATION.replace(
    local_write_peak=DEFAULT_CALIBRATION.local_write_peak * 0.15
)


def tiny_cell(cal=DEFAULT_CALIBRATION):
    return run_cell(
        "micro-2k", 8, configs=TWO_CONFIGS, cal=cal, iterations=1
    )


class TestCellKeys:
    def test_round_trip(self):
        assert parse_cell_key(cell_key("gtc+readonly", 16)) == (
            "gtc+readonly",
            16,
        )

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_cell_key("no-ranks")


class TestSuitePresets:
    def test_micro_is_ci_sized(self):
        preset = SUITE_PRESETS["micro"]
        assert len(preset.cells) == 2
        assert all(ranks == 8 for _, ranks in preset.cells)
        assert preset.iterations == 2

    def test_full_is_the_paper_suite(self):
        assert len(SUITE_PRESETS["full"].cells) == 18

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(suite="nope")


class TestRunCell:
    def test_cell_payload_shape(self):
        cell = tiny_cell()
        assert cell.key == "micro-2k@8"
        deterministic = cell.deterministic
        assert set(deterministic["configs"]) == {"S-LocW", "P-LocR"}
        for entry in deterministic["configs"].values():
            assert entry["makespan"] > 0
            assert entry["pmem_bytes"]["write"] > 0
            assert entry["pmem_bytes"]["read"] > 0
            assert "writer" in entry["phases"] and "reader" in entry["phases"]
            assert "git_sha" not in entry["manifest"]
        assert deterministic["winner"] in deterministic["configs"]
        assert deterministic["paper_best"] == "P-LocR"
        assert cell.host.kind == KIND_SIMULATED
        assert cell.host.runs == 2
        assert set(cell.provenance) == {
            "git_sha",
            "repro_version",
            "python_version",
        }

    def test_deterministic_payload_byte_identical_across_reruns(self):
        a, b = tiny_cell(), tiny_cell()
        assert a.cell_id == b.cell_id
        assert canonical_json(a.deterministic) == canonical_json(b.deterministic)

    def test_calibration_changes_cell_id_not_key(self):
        a, b = tiny_cell(), tiny_cell(cal=PERTURBED)
        assert a.key == b.key
        assert a.cell_id != b.cell_id

    def test_no_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cell("micro-2k", 8, configs=())


class TestRunCampaign:
    def test_persists_and_rehydrates(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        run = run_campaign(
            suite="micro", store=store, configs=TWO_CONFIGS, iterations=1
        )
        assert run.name == "micro-001"
        assert store.validate(run.name) == []
        loaded = campaign_from_store(store.read(run.name))
        assert [c.cell_id for c in loaded.cells] == [
            c.cell_id for c in run.cells
        ]
        assert diff_campaigns(run, loaded).regressions == 0

    def test_rerun_is_deterministic(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        kwargs = dict(store=store, configs=TWO_CONFIGS, iterations=1)
        a = run_campaign(suite="micro", **kwargs)
        b = run_campaign(suite="micro", **kwargs)
        assert a.name != b.name  # append-only: a new campaign per run
        assert [
            canonical_json(c.deterministic) for c in a.cells
        ] == [canonical_json(c.deterministic) for c in b.cells]

    def test_failed_planning_leaves_no_campaign_file(self, tmp_path):
        # A spec that cannot be built must fail before the store spends a
        # campaign file (or an auto-name) on the run.
        store = CampaignStore(str(tmp_path))
        with pytest.raises(ConfigurationError):
            run_campaign(suite="micro", store=store, iterations=0)
        assert store.list_campaigns() == []

    def test_cells_override(self):
        run = run_campaign(
            suite="sweep",
            cells=[("micro-2k", 8)],
            configs=TWO_CONFIGS,
            iterations=1,
        )
        assert [c.key for c in run.cells] == ["micro-2k@8"]

    def test_parallel_matches_serial_with_profile_top(self):
        kwargs = dict(
            suite="sweep",
            cells=[("micro-2k", 8)],
            configs=TWO_CONFIGS,
            iterations=1,
            profile=True,
            profile_top=2,
        )
        serial = run_campaign(**kwargs)
        parallel = run_campaign(jobs=2, **kwargs)
        assert [c.cell_id for c in parallel.cells] == [
            c.cell_id for c in serial.cells
        ]
        assert canonical_json(parallel.cells[0].deterministic) == canonical_json(
            serial.cells[0].deterministic
        )
        assert len(parallel.cells[0].host.hotspots) == 2

    def test_bench_record_shape(self):
        run = run_campaign(
            suite="sweep",
            cells=[("micro-2k", 8)],
            configs=TWO_CONFIGS,
            iterations=1,
        )
        record = bench_record(run)
        assert record["bench"] == "campaign"
        assert record["cells"] == 1
        assert record["runs"] == 2
        assert record["wall_seconds_total"] > 0
        assert record["sim_seconds_per_wall_second"] > 0
        assert record["peak_rss_bytes"] > 0
        # Allocation tracing is a profiling tool; unprofiled runs omit it.
        assert "peak_tracemalloc_bytes" not in record


class TestDiff:
    def test_identical_campaigns_have_zero_regressions(self):
        run = run_campaign(
            suite="micro", configs=TWO_CONFIGS, iterations=1
        )
        diff = diff_campaigns(run, run)
        assert diff.regressions == 0
        assert diff.identical_cells == len(run.cells)
        assert "0 regression(s)" in diff.render_text()

    def test_perturbed_calibration_reports_flips_and_drift(self):
        base = run_campaign(suite="micro", configs=ALL_CONFIGS)
        perturbed = run_campaign(
            suite="micro", configs=ALL_CONFIGS, cal=PERTURBED
        )
        diff = diff_campaigns(base, perturbed)
        assert diff.winner_flips  # the induced flip is detected
        assert diff.drifts  # collapsing write bandwidth moves makespans
        assert diff.claim_changes
        assert set(diff.calibration_changed) == {c.key for c in base.cells}
        assert diff.regressions > 0
        text = diff.render_text()
        assert "winner" in text and "makespan" in text
        markdown = diff.render_markdown()
        assert "## Winner flips" in markdown
        assert "## Makespan drift" in markdown

    def test_sub_threshold_drift_is_not_identical(self):
        before = synthetic_run()
        after = synthetic_run()
        after.name = "golden-002"
        configs = after.cells[0].deterministic["configs"]
        configs["P-LocR"]["makespan"] *= 1 - 0.0087  # well under 2 %
        diff = diff_campaigns(before, after)
        assert diff.regressions == 0 and not diff.drifts
        assert diff.identical_cells == 0
        assert diff.within_threshold_cells == 1
        assert diff.render_text().endswith(
            "0 identical cell(s), 1 within-threshold cell(s), 0 regression(s)"
        )
        assert "0 identical cell(s), 1 within-threshold cell(s)." in (
            diff.render_markdown()
        )
        same = diff_campaigns(before, synthetic_run())
        assert (same.identical_cells, same.within_threshold_cells) == (1, 0)

    def test_coverage_changes_reported(self):
        run = run_campaign(
            suite="sweep",
            cells=[("micro-2k", 8)],
            configs=TWO_CONFIGS,
            iterations=1,
        )
        empty = CampaignRun(name="empty", suite="sweep")
        diff = diff_campaigns(run, empty)
        assert diff.only_in_a == ["micro-2k@8"]
        assert diff.regressions == 0  # coverage loss is visible, not a flip

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.01])
    def test_threshold_must_be_finite_and_non_negative(self, threshold):
        run = CampaignRun(name="a", suite="micro")
        with pytest.raises(ConfigurationError, match="drift threshold"):
            diff_campaigns(run, run, threshold=threshold)


def synthetic_run():
    """A handcrafted campaign with fixed host metrics for golden tests."""
    run = CampaignRun(name="golden-001", suite="micro")
    run.cells.append(
        CellResult(
            key="micro-2k@8",
            family="micro-2k",
            ranks=8,
            cell_id="feedc0de00000001",
            deterministic={
                "family": "micro-2k",
                "ranks": 8,
                "configs": {
                    "S-LocW": {"makespan": 12.0},
                    "P-LocR": {"makespan": 8.0},
                },
                "winner": "P-LocR",
                "paper_best": "P-LocR",
                "paper_hit": True,
            },
            host=HostMetrics(
                kind=KIND_SIMULATED,
                wall_seconds=2.0,
                simulated_seconds=20.0,
                events_executed=640,
                flow_recomputes=640,
                solver_iterations=2788,
                solves_at_cap=3,
                peak_rss_bytes=49_930_240,
                peak_tracemalloc_bytes=1000,
                runs=2,
            ),
            provenance={},
        )
    )
    return run


GOLDEN_MARKDOWN = """\
# Campaign `golden-001` (micro suite)

1 cell(s); paper-winner hit rate **1/1**.

## Runtime heatmap (normalized to each cell's best config)

| cell | S-LocW | P-LocR | winner | paper |
|---|---|---|---|---|
| micro-2k@8 | 1.50 | **1.00** | P-LocR | P-LocR ✓ |

## Host cost

| metric | value |
|---|---|
| wall seconds (total) | 2.00 |
| simulated seconds (total) | 20.00 |
| sim-seconds / wall-second | 10.0 |
| engine events | 640 |
| events / wall-second | 320 |
| flow recomputations | 640 |
| solver iterations | 2788 |
| solver classes (summed) | 0 |
| memo hit rate | 0.0% (0/0) |
| recomputes coalesced | 0 |
| solves at iteration cap | 3 |
| peak RSS | 47.6 MiB |
| peak tracemalloc bytes | 1000 |
"""


class TestReport:
    def test_markdown_golden(self):
        assert campaign_report(synthetic_run(), markdown=True) == GOLDEN_MARKDOWN

    def test_terminal_render(self):
        text = campaign_report(synthetic_run(), markdown=False)
        assert "golden-001" in text
        assert "hit rate: 1/1" in text
        assert "P-LocR" in text
        assert "3 solves at cap" in text
        assert "peak RSS 47.6 MiB, peak tracemalloc 1000 bytes" in text

    def test_unprofiled_run_omits_tracemalloc(self):
        run = synthetic_run()
        run.cells[0].host.peak_tracemalloc_bytes = 0
        for markdown in (True, False):
            text = campaign_report(run, markdown=markdown)
            assert "peak RSS" in text
            assert "tracemalloc" not in text
        assert "peak_tracemalloc_bytes" not in bench_record(run)

    def test_memo_hit_rate_in_header_and_gtc_warning(self):
        run = synthetic_run()
        cell = run.cells[0]
        cell.host.solver_memo_hits = 30.0
        cell.host.solver_memo_misses = 10.0
        for markdown in (True, False):
            text = campaign_report(run, markdown=markdown)
            assert "solver memo hit rate 75.0% (30/40)" in text
            assert "Warning" not in text and "WARNING" not in text
        # A GTC-class cell where the solver reuses *nothing* — misses but
        # no memo hits — gets called out loudly.
        cell.key = "gtc-8@8"
        cell.host.solver_memo_hits = 0.0
        markdown_text = campaign_report(run, markdown=True)
        assert "> **Warning:** gtc-8@8: solver reused no work" in markdown_text
        terminal_text = campaign_report(run, markdown=False)
        assert "WARNING: gtc-8@8: solver reused no work" in terminal_text

    def test_gtc_warning_demoted_by_any_reuse_signal(self):
        """Memo hits are the solver's reuse signal: any hit silences the
        GTC call-out."""
        run = synthetic_run()
        cell = run.cells[0]
        cell.key = "gtc-8@8"
        cell.host.solver_memo_misses = 40.0
        cell.host.solver_memo_hits = 5.0
        for markdown in (True, False):
            text = campaign_report(run, markdown=markdown)
            assert "Warning" not in text and "WARNING" not in text

    def test_memo_line_omitted_without_lookups(self):
        # synthetic_run has no memo counters: the header stays clean.
        assert "solver memo hit rate" not in campaign_report(
            synthetic_run(), markdown=True
        ).splitlines()[2]


class TestCli:
    def run_cli(self, *argv):
        return obs_main(list(argv))

    def test_end_to_end(self, tmp_path, capsys):
        store_dir = str(tmp_path / "campaigns")
        common = ["campaign", "run", "--dir", store_dir, "--iterations", "1"]
        assert self.run_cli(*common, "--suite", "micro") == 0
        assert (
            self.run_cli(
                *common,
                "--suite",
                "micro",
                "--cal-set",
                f"local_write_peak={DEFAULT_CALIBRATION.local_write_peak * 0.15}",
                "--profile",
            )
            == 0
        )
        assert self.run_cli("campaign", "list", "--dir", store_dir) == 0
        assert self.run_cli("campaign", "validate", "--dir", store_dir) == 0
        assert (
            self.run_cli("campaign", "show", "micro-001", "--dir", store_dir)
            == 0
        )
        # The perturbation flips winners -> diff exits 1 under --fail-on flips.
        assert (
            self.run_cli(
                "campaign", "diff", "micro-001", "micro-002", "--dir", store_dir
            )
            == 1
        )
        assert (
            self.run_cli(
                "campaign",
                "diff",
                "micro-001",
                "micro-001",
                "--dir",
                store_dir,
                "--fail-on",
                "regressions",
            )
            == 0
        )
        report_path = tmp_path / "report.md"
        assert (
            self.run_cli(
                "campaign",
                "report",
                "micro-001",
                "--dir",
                store_dir,
                "--out",
                str(report_path),
            )
            == 0
        )
        assert "## Runtime heatmap" in report_path.read_text(encoding="utf-8")
        capsys.readouterr()  # drain

    def test_bench_out(self, tmp_path):
        store_dir = str(tmp_path / "campaigns")
        bench_path = tmp_path / "BENCH_campaign.json"
        assert (
            self.run_cli(
                "campaign",
                "run",
                "--dir",
                store_dir,
                "--suite",
                "micro",
                "--iterations",
                "1",
                "--config",
                "S-LocW",
                "--bench-out",
                str(bench_path),
            )
            == 0
        )
        record = json.loads(bench_path.read_text(encoding="utf-8"))
        assert record["bench"] == "campaign"
        assert record["cells"] == 2

    @pytest.mark.parametrize(
        "setting",
        ["read_ramp_scale=nan", "write_decay=inf", "no_such_field=1"],
    )
    def test_invalid_cal_set_exits_2_before_storing(
        self, tmp_path, capsys, setting
    ):
        store_dir = tmp_path / "campaigns"
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli(
                "campaign", "run", "--dir", str(store_dir), "--cal-set", setting
            )
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error: --cal-set: ")
        assert not store_dir.exists() or not list(store_dir.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--suite", "nosuch"], "unknown suite 'nosuch'"),
            (["run", "--jobs", "0"], "jobs must be >= 1"),
            (["show", "missing"], "no campaign 'missing'"),
        ],
    )
    def test_library_errors_exit_1_without_traceback(
        self, tmp_path, capsys, argv, message
    ):
        store_dir = str(tmp_path / "campaigns")
        argv = ["campaign", argv[0], "--dir", store_dir, *argv[1:]]
        assert self.run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.01"])
    def test_invalid_diff_threshold_exits_2(self, tmp_path, capsys, threshold):
        common = ["--dir", str(tmp_path)]
        run = ["campaign", "run", *common, "--name", "t", "--iterations", "1"]
        assert self.run_cli(*run, "--config", "S-LocW") == 0
        capsys.readouterr()
        diff = ["campaign", "diff", "t", "t", *common, "--fail-on", "regressions"]
        assert self.run_cli(*diff, "--threshold", threshold) == 2
        assert capsys.readouterr().err.startswith("error: --threshold: ")

    def test_duplicate_campaign_name_exits_1(self, tmp_path, capsys):
        common = ["campaign", "run", "--dir", str(tmp_path), "--name", "dup"]
        common += ["--iterations", "1", "--config", "S-LocW"]
        assert self.run_cli(*common) == 0
        capsys.readouterr()
        assert self.run_cli(*common) == 1
        assert "error: campaign 'dup' already exists" in capsys.readouterr().err

    def test_bad_cal_set_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_cli(
                "campaign",
                "run",
                "--dir",
                str(tmp_path),
                "--cal-set",
                "nonsense",
            )
