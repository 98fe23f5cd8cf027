"""Campaign store semantics: cell ids, append-only, schema validation."""

import json
import os

import pytest

from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.errors import StorageError
from repro.obs.store import (
    CELL_ID_LENGTH,
    PROVENANCE_FIELDS,
    STORE_SCHEMA_VERSION,
    CampaignStore,
    StoredCell,
    canonical_json,
    cell_id_for_spec,
    cell_id_from_manifests,
    manifest_determinism_payload,
    validate_campaign_lines,
    validate_record,
)
from repro.pmem.calibration import DEFAULT_CALIBRATION

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def manifest(config="S-LocW", **overrides):
    base = {
        "schema_version": 1,
        "workflow": "micro-2k@8",
        "config": config,
        "ranks": 8,
        "iterations": 2,
        "calibration_sha256": "abc123",
        "git_sha": "deadbeef",
        "repro_version": "0.1.0",
        "python_version": "3.11.0",
    }
    base.update(overrides)
    return base


def cell(cell_id="0" * CELL_ID_LENGTH, key="micro-2k@8"):
    return StoredCell(
        cell_id=cell_id,
        key=key,
        deterministic={
            "family": "micro-2k",
            "ranks": 8,
            "configs": {"S-LocW": {"makespan": 1.0}},
            "winner": "S-LocW",
        },
        host={"kind": "simulated", "wall_seconds": 0.5},
    )


class TestCellIds:
    def test_deterministic_across_calls(self):
        manifests = [manifest("S-LocW"), manifest("P-LocR")]
        assert cell_id_from_manifests(manifests) == cell_id_from_manifests(
            manifests
        )

    def test_config_order_irrelevant(self):
        forward = [manifest("S-LocW"), manifest("P-LocR")]
        assert cell_id_from_manifests(forward) == cell_id_from_manifests(
            list(reversed(forward))
        )

    def test_provenance_fields_excluded(self):
        a = [manifest(git_sha="aaa", repro_version="1", python_version="x")]
        b = [manifest(git_sha="bbb", repro_version="2", python_version="y")]
        assert cell_id_from_manifests(a) == cell_id_from_manifests(b)

    def test_calibration_changes_id(self):
        a = [manifest(calibration_sha256="aaa")]
        b = [manifest(calibration_sha256="bbb")]
        assert cell_id_from_manifests(a) != cell_id_from_manifests(b)

    def test_spec_changes_id(self):
        assert cell_id_from_manifests(
            [manifest(iterations=2)]
        ) != cell_id_from_manifests([manifest(iterations=3)])

    def test_length_and_charset(self):
        cell_id = cell_id_from_manifests([manifest()])
        assert len(cell_id) == CELL_ID_LENGTH
        assert set(cell_id) <= set("0123456789abcdef")

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            cell_id_from_manifests([])

    def test_determinism_payload_strips_provenance(self):
        payload = manifest_determinism_payload(manifest())
        assert not set(PROVENANCE_FIELDS) & set(payload)
        assert payload["config"] == "S-LocW"


class TestAppendOnly:
    def test_create_refuses_overwrite(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        with pytest.raises(StorageError):
            store.create("camp", {"suite": "micro"})

    def test_append_requires_existing_campaign(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        with pytest.raises(StorageError):
            store.append_cell("missing", cell())

    def test_duplicate_cell_id_rejected(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell())
        with pytest.raises(StorageError):
            store.append_cell("camp", cell())

    def test_round_trip(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro", "extra": 7})
        store.append_cell("camp", cell("a" * 16))
        store.append_cell("camp", cell("b" * 16, key="micro-64mb@8"))
        loaded = store.read("camp")
        assert loaded.header["suite"] == "micro"
        assert loaded.header["extra"] == 7
        assert [c.cell_id for c in loaded.cells] == ["a" * 16, "b" * 16]
        assert loaded.cells_by_key["micro-2k@8"].deterministic["winner"] == "S-LocW"

    def test_next_name_skips_existing(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        assert store.next_name("micro") == "micro-001"
        store.create("micro-001", {"suite": "micro"})
        assert store.next_name("micro") == "micro-002"

    def test_bad_names_rejected(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        for bad in ("", ".hidden", "a/b"):
            with pytest.raises(StorageError):
                store.path(bad)


def big_cell(cell_id):
    """A cell whose record is well over 2,000 bytes."""
    stored = cell(cell_id)
    stored.deterministic["notes"] = ["x" * 100] * 40
    return stored


class TestTornAndCorruptLines:
    def test_torn_tail_is_skipped_and_cut_by_the_next_append(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        path = store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell("a" * 16))
        record = canonical_json(big_cell("b" * 16).as_record("camp")).encode()
        assert len(record) > 2000
        with open(path, "ab") as handle:  # an append killed mid-write
            handle.write(record[:2000])
        assert [c.cell_id for c in store.read("camp").cells] == ["a" * 16]
        # Another store (another process) cuts the torn line off, too.
        CampaignStore(str(tmp_path)).append_cell("camp", cell("c" * 16))
        assert [c.cell_id for c in store.read("camp").cells] == ["a" * 16, "c" * 16]
        assert store.validate("camp") == []
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        assert lines[-1] == b"" and all(json.loads(line) for line in lines[:-1])

    def test_corrupt_middle_line_names_path_and_line(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        path = store.create("camp", {"suite": "micro"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "cell", "cell_id": \n')
            handle.write(canonical_json(cell("a" * 16).as_record("camp")) + "\n")
        for operation in (store.read, lambda name: store.append_cell(name, cell())):
            with pytest.raises(StorageError, match=f"{path}:2: not a JSON record"):
                operation("camp")

    def test_appends_decode_each_record_once(self, tmp_path, monkeypatch):
        """n appends decode O(n) records in total, not one read per append."""
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        decoded = []
        loads = json.loads

        def counting(*args, **kwargs):
            decoded.append(1)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        n = 60
        for i in range(n):
            store.append_cell("camp", cell(f"{i:016x}"))
        assert len(decoded) <= n  # one read per append would be ~n*n/2
        assert len(store.read("camp").cells) == n

    def test_duplicate_rejected_after_another_writer_appends(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell("a" * 16))
        CampaignStore(str(tmp_path)).append_cell("camp", cell("b" * 16))
        for cell_id in ("a" * 16, "b" * 16):
            with pytest.raises(StorageError, match="already recorded"):
                store.append_cell("camp", cell(cell_id))


class TestSchemaValidation:
    def test_valid_file_passes(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell())
        assert store.validate("camp") == []

    def test_missing_header_detected(self):
        lines = [canonical_json(cell().as_record("camp"))]
        problems = validate_campaign_lines(lines)
        assert any("no campaign header" in p for p in problems)

    def test_duplicate_cell_detected(self):
        record = canonical_json(cell().as_record("camp"))
        header = canonical_json(
            {
                "record": "campaign",
                "schema_version": STORE_SCHEMA_VERSION,
                "campaign": "camp",
                "suite": "micro",
            }
        )
        problems = validate_campaign_lines([header, record, record])
        assert any("duplicate cell_id" in p for p in problems)

    def test_winner_must_be_among_configs(self):
        record = cell().as_record("camp")
        record["deterministic"]["winner"] = "nope"
        assert any(
            "winner" in p for p in validate_record(record)
        )

    def test_configs_list_rejected(self, tmp_path):
        # A list of labels used to validate, then crash the report.
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        bad = cell()
        bad.deterministic["configs"] = ["S-LocW"]
        store.append_cell("camp", bad)
        assert any("'configs' must be an object" in p for p in store.validate("camp"))

    def test_configs_string_rejected(self):
        record = cell().as_record("camp")
        record["deterministic"]["configs"] = "S-LocW"
        assert any("'configs' must be an object" in p for p in validate_record(record))

    def test_config_entry_not_object_rejected(self):
        record = cell().as_record("camp")
        record["deterministic"]["configs"] = {"S-LocW": 1.0}
        assert any("missing 'makespan'" in p for p in validate_record(record))

    @pytest.mark.parametrize(
        "makespan",
        [None, True, "1.0", [1.0], float("nan"), float("inf"), -float("inf")],
        ids=["none", "bool", "string", "list", "nan", "inf", "neg-inf"],
    )
    def test_makespan_must_be_finite_number(self, makespan):
        record = cell().as_record("camp")
        record["deterministic"]["configs"]["S-LocW"]["makespan"] = makespan
        assert any("not a finite number" in p for p in validate_record(record))

    def test_integer_makespan_accepted(self):
        record = cell().as_record("camp")
        record["deterministic"]["configs"]["S-LocW"]["makespan"] = 3
        assert validate_record(record) == []

    def test_committed_baseline_validates(self):
        store = CampaignStore(os.path.join(REPO_ROOT, "campaigns"))
        assert store.validate("baseline-micro") == []

    def test_invalid_json_detected(self):
        problems = validate_campaign_lines(["{not json"])
        assert any("invalid JSON" in p for p in problems)

    def test_unknown_record_type_detected(self):
        problems = validate_record({"record": "mystery"})
        assert any("unknown record type" in p for p in problems)

    def test_stored_lines_are_canonical_json(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell())
        with open(store.path("camp"), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert canonical_json(record) == line.rstrip("\n")


# ----------------------------------------------------------------------
# Pre-run cell ids.
# ----------------------------------------------------------------------
def test_pre_run_cell_id_matches_post_run_cell_id():
    """cell_id_for_spec must predict exactly the id run_cell produces.

    This is the keystone of the service cache: if the pre-run id
    (manifests only) ever drifted from the post-run id (e.g. a
    compute-jitter default mismatch), every lookup would miss and the
    service would simulate every resubmitted cell again.
    """
    from repro.obs.campaign import run_cell

    spec = build_workflow("micro-2k", 8, iterations=2)
    predicted = cell_id_for_spec(spec, ALL_CONFIGS, DEFAULT_CALIBRATION)
    cell = run_cell("micro-2k", 8, iterations=2)
    assert predicted == cell.cell_id
