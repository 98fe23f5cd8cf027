"""Persistent, append-only campaign run store (JSONL under ``campaigns/``).

One campaign = one JSONL file.  The first line is a *campaign header*; every
subsequent line is a *cell record* — one (workflow, calibration) cell of the
suite, carrying the results of every scheduler configuration evaluated for
it.  Records are append-only: cells are never rewritten, a campaign is
never truncated, and re-running the same campaign under a new name yields
byte-identical ``"deterministic"`` payloads (a test enforces this).

Record layout::

    {"record": "campaign", "schema_version": 1, "campaign": ..., ...}
    {"record": "cell", "campaign": ..., "cell_id": ..., "key": ...,
     "deterministic": {...},   # byte-stable: results + manifest identity
     "host": {...},            # wall-clock self-metrics; never diffed
     "provenance": {...}}      # git SHA / versions; never diffed

The three-way split is the store's core invariant:

* ``deterministic`` — everything a diff compares: per-config makespans,
  phase breakdowns, PMEM byte counters, the winner, the paper expectation,
  and the determinism-relevant manifest fields.  Identical inputs must
  serialize identically.
* ``host`` — wall-clock cost (see :mod:`repro.obs.hostmetrics`).  Varies
  between machines and reruns by design.
* ``provenance`` — git SHA, package and Python versions: how to find the
  code, excluded from identity so a rebase does not change cell ids.

Cell ids are content hashes of the determinism-relevant manifest fields of
every configuration in the cell — same spec + configs + calibration ⇒ same
id, on any machine, at any commit.  :func:`cell_id_for_spec` computes that
id *before* anything runs, so the service can look a job's cell up first.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import StorageError
from repro.obs.manifest import build_manifest
from repro.workflow.runner import DEFAULT_COMPUTE_JITTER

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.configs import SchedulerConfig
    from repro.pmem.calibration import OptaneCalibration
    from repro.workflow.spec import WorkflowSpec

#: Version of the store record schema (bumped on breaking changes).
STORE_SCHEMA_VERSION = 1

#: Default store location, relative to the working directory.
DEFAULT_CAMPAIGN_DIR = "campaigns"

#: Manifest fields that identify the code, not the experiment — excluded
#: from cell identity and from the deterministic payload.
PROVENANCE_FIELDS: Tuple[str, ...] = ("git_sha", "repro_version", "python_version")

#: Hex digits kept of the cell content hash (64 bits: ample for suites).
CELL_ID_LENGTH = 16


def canonical_json(payload: Any) -> str:
    """The byte-stable serialization used for hashing and storage."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def manifest_determinism_payload(manifest: Mapping[str, Any]) -> Dict[str, Any]:
    """A manifest dict minus its provenance fields (code-version identity)."""
    return {
        key: value
        for key, value in manifest.items()
        if key not in PROVENANCE_FIELDS
    }


def cell_id_from_manifests(manifests: Iterable[Mapping[str, Any]]) -> str:
    """Deterministic cell id from the PR-2 run manifests of a cell.

    The id hashes the determinism-relevant fields of every per-config
    manifest (sorted by config label), so the same spec + configuration
    set + calibration always produces the same id — across machines,
    commits, and campaign names.
    """
    payloads = sorted(
        (manifest_determinism_payload(m) for m in manifests),
        key=lambda m: str(m.get("config", "")),
    )
    if not payloads:
        raise StorageError("cannot derive a cell id from zero manifests")
    digest = hashlib.sha256(canonical_json(payloads).encode("utf-8"))
    return digest.hexdigest()[:CELL_ID_LENGTH]


def cell_id_for_spec(
    spec: "WorkflowSpec",
    configs: Sequence["SchedulerConfig"],
    cal: "OptaneCalibration",
) -> str:
    """The cell id a run of (*spec*, *configs*, *cal*) will produce.

    Builds the same manifests :func:`repro.obs.campaign.run_cell` records —
    ``compute_jitter`` must be the runner's default, not
    :func:`~repro.obs.manifest.build_manifest`'s zero default, or pre-run
    ids would never match post-run ids (a parity test enforces this).
    """
    if not configs:
        raise StorageError("cannot derive a cell id from zero configs")
    manifests = [
        build_manifest(
            spec, config, cal, compute_jitter=DEFAULT_COMPUTE_JITTER
        ).as_dict()
        for config in configs
    ]
    return cell_id_from_manifests(manifests)


# ----------------------------------------------------------------------
# In-memory views of stored campaigns.
# ----------------------------------------------------------------------
@dataclass
class StoredCell:
    """One cell line of a campaign file."""

    cell_id: str
    key: str
    deterministic: Dict[str, Any]
    host: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def as_record(self, campaign: str) -> Dict[str, Any]:
        return {
            "record": "cell",
            "schema_version": STORE_SCHEMA_VERSION,
            "campaign": campaign,
            "cell_id": self.cell_id,
            "key": self.key,
            "deterministic": self.deterministic,
            "host": self.host,
            "provenance": self.provenance,
        }


@dataclass
class StoredCampaign:
    """A fully parsed campaign: header plus its cells, in append order."""

    name: str
    header: Dict[str, Any]
    cells: List[StoredCell] = field(default_factory=list)

    @property
    def cells_by_key(self) -> Dict[str, StoredCell]:
        return {cell.key: cell for cell in self.cells}


# ----------------------------------------------------------------------
# Schema validation (used by tests, the CLI, and the CI campaign job).
# ----------------------------------------------------------------------
_CELL_REQUIRED = ("record", "campaign", "cell_id", "key", "deterministic", "host")
_DETERMINISTIC_REQUIRED = ("family", "ranks", "configs", "winner")


def _is_finite_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_record(record: Any, index: int = 0) -> List[str]:
    """Problems with one store record; empty list means valid."""
    prefix = f"line {index + 1}"
    if not isinstance(record, dict):
        return [f"{prefix}: not a JSON object"]
    kind = record.get("record")
    problems: List[str] = []
    if kind == "campaign":
        for key in ("campaign", "schema_version", "suite"):
            if key not in record:
                problems.append(f"{prefix}: campaign header missing {key!r}")
        if record.get("schema_version") != STORE_SCHEMA_VERSION:
            problems.append(
                f"{prefix}: schema_version {record.get('schema_version')!r} "
                f"!= {STORE_SCHEMA_VERSION}"
            )
    elif kind == "cell":
        for key in _CELL_REQUIRED:
            if key not in record:
                problems.append(f"{prefix}: cell record missing {key!r}")
        deterministic = record.get("deterministic")
        if isinstance(deterministic, dict):
            for key in _DETERMINISTIC_REQUIRED:
                if key not in deterministic:
                    problems.append(
                        f"{prefix}: deterministic payload missing {key!r}"
                    )
            configs = deterministic.get("configs")
            if isinstance(configs, dict):
                for label, entry in configs.items():
                    if not isinstance(entry, dict) or "makespan" not in entry:
                        problems.append(
                            f"{prefix}: config {label!r} missing 'makespan'"
                        )
                    elif not _is_finite_number(entry["makespan"]):
                        problems.append(
                            f"{prefix}: config {label!r} makespan "
                            f"{entry['makespan']!r} is not a finite number"
                        )
                winner = deterministic.get("winner")
                if winner is not None and winner not in configs:
                    problems.append(
                        f"{prefix}: winner {winner!r} not among configs"
                    )
            elif "configs" in deterministic:
                problems.append(f"{prefix}: 'configs' must be an object")
        elif "deterministic" in record:
            problems.append(f"{prefix}: 'deterministic' must be an object")
        host = record.get("host")
        if host is not None and not isinstance(host, dict):
            problems.append(f"{prefix}: 'host' must be an object")
    else:
        problems.append(f"{prefix}: unknown record type {kind!r}")
    return problems


def validate_campaign_lines(lines: Iterable[str]) -> List[str]:
    """Schema-check a whole campaign file's lines."""
    problems: List[str] = []
    seen_header = False
    seen_cells: set = set()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {index + 1}: invalid JSON ({exc.msg})")
            continue
        problems.extend(validate_record(record, index))
        if isinstance(record, dict):
            if record.get("record") == "campaign":
                if seen_header:
                    problems.append(f"line {index + 1}: duplicate campaign header")
                if index != 0:
                    problems.append(
                        f"line {index + 1}: campaign header must be first"
                    )
                seen_header = True
            elif record.get("record") == "cell":
                cell_id = record.get("cell_id")
                if cell_id in seen_cells:
                    problems.append(
                        f"line {index + 1}: duplicate cell_id {cell_id!r}"
                    )
                seen_cells.add(cell_id)
    if not seen_header:
        problems.append("file has no campaign header record")
    return problems


# ----------------------------------------------------------------------
# The store.
# ----------------------------------------------------------------------
class CampaignStore:
    """Append-only JSONL store, one file per campaign, under *root*."""

    def __init__(self, root: str = DEFAULT_CAMPAIGN_DIR) -> None:
        self.root = root

    # -- paths and naming ----------------------------------------------
    def path(self, name: str) -> str:
        if not name or os.sep in name or name.startswith("."):
            raise StorageError(f"invalid campaign name {name!r}")
        return os.path.join(self.root, f"{name}.jsonl")

    def exists(self, name: str) -> bool:
        return os.path.exists(self.path(name))

    def list_campaigns(self) -> List[str]:
        """Campaign names present in the store, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry[: -len(".jsonl")]
            for entry in os.listdir(self.root)
            if entry.endswith(".jsonl")
        )

    def next_name(self, prefix: str) -> str:
        """First free ``<prefix>-NNN`` name (no wall clock involved)."""
        existing = set(self.list_campaigns())
        for counter in range(1, 10_000):
            candidate = f"{prefix}-{counter:03d}"
            if candidate not in existing:
                return candidate
        raise StorageError(f"no free campaign name under prefix {prefix!r}")

    # -- writing --------------------------------------------------------
    def create(self, name: str, header: Optional[Dict[str, Any]] = None) -> str:
        """Create an empty campaign with its header line; returns the path.

        Refuses to overwrite: the store is append-only and an existing
        campaign is immutable history.
        """
        path = self.path(name)
        if os.path.exists(path):
            raise StorageError(
                f"campaign {name!r} already exists (store is append-only)"
            )
        os.makedirs(self.root, exist_ok=True)
        record = {
            "record": "campaign",
            "schema_version": STORE_SCHEMA_VERSION,
            "campaign": name,
            "suite": "custom",
        }
        record.update(header or {})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")
        return path

    def append_cell(self, name: str, cell: StoredCell) -> None:
        """Append one cell record; duplicate cell ids are rejected."""
        path = self.path(name)
        if not os.path.exists(path):
            raise StorageError(
                f"campaign {name!r} does not exist; create() it first"
            )
        existing = self.read(name)
        if any(c.cell_id == cell.cell_id for c in existing.cells):
            raise StorageError(
                f"cell {cell.cell_id} already recorded in campaign {name!r} "
                "(store is append-only; start a new campaign to re-run)"
            )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(cell.as_record(name)) + "\n")

    # -- reading --------------------------------------------------------
    def read(self, name: str) -> StoredCampaign:
        """Parse one campaign file into a :class:`StoredCampaign`."""
        path = self.path(name)
        if not os.path.exists(path):
            raise StorageError(
                f"no campaign {name!r} in {self.root!r}; "
                f"have {self.list_campaigns()}"
            )
        header: Dict[str, Any] = {}
        cells: List[StoredCell] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("record") == "campaign":
                    header = record
                elif record.get("record") == "cell":
                    cells.append(
                        StoredCell(
                            cell_id=record["cell_id"],
                            key=record["key"],
                            deterministic=record["deterministic"],
                            host=record.get("host", {}),
                            provenance=record.get("provenance", {}),
                        )
                    )
                else:
                    raise StorageError(
                        f"{path}: unknown record type {record.get('record')!r}"
                    )
        return StoredCampaign(name=name, header=header, cells=cells)

    def validate(self, name: str) -> List[str]:
        """Schema problems of one stored campaign (empty = valid)."""
        path = self.path(name)
        if not os.path.exists(path):
            return [f"no campaign {name!r} in {self.root!r}"]
        with open(path, "r", encoding="utf-8") as handle:
            return validate_campaign_lines(handle.readlines())
