"""Run provenance: everything needed to reproduce an exported trace.

A trace without provenance is a picture; a trace with provenance is an
experiment.  :class:`RunManifest` pins down the five inputs that determine
a simulated run bit-for-bit:

* the workflow spec (name, ranks, iterations, snapshot shape, stack);
* the scheduler configuration (Table I label);
* the calibration table, as a content hash — two manifests with the same
  ``calibration_sha256`` ran against identical device constants;
* the determinism inputs (compute jitter, socket placement) — the
  simulator has no RNG, so these *are* the seed;
* the code version (git SHA when available, package version always).

Deliberately absent: wall-clock timestamps and hostnames.  The exporters
promise byte-identical output for identical runs, and the manifest is part
of the export.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

import repro
from repro.pmem.calibration import OptaneCalibration

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.configs import SchedulerConfig
    from repro.workflow.spec import WorkflowSpec

#: Version of the manifest / export schema (bumped on breaking changes).
SCHEMA_VERSION = 1


def calibration_hash(cal: OptaneCalibration) -> str:
    """SHA-256 of the calibration table (:attr:`OptaneCalibration.sha256`)."""
    return cal.sha256


@functools.lru_cache(maxsize=None)
def git_sha(default: str = "unknown") -> str:
    """Commit SHA of the checkout the running ``repro`` package lives in.

    Resolved against the package directory, not the caller's working
    directory, so the SHA names the code actually running; *default*
    when the package is not inside a git checkout.  Code already loaded
    does not change with later commits, so ``git`` is spawned at most
    once per process (``git_sha.cache_clear()`` forces a fresh lookup).
    """
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    try:
        out = subprocess.run(
            ["git", "-C", package_dir, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


@dataclass(frozen=True)
class RunManifest:
    """Provenance record attached to every observed run."""

    schema_version: int
    workflow: str
    config: str
    ranks: int
    iterations: int
    object_bytes: int
    objects_per_snapshot: int
    snapshot_bytes: int
    stack: str
    writer_socket: int
    reader_socket: int
    compute_jitter: float
    calibration_sha256: str
    git_sha: str
    repro_version: str
    python_version: str

    def as_dict(self) -> Dict[str, Any]:
        # Every field is a scalar, so a flat copy equals dataclasses.asdict
        # without its per-value deepcopy (a stored cell calls this 8 times).
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)


def build_manifest(
    spec: "WorkflowSpec",
    config: "SchedulerConfig",
    cal: OptaneCalibration,
    writer_socket: int = 0,
    reader_socket: int = 1,
    compute_jitter: float = 0.0,
) -> RunManifest:
    """Assemble the provenance record for one (spec, config, cal) run."""
    return RunManifest(
        schema_version=SCHEMA_VERSION,
        workflow=spec.name,
        config=config.label,
        ranks=spec.ranks,
        iterations=spec.iterations,
        object_bytes=int(spec.snapshot.object_bytes),
        objects_per_snapshot=int(spec.snapshot.objects_per_snapshot),
        snapshot_bytes=int(spec.snapshot.snapshot_bytes),
        stack=spec.stack_name,
        writer_socket=writer_socket,
        reader_socket=reader_socket,
        compute_jitter=compute_jitter,
        calibration_sha256=calibration_hash(cal),
        git_sha=git_sha(),
        repro_version=repro.__version__,
        python_version="{}.{}.{}".format(*sys.version_info[:3]),
    )
