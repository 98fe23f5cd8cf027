"""Determinism regression: identical inputs must yield identical outputs.

The simulator's whole value rests on reproducibility — the same spec and
configuration must produce the same event sequence down to the last float,
or results in the paper tables cannot be trusted across reruns.

Two oracles enforce it:

* **In-process reruns** (:class:`TestDeterminism`) serialize the full trace
  (every record, every field, full float precision) from two runs in one
  interpreter and require the bytes to match.  A wall-clock read or an
  unseeded RNG in the hot path shows up here as a byte diff.  Iteration-
  order and ``hash()`` leaks do *not*: both runs share one hash seed, so a
  ``set`` iterates in the same order twice.
* **Cross-hash-seed reruns**
  (:func:`test_micro_campaign_bytes_independent_of_hash_seed`) run the
  micro campaign in fresh interpreters under several ``PYTHONHASHSEED``
  values and require every stored cell's id, key and deterministic
  payload to match byte for byte.  That catches what the first oracle
  cannot: ``set`` order or builtin ``hash()`` reaching a stored payload,
  a manifest, or a cell id.  One more run at hash seed 0 starts with every
  host clock shifted by a constant and must store the same bytes, so a
  host timestamp in a payload fails even at one-second resolution.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.storage.objects import SnapshotSpec
from repro.units import KiB, MiB
from repro.workflow.kernels import FixedWorkKernel
from repro.workflow.runner import run_workflow
from repro.workflow.spec import WorkflowSpec


def serialize_run(result):
    """Byte-exact serialization of everything observable about a run."""
    payload = {
        "workflow": result.workflow_name,
        "config": result.config_label,
        "makespan": result.makespan.hex(),
        "writer_span": [t.hex() for t in result.writer_span],
        "reader_span": [t.hex() for t in result.reader_span],
        "bytes_written": result.bytes_written.hex(),
        "bytes_read": result.bytes_read.hex(),
        "trace": [
            {
                "component": r.component,
                "rank": r.rank,
                "phase": r.phase,
                "start": r.start.hex(),
                "end": r.end.hex(),
                "iteration": r.iteration,
                "detail": sorted(r.detail.items()),
            }
            for r in result.tracer.records
        ],
    }
    return json.dumps(payload, sort_keys=True).encode()


def small_spec():
    return WorkflowSpec(
        name="determinism@4",
        ranks=4,
        iterations=3,
        snapshot=SnapshotSpec(object_bytes=64 * KiB, objects_per_snapshot=16),
        sim_compute=FixedWorkKernel(seconds=0.05),
        analytics_compute=FixedWorkKernel(seconds=0.02),
    )


class TestDeterminism:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_trace_is_byte_identical_across_runs(self, config):
        first = serialize_run(run_workflow(small_spec(), config, trace=True))
        second = serialize_run(run_workflow(small_spec(), config, trace=True))
        assert first == second

    def test_trace_is_nonempty(self):
        result = run_workflow(small_spec(), ALL_CONFIGS[0], trace=True)
        # Guard against the comparison passing vacuously on empty traces.
        assert len(result.tracer.records) >= small_spec().ranks * 3

    def test_distinct_configs_actually_differ(self):
        # Sanity: the serialization captures enough to tell runs apart.
        big = WorkflowSpec(
            name="determinism-big@4",
            ranks=4,
            iterations=3,
            snapshot=SnapshotSpec(object_bytes=MiB, objects_per_snapshot=64),
        )
        parallel, serial = ALL_CONFIGS[0], ALL_CONFIGS[2]
        assert serialize_run(
            run_workflow(big, parallel, trace=True)
        ) != serialize_run(run_workflow(big, serial, trace=True))


#: micro-2k@16's makespans, bit for bit (``perfbench/fixtures/
#: sweep_reference.json`` holds the same values).  A cheap cell whose
#: four runs exercise local and remote reads and writes of small objects.
PINNED_MAKESPANS = {
    "S-LocW": 35.66488473883602,
    "S-LocR": 34.73865361458155,
    "P-LocW": 44.65466003089469,
    "P-LocR": 34.25740585382093,
}


def test_micro_2k_makespans_pinned_bit_for_bit():
    """Model arithmetic is pinned, not just bounded by a drift threshold.

    A dimensionally wrong term (seconds added to a rate, bytes minus a
    latency) can move makespans by 1e-15 relative: far below any drift
    bound, but still a different model.  A change that moves these bits on
    purpose updates the pins and says why in its change log.
    """
    spec = build_workflow("micro-2k", 16)
    assert {
        config.label: run_workflow(spec, config).makespan
        for config in ALL_CONFIGS
    } == PINNED_MAKESPANS


#: Hash seeds for the cross-process oracle; ``0`` disables randomization.
HASH_SEEDS = (0, 1, 2, 3)

#: Runs the micro campaign into a throwaway store and prints, as canonical
#: JSON, every stored cell's identity and deterministic payload (host and
#: provenance left out) plus the id ``cell_id_for_spec`` plans for it.
_CAMPAIGN_PROBE = """
import json, tempfile
from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.obs.campaign import parse_cell_key, run_campaign
from repro.obs.store import CampaignStore, canonical_json
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.service.cache import cell_id_for_spec

with tempfile.TemporaryDirectory() as root:
    store = CampaignStore(root)
    run_campaign(suite="micro", name="oracle", store=store, iterations=1)
    cells = store.read("oracle").cells
planned = {}
for cell in cells:
    family, ranks = parse_cell_key(cell.key)
    spec = build_workflow(family, ranks, iterations=1)
    planned[cell.key] = cell_id_for_spec(spec, ALL_CONFIGS, DEFAULT_CALIBRATION)
stored = [
    {"cell_id": c.cell_id, "key": c.key, "deterministic": c.deterministic}
    for c in cells
]
print(json.dumps({"stored": canonical_json(stored), "planned": planned}))
"""


#: Shifts every host clock by a constant before ``repro`` is imported.  The
#: four seed runs start together, so a coarse timestamp (``round(time.time())``)
#: reads the same in all of them; this shift makes it differ.
_CLOCK_SHIFT = """
import datetime, time
SHIFT = 10**8  # seconds, about three years
for _name in ("time", "monotonic", "perf_counter"):
    for _suffix, _offset in (("", SHIFT), ("_ns", SHIFT * 10**9)):
        _clock = getattr(time, _name + _suffix)
        setattr(time, _name + _suffix, lambda c=_clock, o=_offset: c() + o)

class _ShiftedDatetime(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return super().now(tz) + datetime.timedelta(seconds=SHIFT)

datetime.datetime = _ShiftedDatetime
"""

#: Probe runs: hash seed, host-clock shift.
_PROBES = {seed: (seed, "") for seed in HASH_SEEDS}
_PROBES["clock-shifted"] = (0, _CLOCK_SHIFT)


def test_micro_campaign_bytes_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    procs = {}
    for probe, (seed, prelude) in _PROBES.items():
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        procs[probe] = subprocess.Popen(
            [sys.executable, "-c", prelude + _CAMPAIGN_PROBE],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    outputs = {}
    for probe, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"probe {probe}:\n{err}"
        outputs[probe] = json.loads(out.splitlines()[-1])

    for probe, output in outputs.items():
        stored = json.loads(output["stored"])
        assert len(stored) == 2
        for cell in stored:
            assert output["planned"][cell["key"]] == cell["cell_id"], (
                f"probe {probe}: planned id for {cell['key']} "
                "differs from the id the run stored"
            )
    reference = outputs[HASH_SEEDS[0]]["stored"]
    differing = [p for p in _PROBES if outputs[p]["stored"] != reference]
    assert not differing, (
        f"stored cells of probes {differing} differ from "
        f"PYTHONHASHSEED={HASH_SEEDS[0]}"
    )
