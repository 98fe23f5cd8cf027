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
  host timestamp in a payload fails even at one-second resolution.  Every
  run also renders the validator's findings for fixed bad inputs, which
  must match too.  A last seed-0 run is a sandbox: it fails on blocking
  I/O from model code and on threads or processes started outside
  ``repro.service``.

All 72 paper-sweep makespans are also pinned bit for bit.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.apps.suite import workflow_suite
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


#: The 72 paper-sweep makespans (18 workflows x 4 configurations), pinned
#: exactly; ``python tools/sweep_pins.py makespans`` re-records them.  The
#: benchmark harness keeps its own 2 % reference under ``perfbench/``.
SWEEP_MAKESPANS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "sweep_makespans.json"
)


def test_paper_sweep_makespans_pinned_bit_for_bit():
    """Model arithmetic is pinned, not just bounded by a drift threshold.

    A dimensionally wrong term (seconds added to a rate, bytes minus a
    latency) can move makespans by 1e-15 relative: far below any drift
    bound, but still a different model.  A change that moves these bits on
    purpose re-records the reference and says why in its change log.
    """
    with open(SWEEP_MAKESPANS) as handle:
        reference = json.load(handle)["makespans"]
    entries = workflow_suite()
    assert sorted(f"{e.family}@{e.ranks}" for e in entries) == sorted(reference)
    moved = []
    for entry in entries:
        pinned = reference[f"{entry.family}@{entry.ranks}"]
        for config in ALL_CONFIGS:
            makespan = run_workflow(entry.spec, config).makespan
            if makespan != pinned[config.label]:
                moved.append(
                    f"{entry.family}@{entry.ranks} {config.label}: "
                    f"{makespan.hex()} != {pinned[config.label].hex()}"
                )
    assert not moved, f"{len(moved)} of 72 makespans moved:\n" + "\n".join(moved)


#: Hash seeds for the cross-process oracle; ``0`` disables randomization.
HASH_SEEDS = (0, 1, 2, 3)

#: Runs the micro campaign into a throwaway store and collects, as
#: canonical JSON, every stored cell's identity and deterministic payload
#: (host and provenance left out) plus the id ``cell_id_for_spec`` plans
#: for it.  It also renders the validator's findings for fixed bad inputs
#: (SPEC201/202/204/205, PLAT301/302/303/304): a pre-run verdict must not
#: depend on when it ran either.
_CAMPAIGN_PROBE = """
import dataclasses, json, tempfile
from repro.analysis.diagnostics import render_text
from repro.analysis.validate import (
    validate_calibration, validate_node, validate_placement, validate_workflow,
)
from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS, S_LOCW
from repro.obs.campaign import parse_cell_key, run_campaign
from repro.obs.store import CampaignStore, canonical_json
from repro.platform.builder import paper_testbed
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
spec = build_workflow("micro-2k", 8, iterations=1)
bad_spec = dataclasses.replace(
    spec,
    couplings=(("simulation", "analytics"), ("analytics", "simulation"),
               ("simulation", "visualization")),
    stack_name="tmpfs",
)
bad_cal = dataclasses.replace(
    DEFAULT_CALIBRATION, read_ramp_scale=-6.0, read_latency_local=0.0
)
findings = (
    validate_workflow(bad_spec)
    + validate_placement(dataclasses.replace(spec, ranks=40), S_LOCW, paper_testbed())
    + validate_calibration(bad_cal)
    + validate_node(paper_testbed(), DEFAULT_CALIBRATION.replace(dimms_per_socket=4))
)
output = {
    "stored": canonical_json(stored),
    "planned": planned,
    "validator": render_text(findings),
}
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

#: Records, before ``repro`` is imported, every host effect the model must
#: not have: blocking I/O (``open``, ``time.sleep``, subprocesses, sockets)
#: with a frame of a model package on the stack, and any thread or process
#: started with no ``repro.service`` frame on the stack.  Python raises no
#: audit event for a thread start, so the two ``start`` methods are wrapped.
#: Events raised while a module is being imported do not count.
_SANDBOX = """
import multiprocessing.process, os, sys, threading

_MODEL = tuple(
    os.sep + os.path.join("repro", package) + os.sep
    for package in ("sim", "pmem", "platform", "storage", "workflow", "apps")
)
_SERVICE = os.sep + os.path.join("repro", "service") + os.sep
_BLOCKING = {"open", "time.sleep", "subprocess.Popen", "os.system"}
SANDBOX_EVENTS = []

def _stack_files(frame):
    while frame is not None:
        yield frame.f_code.co_filename
        frame = frame.f_back

def _audit(event, args):
    if event not in _BLOCKING and not event.startswith("socket."):
        return
    files = list(_stack_files(sys._getframe(1)))
    if any(f.startswith("<frozen importlib") for f in files):
        return
    model = [f for f in files if any(zone in f for zone in _MODEL)]
    if model:
        SANDBOX_EVENTS.append(f"{event} from {model[0]}")

sys.addaudithook(_audit)

def _fenced(start, kind):
    def wrapper(self, *args, **kwargs):
        if not any(_SERVICE in f for f in _stack_files(sys._getframe(1))):
            SANDBOX_EVENTS.append(f"{kind} started outside repro.service")
        return start(self, *args, **kwargs)
    return wrapper

threading.Thread.start = _fenced(threading.Thread.start, "thread")
multiprocessing.process.BaseProcess.start = _fenced(
    multiprocessing.process.BaseProcess.start, "process"
)
"""

#: One small cell of every suite family the micro campaign does not run,
#: so every ``repro.apps`` module executes under the sandbox.
_SANDBOX_CELLS = """
from repro.apps.suite import FAMILIES
from repro.core.configs import P_LOCR
from repro.workflow.runner import run_workflow

for family in FAMILIES:
    if not family.startswith("micro"):
        run_workflow(build_workflow(family, 8, iterations=1), P_LOCR)
output["sandbox"] = SANDBOX_EVENTS
"""

#: Probe runs: hash seed, code run before the probe, code run after it.
_PROBES = {seed: (seed, "", "") for seed in HASH_SEEDS}
_PROBES["clock-shifted"] = (0, _CLOCK_SHIFT, "")
_PROBES["sandbox"] = (0, _SANDBOX, _SANDBOX_CELLS)


def test_micro_campaign_bytes_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    procs = {}
    for probe, (seed, prelude, epilogue) in _PROBES.items():
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        code = prelude + _CAMPAIGN_PROBE + epilogue + "print(json.dumps(output))\n"
        procs[probe] = subprocess.Popen(
            [sys.executable, "-c", code],
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
    reference = outputs[HASH_SEEDS[0]]
    for key in ("stored", "validator"):
        differing = [p for p in _PROBES if outputs[p][key] != reference[key]]
        assert not differing, (
            f"{key} output of probes {differing} differs from "
            f"PYTHONHASHSEED={HASH_SEEDS[0]}"
        )
    codes = set(re.findall(r"\b(?:SPEC|PLAT)\d{3}\b", reference["validator"]))
    assert {"SPEC201", "SPEC204", "PLAT301", "PLAT303"} <= codes, codes
    events = outputs["sandbox"]["sandbox"]
    assert not events, (
        f"{len(events)} host effect(s) in model code or outside repro.service:\n"
        + "\n".join(sorted(set(events)))
    )
