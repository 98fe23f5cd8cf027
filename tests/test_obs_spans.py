"""Unit tests for span building and the run manifest."""

import dataclasses
import hashlib
import json

from repro.obs.manifest import (
    SCHEMA_VERSION,
    build_manifest,
    calibration_hash,
)
from repro.obs.spans import ROOT_SPAN_ID, build_spans
from repro.apps.microbench import SMALL_OBJECT_BYTES, micro_workflow
from repro.core.configs import S_LOCW
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.sim.trace import Tracer


def make_tracer():
    tracer = Tracer()
    tracer.record("writer", 0, "compute", 0.0, 1.0, iteration=0)
    tracer.record("writer", 0, "write", 1.0, 1.5, iteration=0, bytes=100)
    tracer.record("writer", 0, "compute", 1.5, 2.5, iteration=1)
    tracer.record("writer", 1, "write", 1.0, 2.0, iteration=0)
    tracer.record("reader", 0, "setup", 0.0, 0.5)  # iteration -1
    tracer.record("reader", 0, "read", 1.5, 2.5, iteration=0)
    return tracer


class TestBuildSpans:
    def test_root_span_covers_run(self):
        spans = build_spans(make_tracer(), run_name="demo", makespan=3.0)
        root = spans[0]
        assert root.span_id == ROOT_SPAN_ID
        assert root.parent_id is None
        assert root.category == "run"
        assert root.name == "demo"
        assert root.start == 0.0
        assert root.end == 3.0  # extended to the makespan

    def test_rank_spans_parented_to_root(self):
        spans = build_spans(make_tracer())
        ranks = [s for s in spans if s.category == "rank"]
        assert {s.name for s in ranks} == {"writer[0]", "writer[1]", "reader[0]"}
        assert all(s.parent_id == ROOT_SPAN_ID for s in ranks)
        writer0 = next(s for s in ranks if s.name == "writer[0]")
        assert (writer0.start, writer0.end) == (0.0, 2.5)

    def test_iteration_spans_group_phases(self):
        spans = build_spans(make_tracer())
        iterations = [
            s
            for s in spans
            if s.category == "iteration" and s.component == "writer" and s.rank == 0
        ]
        assert [s.name for s in iterations] == ["iteration 0", "iteration 1"]
        phase_parents = {
            s.name: s.parent_id
            for s in spans
            if s.category == "phase" and s.component == "writer" and s.rank == 0
        }
        assert phase_parents["write"] == iterations[0].span_id

    def test_outside_iteration_attaches_to_rank(self):
        spans = build_spans(make_tracer())
        setup = next(s for s in spans if s.name == "setup")
        rank = next(s for s in spans if s.name == "reader[0]")
        assert setup.parent_id == rank.span_id
        assert setup.iteration == -1

    def test_detail_becomes_attributes(self):
        spans = build_spans(make_tracer())
        write = next(
            s for s in spans if s.name == "write" and s.rank == 0
        )
        assert write.attributes == {"bytes": 100}

    def test_span_ids_deterministic(self):
        first = build_spans(make_tracer())
        second = build_spans(make_tracer())
        assert [(s.span_id, s.parent_id, s.name) for s in first] == [
            (s.span_id, s.parent_id, s.name) for s in second
        ]

    def test_leaf_spans_are_phases(self):
        spans = build_spans(make_tracer())
        parents = {s.parent_id for s in spans}
        leaves = [s for s in spans if s.span_id not in parents]
        assert len(leaves) == 6
        assert leaves == [s for s in spans if s.category == "phase"]


class TestManifest:
    def spec(self):
        return micro_workflow(SMALL_OBJECT_BYTES, ranks=8, iterations=2)

    def test_fields(self):
        manifest = build_manifest(self.spec(), S_LOCW, DEFAULT_CALIBRATION)
        assert manifest.schema_version == SCHEMA_VERSION
        assert manifest.config == "S-LocW"
        assert manifest.ranks == 8
        assert manifest.iterations == 2
        assert manifest.stack == "nvstream"
        assert manifest.calibration_sha256 == calibration_hash(DEFAULT_CALIBRATION)
        assert len(manifest.calibration_sha256) == 64

    def test_no_wall_clock_fields(self):
        # Byte-identical exports forbid timestamps/hostnames in the manifest.
        data = build_manifest(self.spec(), S_LOCW, DEFAULT_CALIBRATION).as_dict()
        for key in data:
            assert "time" not in key
            assert "date" not in key
            assert "host" not in key

    def test_calibration_hash_sensitivity(self):
        base = calibration_hash(DEFAULT_CALIBRATION)
        tweaked = dataclasses.replace(
            DEFAULT_CALIBRATION,
            read_ramp_scale=DEFAULT_CALIBRATION.read_ramp_scale + 1.0,
        )
        assert calibration_hash(tweaked) != base
        assert calibration_hash(DEFAULT_CALIBRATION) == base

    def test_cached_calibration_hash_equals_fresh(self, monkeypatch):
        def fresh(cal):
            fields = sorted(dataclasses.asdict(cal).items())
            payload = json.dumps({k: repr(v) for k, v in fields}, sort_keys=True)
            return hashlib.sha256(payload.encode("utf-8")).hexdigest()

        def no_rehash(*args, **kwargs):
            raise AssertionError("calibration hashed twice")

        replaced = dataclasses.replace(
            DEFAULT_CALIBRATION, read_ramp_scale=7.5, enable_size_effects=False
        )
        for cal in (DEFAULT_CALIBRATION, replaced):
            first = calibration_hash(cal)
            expected = fresh(cal)
            # Memoised on the object: a second call hashes nothing.
            with monkeypatch.context() as patch:
                patch.setattr(hashlib, "sha256", no_rehash)
                assert calibration_hash(cal) == first == expected
        # Equal calibrations that print differently keep distinct hashes.
        as_float = dataclasses.replace(DEFAULT_CALIBRATION, xpline_bytes=256.0)
        assert as_float == DEFAULT_CALIBRATION
        assert calibration_hash(as_float) == fresh(as_float)
        assert calibration_hash(as_float) != calibration_hash(DEFAULT_CALIBRATION)

    def test_int_and_float_fields_hash_differently(self):
        as_int = DEFAULT_CALIBRATION.replace(write_peak_threads=4)
        as_float = DEFAULT_CALIBRATION.replace(write_peak_threads=4.0)
        assert as_int == as_float
        # Hash the float table first: a memo keyed on equality would then
        # hand its digest to the int table.
        assert calibration_hash(as_float) != calibration_hash(as_int)

    def test_to_json_deterministic(self):
        manifest = build_manifest(self.spec(), S_LOCW, DEFAULT_CALIBRATION)
        again = build_manifest(self.spec(), S_LOCW, DEFAULT_CALIBRATION)
        assert manifest.to_json() == again.to_json()
