"""The service's result cache: an id index over its campaign store."""

import ast
import os

import pytest

from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.obs.store import CampaignStore, StoredCell, cell_id_for_spec
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.service.cache import PENDING_CAMPAIGN, RESULTS_CAMPAIGN, ResultCache
from repro.service.queue import JobQueue
from repro.service.scheduler import ServiceScheduler

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cell(cell_id="a" * 16, key="micro-2k@8"):
    return StoredCell(
        cell_id=cell_id,
        key=key,
        deterministic={"winner": "P-LocR", "configs": {}},
        host={"kind": "simulated", "wall_seconds": 1.0},
        provenance={"git_sha": "deadbeef"},
    )


def _ids(store, name):
    return [cell.cell_id for cell in store.read(name).cells]


def test_miss_then_put_then_hit_accounting(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.get("a" * 16) is None
    assert cache.put(_cell()) is True
    entry = cache.get("a" * 16)
    assert entry is not None
    assert entry.key == "micro-2k@8"
    assert entry.deterministic["winner"] == "P-LocR"
    # The cell keeps the host record of the run that simulated it.
    assert entry.host == {"kind": "simulated", "wall_seconds": 1.0}


def test_put_is_idempotent_and_peek_is_silent(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.put(_cell()) is True
    # A second put of a stored id appends nothing.
    assert cache.put(_cell()) is False
    assert _ids(cache.store, PENDING_CAMPAIGN) == ["a" * 16]
    # A membership check is a peek: it writes nothing to the store.
    before = os.path.getmtime(cache.store.path(PENDING_CAMPAIGN))
    assert "a" * 16 in cache
    assert "b" * 16 not in cache
    assert os.path.getmtime(cache.store.path(PENDING_CAMPAIGN)) == before
    assert not cache.store.exists(RESULTS_CAMPAIGN)


def test_second_cache_sees_a_put_before_any_fold(tmp_path):
    ResultCache(str(tmp_path)).put(_cell())
    other = ResultCache(str(tmp_path))
    assert other.get("a" * 16) is not None
    assert not other.store.exists(RESULTS_CAMPAIGN)


def test_fold_appends_pending_sorted_and_removes_it(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_cell("b" * 16))
    assert cache.fold() == 1
    for cell_id in ("e", "c", "d", "b"):
        cache.put(_cell(cell_id * 16))
    assert _ids(cache.store, PENDING_CAMPAIGN) == ["e" * 16, "c" * 16, "d" * 16]
    assert cache.fold() == 3
    assert _ids(cache.store, RESULTS_CAMPAIGN) == [c * 16 for c in "bcde"]
    assert not cache.store.exists(PENDING_CAMPAIGN)
    # Nothing pending: a fold appends nothing, and the index still serves.
    assert cache.fold() == 0
    cache.load()
    assert all(cache.get(c * 16) is not None for c in "bcde")


def test_killed_fold_resumes_without_duplicates(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    for cell_id in ("d", "b", "c"):
        cache.put(_cell(cell_id * 16))
    real_append = CampaignStore.append_cell
    appended = []

    def append_then_die(store, name, cell):
        if name == RESULTS_CAMPAIGN and len(appended) == 1:
            raise KeyboardInterrupt
        real_append(store, name, cell)
        appended.append(cell.cell_id)

    monkeypatch.setattr(CampaignStore, "append_cell", append_then_die)
    with pytest.raises(KeyboardInterrupt):
        cache.fold()
    monkeypatch.setattr(CampaignStore, "append_cell", real_append)
    assert _ids(cache.store, RESULTS_CAMPAIGN) == ["b" * 16]

    resumed = ResultCache(str(tmp_path))
    assert all(resumed.get(c * 16) is not None for c in "bcd")
    assert resumed.fold() == 2
    assert _ids(resumed.store, RESULTS_CAMPAIGN) == [c * 16 for c in "bcd"]
    assert not resumed.store.exists(PENDING_CAMPAIGN)


def test_fresh_cell_is_stored_before_its_job_is_done(tmp_path, monkeypatch):
    root = str(tmp_path / "service")
    scheduler = ServiceScheduler(root=root)
    (job,) = scheduler.submit_suite(
        "adhoc", cells=[("micro-2k", 8)], iterations=1, configs=["P-LocR"]
    )
    real_mark_done = JobQueue.mark_done
    seen = []

    def mark_done(queue, done_job, detail=None):
        seen.append(ResultCache(root).get(done_job.cell_id))
        return real_mark_done(queue, done_job, detail)

    monkeypatch.setattr(JobQueue, "mark_done", mark_done)
    report = scheduler.run()
    assert report.executed == 1
    assert [cell.cell_id for cell in seen] == [job.cell_id]


def test_service_pass_creates_no_cache_directory(tmp_path):
    root = str(tmp_path / "service")
    scheduler = ServiceScheduler(root=root)
    scheduler.submit_suite(
        "adhoc", cells=[("micro-2k", 8)], iterations=1, configs=["P-LocR"]
    )
    assert scheduler.run().executed == 1
    assert sorted(os.listdir(root)) == ["campaigns", "queue.jsonl"]
    assert os.listdir(os.path.join(root, "campaigns")) == ["results.jsonl"]


@pytest.mark.parametrize("dim", [None, 12])
def test_default_matmul_dim_keeps_the_default_cell_id(dim):
    spec = build_workflow("miniamr+matmult", 8, matmul_dim=dim)
    assert spec.name == "miniamr+matmult@8"
    assert cell_id_for_spec(spec, ALL_CONFIGS, DEFAULT_CALIBRATION) == (
        "fd7178becdb4ac38"
    )


def test_other_matmul_dim_gets_its_own_cell_id():
    # Another kernel is another cache key: the default cell's result
    # must never be served to a --matmul-dim 24 job.
    spec = build_workflow("miniamr+matmult", 8, matmul_dim=24)
    assert spec.name == "miniamr+matmult@8/dim24"
    assert cell_id_for_spec(spec, ALL_CONFIGS, DEFAULT_CALIBRATION) != (
        "fd7178becdb4ac38"
    )


def test_only_the_service_imports_its_cache():
    """Lower layers take cell ids from repro.obs.store, not the service."""
    service_dir = os.path.join(SRC, "repro", "service")
    offenders = []
    for folder, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        if os.path.commonpath([folder, service_dir]) == service_dir:
            continue
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if "repro.service.cache" in modules:
                    offenders.append(f"{os.path.relpath(path, SRC)}:{node.lineno}")
    assert offenders == []
