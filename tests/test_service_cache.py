"""Result cache: hit/miss accounting, idempotence, and cell-id parity."""

import json

import pytest

from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.errors import StorageError
from repro.obs.store import StoredCell
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.service.cache import ResultCache, cell_id_for_spec


def _cell(cell_id="a" * 16, key="micro-2k@8"):
    return StoredCell(
        cell_id=cell_id,
        key=key,
        deterministic={"winner": "P-LocR", "configs": {}},
        host={"kind": "simulated", "wall_seconds": 1.0},
        provenance={"git_sha": "deadbeef"},
    )


def test_miss_then_put_then_hit_accounting(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.get("a" * 16) is None
    assert cache.stats.misses == 1
    assert cache.put(_cell()) is True
    assert cache.stats.stores == 1
    entry = cache.get("a" * 16)
    assert entry is not None
    assert entry.key == "micro-2k@8"
    assert entry.deterministic["winner"] == "P-LocR"
    # Host metrics are never replayed from cache.
    assert entry.host == {}
    assert cache.stats.as_record() == {
        "hits": 1,
        "misses": 1,
        "stores": 1,
        "hit_rate": 0.5,
    }


def test_put_is_idempotent_and_peek_is_silent(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.put(_cell()) is True
    assert cache.put(_cell()) is False
    assert cache.stats.stores == 1
    assert cache.peek("a" * 16) is True
    assert cache.stats.lookups == 0


def test_invalid_cell_ids_rejected(tmp_path):
    cache = ResultCache(str(tmp_path))
    for bad in ("", "../escape", ".hidden"):
        with pytest.raises(StorageError):
            cache.path(bad)


def test_clear_and_validate(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_cell("a" * 16))
    cache.put(_cell("b" * 16))
    assert cache.validate() == []
    # Corrupt one entry: claims the wrong cell id.
    with open(cache.path("b" * 16), "w", encoding="utf-8") as handle:
        json.dump({"record": "cache", "cell_id": "c" * 16}, handle)
    problems = cache.validate()
    assert any("claims cell_id" in p for p in problems)
    assert any("deterministic" in p for p in problems)
    assert cache.clear() == 2
    assert cache.list_ids() == []


def test_pre_run_cell_id_matches_post_run_cell_id(tmp_path):
    """cell_id_for_spec must predict exactly the id run_cell produces.

    This is the keystone of the cache: if the pre-run id (manifests only)
    ever drifted from the post-run id (e.g. a compute-jitter default
    mismatch), every lookup would miss and the cache would silently grow
    duplicates forever.
    """
    from repro.obs.campaign import run_cell

    spec = build_workflow("micro-2k", 8, iterations=2)
    predicted = cell_id_for_spec(spec, ALL_CONFIGS, DEFAULT_CALIBRATION)
    cell = run_cell("micro-2k", 8, iterations=2)
    assert predicted == cell.cell_id


@pytest.mark.parametrize("dim", [None, 12])
def test_default_matmul_dim_keeps_the_default_cell_id(dim):
    spec = build_workflow("miniamr+matmult", 8, matmul_dim=dim)
    assert spec.name == "miniamr+matmult@8"
    assert cell_id_for_spec(spec, ALL_CONFIGS, DEFAULT_CALIBRATION) == (
        "fd7178becdb4ac38"
    )


def test_other_matmul_dim_gets_its_own_cell_id():
    spec = build_workflow("miniamr+matmult", 8, matmul_dim=24)
    assert spec.name == "miniamr+matmult@8/dim24"
    assert cell_id_for_spec(spec, ALL_CONFIGS, DEFAULT_CALIBRATION) != (
        "fd7178becdb4ac38"
    )
