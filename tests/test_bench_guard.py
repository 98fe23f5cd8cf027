"""``tools/bench_guard.py compare``: every benchmark run must be guarded."""

import importlib.util
import json
import os

import pytest

_GUARD_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "bench_guard.py",
)


@pytest.fixture(scope="module")
def bench_guard():
    spec = importlib.util.spec_from_file_location("bench_guard", _GUARD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _export(tmp_path, names, iterations=720.0, bb_nodes=91):
    raw = {
        "benchmarks": [
            {
                "name": name,
                "stats": {"median": 0.02},
                "extra_info": {
                    "solver_iterations": iterations,
                    "bb_nodes": bb_nodes,
                },
            }
            for name in names
        ]
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _compare(bench_guard, tmp_path, baseline_names, current_names, **kw):
    baseline = tmp_path / "baseline.json"
    bench_guard.main(
        ["record", _export(tmp_path, baseline_names), "--out", str(baseline)]
    )
    return bench_guard.main(
        ["compare", _export(tmp_path, current_names, **kw), "--baseline", str(baseline)]
    )


def test_matching_run_passes(bench_guard, tmp_path):
    assert _compare(bench_guard, tmp_path, ["a", "b"], ["a", "b"]) == 0


def test_benchmark_missing_from_baseline_fails(bench_guard, tmp_path, capsys):
    assert _compare(bench_guard, tmp_path, ["a"], ["a", "b"]) == 1
    assert "b: not in the baseline" in capsys.readouterr().err


def test_benchmark_missing_from_run_fails(bench_guard, tmp_path):
    assert _compare(bench_guard, tmp_path, ["a", "b"], ["a"]) == 1


def test_counter_drift_fails(bench_guard, tmp_path):
    assert _compare(bench_guard, tmp_path, ["a"], ["a"], iterations=721.0) == 1


def test_bb_nodes_drift_fails(bench_guard, tmp_path, capsys):
    # The optimizer's explored-node count is a work counter: one node more
    # means the branch-and-bound search changed.
    assert _compare(bench_guard, tmp_path, ["a"], ["a"], bb_nodes=92) == 1
    assert "a: bb_nodes drifted 91.0 -> 92.0" in capsys.readouterr().err
