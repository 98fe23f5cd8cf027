"""A finished simulated run leaves no reference cycles.

Every flow, completion timer, process, engine, flow network and result of
a run is freed by reference counting as soon as the caller drops it, so
the cyclic garbage collector never has to find it.  With collection
disabled, a ``gc.collect()`` after each run must find nothing; on failure
the message lists the types of the objects it found (``gc.DEBUG_SAVEALL``
keeps them for the census).
"""

import gc
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.apps.suite import FAMILIES, build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.obs.campaign import run_spec_cell
from repro.obs.capture import observe_workflow
from repro.workflow.runner import run_workflow


@contextmanager
def no_cyclic_garbage(label):
    """Fail if the body leaves objects only the cyclic collector frees."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
        found = gc.collect()
        census = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert found == 0, (
        f"{label} left {found} object(s) in reference cycles: "
        f"{census.most_common(15)}"
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_runs_free_by_reference_counting(family):
    spec = build_workflow(family, 8, iterations=2)
    with no_cyclic_garbage(f"{family} run_workflow"):
        for config in ALL_CONFIGS:
            result = run_workflow(spec, config)
            del result
    with no_cyclic_garbage(f"{family} observe_workflow"):
        for config in ALL_CONFIGS:
            observation = observe_workflow(spec, config)
            del observation
    with no_cyclic_garbage(f"{family} run_spec_cell"):
        cell = run_spec_cell(spec)
        del cell
