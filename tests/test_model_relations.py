"""Relations the model promises whatever its calibration.

*Socket mirror*: the paper testbed's two sockets are identical, so
swapping the writer's and the reader's socket must give the same run.
Makespans are compared with ``==``: the simulator is deterministic and
nothing in it should depend on a socket's index.
"""

import pytest

from repro.apps.suite import FAMILIES, build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.workflow.runner import run_workflow


@pytest.mark.parametrize("family", FAMILIES)
def test_socket_mirror_keeps_every_makespan(family):
    spec = build_workflow(family, 8)
    for config in ALL_CONFIGS:
        as_placed = run_workflow(spec, config)
        mirrored = run_workflow(spec, config, writer_socket=1, reader_socket=0)
        assert mirrored.makespan == as_placed.makespan, config.label
