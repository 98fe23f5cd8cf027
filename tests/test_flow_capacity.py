"""The solver's capacity invariant over the paper workflows.

On every solve of the six workflow families at 8 ranks, under all four
configurations, no Optane device hands its readers or writers more than
its curves allow, and no UPI link more than its bandwidth, within
:func:`tests.flow_capacity.capacity_epsilon`.
"""

from repro.apps.suite import workflow_suite
from repro.core.configs import ALL_CONFIGS
from repro.pmem.device import OptaneDeviceResource
from repro.workflow.runner import run_workflow
from tests.flow_capacity import checking_capacity

SUITE_AT_8 = workflow_suite(ranks=(8,))


def _sweep():
    with checking_capacity() as violations:
        for entry in SUITE_AT_8:
            for config in ALL_CONFIGS:
                run_workflow(entry.spec, config)
    return violations


def test_paper_workflows_stay_within_device_totals():
    assert len(SUITE_AT_8) == 6
    assert _sweep() == []


def test_device_handing_out_one_percent_extra_is_caught(monkeypatch):
    share = OptaneDeviceResource.share

    def inflated(self, load, flow):
        rate = share(self, load, flow)
        return rate * 1.01 if self.name == "pmem[1]" else rate

    monkeypatch.setattr(OptaneDeviceResource, "share", inflated)
    violations = _sweep()
    assert violations
    assert all(problem.startswith("pmem[1] ") for problem in violations)

