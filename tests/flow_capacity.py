"""Test-only capacity invariant for the flow solver.

A solver-independent check (the max-flow view of a shared resource): the
rates the fixed point hands out on one resource must fit inside what that
resource can deliver under the load the solver ended with.

* A resource with the default processor-sharing :meth:`share` delivers at
  most ``capacity(load)`` across every flow on it.
* An Optane device delivers at most its *local* read total to its readers
  and its local write total to its writers.  The totals are rebuilt here
  from the :mod:`repro.pmem.bandwidth` curves rather than read back through
  :meth:`~repro.pmem.device.OptaneDeviceResource.share`, so a device that
  hands out more than its curves allow is caught.  Remote flows only ever
  get less: every remote factor is at most 1.

Resources that override :meth:`share` any other way have no known total
and are skipped.  :func:`checking_capacity` wraps the module-global
:func:`repro.sim.flow.solve_flow_set` — the one every
:class:`~repro.sim.flow.FlowNetwork` solve goes through — so the check runs
on every solve of a whole simulation while the solver itself stays
untouched.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List

import repro.sim.flow as flow_module
from repro.pmem.bandwidth import (
    access_efficiency,
    mix_read_penalty,
    mix_write_penalty,
    read_bandwidth_total,
    write_bandwidth_total,
)
from repro.pmem.device import OptaneDeviceResource
from repro.sim.flow import (
    DUTY_DAMPING,
    RATE_TOLERANCE,
    CapacityResource,
    ResourceLoad,
    SolveResult,
)

#: Relative slack on the invariant.  The solver stops once no rate moved by
#: more than ``RATE_TOLERANCE`` in an iteration, but the loads it stops on
#: were built from duties that still lag their undamped targets: summed
#: over a resource, the achieved rates exceed the total by exactly the
#: next duty step over ``DUTY_DAMPING``.  For a device-bound flow that is
#: ``RATE_TOLERANCE / DUTY_DAMPING``; software-bound flows move their duty
#: more than their rate, which the ``(1 - DUTY_DAMPING) ** -3`` allowance
#: (15.6x) covers.  The allowance is not derived: it is the smallest power
#: of the damped step's contraction above the worst case measured on the
#: paper workflows (12.2x, write, miniamr+matmult@8 under P-LocW).
CAPACITY_EPSILON = RATE_TOLERANCE / (DUTY_DAMPING * (1.0 - DUTY_DAMPING) ** 3)


def optane_totals(
    device: OptaneDeviceResource, load: ResourceLoad
) -> Dict[str, float]:
    """The device's local read and write totals under *load*."""
    cal = device.cal
    raw_readers = load.raw_read_local + load.raw_read_remote
    raw_writers = load.raw_write_local + load.raw_write_remote
    read = (
        read_bandwidth_total(cal, max(1.0, load.n_reads))
        * mix_read_penalty(cal, float(raw_writers))
        * access_efficiency(cal, "read", load.read_op_bytes, raw_readers)
    )
    w = cal.poll_interference_weight
    readers_remote = load.raw_read_remote + w * device._pollers_remote
    readers = load.raw_read_local + w * device._pollers_local + readers_remote
    write = (
        write_bandwidth_total(cal, max(1.0, load.n_writes))
        * mix_write_penalty(
            cal, readers, readers_remote / readers if readers > 0 else 0.0
        )
        * access_efficiency(cal, "write", load.write_op_bytes, raw_writers)
    )
    return {"read": read, "write": write}


def capacity_violations(
    result: SolveResult, epsilon: float = CAPACITY_EPSILON
) -> List[str]:
    """Every (resource, kind) whose achieved rates exceed its total."""
    problems: List[str] = []
    for resource, load in result.loads.items():
        if isinstance(resource, OptaneDeviceResource):
            limits = optane_totals(resource, load)
        elif type(resource).share is CapacityResource.share:
            limits = {"any": resource.capacity(load)}
        else:
            continue
        for kind, limit in limits.items():
            achieved = sum(
                rate
                for flow, rate in result.rates.items()
                if resource in flow.resources and kind in ("any", flow.kind)
            )
            if achieved > limit * (1.0 + epsilon):
                problems.append(
                    f"{resource.name} {kind}: achieved {achieved!r} > "
                    f"total {limit!r} (ratio {achieved / limit:.6f}, "
                    f"epsilon {epsilon:.2e})"
                )
    return problems


@contextlib.contextmanager
def checking_capacity() -> Iterator[List[str]]:
    """Check every solve inside the block; yields the violations found.

    Violations are collected rather than raised inside the solve, so one
    bad solve does not abort the simulation that is being checked.
    """
    original = flow_module.solve_flow_set
    found: List[str] = []

    def checked(flows, solver=None, memo=None):
        result = original(flows, solver=solver, memo=memo)
        found.extend(capacity_violations(result))
        return result

    flow_module.solve_flow_set = checked
    try:
        yield found
    finally:
        flow_module.solve_flow_set = original
