"""Workflow feature extraction for scheduling decisions.

The paper characterizes workflows along the axes of Figure 3 — simulation
I/O index, analytics I/O index, object size, and concurrency — plus the
derived notions §VIII reasons with: the *effective* concurrency PMEM
experiences (software overhead discounts raw rank counts) and whether the
workflow *constrains the bandwidth*.  :func:`extract_features` computes all
of them statically from the workflow spec via the analytic standalone
profiles (no simulation run required — matching the paper's note that
concurrency is "statically determined via parameters in workflow launch
scripts without actually requiring a run").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.pmem.bandwidth import access_efficiency
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.units import MiB
from repro.workflow.iteration import IterationProfile, component_iteration_profile
from repro.workflow.spec import WorkflowSpec


class ConcurrencyClass(enum.Enum):
    """Paper's low/medium/high buckets (8 / 16 / 24 ranks, §IV-B)."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class SizeClass(enum.Enum):
    """Small (KB-scale) vs large (tens-of-MB-scale) objects."""

    SMALL = "small"
    LARGE = "large"


class IntensityClass(enum.Enum):
    """Nil / low / high intensity buckets used by Table II's columns."""

    NIL = "nil"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


#: Ranks <= LOW_MAX are "low" concurrency, <= MEDIUM_MAX "medium", else "high".
CONCURRENCY_LOW_MAX = 8
CONCURRENCY_MEDIUM_MAX = 16

#: Objects below this size are "small" (the paper's small objects are
#: 2 KB / 4.5 KB; its large ones 64 MB / 229 MB).
SMALL_OBJECT_MAX_BYTES = 1 * MiB

#: Aggregate standalone throughput above this fraction of the device's
#: peak (size-efficiency-adjusted) capacity marks the component as
#: bandwidth-bound — the §VI-A criterion separating miniAMR at 24 ranks
#: (saturating) from the 2K microbenchmark (software-bound).
BANDWIDTH_BOUND_UTILIZATION = 0.90


def classify_concurrency(ranks: int) -> ConcurrencyClass:
    """Map a rank count to the paper's concurrency bucket."""
    if ranks <= CONCURRENCY_LOW_MAX:
        return ConcurrencyClass.LOW
    if ranks <= CONCURRENCY_MEDIUM_MAX:
        return ConcurrencyClass.MEDIUM
    return ConcurrencyClass.HIGH


def classify_size(object_bytes: int) -> SizeClass:
    """Map an object size to small/large."""
    return SizeClass.SMALL if object_bytes < SMALL_OBJECT_MAX_BYTES else SizeClass.LARGE


def classify_compute(compute_seconds: float, io_seconds: float) -> IntensityClass:
    """Compute-phase intensity relative to the component's own I/O phase."""
    if compute_seconds <= 0.0:
        return IntensityClass.NIL
    if compute_seconds >= io_seconds:
        return IntensityClass.HIGH
    return IntensityClass.LOW


def classify_io(io_index: float) -> IntensityClass:
    """I/O intensity from the standalone I/O index."""
    if io_index >= 0.5:
        return IntensityClass.HIGH
    if io_index >= 0.20:
        return IntensityClass.MEDIUM
    return IntensityClass.LOW


@dataclass(frozen=True)
class WorkflowFeatures:
    """Everything the static recommenders key on.

    ``sim_profile`` / ``analytics_profile`` are the standalone node-local
    iteration profiles; ``*_remote_profile`` the same component profiled
    against remote PMEM (used by the cost-model recommender to price the
    placement decision).
    """

    workflow_name: str
    ranks: int
    iterations: int
    object_bytes: int
    concurrency: ConcurrencyClass
    object_size: SizeClass
    sim_profile: IterationProfile
    analytics_profile: IterationProfile
    sim_remote_profile: IterationProfile
    analytics_remote_profile: IterationProfile
    write_utilization: float
    read_utilization: float

    # -- derived classifications ---------------------------------------
    @property
    def sim_io_index(self) -> float:
        return self.sim_profile.io_index

    @property
    def analytics_io_index(self) -> float:
        return self.analytics_profile.io_index

    @property
    def sim_compute_class(self) -> IntensityClass:
        return classify_compute(
            self.sim_profile.compute_seconds, self.sim_profile.io_seconds
        )

    @property
    def analytics_compute_class(self) -> IntensityClass:
        return classify_compute(
            self.analytics_profile.compute_seconds,
            self.analytics_profile.io_seconds,
        )

    @property
    def sim_write_class(self) -> IntensityClass:
        """Table II's "Sim Write" column: I/O intensity of the simulation."""
        return classify_io(self.sim_io_index)

    @property
    def analytics_read_class(self) -> IntensityClass:
        """Table II's "Analytics Read" column."""
        return classify_io(self.analytics_io_index)

    @property
    def write_bandwidth_bound(self) -> bool:
        """Does the simulation's I/O phase saturate the write capacity?"""
        return self.write_utilization >= BANDWIDTH_BOUND_UTILIZATION

    @property
    def read_bandwidth_bound(self) -> bool:
        return self.read_utilization >= BANDWIDTH_BOUND_UTILIZATION

    @property
    def effective_io_concurrency(self) -> float:
        """Combined duty-weighted device concurrency during I/O bursts."""
        return (
            self.sim_profile.effective_concurrency
            + self.analytics_profile.effective_concurrency
        )


def extract_features(
    spec: WorkflowSpec, cal: OptaneCalibration = DEFAULT_CALIBRATION
) -> WorkflowFeatures:
    """Compute :class:`WorkflowFeatures` for *spec* (static, no simulation)."""
    writer = spec.writer
    reader = spec.reader
    sim_local = component_iteration_profile(writer, cal, spec.stack_name)
    ana_local = component_iteration_profile(reader, cal, spec.stack_name)
    sim_remote = component_iteration_profile(writer, cal, spec.stack_name, remote=True)
    ana_remote = component_iteration_profile(reader, cal, spec.stack_name, remote=True)

    # Utilization: aggregate standalone throughput vs the device's *peak*
    # capacity (size-efficiency-adjusted).  Measuring against the peak (not
    # the concurrency-shared capacity) is what makes the metric
    # discriminating: software-bound workflows leave peak headroom unused.
    from repro.storage import stack_by_name

    stack = stack_by_name(spec.stack_name)
    op_bytes = float(spec.snapshot.object_bytes)
    capacity_w = cal.local_write_peak * access_efficiency(
        cal, "write", stack.device_access_bytes("write", op_bytes), spec.ranks
    )
    write_utilization = (
        spec.ranks * sim_local.rate_bytes_per_s / capacity_w if capacity_w > 0 else 0.0
    )
    capacity_r = cal.local_read_peak * access_efficiency(
        cal, "read", stack.device_access_bytes("read", op_bytes), spec.ranks
    )
    read_utilization = (
        spec.ranks * ana_local.rate_bytes_per_s / capacity_r if capacity_r > 0 else 0.0
    )

    return WorkflowFeatures(
        workflow_name=spec.name,
        ranks=spec.ranks,
        iterations=spec.iterations,
        object_bytes=spec.snapshot.object_bytes,
        concurrency=classify_concurrency(spec.ranks),
        object_size=classify_size(spec.snapshot.object_bytes),
        sim_profile=sim_local,
        analytics_profile=ana_local,
        sim_remote_profile=sim_remote,
        analytics_remote_profile=ana_remote,
        write_utilization=write_utilization,
        read_utilization=read_utilization,
    )
