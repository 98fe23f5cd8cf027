"""miniAMR: adaptive-mesh-refinement stencil proxy app (§IV-B).

miniAMR applies a seven-point stencil over a block-decomposed unit cube.
As a workflow writer it represents applications whose I/O consists of
*many relatively small objects*: the paper streams snapshots of 4.5 KB
mesh-block objects (528 K objects per snapshot at 16 ranks), with a short
stencil compute phase — a high simulation I/O index.
"""

from __future__ import annotations

from repro.storage.objects import SnapshotSpec
from repro.workflow.kernels import ComputeKernel, NullKernel, StencilKernel
from repro.workflow.spec import WorkflowSpec

#: Mesh-block object size (the paper quotes 4.5 KB miniAMR objects, §VI-A).
MINIAMR_OBJECT_BYTES = 4608  # 4.5 KiB

#: Blocks (objects) per rank per iteration.  At 16 ranks this yields the
#: paper's 528 K objects per snapshot (33 000 * 16 = 528 000).
MINIAMR_OBJECTS_PER_RANK = 33_000

#: Cells per mesh block for the stencil kernel (a 4.5 KB block of doubles
#: holds 576 cells).
MINIAMR_CELLS_PER_BLOCK = 576

#: Iterations per run.
DEFAULT_ITERATIONS = 10


def miniamr_simulation_kernel(
    blocks: int = MINIAMR_OBJECTS_PER_RANK,
    cells_per_block: int = MINIAMR_CELLS_PER_BLOCK,
) -> ComputeKernel:
    """The per-rank seven-point stencil sweep over all local blocks."""
    return StencilKernel(
        blocks=blocks,
        cells_per_block=cells_per_block,
        flops_per_cell=8.0,  # 7 neighbours + scale
        sweeps=1,
    )


def miniamr_workflow(
    analytics: ComputeKernel = None,
    ranks: int = 8,
    iterations: int = DEFAULT_ITERATIONS,
    stack_name: str = "nvstream",
    label: str = "",
) -> WorkflowSpec:
    """A miniAMR + analytics workflow at the given concurrency."""
    if analytics is None:
        analytics = NullKernel()
    suffix = label or ("readonly" if analytics.is_null else "matmult")
    return WorkflowSpec(
        name=f"miniamr+{suffix}@{ranks}",
        ranks=ranks,
        iterations=iterations,
        snapshot=SnapshotSpec(
            object_bytes=MINIAMR_OBJECT_BYTES,
            objects_per_snapshot=MINIAMR_OBJECTS_PER_RANK,
        ),
        sim_compute=miniamr_simulation_kernel(),
        analytics_compute=analytics,
        stack_name=stack_name,
    )
